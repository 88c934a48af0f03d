"""Lattice harmonic analysis on the line and in low dimensions.

The package samples rapidly decaying functions on uniform grids, moves them
through phase-corrected discrete Fourier transforms, regularizes divergent
inversions with exponential and Gaussian damping, splits spectra into
half-line parts that extend holomorphically off the real axis, and certifies
exponential growth bounds for band-limited functions.  A command line runner
(``abelharm run``) recomputes every headline identity against closed forms
and writes CSV reports.
"""

__version__ = "0.1.0"

from .sampled import (
    Grid,
    SampledFunction,
    convolve,
    integrate,
    make_grid,
    radial_integrate,
    sample_function,
)
from .kernels import (
    KernelSpec,
    QuadratureBudgetError,
    abel_from_gaussians,
    abel_kernel,
    half_kernel,
    half_kernel_ft,
    poisson_kernel,
    sample_kernel,
)
from .spectral import (
    Spectrum,
    SupportSpec,
    abel_regularized_inverse,
    forward_ft,
    inverse_ft,
    lattice_sum,
    project_spectrum,
    sample_spectrum,
)
from .summability import (
    SCALES,
    SummabilityReport,
    abel_mean,
    abel_mean_radial,
    gauss_mean,
    summability_verdict,
)
from .halfplane import (
    cauchy_represent,
    cr_residual,
    evaluate_field,
    evaluate_lower,
    evaluate_upper,
    hardy_split,
    poisson_extend,
)
from .growth import (
    check_pl_bound,
    envelope_bound,
    estimate_type,
    evaluate_entire,
    measure_real_bound,
)

__all__ = [
    "Grid",
    "SampledFunction",
    "convolve",
    "integrate",
    "make_grid",
    "radial_integrate",
    "sample_function",
    "KernelSpec",
    "QuadratureBudgetError",
    "abel_from_gaussians",
    "abel_kernel",
    "half_kernel",
    "half_kernel_ft",
    "poisson_kernel",
    "sample_kernel",
    "Spectrum",
    "SupportSpec",
    "abel_regularized_inverse",
    "forward_ft",
    "inverse_ft",
    "lattice_sum",
    "project_spectrum",
    "sample_spectrum",
    "SCALES",
    "SummabilityReport",
    "abel_mean",
    "abel_mean_radial",
    "gauss_mean",
    "summability_verdict",
    "cauchy_represent",
    "cr_residual",
    "evaluate_field",
    "evaluate_lower",
    "evaluate_upper",
    "hardy_split",
    "poisson_extend",
    "check_pl_bound",
    "envelope_bound",
    "estimate_type",
    "evaluate_entire",
    "measure_real_bound",
    "__version__",
]
