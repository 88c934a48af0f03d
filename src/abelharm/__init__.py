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

from . import growth, halfplane, kernels, sampled, spectral, summability
from .sampled import *
from .kernels import *
from .spectral import *
from .summability import *
from .halfplane import *
from .growth import *

__all__ = [*sampled.__all__, *kernels.__all__, *spectral.__all__, *summability.__all__,
           *halfplane.__all__, *growth.__all__, "__version__"]
