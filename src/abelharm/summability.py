"""Abel and Gauss means and limit extraction along a fixed scale schedule.

A damped mean integral h(x) K_t(x) dx exists for any bounded h because the
kernel supplies the integrability; sending the scale t to zero recovers
the integral of h whenever that converges.  This module computes the means
on a lattice on the line (or by radial quadrature in dimensions 2 and 3)
and estimates the limit along the decreasing scales :data:`SCALES`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernels import _abel_exponent, _gauss_exponent, abel_kernel
from .sampled import Grid, SampledFunction, _check_scale, _exact_sum, radial_integrate

__all__ = [
    "SCALES",
    "SummabilityReport",
    "abel_mean",
    "gauss_mean",
    "abel_mean_radial",
    "summability_verdict",
]

# The scales of every limit: 0.1 * 0.5**k, k = 0..11.  Twelve halvings
# from 0.1 reach t ~ 5e-5, deep enough that slowly converging means
# (Poisson-type tails give errors O(t log t)) settle under the
# extrapolated estimator.
SCALES = tuple(0.1 * 0.5 ** k for k in range(12))
_CONVERGENCE_TOL = 1e-3


@dataclass(frozen=True)
class SummabilityReport:
    """Means along :data:`SCALES` plus the extracted limit.

    ``converged`` is a statement about the finite schedule only (the last
    successive difference fell below the tolerance); a False value means
    "not converged within schedule", never a claim of divergence.
    """

    means: np.ndarray
    limit_estimate: complex
    converged: bool
    residual: float


def _nonzero_span(vals: np.ndarray) -> tuple[int, int]:
    """The index range [lo, hi) outside which every sample is zero.

    O(1) when both end samples are nonzero; otherwise one pass for the
    nonzero mask.  All-zero samples give the empty range (0, 0).
    """
    if vals[0] != 0 and vals[-1] != 0:
        return 0, vals.size
    nonzero = vals != 0
    lo = int(nonzero.argmax())
    if not nonzero[lo]:
        return 0, 0
    return lo, vals.size - int(nonzero[::-1].argmax())


def _span_sum(part: np.ndarray, products: np.ndarray, lo: int, hi: int) -> float:
    """Exact sum over the lattice of part times finite nonnegative weights.

    ``products`` holds the products on [lo, hi), outside which ``part`` is
    zero.  A zero times such a weight is a zero of the same sign, so the
    products outside are the samples themselves, and zeros change an
    exact sum only when it is zero: then it is summed over the whole
    lattice, where the sign of a sum of zeros is decided as the
    full-length sum would decide it.
    """
    total = _exact_sum(products)
    if total:
        return total
    return _exact_sum(np.concatenate((part[:lo], products, part[hi:])))


def _weighted_mean(h: SampledFunction, exponent) -> complex:
    """spacing * sum_j h_j exp(exponent(|x_j|)), exact and correctly rounded.

    Any bounded h is acceptable here: the kernel factor supplies the
    integrability that plain quadrature would have to assume.
    ``exponent`` maps radii to a fresh array of exponents, each at most 0
    and none NaN.  The sums are exact, so independent of summation order,
    and zero addends do not change them: only the span where the samples
    are nonzero is weighted, multiplied and summed, and the result has the
    bits of the full-length sum.  The span is found once per sample array
    and kept with it, not once per mean.  Real samples have no
    imaginary part; the sum of its zeros would be +0.0.
    """
    vals = h.values
    lo, hi = h._derived("span", lambda: _nonzero_span(vals))
    weights = exponent(_radii(h.grid)[lo:hi])
    np.exp(weights, out=weights)
    im = 0.0
    if np.iscomplexobj(vals):
        im = _span_sum(vals.imag, vals.imag[lo:hi] * weights, lo, hi)
    # the last use of the weights: the real products overwrite them
    weights *= vals.real[lo:hi]
    re = _span_sum(vals.real, weights, lo, hi)
    return h.grid.spacing * complex(re, im)


@functools.lru_cache(maxsize=4)
def _radii(grid: Grid) -> np.ndarray:
    # every mean over one grid shares these radii; read-only because the
    # cache hands the same array to every caller
    r = np.abs(grid.axis())
    r.flags.writeable = False
    return r


def abel_mean(h: SampledFunction, t: float) -> complex:
    """Exponentially damped mean of lattice samples at scale t."""
    _check_scale(t)
    return _weighted_mean(h, lambda r: _abel_exponent(t, r))


def gauss_mean(h: SampledFunction, s: float) -> complex:
    """Gaussian damped mean of lattice samples at scale s."""
    _check_scale(s)
    return _weighted_mean(h, lambda r: _gauss_exponent(s, r))


def abel_mean_radial(profile, n: int, t: float) -> float:
    """Damped mean of a radially symmetric closed-form function.

    The exp-sinh rule of ``radial_integrate`` applied to
    omega_{n-1} r^{n-1} profile(r) exp(-2 pi t r) on [0, inf); the route
    of choice in dimensions 2 and 3, where a full lattice would cost
    points**n samples for a one-number answer.  ``profile`` is called once,
    on the array of the rule's radii.  A weighted integrand value that is
    not finite raises ValueError.
    """
    _check_scale(t)
    return radial_integrate(lambda r: profile(r) * abel_kernel(t, r), n)


def _extrapolate(ts, means):
    """One-step Richardson extrapolation for a leading error term c*t.

    With m_k = L + c t_k + o(t_k), the combination
    (m_k - r m_{k-1}) / (1 - r), r = t_k / t_{k-1}, cancels the linear
    term for any step ratio.
    """
    out = []
    for k in range(1, len(means)):
        r = ts[k] / ts[k - 1]
        out.append((means[k] - r * means[k - 1]) / (1.0 - r))
    return out


def summability_verdict(h: SampledFunction, kind: str) -> SummabilityReport:
    """Means along :data:`SCALES` plus a limit estimate and convergence flag.

    The limit is estimated by one step of Richardson extrapolation against
    the leading O(t) error term, which Poisson-type means of smooth
    functions exhibit.  Means whose error is already O(t^2) lose nothing
    under the extrapolation.

    Parameters
    ----------
    h : SampledFunction
        Samples to be averaged; bounded samples suffice, since the kernel
        supplies the integrability.
    kind : {"abel", "gauss"}
        Damping family.

    Returns
    -------
    SummabilityReport
        ``converged`` is True when the last successive difference of the
        estimator sequence is at most 1e-3.
    """
    if kind == "abel":
        mean = abel_mean
    elif kind == "gauss":
        mean = gauss_mean
    else:
        raise ValueError(f"kind must be 'abel' or 'gauss', got {kind!r}")
    means = np.array([mean(h, t) for t in SCALES], dtype=complex)
    sequence = _extrapolate(SCALES, list(means))
    limit = complex(sequence[-1])
    residual = abs(sequence[-1] - sequence[-2])
    return SummabilityReport(
        means=means,
        limit_estimate=limit,
        converged=bool(residual <= _CONVERGENCE_TOL),
        residual=float(residual),
    )
