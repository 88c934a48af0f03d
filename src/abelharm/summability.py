"""Abel and Gauss means and limit extraction along a fixed scale schedule.

A damped mean integral h(x) K_t(x) dx exists for any bounded h because the
kernel supplies the integrability; sending the scale t to zero recovers
the integral of h whenever that converges.  This module computes the means
on a lattice on the line (or by radial quadrature in dimensions 2 and 3)
and estimates the limit along the decreasing scales :data:`SCALES`.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from .kernels import _abel_exponent, _gauss_exponent, abel_kernel
from .sampled import (
    Grid,
    SampledFunction,
    _check_scale,
    _exact_sum,
    _nonzero_span,
    radial_integrate,
)

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
# np.exp gives +0.0 at and below this exponent: exp(-746) ~ 1.3e-324 is
# below 2**-1075, half the least subnormal, so the means never compute it
_EXP_FLOOR = -746.0


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


def _window(exponent, r: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    """The index range [a, b) of the span [lo, hi) where exponent(r) >= _EXP_FLOOR.

    The radii ``r`` of a lattice fall to the point nearest the origin,
    index r.size // 2, and rise after it, and ``exponent`` is
    non-increasing in the radius, so the exponents rise up to that point,
    clamped into the span, and fall after it.  Each edge costs one call
    when the span's end is kept, else a bisection; no mask is built.
    """
    if lo == hi:
        return lo, hi
    top = min(max(r.size // 2, lo), hi - 1)

    def kept(x):
        return exponent(x) >= _EXP_FLOOR

    a = lo if kept(r[lo]) else bisect.bisect_left(r, True, lo, top, key=kept)
    b = hi if kept(r[hi - 1]) else bisect.bisect_left(r, True, top, hi, key=lambda x: not kept(x))
    return a, b


def _span_sum(part: np.ndarray, products: np.ndarray, a: int, b: int) -> float:
    """Exact sum over the lattice of part times weights that are +0.0 outside [a, b).

    ``products`` holds the products on [a, b).  Outside it each product is
    part * 0.0, a zero of the sample's sign, and zeros change an exact sum
    only when it is zero: then they are summed with the products, so the
    sign of a sum of zeros is decided as the full-length sum would decide
    it.
    """
    total = _exact_sum(products)
    if total:
        return total
    return _exact_sum(np.concatenate((part[:a] * 0.0, products, part[b:] * 0.0)))


def _weighted_mean(h: SampledFunction, exponent) -> complex:
    """spacing * sum_j h_j exp(exponent(|x_j|)), exact and correctly rounded.

    Any bounded h is acceptable here: the kernel factor supplies the
    integrability that plain quadrature would have to assume.
    ``exponent`` maps radii to exponents, a fresh array for an array of
    radii, each at most 0 and none NaN, and is non-increasing in the
    radius.  The sums are exact, so independent
    of summation order, and zero addends do not change them.  Only the
    window where the samples are nonzero and the exponent is at least
    :data:`_EXP_FLOOR` is weighted, multiplied and summed: outside it a
    product is a zero sample or a weight that underflows to +0.0, and the
    result has the bits of the full-length sum.  The subnormal weights
    above the floor stay, since they can decide a rounding.  The
    nonzero span is found once per sample array and kept with it, not
    once per mean.  Real samples have no imaginary part; the sum of its
    zeros would be +0.0.
    """
    vals = h.values
    lo, hi = h._derived("span", lambda: _nonzero_span(vals))
    r = _radii(h.grid)
    a, b = _window(exponent, r, lo, hi)
    weights = exponent(r[a:b])
    np.exp(weights, out=weights)
    im = 0.0
    if np.iscomplexobj(vals):
        im = _span_sum(vals.imag, vals.imag[a:b] * weights, a, b)
    # the last use of the weights: the real products overwrite them
    weights *= vals.real[a:b]
    re = _span_sum(vals.real, weights, a, b)
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
