"""Closed-form kernels: Abel, Poisson, and the half-line pair.

``x`` arguments are scalars or arrays of points on the line.  The radial
Poisson kernel also takes a dimension n in {1, 2, 3}, for the radial
checks in R^n.  There is no Gaussian kernel family: Gaussian damping is
:func:`abelharm.summability.gauss_mean`, and the Gaussians that rebuild
the Abel kernel live inside :func:`abel_from_gaussians`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .sampled import Grid, SampledFunction, _adopt, _check_scale, _finite_points

__all__ = [
    "KernelSpec",
    "QuadratureBudgetError",
    "abel_kernel",
    "poisson_kernel",
    "half_kernel",
    "half_kernel_ft",
    "abel_from_gaussians",
    "sample_kernel",
]

_FAMILIES = ("abel", "poisson", "abel_plus", "abel_minus")

# c_n = Gamma((n+1)/2) * pi**(-(n+1)/2).  Only Gamma(1), Gamma(3/2) and
# Gamma(2) ever occur, so the three values are hard-coded instead of
# shipping general special-function machinery.
_POISSON_CONSTANT = {
    1: 1.0 / math.pi,            # Gamma(1) = 1
    2: 1.0 / (2.0 * math.pi),    # Gamma(3/2) = sqrt(pi)/2
    3: 1.0 / math.pi ** 2,       # Gamma(2) = 1
}


# the midpoint nodes of abel_from_gaussians and its truncation point u_max
_GAUSS_NODES = 4096
_GAUSS_U_MAX = 50.0


class QuadratureBudgetError(RuntimeError):
    """Raised when a quadrature cannot meet its accuracy budget."""


@dataclass(frozen=True)
class KernelSpec:
    """Names one kernel family at one scale on the line.

    ``t`` is the family's scale; ``n`` is the dimension and must be 1.
    """

    family: str
    t: float
    n: int = 1

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        _check_scale(self.t)
        if self.n != 1:
            raise ValueError(f"dimension must be 1, got {self.n}")


def _abel_exponent(t: float, r):
    """-2 pi t r at radii r >= 0, never NaN at an accepted scale.

    Where 2 pi t overflows, t * r is formed first, so that r = 0 keeps its
    exponent 0 instead of the NaN of inf * 0.  An exponent that overflows
    is -inf, a weight that underflows to 0, and raises no warning.
    """
    with np.errstate(over="ignore"):
        c = -2.0 * math.pi * t
        if math.isinf(c):
            return -2.0 * math.pi * (t * r)
        return c * r


def _gauss_exponent(s: float, r):
    """-pi s^2 r^2 at radii r >= 0, never NaN at an accepted scale.

    Where pi s^2 overflows, s * r is formed first, as in
    :func:`_abel_exponent`.
    """
    with np.errstate(over="ignore"):
        c = -math.pi * (s * s)
        if math.isinf(c):
            sr = s * r
            return -math.pi * (sr * sr)
        return c * r * r


def abel_kernel(t: float, x):
    """exp(-2 pi t |x|), the exponential damping factor at scale t."""
    _check_scale(t)
    return np.exp(_abel_exponent(t, np.abs(np.asarray(x, dtype=float))))


def poisson_kernel(n: int, t: float, r):
    """P_t at distance r: c_n * t / (r^2 + t^2)^((n+1)/2).

    The kernel is radial, so ``r`` is a distance; on the line a signed
    coordinate works too, since only r^2 enters.  Scales like
    P_t(r) = t**-n * P_1(r/t) and integrates to 1 over R^n.

    The peak's denominator t^(n+1) must be a normal float: a scale that
    underflows it (t = 1e-200 in dimension 1, whose finite peak c_1 / t
    would come out inf) or overflows it raises ValueError.  Where the
    denominator (r^2 + t^2)^((n+1)/2) overflows, r and t are first scaled
    by m = max(t, |r|), as ``math.hypot`` does, so that the value is the
    rounded one, such as 3.18e-171 at t = 1e150, r = 1e160, and not 0.
    P_t is also the Fourier transform of the Abel kernel exp(-2 pi t |x|).
    """
    _check_scale(t)
    if n not in _POISSON_CONSTANT:
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    c = _POISSON_CONSTANT[n]
    power = (n + 1) / 2.0
    with np.errstate(over="ignore"):
        peak_denominator = np.float64(t * t) ** power
    if not sys.float_info.min <= peak_denominator < math.inf:
        raise ValueError(f"scale {t} is out of range for the Poisson kernel in "
                         f"dimension {n}: t**{n + 1} is not a normal float")
    rv = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        out = c * t / (rv * rv + t * t) ** power
        # a denominator that overflows leaves a quotient of 0: one pass
        # over the quotients, with no mask array, finds whether any is 0
        if np.fmin.reduce(out, axis=None, initial=math.inf) > 0.0:
            return out
        # an infinite r already has its limit 0
        huge = np.isinf((rv * rv + t * t) ** power) & np.isfinite(rv)
    # c (t/m) / m^n / ((r/m)^2 + (t/m)^2)^power, dividing by m once per
    # power so that no intermediate overflows
    out = np.asarray(out)
    m = np.maximum(np.abs(rv[huge]), t)
    scaled = c * (t / m)
    for _ in range(n):
        scaled = scaled / m
    out[huge] = scaled / ((rv[huge] / m) ** 2 + (t / m) ** 2) ** power
    return out[()]


def half_kernel(sign: str, t: float, x):
    """One-sided Abel kernel on the real line.

    ``sign`` "+" keeps exp(-2 pi t x) on x >= 0 and is zero below;
    "-" is the complement.  The point x = 0 belongs to the "+" side, so
    the two pieces partition the Abel kernel pointwise; at NaN both sides
    are NaN, as the Abel kernel is.
    """
    _check_scale(t)
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    xv = np.asarray(x, dtype=float)
    full = np.exp(_abel_exponent(t, np.abs(xv)))
    if sign == "+":
        return np.where(xv < 0, 0.0, full)
    return np.where(xv >= 0, 0.0, full)


def half_kernel_ft(sign: str, t: float, xi):
    """Fourier transform of the one-sided Abel kernel.

    The "+" side transforms to 1/(2 pi (t + i xi)) and the "-" side to its
    complex conjugate; the two sum to the Poisson kernel on the line.

    A scale whose peak 1/(2 pi t) overflows (t below about 9e-310)
    raises ValueError.  Where 2 pi (t +- i xi) or numpy's division by it
    overflows, at a huge scale or point, t +- i xi is scaled by 1/4
    before the division, so that the value stays finite: 1.59e-309 at
    t = 1e308, and about -1.59e-309 i at t = 1, xi = 1e308 on the "+" side.
    """
    _check_scale(t)
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    c = 2.0 * math.pi * t
    if not 1.0 / c < math.inf:
        raise ValueError(f"scale {t} is out of range for the half-line kernel "
                         f"transform: its peak 1/(2 pi t) overflows")
    xiv = np.asarray(xi, dtype=float)
    # the limits at +-inf (0) and NaN (NaN) are set at the end, so that
    # the arithmetic sees finite points only
    xi_finite = np.where(np.isfinite(xiv), xiv, 0.0)
    z = np.asarray(t + 1j * xi_finite if sign == "+" else t - 1j * xi_finite)
    with np.errstate(over="ignore"):
        w = np.asarray(2.0 * math.pi * z)
    # numpy's division by w forms w.real + w.imag * (w.imag / w.real),
    # or its swap, which overflows once the larger part reaches 2**1023
    huge = np.maximum(np.abs(w.real), np.abs(w.imag)) >= 2.0 ** 1023
    w[huge] = 1.0
    out = np.divide(1.0, w, out=w)
    out[huge] = (0.125 / math.pi) / (0.25 * z[huge])
    out[np.isinf(xiv)] = 0.0
    out[np.isnan(xiv)] = complex(math.nan, math.nan)
    return out[()]


def abel_from_gaussians(t: float, x):
    """Abel kernel reconstructed as a weighted average of Gaussians.

    Evaluates integral_0^inf exp(-u)/sqrt(pi u) * exp(-pi^2 t^2 |x|^2 / u) du,
    whose weight integrates to exactly 1.  The substitution u = v^2 removes
    the u**-1/2 endpoint singularity; the midpoint rule with 4096 nodes on
    [0, sqrt(50)] then converges spectrally.  The quadrature error is
    estimated as the difference against the half-resolution rule plus the
    truncated tail of the weight; if that estimate exceeds 1e-8 the call
    refuses to return a value rather than silently degrade.  A scalar x
    gives a float and an array x an array of its shape; non-finite points
    raise ValueError.

    Near the origin, but not at it, the nodes miss the turn of
    exp(-pi^2 t^2 x^2 / v^2) near v = sqrt(pi t |x|): at t = 1, x = 1e-6,
    1e-4, 1e-3 and 3e-3 raise QuadratureBudgetError, and x = 0 and 1e-2
    do not.
    """
    _check_scale(t)
    r = np.abs(_finite_points(x, float))
    # exponent scale; the integrand is exp(-v^2 - a/v^2).  An a or a/v^2
    # that overflows is a weight of 0, and where pi t overflows, t r is
    # formed first, so that r = 0 keeps a = 0 (see _abel_exponent)
    c = math.pi * t
    with np.errstate(over="ignore"):
        a = (math.pi * (t * r) if math.isinf(c) else c * r) ** 2

    def midpoint(m):
        h = math.sqrt(_GAUSS_U_MAX) / m
        v = (np.arange(m) + 0.5) * h
        # shape (points, nodes) so each evaluation point integrates its own row
        with np.errstate(over="ignore"):
            body = np.exp(-v * v - np.reshape(a, (-1, 1)) / (v * v))
        return (2.0 / math.sqrt(math.pi)) * h * body.sum(axis=1)

    fine = midpoint(_GAUSS_NODES)
    coarse = midpoint(_GAUSS_NODES // 2)
    tail = math.exp(-_GAUSS_U_MAX) / math.sqrt(math.pi * _GAUSS_U_MAX)
    estimate = float(np.max(np.abs(fine - coarse), initial=0.0)) + tail
    if not estimate <= 1e-8:
        raise QuadratureBudgetError(
            f"quadrature error estimate {estimate:.3e} exceeds the 1e-8 budget")
    return fine.reshape(np.shape(r)) if np.shape(r) else float(fine[0])


def sample_kernel(grid: Grid, spec: KernelSpec) -> SampledFunction:
    """Sample the kernel named by ``spec`` on a grid.

    Every kernel is real, so its samples are float64.
    """
    x, t = grid.axis(), spec.t
    if spec.family == "abel":
        values = abel_kernel(t, x)
    elif spec.family == "poisson":
        values = poisson_kernel(1, t, x)
    else:
        values = half_kernel("+" if spec.family == "abel_plus" else "-", t, x)
    return _adopt(SampledFunction, values, grid=grid)
