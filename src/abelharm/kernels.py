"""Closed-form kernels: Abel, Gaussian, Poisson, and the half-line pair.

``x`` arguments are scalars or arrays of points on the line.  The radial
Poisson kernel and its normalizing constant also take a dimension n in
{1, 2, 3}, for the radial checks in R^n.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .sampled import Grid, SampledFunction, _adopt, _check_scale

__all__ = [
    "KernelSpec",
    "QuadratureBudgetError",
    "abel_kernel",
    "gauss_kernel",
    "poisson_constant",
    "poisson_kernel",
    "abel_ft",
    "half_kernel",
    "half_kernel_ft",
    "abel_from_gaussians",
    "kernel_value",
    "sample_kernel",
]

_FAMILIES = ("abel", "gauss", "poisson", "abel_plus", "abel_minus")

# c_n = Gamma((n+1)/2) * pi**(-(n+1)/2).  Only Gamma(1), Gamma(3/2) and
# Gamma(2) ever occur, so the three values are hard-coded instead of
# shipping general special-function machinery.
_POISSON_CONSTANT = {
    1: 1.0 / math.pi,            # Gamma(1) = 1
    2: 1.0 / (2.0 * math.pi),    # Gamma(3/2) = sqrt(pi)/2
    3: 1.0 / math.pi ** 2,       # Gamma(2) = 1
}


class QuadratureBudgetError(RuntimeError):
    """Raised when a quadrature cannot meet its accuracy budget."""


@dataclass(frozen=True)
class KernelSpec:
    """Names one kernel family at one scale on the line.

    ``t`` is the scale parameter of the family (the Gaussian family reads
    it as its width parameter s).  ``n`` is the dimension and must be 1.
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


def gauss_kernel(s: float, x):
    """exp(-pi s^2 x^2), normalized so the s = 1 kernel is transform
    self-dual and s -> 0 recovers the undamped limit."""
    _check_scale(s)
    return np.exp(_gauss_exponent(s, np.abs(np.asarray(x, dtype=float))))


def poisson_constant(n: int) -> float:
    """The normalizing constant c_n making P_t a probability density."""
    if n not in _POISSON_CONSTANT:
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    return _POISSON_CONSTANT[n]


def poisson_kernel(n: int, t: float, r):
    """P_t at distance r: c_n * t / (r^2 + t^2)^((n+1)/2).

    The kernel is radial, so ``r`` is a distance; on the line a signed
    coordinate works too, since only r^2 enters.  Scales like
    P_t(r) = t**-n * P_1(r/t) and integrates to 1 over R^n.

    The peak's denominator t^(n+1) must be a normal float: a scale that
    underflows it (t = 1e-200 in dimension 1, whose finite peak c_1 / t
    would come out inf) or overflows it raises ValueError.
    """
    _check_scale(t)
    c = poisson_constant(n)
    power = (n + 1) / 2.0
    with np.errstate(over="ignore"):
        peak_denominator = np.float64(t * t) ** power
    if not sys.float_info.min <= peak_denominator < math.inf:
        raise ValueError(f"scale {t} is out of range for the Poisson kernel in "
                         f"dimension {n}: t**{n + 1} is not a normal float")
    rv = np.asarray(r, dtype=float)
    return c * t / (rv * rv + t * t) ** power


def abel_ft(n: int, t: float, xi):
    """Fourier transform of the Abel kernel, which is the Poisson kernel.

    Identical to ``poisson_kernel(n, t, xi)``; kept as its own operation so
    the transform identity can be tested against the lattice transform.
    """
    return poisson_kernel(n, t, xi)


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
    """
    _check_scale(t)
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    xiv = np.asarray(xi, dtype=float)
    if sign == "+":
        return 1.0 / (2.0 * math.pi * (t + 1j * xiv))
    return 1.0 / (2.0 * math.pi * (t - 1j * xiv))


def abel_from_gaussians(t: float, x, u_max: float = 50.0, M: int = 4096):
    """Abel kernel reconstructed as a weighted average of Gaussians.

    Evaluates integral_0^inf exp(-u)/sqrt(pi u) * exp(-pi^2 t^2 |x|^2 / u) du,
    whose weight integrates to exactly 1.  The substitution u = v^2 removes
    the u**-1/2 endpoint singularity; the midpoint rule on [0, sqrt(u_max)]
    then converges spectrally.  The quadrature error is estimated as the
    difference against the half-resolution rule plus the truncated tail of
    the weight; if that estimate exceeds 1e-8 the call refuses to return a
    value rather than silently degrade.  Non-finite points raise
    ValueError.

    Parameters
    ----------
    t : float
        Kernel scale, positive.
    x : array_like
        Evaluation point(s) on the line.
    u_max : float
        Truncation point of the average.
    M : int
        Number of midpoint nodes (even).

    Returns
    -------
    ndarray or float
        Approximation of ``abel_kernel(t, x)``.
    """
    _check_scale(t)
    if M < 8 or M % 2 != 0:
        raise ValueError(f"M must be even and >= 8, got {M}")
    if not u_max > 1:
        raise ValueError(f"u_max must exceed 1, got {u_max}")
    r = np.abs(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(r)):
        raise ValueError("evaluation points must be finite")
    a = (math.pi * t * r) ** 2  # exponent scale; integrand is exp(-v^2 - a/v^2)

    def midpoint(m):
        h = math.sqrt(u_max) / m
        v = (np.arange(m) + 0.5) * h
        # shape (points, nodes) so each evaluation point integrates its own row
        body = np.exp(-v * v - np.atleast_1d(a)[:, None] / (v * v))
        return (2.0 / math.sqrt(math.pi)) * h * body.sum(axis=1)

    fine = midpoint(M)
    coarse = midpoint(M // 2)
    tail = math.exp(-u_max) / math.sqrt(math.pi * u_max)
    estimate = float(np.max(np.abs(fine - coarse))) + tail
    if not estimate <= 1e-8:
        raise QuadratureBudgetError(
            f"quadrature error estimate {estimate:.3e} exceeds the 1e-8 budget; "
            f"increase M or u_max"
        )
    return fine.reshape(np.shape(r)) if np.shape(r) else float(fine[0])


def kernel_value(spec: KernelSpec, x):
    """Evaluate the kernel named by ``spec`` at point(s) ``x``."""
    if spec.family == "abel":
        return abel_kernel(spec.t, x)
    if spec.family == "gauss":
        return gauss_kernel(spec.t, x)
    if spec.family == "poisson":
        return poisson_kernel(1, spec.t, x)
    if spec.family == "abel_plus":
        return half_kernel("+", spec.t, x)
    return half_kernel("-", spec.t, x)


def sample_kernel(grid: Grid, spec: KernelSpec) -> SampledFunction:
    """Sample a kernel on a grid.

    Every kernel is real, so its samples are float64.
    """
    return _adopt(SampledFunction, kernel_value(spec, grid.axis()), grid=grid)
