"""Uniform lattices on the line and equal-weight quadrature.

Everything downstream works on functions sampled on the half-open lattice
x_j = -R + j*spacing inside the interval [-R, R).  Each lattice point
carries the same quadrature weight spacing, which makes the rule a
periodic trapezoid rule: spectrally accurate for smooth decaying
integrands and compatible with transform-based convolution.  Dimensions 2
and 3 enter only through radial closed forms and ``radial_integrate``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "SampledFunction",
    "make_grid",
    "sample_function",
    "integrate",
    "convolve",
    "radial_integrate",
]

# Surface measure of the unit sphere S^{n-1}.  The n = 1 entry is the
# counting measure of {-1, +1}, so that
# integral over R^n = integral_0^inf _SPHERE_MEASURE[n] * r^(n-1) * f(r) dr
# holds for radial f in every supported dimension.
_SPHERE_MEASURE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


@dataclass(frozen=True)
class Grid:
    """Uniform lattice on the interval [-R, R).

    Parameters
    ----------
    n : int
        Dimension; must be 1.  Kept, like ``size``, for callers that
        spell the dimension out.
    half_width : float
        Half-width R.  The spacing 2R/points, the reciprocal half-width
        points/(4R) and the reciprocal spacing must all be finite and
        positive floats.
    points : int
        Number of lattice points (an integer, even, at least 4).

    Notes
    -----
    Lattice points are x_j = -R + j*spacing for j = 0..points-1.  The
    convention is half-open: +R itself is not a lattice point, so every
    point carries the equal weight spacing.
    """

    n: int
    half_width: float
    points: int
    # the grid this one is the reciprocal of, if it was built that way
    _dual: "Grid | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n != 1:
            raise ValueError(f"dimension must be 1, got {self.n}")
        # a float count would be truncated or fail deep inside a transform
        object.__setattr__(self, "points", operator.index(self.points))
        if not 0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be finite and positive, got {self.half_width}")
        if self.points < 4 or self.points % 2 != 0:
            raise ValueError(f"points must be even and >= 4, got {self.points}")
        # the lattice and its reciprocal (half-width points/(4R)) must both have a step
        dual = self.points / (4.0 * self.half_width)
        for what, v in (("spacing", self.spacing), ("reciprocal half_width", dual),
                        ("reciprocal spacing", 2.0 * dual / self.points)):
            if not 0 < v < math.inf:
                raise ValueError(f"{what} must be finite and positive, got {v!r}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def size(self) -> int:
        """Total number of lattice points, equal to ``points``."""
        return self.points

    def axis(self) -> np.ndarray:
        """The 1-D coordinate axis -R + j*spacing, j = 0..points-1."""
        return self._axis_range(0, self.points)

    def _axis_range(self, start: int, stop: int) -> np.ndarray:
        """``axis()[start:stop]``, bit for bit, without building the axis."""
        return -self.half_width + self.spacing * np.arange(start, stop)

    def reciprocal(self) -> "Grid":
        """Frequency grid dual to this one.

        Spacing 1/(2R) and half-width points/(4R).  The dual of the dual is
        the original grid itself: recomputed, its half-width could miss the
        last bit (``make_grid(1, 15.296875, 90)`` would come back with
        15.296875000000002), so a dual remembers the grid it came from.
        """
        if self._dual is not None:
            return self._dual
        dual = Grid(1, self.points / (4.0 * self.half_width), self.points)
        object.__setattr__(dual, "_dual", self)
        return dual


@dataclass(frozen=True)
class SampledFunction:
    """Real or complex samples of a function on a :class:`Grid`.

    ``values`` holds one sample per lattice point, in lattice order.
    Real input (float, integer or boolean) is stored as float64 and
    complex input as complex128.  The dtype, not a scan of the samples,
    tells transforms, convolutions and sums that the samples are real, so
    they carry no imaginary half; complex samples whose imaginary part is
    all zero stay complex128.  Spectra are always complex (see
    :class:`abelharm.spectral.Spectrum`).  Every sample must be finite.

    The samples are a private, read-only copy of the caller's array, so
    a later change to that array cannot bypass the checks.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self._store(np.array(self.values))

    def _store(self, vals: np.ndarray) -> None:
        vals = vals.astype(complex if np.iscomplexobj(vals) else np.float64, copy=False)
        if vals.shape != (self.grid.points,):
            raise ValueError(
                f"values must have shape ({self.grid.points},), got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("samples must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def _derived(self, key, build):
        """``build()``, computed once per ``key`` and kept as long as the samples.

        For values that depend on the samples alone, such as their
        spectrum: the samples are read-only, so a kept value cannot go
        stale.
        """
        memo = self.__dict__.setdefault("_memo", {})
        if key not in memo:
            memo[key] = build()
        return memo[key]


def _adopt(cls, values: np.ndarray, **fields):
    """``cls(values=values, **fields)`` without the copy of ``values``.

    For arrays that abelharm has just built and that nothing else holds:
    the checks run as in the constructor, and the array itself is made
    read-only and stored.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    obj._store(values)
    return obj


def _check_scale(t) -> None:
    """Reject a scale parameter outside 0 < t < inf, NaN among them."""
    if not 0 < t < math.inf:
        raise ValueError(f"scale must be finite and positive, got {t}")


def _finite_points(x, dtype) -> np.ndarray:
    """Evaluation points ``x`` as an array of ``dtype``; one that is not finite raises."""
    xs = np.asarray(x, dtype=dtype)
    if not np.all(np.isfinite(xs)):
        raise ValueError("evaluation points must be finite")
    return xs


def _lattice(values, what: str) -> np.ndarray:
    """``values`` as a finite 1-D float array; otherwise ValueError naming ``what``."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a 1-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite, got {arr[~np.isfinite(arr)].tolist()}")
    return arr


def make_grid(n: int, half_width: float, points: int) -> Grid:
    """Build a validated uniform grid on [-half_width, half_width)."""
    return Grid(n, float(half_width), points)


def sample_function(grid, func):
    """Sample a vectorized callable on the lattice.

    The callable receives the coordinate axis as a 1-D array.  Real values
    give float64 samples and complex values complex128 samples (see
    :class:`SampledFunction`).
    """
    return SampledFunction(grid, func(grid.axis()))


# An addend's bucket is its np.frexp exponent, which runs from -1073 (the
# least subnormal) to 1024, plus _EXP_BIAS; 26 more buckets hold the carry
# of the high parts, and the count is rounded up to whole carry groups of
# _GROUP buckets (see _exact_sum).
_EXP_BIAS = 1073
_GROUP = 10
_BUCKETS = -(-(_EXP_BIAS + 1024 + 1 + 26) // _GROUP) * _GROUP
_GROUP_SHIFTS = np.arange(_GROUP, dtype=np.int64)
# At most 2**24 addends per accumulation keep every bucket sum below 2**53,
# hence exact; each accumulation runs over cache-sized blocks.
_CHUNK = 1 << 24
_BLOCK = 1 << 15


def _nonzero_span(vals: np.ndarray) -> tuple[int, int]:
    """The index range [lo, hi) outside which every entry of ``vals`` is zero.

    O(1) when both end entries are nonzero; otherwise one pass for the
    nonzero mask.  No nonzero entry gives the empty range (0, 0).
    """
    n = vals.size
    if n == 0 or (vals[0] != 0 and vals[-1] != 0):
        return 0, n
    nonzero = vals != 0
    lo = int(nonzero.argmax())
    if not nonzero[lo]:
        return 0, 0
    return lo, n - int(nonzero[::-1].argmax())


def _exact_sum(x: np.ndarray) -> float:
    """Correctly rounded sum of a real float64 array, equal to ``math.fsum``.

    np.frexp writes each addend exactly as m * 2**e with 0.5 <= |m| < 1, so
    m * 2**53 is an integer.  Its high part trunc(m * 2**27), an integer
    below 2**27, and its low part, an integer below 2**26 after scaling,
    are summed per exponent with np.bincount; over at most 2**24 addends
    every high bucket stays below 2**51 and every low bucket below 2**50,
    so every bucket sum is exact.  The buckets are carried into one Python
    int in units of 2**-1126, and the final int division rounds correctly,
    half to even, as math.fsum does.  The result does not depend on the
    order of the addends, and its bits are those of
    ``math.fsum(x.tolist())`` with one difference: math.fsum raises on an
    intermediate overflow, while here a representable exact total is
    returned.  A total out of range raises OverflowError.  Non-finite
    addends go to math.fsum, which defines their result.  Zero addends
    change an exact sum only when every addend is zero, so only the span
    between the first and the last nonzero addend is summed; an array of
    zeros alone takes math.fsum's rule for the sign of their sum.

    Two things keep it fast without moving a bit, each because every
    partial sum involved is an integer below 2**53:

    - Neighbouring addends of a smooth function share an exponent, so
      each block's runs of one exponent are summed first with
      np.add.reduceat and only the run sums are bucketed.  A run lies
      inside one block of at most 2**15 addends, so a high run sum is
      below 2**42 and a low one below 2**41.
    - After the high parts are carried onto the low buckets, every bucket
      is below 2**52, so it is cast to int64 exactly, and each group of
      ten buckets v_i is merged into sum v_i * 2**i, below 2**62.  The
      Python int then takes one shift and add per nonzero group.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    lo, hi = _nonzero_span(x)
    if lo == hi:
        # only zeros: the sign of their sum is math.fsum's to decide
        return math.fsum([-0.0] if x.size and np.signbit(x).all() else [])
    x = x[lo:hi]
    total = 0
    for start in range(0, x.size, _CHUNK):
        stop = min(start + _CHUNK, x.size)
        high = np.zeros(_BUCKETS)
        low = np.zeros(_BUCKETS)
        # an inf addend leaves a NaN low part, and infs of both signs may
        # meet in a bucket: both are caught below
        with np.errstate(invalid="ignore"):
            for i in range(start, stop, _BLOCK):
                m, e = np.frexp(x[i:min(i + _BLOCK, stop)])
                m *= 2.0 ** 27
                hi = np.trunc(m)
                m -= hi
                m *= 2.0 ** 26
                first = np.empty(e.size, dtype=bool)
                first[0] = True
                np.not_equal(e[1:], e[:-1], out=first[1:])
                starts = np.flatnonzero(first)
                b = np.add(e[starts], _EXP_BIAS, dtype=np.intp)
                high += np.bincount(b, weights=np.add.reduceat(hi, starts), minlength=_BUCKETS)
                low += np.bincount(b, weights=np.add.reduceat(m, starts), minlength=_BUCKETS)
        if not (np.isfinite(high).all() and np.isfinite(low).all()):
            return math.fsum(x.tolist())
        # low[b] counts units of 2**(b - 1126) and high[b] units of
        # 2**(b - 1100); group g counts units of 2**(_GROUP * g - 1126)
        low[26:] += high[:-26]
        groups = (low.astype(np.int64).reshape(-1, _GROUP) << _GROUP_SHIFTS).sum(axis=1)
        nonzero = np.flatnonzero(groups)
        for g, v in zip(nonzero.tolist(), groups[nonzero].tolist()):
            total += v << (_GROUP * g)
    return total / (1 << (_EXP_BIAS + 53))


def integrate(f: SampledFunction) -> complex:
    """Equal-weight quadrature spacing * sum of samples.

    The real and imaginary sums are exact and correctly rounded, so they
    do not depend on the order of the samples and repeated runs give the
    same bits.
    Real samples have no imaginary sum; in its place stands the +0.0 that
    a sum of zeros gives.
    """
    vals = f.values
    im = _exact_sum(vals.imag) if np.iscomplexobj(vals) else 0.0
    return f.grid.spacing * complex(_exact_sum(vals.real), im)


def convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Quadrature approximation of the convolution f*g of real samples on the shared grid.

    Computed with zero-padded FFTs, which gives the linear (non-circular)
    discrete convolution exactly; the only approximations are the
    quadrature rule itself and the truncation to [-R, R).  The samples are padded
    from N to 3N/2 points.  The linear convolution has indices 0 .. 2N - 2
    and the returned window is N/2 .. 3N/2 - 1; the periodic transform
    wraps the indices 3N/2 .. 2N - 2 onto 0 .. N/2 - 2, all below the
    window, so the window is the linear convolution exactly.

    Both factors must be real, so three real transforms of length 3N/2
    give float64 samples; a complex factor or a different grid raises
    ValueError.
    """
    if f.grid != g.grid:
        raise ValueError("convolve requires both functions on the same grid")
    if np.iscomplexobj(f.values) or np.iscomplexobj(g.values):
        raise ValueError("convolve requires real samples")
    N = f.grid.points
    padded = 3 * N // 2
    # Linear-convolution index j + k maps to lattice point x_j + x_k + R,
    # so the centered window starts at offset N/2.
    spectrum = np.fft.rfft(f.values, n=padded) * np.fft.rfft(g.values, n=padded)
    vals = np.fft.irfft(spectrum, n=padded)[N // 2:N // 2 + N] * f.grid.spacing
    return _adopt(SampledFunction, vals, grid=f.grid)


# The exp-sinh double-exponential rule (Takahasi & Mori, Publ. RIMS 9,
# 1974) on the 769 nodes u = k/64, |u| <= 6: r = exp((pi/2) sinh u) on
# [0, inf), each weight dr/du / 64.  At |u| = 6 the exponent is about
# +-317, so every node and weight is finite, and the end weights are
# below 1e-130.
_DE_U = np.arange(-384, 385) / 64.0
_DE_S = 0.5 * math.pi * np.sinh(_DE_U)
_DE_DS = 0.5 * math.pi * np.cosh(_DE_U) / 64.0
_EXP_SINH = (np.exp(_DE_S), _DE_DS * np.exp(_DE_S))


def radial_integrate(profile, n: int) -> float:
    """Integral of a radial function over R^n by the exp-sinh rule.

    Evaluates integral_0^inf |S^(n-1)| * r**(n-1) * profile(r) dr, with
    |S^(n-1)| the measure of the unit sphere (2 on the line), where
    ``profile`` maps an array of radii to an array of values; it is
    called once, on all 769 nodes.  Used for the closed-form radial checks
    in dimensions 2 and 3, where a full lattice would be wasteful; also
    available for n = 1.

    An overflow inside ``profile`` is silent, since an algebraic tail such
    as the Poisson kernel's overflows its power to inf far out and rightly
    gives 0 there.  A weighted integrand value that is not finite raises
    ValueError.  The weighted values are summed exactly, so the result
    does not depend on their order.
    """
    if n not in _SPHERE_MEASURE:
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    r, weight = _EXP_SINH
    with np.errstate(over="ignore"):
        integrand = _SPHERE_MEASURE[n] * r ** (n - 1) * profile(r)
    terms = integrand * weight
    if not np.all(np.isfinite(terms)):
        raise ValueError("radial integrand must be finite")
    return _exact_sum(terms)
