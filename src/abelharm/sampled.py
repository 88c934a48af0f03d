"""Uniform box lattices and equal-weight quadrature.

Everything downstream works on functions sampled on the half-open lattice
x_j = -R + j*spacing inside the box [-R, R)^n.  Each lattice point carries
the same quadrature weight spacing**n, which makes the rule a periodic
trapezoid rule: spectrally accurate for smooth decaying integrands and
compatible with transform-based convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _sci_integrate

__all__ = [
    "DECAY_TAGS",
    "SPHERE_MEASURE",
    "Grid",
    "SampledFunction",
    "make_grid",
    "sample_function",
    "integrate",
    "convolve",
    "radial_integrate",
]

# Declared decay classes.  Quadrature over the box is only reported as an
# approximation of an improper integral for the first two.
DECAY_TAGS = ("schwartz-like", "integrable", "bounded-only")

# Surface measure of the unit sphere S^{n-1}.  The n = 1 entry is the
# counting measure of {-1, +1}, so that
# integral over R^n = integral_0^inf SPHERE_MEASURE[n] * r^(n-1) * f(r) dr
# holds for radial f in every supported dimension.
SPHERE_MEASURE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


@dataclass(frozen=True)
class Grid:
    """Uniform lattice on the box [-R, R)^n.

    Parameters
    ----------
    n : int
        Dimension, one of {1, 2, 3}.
    half_width : float
        Box half-width R.
    points : int
        Number of lattice points per axis (even, at least 4).

    Notes
    -----
    Lattice points are x_j = -R + j*spacing for j = 0..points-1 on each
    axis.  The convention is half-open: +R itself is not a lattice point,
    so every point carries the equal weight spacing**n.
    """

    n: int
    half_width: float
    points: int

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        if not self.half_width > 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.points < 4 or self.points % 2 != 0:
            raise ValueError(f"points must be even and >= 4, got {self.points}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def size(self) -> int:
        """Total number of lattice points, points**n."""
        return self.points ** self.n

    def axis(self) -> np.ndarray:
        """The 1-D coordinate axis -R + j*spacing, j = 0..points-1."""
        return self._axis_range(0, self.points)

    def _axis_range(self, start: int, stop: int) -> np.ndarray:
        """``axis()[start:stop]``, bit for bit, without building the axis."""
        return -self.half_width + self.spacing * np.arange(start, stop)

    def lattice(self) -> np.ndarray:
        """All lattice points, shape (size, n), lexicographic order."""
        ax = self.axis()
        if self.n == 1:
            return ax[:, None]
        mesh = np.meshgrid(*([ax] * self.n), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def reciprocal(self) -> "Grid":
        """Frequency grid dual to this one (1-D only).

        Spacing 1/(2R) and half-width points/(4R), so the dual of the dual
        is the original grid up to the last bit of the half-width:
        ``make_grid(1, 15.296875, 90)`` comes back with half-width
        15.296875000000002.
        """
        if self.n != 1:
            raise ValueError("reciprocal grid is defined for n = 1 only")
        return Grid(1, self.points / (4.0 * self.half_width), self.points)


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples of a function on a :class:`Grid`.

    ``values`` is stored flat in lexicographic order over the lattice.
    ``decay_tag`` declares what is known about decay outside the box and
    gates whether box quadrature may be reported as an approximation of a
    convergent improper integral.  Every sample must be finite.
    """

    grid: Grid
    values: np.ndarray
    decay_tag: str = "schwartz-like"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.size,):
            raise ValueError(
                f"values must have shape ({self.grid.size},), got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("samples must be finite")
        if self.decay_tag not in DECAY_TAGS:
            raise ValueError(f"unknown decay_tag {self.decay_tag!r}")
        object.__setattr__(self, "values", vals)


def make_grid(n: int, half_width: float, points: int) -> Grid:
    """Build a validated uniform grid on [-half_width, half_width)^n."""
    return Grid(n, float(half_width), int(points))


def sample_function(grid, func, decay_tag="schwartz-like"):
    """Sample a vectorized callable on the lattice.

    For n = 1 the callable receives the coordinate axis as a 1-D array.
    For n >= 2 it receives the full lattice as an array of shape
    (size, n), one point per row.
    """
    if grid.n == 1:
        vals = np.asarray(func(grid.axis()))
    else:
        vals = np.asarray(func(grid.lattice()))
    return SampledFunction(grid, vals.astype(complex), decay_tag)


# An addend's bucket is its np.frexp exponent, which runs from -1073 (the
# least subnormal) to 1024, plus _EXP_BIAS; 26 more buckets hold the carry
# of the high parts (see _exact_sum).
_EXP_BIAS = 1073
_BUCKETS = _EXP_BIAS + 1024 + 1 + 26
# At most 2**24 addends per accumulation keep every bucket sum below 2**53,
# hence exact; each accumulation runs over cache-sized blocks.
_CHUNK = 1 << 24
_BLOCK = 1 << 15


def _exact_sum(x: np.ndarray) -> float:
    """Correctly rounded sum of a real float64 array, equal to ``math.fsum``.

    np.frexp writes each addend exactly as m * 2**e with 0.5 <= |m| < 1, so
    m * 2**53 is an integer.  Its high part trunc(m * 2**27), an integer
    below 2**27, and its low part, an integer below 2**26 after scaling,
    are summed per exponent with np.bincount; over at most 2**24 addends
    every bucket sum is exact.  The buckets are carried into one Python int
    in units of 2**-1126, and the final int division rounds correctly, half
    to even, as math.fsum does.  The result does not depend on the order of
    the addends, and its bits are those of ``math.fsum(x.tolist())`` with
    one difference: math.fsum raises on an intermediate overflow, while
    here a representable exact total is returned.  A total out of range
    raises OverflowError.  Non-finite addends go to math.fsum, which
    defines their result.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if not x.any():
        # only zeros: the sign of their sum is math.fsum's to decide
        return math.fsum([-0.0] if x.size and np.signbit(x).all() else [])
    total = 0
    for start in range(0, x.size, _CHUNK):
        stop = min(start + _CHUNK, x.size)
        high = np.zeros(_BUCKETS)
        low = np.zeros(_BUCKETS)
        # an inf addend leaves a NaN low part, caught below
        with np.errstate(invalid="ignore"):
            for i in range(start, stop, _BLOCK):
                m, e = np.frexp(x[i:min(i + _BLOCK, stop)])
                m *= 2.0 ** 27
                hi = np.trunc(m)
                m -= hi
                m *= 2.0 ** 26
                b = np.add(e, _EXP_BIAS, dtype=np.intp)
                high += np.bincount(b, weights=hi, minlength=_BUCKETS)
                low += np.bincount(b, weights=m, minlength=_BUCKETS)
        if not (np.isfinite(high).all() and np.isfinite(low).all()):
            return math.fsum(x.tolist())
        # low[b] counts units of 2**(b - 1126) and high[b] units of
        # 2**(b - 1100); the merged sums stay below 2**53
        low[26:] += high[:-26]
        nonzero = np.flatnonzero(low)
        for b, v in zip(nonzero.tolist(), low[nonzero].tolist()):
            total += int(v) << b
    return total / (1 << (_EXP_BIAS + 53))


def integrate(f: SampledFunction) -> complex:
    """Equal-weight quadrature spacing**n * sum of samples.

    Rejects ``bounded-only`` functions: without declared decay the box sum
    does not approximate a convergent improper integral.  The real and
    imaginary sums are exact and correctly rounded, so they do not depend
    on the order of the samples and repeated runs give the same bits.
    """
    if f.decay_tag == "bounded-only":
        raise ValueError(
            "integrate requires decay_tag 'schwartz-like' or 'integrable'; "
            "use a damped mean for bounded-only samples"
        )
    weight = f.grid.spacing ** f.grid.n
    return weight * complex(_exact_sum(f.values.real), _exact_sum(f.values.imag))


def _product_spectra(f, g, shape, padded, axes):
    """Real transforms of the real and imaginary parts of the padded f*g.

    (f_re + i f_im)(g_re + i g_im) = f_re g_re - f_im g_im + i (f_re g_im
    + f_im g_re).  Only the parts that are not identically zero are
    transformed, and a product with an identically zero part drops out; a
    part of f*g with no product left is None.
    """
    def parts(h):
        halves = (h.values.real.reshape(shape), h.values.imag.reshape(shape))
        return [np.fft.rfftn(x, s=padded, axes=axes) if x.any() else None for x in halves]

    (f_re, f_im), (g_re, g_im) = parts(f), parts(g)
    minus_g_im = None if f_im is None or g_im is None else -g_im
    out = []
    for terms in (((f_re, g_re), (f_im, minus_g_im)), ((f_re, g_im), (f_im, g_re))):
        products = [a * b for a, b in terms if a is not None and b is not None]
        out.append(sum(products[1:], products[0]) if products else None)
    return out


def convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Quadrature approximation of the convolution f*g on the shared grid.

    Computed with zero-padded FFTs, which gives the linear (non-circular)
    discrete convolution exactly; the only approximations are the
    quadrature rule itself and the box truncation.  Padding doubles each
    axis, so no wrap-around from the periodic transform ever touches the
    returned window.

    The transforms are real: each factor splits into its real and
    imaginary parts, only the parts that are not identically zero are
    transformed, and the real and imaginary parts of the result come back
    from the products of those spectra.  Two real factors thus cost three
    half-size transforms, and their convolution has an imaginary part that
    is exactly zero.
    """
    if f.grid != g.grid:
        raise ValueError("convolve requires both functions on the same grid")
    for h in (f, g):
        if h.decay_tag == "bounded-only":
            raise ValueError("convolve requires integrable or schwartz-like factors")
    n = f.grid.n
    N = f.grid.points
    shape = (N,) * n
    padded = (2 * N,) * n
    axes = tuple(range(n))
    # Linear-convolution index j + k maps to lattice point x_j + x_k + R,
    # so the centered window starts at offset N/2 on each axis.
    window = (slice(N // 2, N // 2 + N),) * n
    vals = np.zeros(shape, dtype=complex)
    for part, spectrum in zip((vals.real, vals.imag), _product_spectra(f, g, shape, padded, axes)):
        if spectrum is not None:
            part[...] = np.fft.irfftn(spectrum, s=padded, axes=axes)[window]
    vals *= f.grid.spacing ** n
    tag = "schwartz-like"
    if "integrable" in (f.decay_tag, g.decay_tag):
        tag = "integrable"
    return SampledFunction(f.grid, vals.ravel(), tag)


def radial_integrate(profile, n: int, upper: float = math.inf) -> float:
    """Integral of a radial function over R^n by 1-D adaptive quadrature.

    Evaluates integral_0^upper SPHERE_MEASURE[n] * r**(n-1) * profile(r) dr
    where ``profile`` maps radius to value.  Used for the closed-form
    radial checks in dimensions 2 and 3, where a full lattice would be
    wasteful; also available for n = 1.
    """
    if n not in SPHERE_MEASURE:
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    w = SPHERE_MEASURE[n]

    def integrand(r):
        return w * r ** (n - 1) * profile(r)

    value, _abserr = _sci_integrate.quad(integrand, 0.0, upper, limit=200)
    return value
