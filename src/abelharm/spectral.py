"""Lattice Fourier transforms matching the continuous phase convention.

The forward transform realizes F(xi) = integral f(x) exp(-2 pi i xi x) dx
by equal-weight quadrature on the space lattice.  A bare FFT assumes the
first sample sits at the origin; on the lattice x_j = -R + j spacing and
its reciprocal grid xi_k (spacing 1/(2R), half-width points/(4R)),
xi_k x_j = N/4 - j/2 - k/2 + jk/N, so the lattice origin at -R is restored
by the real sign pattern (-1)^(N/2) (-1)^j (-1)^k, exactly and without any
exponential.  The returned spectrum matches the continuous transform, not
the DFT indexing convention.

Spectra carry a declared support, one closed interval [a, b] whose ends
may be infinite, and enforce exact vanishing outside it, which is what
makes the half-line splitting downstream an exact partition.

Every off-lattice evaluation of a spectrum (half-plane, damped and entire
extensions) sums exactly the lattice points of its declared support,
one contiguous range of frequencies, by a block-factored kernel
(:func:`lattice_sum`).  The one exception is a scan of evenly spaced
real points, which is a chirp-z transform (:func:`_chirp_scan`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampled import Grid, SampledFunction, _adopt, _check_scale

__all__ = [
    "SupportSpec",
    "Spectrum",
    "forward_ft",
    "inverse_ft",
    "sample_spectrum",
    "project_spectrum",
    "abel_regularized_inverse",
    "lattice_sum",
]

@dataclass(frozen=True)
class SupportSpec:
    """Declared spectral support: the closed interval [a, b].

    Either end may be infinite; the default (-inf, inf) is the whole line,
    and [0, inf) and (-inf, 0] are the two half-lines of the Hardy split.
    """

    a: float = -math.inf
    b: float = math.inf

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        if not (a <= b and a < math.inf and b > -math.inf):
            raise ValueError(f"support must be a nonempty closed interval, got [{a}, {b}]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def full_line(cls):
        return cls()

    @classmethod
    def nonneg(cls):
        """Support contained in [0, inf)."""
        return cls(a=0.0)

    @classmethod
    def nonpos(cls):
        """Support contained in (-inf, 0]."""
        return cls(b=0.0)

    @classmethod
    def interval(cls, a: float, b: float):
        return cls(a, b)

    def contains(self, xi: np.ndarray) -> np.ndarray:
        """Closed-set membership mask."""
        xi = np.asarray(xi)
        return (xi >= self.a) & (xi <= self.b)


@dataclass(frozen=True)
class Spectrum:
    """Complex samples of a transform on a 1-D frequency grid.

    Values must be finite, and must vanish exactly (not merely be small)
    at lattice points outside the declared support.  They are complex128
    even where they are real: the off-lattice sums multiply them by
    complex phases, and a real spectrum would be converted to complex on
    every such sum.  As in :class:`abelharm.sampled.SampledFunction`, the
    values are a private, read-only copy of the caller's array.
    """

    grid: Grid
    values: np.ndarray
    support: SupportSpec

    def __post_init__(self):
        self._store(np.array(self.values, dtype=complex))

    def _store(self, vals: np.ndarray) -> None:
        if vals.shape != (self.grid.points,):
            raise ValueError(
                f"values must have shape ({self.grid.points},), got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("spectrum values must be finite")
        start, stop = _support_range(self.grid, self.support)
        if vals[:start].any() or vals[stop:].any():
            raise ValueError("spectrum has nonzero values outside its declared support")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def _centred_dft(values: np.ndarray, spacing: float, inverse: bool) -> np.ndarray:
    """spacing * sum_j values_j exp(-2 pi i xi_k x_j) between dual lattices.

    ``inverse`` flips the sign of the exponent.  Since xi_k x_j = N/4 - j/2
    - k/2 + jk/N, the phase is the DFT kernel exp(-2 pi i jk/N) times the
    real sign (-1)^(N/2) (-1)^j (-1)^k: exact negations before and after an
    unnormalized FFT, and no exponential.

    Real samples take a real FFT of half the work, written straight into
    the first N/2 + 1 outputs, which alone take a conjugation for the
    inverse kernel (the conjugate of the forward one), the sign pattern
    and the spacing; the rest is their Hermitian mirror
    out[N - k] = conj(out[k]), exact.  The mirror may come last, since
    (-1)^(N-k) = (-1)^k for even N, and negation and real scaling commute
    exactly with conjugation.  A float64 array is real by its dtype; a
    complex one is real when its imaginary part is all zero, of either
    sign, as in a real spectrum sampled in closed form, and gives the same
    bits as its real part would.  Other complex samples are transformed
    in place in their sign-flipped copy.  The result is complex128 in
    every case.
    """
    size = values.size
    scale = spacing if size % 4 == 0 else -spacing
    out = np.empty(size, dtype=complex)
    if np.iscomplexobj(values) and values.imag.any():
        out[...] = values
        out[1::2] *= -1.0
        if inverse:
            np.fft.ifft(out, norm="forward", out=out)
        else:
            np.fft.fft(out, out=out)
        out[1::2] *= -1.0
        out *= scale
        return out
    half = size // 2
    shifted = values.real.copy()
    shifted[1::2] *= -1.0
    head = out[:half + 1]
    np.fft.rfft(shifted, out=head)
    if inverse:
        np.conjugate(head, out=head)
    head[1::2] *= -1.0
    head *= scale
    np.conjugate(out[half - 1:0:-1], out=out[half + 1:])
    return out


def forward_ft(f: SampledFunction) -> Spectrum:
    """Continuous-convention Fourier transform of lattice samples.

    Returns the spectrum on the reciprocal grid.  The quadrature error at
    each frequency is the usual alias sum of the true transform at
    xi + m/spacing, so smooth rapidly decaying samples transform with
    spectral accuracy while kinks and jumps degrade it; the tolerances in
    the test suite are calibrated accordingly.

    Real samples run a real FFT of half the work, and their spectrum is
    exactly Hermitian: at every lattice frequency xi whose negative is a
    lattice frequency too, the value at -xi is the conjugate of the value
    at xi, bit for bit.

    A sample array is transformed once: its spectrum is kept with it, and
    a repeat call returns the same read-only :class:`Spectrum`.
    """
    return f._derived("spectrum", lambda: _adopt(
        Spectrum, _centred_dft(f.values, f.grid.spacing, inverse=False),
        grid=f.grid.reciprocal(), support=SupportSpec.full_line()))


def inverse_ft(F: Spectrum) -> SampledFunction:
    """Inverse transform back onto the space lattice dual to F's grid.

    Exact inverse of :func:`forward_ft` up to rounding, independent of any
    smoothness: the two lattice transforms are inverse linear maps.
    """
    vals = _centred_dft(F.values, F.grid.spacing, inverse=True)
    return _adopt(SampledFunction, vals, grid=F.grid.reciprocal())


def sample_spectrum(grid: Grid, func, support: SupportSpec) -> Spectrum:
    """Sample a closed-form transform on a frequency grid.

    Where a finite end of the declared support lands exactly on a lattice
    point, the sample there is halved.  A truncated transform is a
    jump discontinuity, and equal-weight quadrature against a jump is
    second-order accurate only when the jump point carries its midpoint
    value; keeping the full one-sided value would cost half a lattice
    weight of error in every quantity computed from the spectrum.
    """
    start, stop = _support_range(grid, support)
    vals = np.zeros(grid.points, dtype=complex)
    vals[start:stop] = np.asarray(func(grid._axis_range(start, stop)), dtype=complex)
    for end in {support.a, support.b} - {-math.inf, math.inf}:
        # the lattice points equal to end
        vals[_count_below(grid, end) : _count_below(grid, end, inclusive=True)] *= 0.5
    return _adopt(Spectrum, vals, grid=grid, support=support)


def project_spectrum(F: Spectrum, support: SupportSpec) -> Spectrum:
    """Zero everything outside ``support`` and redeclare the support.

    A support [a, 0] with a < 0, the nonpositive half-line among them,
    drops xi = 0 (it belongs to the nonnegative side), so projecting onto
    the two half-lines partitions any spectrum exactly.
    """
    start, stop = _support_range(F.grid, support, partition=True)
    vals = np.zeros(F.grid.points, dtype=complex)
    vals[start:stop] = F.values[start:stop]
    return _adopt(Spectrum, vals, grid=F.grid, support=support)


def _block_size(n: int) -> int:
    """Block length of the factored sum: the power of two nearest sqrt(n)."""
    return 1 << max(0, round(math.log2(max(n, 1)) / 2))


def _blocks(weights: np.ndarray, block: int, front: bool) -> np.ndarray:
    """Weights zero-padded to whole blocks, shape (blocks, block).

    A view of ``weights`` when the length is a multiple of ``block``; the
    padding goes in front of the first block or after the last one.
    """
    pad = -weights.size % block
    if pad:
        weights = np.pad(weights, (pad, 0) if front else (0, pad))
    return weights.reshape(-1, block)


# rows per matrix product, so that no factor table exceeds 2**20 entries
_TABLE_ENTRIES = 1 << 20


def _anchored_blocks(zs, anchors, offsets, blocks) -> np.ndarray:
    """sum_b exp(2 pi i z anchor_b) sum_j exp(2 pi i z offset_j) blocks[b, j] per z."""
    out = np.empty(zs.size, dtype=complex)
    chunk = max(1, _TABLE_ENTRIES // max(anchors.size, offsets.size))
    for lo in range(0, zs.size, chunk):
        rows = zs[lo : lo + chunk]
        # numpy hands a one-row product to gemv, which sums in another
        # order than gemm: a lone row is doubled so that every point gets
        # the same bits whatever batch it comes in
        phase = (2j * math.pi) * (rows if rows.size > 1 else np.repeat(rows, 2))[:, None]
        inner = np.exp(phase * offsets) @ blocks.T
        out[lo : lo + rows.size] = np.sum(np.exp(phase * anchors) * inner, axis=1)[: rows.size]
    return out


def _factored_sum(xi0: float, step: float, weights: np.ndarray, z, scale: float):
    """scale * sum_k weights_k exp(2 pi i z (xi0 + k step)), factored in blocks.

    With k = b B + j (B from :func:`_block_size`), each term splits into
    an anchor factor exp(2 pi i z xi_{bB}) and a within-block factor
    exp(2 pi i z j step), so M points cost M (N/B + B) exponentials and
    one (M x B) @ (B x N/B) product instead of M N exponentials.  Rows
    whose exponential decays downward along the lattice (Im z * step < 0)
    anchor each block at its last point and offset backwards instead, so
    the within-block factor never exceeds 1 in modulus: a sum whose terms
    are all finite stays finite.  ``z`` must be finite; a scalar z gives
    a complex, an array the array of its shape.  A sum that overflows
    raises OverflowError naming the points where it does.
    """
    zs = np.asarray(z, dtype=complex)
    shape = zs.shape
    zs = zs.ravel()
    if not np.all(np.isfinite(zs)):
        raise ValueError("evaluation points must be finite")
    weights = np.asarray(weights, dtype=complex)
    block = _block_size(weights.size)
    n_blocks = -(-weights.size // block)
    pad = n_blocks * block - weights.size
    starts = block * np.arange(n_blocks)
    within = np.arange(block)
    out = np.empty(zs.size, dtype=complex)
    up = zs.imag * step >= 0.0
    # finite weights and points: a non-finite sum can only be an overflow,
    # which is reported below rather than warned about here
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, front, anchor, offset in (
            (up, False, starts, within),
            (~up, True, starts + (block - 1 - pad), within - (block - 1)),
        ):
            if np.any(rows):
                out[rows] = _anchored_blocks(
                    zs[rows], xi0 + step * anchor, step * offset, _blocks(weights, block, front))
        out *= scale
    overflow = ~np.isfinite(out)
    if np.any(overflow):
        raise OverflowError(f"lattice sum overflows at z = {zs[overflow].tolist()}")
    if shape == ():
        return complex(out[0])
    return out.reshape(shape)


def _count_below(grid: Grid, bound: float, inclusive: bool = False) -> int:
    """Number of axis points below ``bound`` (or at most ``bound``).

    The axis is nondecreasing, so these points are a prefix; its length is
    found from the same floating-point expression as :meth:`Grid.axis`,
    without building the axis.
    """
    def below(k):
        x = -grid.half_width + grid.spacing * k
        return x <= bound if inclusive else x < bound

    guess = (bound + grid.half_width) / grid.spacing
    k = 0 if guess <= 0 else grid.points if guess >= grid.points else math.ceil(guess)
    while k > 0 and not below(k - 1):
        k -= 1
    while k < grid.points and below(k):
        k += 1
    return k


def _support_range(grid: Grid, support: SupportSpec, partition: bool = False):
    """Index range ``(start, stop)`` of the lattice points in ``support``.

    The axis is nondecreasing, so the points in a closed support are a
    contiguous slice; :func:`_count_below` finds its ends without building
    the axis, and the slice holds exactly the points selected by
    ``support.contains(grid.axis())``.  With ``partition``, the rule of
    :func:`project_spectrum`, a support [a, 0] with a < 0 drops xi = 0,
    which belongs to the nonnegative side.
    """
    drop_zero = partition and support.a < 0.0 and support.b == 0.0
    return (_count_below(grid, support.a),
            _count_below(grid, support.b, inclusive=not drop_zero))


def _slice_sum(F: Spectrum, start: int, stop: int, z):
    """spacing * sum_{start <= k < stop} F_k exp(2 pi i z xi_k)."""
    g = F.grid
    return _factored_sum(-g.half_width + g.spacing * start, g.spacing,
                         F.values[start:stop], z, g.spacing)


def lattice_sum(F: Spectrum, z):
    """spacing * sum_{a <= xi_k <= b} F_k exp(2 pi i z xi_k) over F's support [a, b].

    The off-lattice evaluation of every extension: the lattice points in
    the declared support are a contiguous slice of the spectrum, summed by
    the factored kernel without copying, and the zeros outside it are not
    summed at all.  Scalar z gives a complex, an array z the array of its
    shape; non-finite z raises ValueError, and a sum that overflows raises
    OverflowError.
    """
    return _slice_sum(F, *_support_range(F.grid, F.support), z)


# longest transform of the chirp-z scan: every index that enters a phase
# product stays below 2**17, so its square stays below 2**34, and no array
# grows past the 2**20-entry factor tables of the factored kernel
_CHIRP_LENGTH = 1 << 17


def _pieces(c: float) -> list:
    """``c`` as at most three floats of at most 19 significant bits, summing to it exactly."""
    pieces = []
    while c:
        mantissa, exponent = math.frexp(c)
        top = math.ldexp(math.trunc(math.ldexp(mantissa, 19)), exponent - 19)
        pieces.append(top)
        c -= top
    return pieces


def _turns(c: "Fraction", n: np.ndarray) -> np.ndarray:
    """c n modulo one, in [0, 1), for integers 0 <= n < 2**34.

    ``c`` is reduced modulo one exactly, and its float part cut by
    :func:`_pieces` so that each piece times n is exact; each product is
    reduced exactly (x - floor(x) is exact for a float x).  Only the sum
    of the reduced parts and the product of n with c's rest below half an
    ulp round: the error is a few units of 2**-53 whatever the size of c n.
    """
    from fractions import Fraction

    c %= 1
    hi = float(c)
    t = float(c - Fraction(hi)) * n
    for piece in _pieces(hi):
        p = piece * n
        t += p - np.floor(p)
    return t - np.floor(t)


def _chirp_scan(F: Spectrum, x0: float, step: float, count: int) -> np.ndarray:
    """``lattice_sum(F, x)`` at the real points x_m = x0 + m step, m < count, by chirp-z.

    With x_m xi_k = (x0 + m s)(xi0 + k h) and mk = (m^2 + k^2 - (m - k)^2)/2,
    the sum is a convolution of chirped weights with the chirp
    exp(-pi i s h n^2): Bluestein's chirp-z transform (Rabiner, Schafer &
    Rader 1969), three FFTs instead of count * N terms.  The lattice is
    xi0 + k h exactly, as in the factored kernel, and x_m is x0 + m step
    exactly.  Every phase is a product of an exact rational coefficient
    with an integer index below 2**34, reduced modulo one by
    :func:`_turns`, so no phase loses accuracy however large x_m xi_k is.
    The points come in chunks and the weights in blocks, so that the FFT
    length is at most ``_CHIRP_LENGTH``.

    The result agrees with :func:`lattice_sum` at the same points to
    within 1e-13 * spacing * sum |F| where the latter's own rounding,
    which grows with |x xi|, is below that (the property tests' bound;
    measured at most 2.7e-15 against a mass of 2.0 on the growth suite's
    spectra).
    """
    # imported here and in _turns, not with the module: fractions, and
    # decimal with it, would add a few ms to every process that imports
    # abelharm, and most never scan
    from fractions import Fraction

    g = F.grid
    start, stop = _support_range(g, F.support)
    weights = F.values[start:stop]
    out = np.zeros(count, dtype=complex)
    if count == 0 or weights.size == 0:
        return out
    block = min(weights.size, _CHIRP_LENGTH // 2)
    size = min(_CHIRP_LENGTH, 1 << (block + count - 2).bit_length())
    span = size - block + 1
    x_first, s, h = Fraction(x0), Fraction(step), Fraction(g.spacing)
    xi_first = Fraction(-g.half_width + g.spacing * start)
    half = s * h / 2
    # exp(-2 pi i (s h / 2) n^2) for the offsets n of the convolution
    chirp = np.exp(-2j * math.pi * _turns(half, np.arange(max(span, block)) ** 2))
    unchirp = np.conjugate(chirp)
    kernel = np.empty(size, dtype=complex)
    kernel[:span] = chirp[:span]
    kernel[span:] = chirp[block - 1 : 0 : -1]
    np.fft.fft(kernel, out=kernel)
    buf = np.empty(size, dtype=complex)
    for k0 in range(0, weights.size, block):
        part = weights[k0 : k0 + block]
        xi = xi_first + k0 * h
        for m0 in range(0, count, span):
            x = x_first + m0 * s
            rows = min(span, count - m0)
            turns = _turns(x * h, np.arange(part.size))
            buf[: part.size] = part * unchirp[: part.size] * np.exp(2j * math.pi * turns)
            buf[part.size :] = 0.0
            np.fft.fft(buf, out=buf)
            buf *= kernel
            np.fft.ifft(buf, out=buf)
            turns = _turns(s * xi, np.arange(rows)) + float((x * xi) % 1)
            out[m0 : m0 + rows] += buf[:rows] * unchirp[:rows] * np.exp(2j * math.pi * turns)
    out *= g.spacing
    return out


def abel_regularized_inverse(F: Spectrum, t: float, x):
    """Damped inverse transform at arbitrary real points.

    Evaluates spacing * sum_k F_k exp(-2 pi t |xi_k|) exp(2 pi i x xi_k),
    the exponentially regularized inverse transform.  The damping factor
    restores summability for merely bounded spectra, and the result equals
    the Poisson convolution of the reconstructed function at height t.  As
    t -> 0 it recovers the function value wherever the latter is continuous.

    ``x`` may be a scalar or an array; the evaluation is an explicit sum
    over the frequency lattice, not a transform, because x need not be a
    lattice point.  The damping is folded into the exponent: the
    nonnegative frequencies of the support are summed at x + it and the
    negative ones at x - it, so no damped copy of the spectrum is made,
    and a one-sided spectrum sums one side only.
    """
    _check_scale(t)
    start, stop = _support_range(F.grid, F.support)
    zero = min(max(_count_below(F.grid, 0.0), start), stop)
    x = np.asarray(x)
    return (_slice_sum(F, start, zero, x - 1j * t)
            + _slice_sum(F, zero, stop, x + 1j * t))
