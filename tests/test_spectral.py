import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from abelharm import (
    SampledFunction,
    Spectrum,
    SupportSpec,
    abel_regularized_inverse,
    convolve,
    forward_ft,
    inverse_ft,
    lattice_sum,
    make_grid,
    poisson_kernel,
    project_spectrum,
    sample_function,
    sample_spectrum,
    spectral,
)
from abelharm.spectral import (
    _CHIRP_LENGTH,
    _centred_dft,
    _chirp_scan,
    _factored_sum,
    _slice_sum,
    _support_range,
)


def test_support_spec_kinds():
    full = SupportSpec.full_line()
    assert full.contains(np.array([-1e9, 0.0, 1e9])).all()
    right = SupportSpec.nonneg()
    assert list(right.contains(np.array([-0.1, 0.0, 0.1]))) == [False, True, True]
    left = SupportSpec.nonpos()
    assert list(left.contains(np.array([-0.1, 0.0, 0.1]))) == [True, True, False]
    band = SupportSpec.interval(-1.0, 2.0)
    assert list(band.contains(np.array([-1.5, -1.0, 0.0, 2.0, 2.5]))) == [
        False, True, True, True, False]


def test_support_spec_validation():
    # a support is a nonempty closed interval [a, b]; the ends may be
    # infinite, but not on the wrong side
    for a, b in ((2.0, 1.0), (math.nan, 1.0), (0.0, math.nan), (math.inf, math.inf),
                 (-math.inf, -math.inf)):
        with pytest.raises(ValueError):
            SupportSpec.interval(a, b)
    assert SupportSpec.interval(-math.inf, math.inf) == SupportSpec.full_line()
    assert SupportSpec.interval(0.0, math.inf) == SupportSpec.nonneg()
    assert SupportSpec.interval(-math.inf, 0.0) == SupportSpec.nonpos()


def test_projection_masks_partition_the_line():
    # both half-lines claim 0 under contains(); the projection gives it to
    # the nonnegative side so the two projections partition every spectrum
    grid = make_grid(1, 1.5, 6)  # -1.5, -1, -0.5, 0, 0.5, 1

    def projected(support):
        start, stop = _support_range(grid, support, partition=True)
        k = np.arange(grid.points)
        return (start <= k) & (k < stop)

    plus = projected(SupportSpec.nonneg())
    minus = projected(SupportSpec.nonpos())
    assert not np.any(plus & minus)
    assert np.all(plus | minus)
    # so do the bands [-1, 0] and [0, 1] of [-1, 1]
    left = projected(SupportSpec.interval(-1.0, 0.0))
    right = projected(SupportSpec.interval(0.0, 1.0))
    assert list(left) == [False, True, True, False, False, False]
    assert list(left ^ right) == [False] + [True] * 5


def test_sample_spectrum_halves_boundary_points():
    g = make_grid(1, 2.0, 64)  # frequency lattice with spacing 1/16
    F = sample_spectrum(g, lambda xi: np.ones_like(xi), SupportSpec.interval(-1.0, 1.0))
    xi = g.axis()
    inside = (np.abs(xi) < 1.0)
    edge = (np.abs(xi) == 1.0)
    assert np.allclose(F.values[inside], 1.0)
    assert np.allclose(F.values[edge], 0.5)
    assert np.allclose(F.values[~(inside | edge)], 0.0)
    # trapezoid weighting restores second-order accuracy of the band mass
    mass = float(np.sum(F.values.real)) * g.spacing
    assert mass == pytest.approx(2.0, abs=1e-14)


def test_spectrum_rejects_values_outside_support():
    g = make_grid(1, 2.0, 64)
    vals = np.ones(64, dtype=complex)
    with pytest.raises(ValueError):
        Spectrum(g, vals, SupportSpec.nonneg())


def test_spectrum_values_are_a_private_read_only_copy():
    g = make_grid(1, 2.0, 64)
    vals = np.ones(64, dtype=complex)
    F = Spectrum(g, vals, SupportSpec.full_line())
    vals[3] = math.nan
    assert np.all(np.isfinite(F.values))
    # what abelharm builds itself is stored as built, and read-only too
    f = sample_function(g, lambda x: np.exp(-x * x))
    built = (forward_ft(f), inverse_ft(F), convolve(f, f), project_spectrum(F, SupportSpec.nonneg()),
             sample_spectrum(g, lambda xi: np.exp(-xi * xi), SupportSpec.nonneg()))
    for out in (F, f) + built:
        with pytest.raises(ValueError, match="read-only"):
            out.values[0] = 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, 0.0)])
def test_spectrum_rejects_non_finite_values_inside_support(bad):
    g = make_grid(1, 2.0, 64)
    vals = np.zeros(64, dtype=complex)
    vals[g.axis() >= 0] = 1.0
    vals[40] = bad
    with pytest.raises(ValueError, match="finite"):
        Spectrum(g, vals, SupportSpec.nonneg())
    with pytest.raises(ValueError, match="finite"):
        sample_spectrum(g, lambda xi: np.full(xi.shape, bad), SupportSpec.full_line())


def test_forward_ft_gaussian_self_dual():
    g = make_grid(1, 8.0, 4096)
    f = sample_function(g, lambda x: np.exp(-math.pi * x * x))
    F = forward_ft(f)
    xi = F.grid.axis()
    win = np.abs(xi) <= 4.0
    assert np.max(np.abs(F.values[win] - np.exp(-math.pi * xi[win] ** 2))) < 1e-13


def test_forward_ft_shift_phase():
    # translating the function multiplies the transform by a unimodular phase
    g = make_grid(1, 8.0, 4096)
    f0 = sample_function(g, lambda x: np.exp(-math.pi * x * x))
    f1 = sample_function(g, lambda x: np.exp(-math.pi * (x - 0.5) ** 2))
    F0, F1 = forward_ft(f0), forward_ft(f1)
    xi = F0.grid.axis()
    win = np.abs(xi) <= 2.0
    expected = F0.values[win] * np.exp(-2j * math.pi * xi[win] * 0.5)
    assert np.max(np.abs(F1.values[win] - expected)) < 1e-13


def test_round_trip_is_identity():
    g = make_grid(1, 8.0, 2048)
    f = sample_function(g, lambda x: np.exp(-math.pi * x * x) * np.cos(3.0 * x))
    back = inverse_ft(forward_ft(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


# (R, N): N = 2^21 and 2^14 are 0 mod 4, N = 90 and 6 are 2 mod 4
EXACT_PHASE_GRIDS = [(65536.0, 2 ** 21), (512.0, 2 ** 14), (15.296875, 90), (1.5, 6)]


def _unit_sample_at_origin(grid):
    # the lattice origin is the first point, -R
    vals = np.zeros(grid.points, dtype=complex)
    vals[0] = 1.0
    return vals


def _sign_pattern(n):
    # (-1)^(N/2) (-1)^k: exp(2 pi i xi_k R) on the dual lattices, since
    # xi_k R = -N/4 + k/2
    k = np.arange(n)
    return (-1.0) ** (n // 2) * (1.0 - 2.0 * (k % 2))


@pytest.mark.parametrize("half_width, points", EXACT_PHASE_GRIDS)
def test_forward_ft_of_origin_sample_is_exact_sign_pattern(half_width, points):
    g = make_grid(1, half_width, points)
    F = forward_ft(SampledFunction(g, _unit_sample_at_origin(g)))
    assert np.array_equal(F.values, g.spacing * _sign_pattern(points))


@pytest.mark.parametrize("half_width, points", EXACT_PHASE_GRIDS)
def test_inverse_ft_of_origin_sample_is_exact_sign_pattern(half_width, points):
    freq = make_grid(1, half_width, points).reciprocal()
    f = inverse_ft(Spectrum(freq, _unit_sample_at_origin(freq), SupportSpec.full_line()))
    assert np.array_equal(f.values, freq.spacing * _sign_pattern(points))


@pytest.mark.parametrize("points", [6, 90, 2 ** 14])
@pytest.mark.parametrize("imag", [0.0, -0.0])
def test_transforms_of_real_samples_are_exactly_hermitian(points, imag):
    # real input takes the real FFT and mirrors it: the entry at index N - k
    # (frequency -xi_k) is the conjugate of entry k, bit for bit, in either
    # direction, and the values are those of the complex DFT with the same
    # sign pattern
    rng = np.random.default_rng(points)
    g = make_grid(1, 3.0, points)
    vals = np.empty(points, dtype=complex)
    vals.real = rng.standard_normal(points)
    vals.imag = imag
    flip = 1.0 - 2.0 * (np.arange(points) % 2)
    k = np.arange(1, points)
    for out, dft in (
        (forward_ft(SampledFunction(g, vals)).values, np.fft.fft(flip * vals)),
        (inverse_ft(Spectrum(g, vals, SupportSpec.full_line())).values,
         np.fft.ifft(flip * vals, norm="forward")),
    ):
        assert np.array_equal(out[points - k], np.conj(out[k]))
        ref = g.spacing * _sign_pattern(points) * dft
        assert np.max(np.abs(out - ref)) <= 1e-15 * g.spacing * np.sum(np.abs(vals))


def _centred_dft_reference(values, spacing, inverse):
    """The real path of ``_centred_dft`` as it was: mirror the whole real
    FFT first, then conjugate, flip and scale all N outputs."""
    size = values.size
    half = size // 2
    out = np.empty(size, dtype=complex)
    shifted = values.real.copy()
    shifted[1::2] *= -1.0
    np.fft.rfft(shifted, out=out[:half + 1])
    np.conjugate(out[half - 1:0:-1], out=out[half + 1:])
    if inverse:
        np.conjugate(out, out=out)
    out[1::2] *= -1.0
    out *= spacing if size % 4 == 0 else -spacing
    return out


@pytest.mark.parametrize("points", [6, 90, 4096, 81920, 2 ** 20 + 2, 2 ** 21])
@pytest.mark.parametrize("inverse", [False, True])
def test_real_transform_signs_and_scales_half_the_outputs_with_the_same_bits(points, inverse):
    # the sign pattern, the spacing and the inverse's conjugation act on the
    # N/2 + 1 outputs of the real FFT before the mirror; a run of zero
    # samples, as in a one-sided spectrum, is kept
    rng = np.random.default_rng(points)
    vals = rng.standard_normal(points)
    vals[: points // 3] = 0.0
    got = _centred_dft(vals, 0.37, inverse)
    assert got.tobytes() == _centred_dft_reference(vals, 0.37, inverse).tobytes()
    # where an output part is exactly zero, as for a lone sample at the
    # origin, the values are the same, and each mirrored entry is now
    # bitwise the conjugate of its partner, signed zeros included; the
    # reference wrote some of those zeros with the other sign
    lone = np.zeros(points)
    lone[points // 2] = 2.5
    got = _centred_dft(lone, 0.37, inverse)
    assert np.array_equal(got, _centred_dft_reference(lone, 0.37, inverse))
    k = np.arange(1, points // 2)
    assert got[points - k].tobytes() == np.conj(got[k]).tobytes()


def test_inverse_of_two_sided_exponential_is_poisson():
    # periodization of the slow 1/x^2 tails controls the error, so the box
    # must be wide; spacing can stay coarse
    g = make_grid(1, 1000.0, 2 ** 14)
    F = sample_spectrum(g.reciprocal(),
                        lambda xi: np.exp(-2.0 * math.pi * np.abs(xi)),
                        SupportSpec.full_line())
    back = inverse_ft(F)
    err = np.max(np.abs(back.values - poisson_kernel(1, 1.0, back.grid.axis())))
    assert err < 1e-6


def test_project_spectrum_splits_exactly():
    g = make_grid(1, 2.0, 128)
    F = sample_spectrum(g, lambda xi: 1.0 / (1.0 + xi * xi), SupportSpec.full_line())
    plus = project_spectrum(F, SupportSpec.nonneg())
    minus = project_spectrum(F, SupportSpec.nonpos())
    assert np.allclose(plus.values + minus.values, F.values, atol=0.0)
    xi = g.axis()
    assert np.all(plus.values[xi < 0] == 0.0)
    assert np.all(minus.values[xi >= 0] == 0.0)


def test_phase_sum_shapes():
    # the factored kernel over xi = 0, 0.5, 1: a scalar point gives a
    # complex, an array of points the array of its shape
    w = np.array([1.0, 1.0, 1.0], dtype=complex)
    one = _factored_sum(0.0, 0.5, w, 0.0, 1.0)
    assert isinstance(one, complex)
    assert one == pytest.approx(3.0)
    many = _factored_sum(0.0, 0.5, w, np.array([0.0, 1.0]), 1.0)
    assert many.shape == (2,)
    assert many[0] == pytest.approx(3.0)


def test_damped_inverse_equals_damped_lattice_sum():
    g = make_grid(1, 16.0, 1024)
    F = sample_spectrum(g.reciprocal(), lambda xi: np.exp(-np.abs(xi)),
                        SupportSpec.full_line())
    xi = F.grid.axis()
    t, x = 0.3, 0.7
    manual = np.sum(F.values * np.exp(-2.0 * math.pi * t * np.abs(xi))
                    * np.exp(2j * math.pi * x * xi)) * F.grid.spacing
    got = abel_regularized_inverse(F, t, x)
    assert abs(got - manual) < 1e-14


def test_damped_inverse_requires_positive_scale():
    g = make_grid(1, 4.0, 64)
    F = sample_spectrum(g, lambda xi: np.exp(-xi * xi), SupportSpec.full_line())
    with pytest.raises(ValueError):
        abel_regularized_inverse(F, 0.0, 0.0)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_damped_inverse_rejects_a_non_finite_scale(t):
    g = make_grid(1, 4.0, 64)
    F = sample_spectrum(g, lambda xi: np.exp(-xi * xi), SupportSpec.full_line())
    with pytest.raises(ValueError, match="finite and positive"):
        abel_regularized_inverse(F, t, 0.0)


@given(
    half_points=st.integers(2, 256),
    half_width=st.floats(0.5, 50.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_round_trip_is_identity_on_random_grids(half_points, half_width, seed):
    # the two lattice transforms are inverse linear maps, whatever the samples
    rng = np.random.default_rng(seed)
    g = make_grid(1, half_width, 2 * half_points)
    f = SampledFunction(g, rng.standard_normal(g.points) + 1j * rng.standard_normal(g.points))
    back = inverse_ft(forward_ft(f))
    assert back.grid == g
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


def test_dual_of_the_dual_is_the_grid_itself():
    # recomputed, this grid's double dual has half-width 15.296875000000002
    g = make_grid(1, 15.296875, 90)
    assert g.reciprocal().reciprocal() is g
    # the link back is neither compared nor shown
    assert g.reciprocal() == make_grid(1, 90 / (4.0 * 15.296875), 90)
    assert repr(g.reciprocal()) == "Grid(n=1, half_width=1.4708886618998978, points=90)"
    f = sample_function(g, lambda x: np.exp(-x * x))
    h = convolve(SampledFunction(g, inverse_ft(forward_ft(f)).values.real), f)
    assert h.grid == g


def test_damped_inverse_of_a_one_sided_spectrum_sums_one_side():
    # a nonnegative spectrum is summed at x + it over its support only
    F = sample_spectrum(make_grid(1, 16.0, 1024).reciprocal(),
                        lambda xi: np.exp(-2.0 * math.pi * xi), SupportSpec.nonneg())
    start, stop = _support_range(F.grid, F.support)
    x, t = np.linspace(-3.0, 3.0, 25), 0.25
    got = abel_regularized_inverse(F, t, x)
    assert got.tobytes() == _slice_sum(F, start, stop, x + 1j * t).tobytes()


def _masked_sample(xi, support):
    # sample_spectrum by masks on the axis: the support's points, with the
    # points on a finite end halved
    mask = support.contains(xi)
    vals = np.zeros(xi.size, dtype=complex)
    vals[mask] = np.exp(-xi[mask] * xi[mask]) + 1j * xi[mask]
    for end in {support.a, support.b}:
        if math.isfinite(end):
            vals[xi == end] *= 0.5
    return vals


def _projection_mask(xi, support):
    # project_spectrum by masks on the axis: the support's points, less
    # xi = 0 for a support [a, 0] with a < 0
    mask = support.contains(xi)
    if support.a < 0.0 and support.b == 0.0:
        mask &= xi < 0.0
    return mask


def _supports(xi, ends, nudge):
    # every support kind; the interval ends sit on lattice points or a
    # fraction of a step off them
    lo, hi = (xi[0] + (xi[1] - xi[0]) * (e + nudge) for e in sorted(ends))
    return [SupportSpec.full_line(), SupportSpec.nonneg(), SupportSpec.nonpos(),
            SupportSpec.interval(lo, hi)]


@given(
    half_points=st.integers(2, 300),
    half_width=st.floats(0.5, 100.0),
    ends=st.tuples(st.integers(-2, 601), st.integers(-2, 601)),
    nudge=st.sampled_from((0.0, 0.5, -1e-12)),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(half_points=45, half_width=15.296875, ends=(44, 46), nudge=0.0, seed=0)
@example(half_points=3, half_width=15.296875, ends=(3, 3), nudge=0.0, seed=1)
@example(half_points=32, half_width=8.0, ends=(32, 40), nudge=0.0, seed=2)
def test_projection_by_index_range_equals_the_mask(half_points, half_width, ends, nudge, seed):
    # make_grid(1, 15.296875, 90).reciprocal() has no lattice point at 0:
    # its middle point is 2.2e-16
    rng = np.random.default_rng(seed)
    freq = make_grid(1, half_width, 2 * half_points).reciprocal()
    xi = freq.axis()
    vals = rng.standard_normal(freq.points) + 1j * rng.standard_normal(freq.points)
    vals[rng.random(freq.points) < 0.2] = -0.0
    F = Spectrum(freq, vals, SupportSpec.full_line())
    for support in _supports(xi, ends, nudge):
        want = np.where(_projection_mask(xi, support), F.values, 0.0 + 0.0j)
        assert project_spectrum(F, support).values.tobytes() == want.tobytes()
        sampled = sample_spectrum(freq, lambda x: np.exp(-x * x) + 1j * x, support)
        assert sampled.values.tobytes() == _masked_sample(xi, support).tobytes()


# (R, N) of the space grid; the frequency grid of (15.296875, 90) has no
# lattice point at 0
SUPPORT_GRIDS = [(2.0, 64), (15.296875, 90), (1.5, 6)]


def _one_nonzero(grid, k):
    vals = np.zeros(grid.points, dtype=complex)
    vals[k] = 1.0
    return vals


@pytest.mark.parametrize("half_width, points", SUPPORT_GRIDS)
def test_spectrum_rejects_a_nonzero_just_outside_its_support(half_width, points):
    # one nonzero sample at the lattice point just outside the support
    # raises; at its neighbour just inside, it is accepted
    freq = make_grid(1, half_width, points).reciprocal()
    xi = freq.axis()
    before_zero = int(np.flatnonzero(xi < 0.0)[-1])
    after_zero = int(np.flatnonzero(xi > 0.0)[0])
    cases = [(SupportSpec.nonneg(), before_zero, before_zero + 1),
             (SupportSpec.nonpos(), after_zero, after_zero - 1)]
    for a, b in ((1, points - 2), (2, 2)):
        for nudge in (0.0, 0.5):
            band = SupportSpec.interval(xi[a] - nudge * freq.spacing, xi[b] + nudge * freq.spacing)
            cases += [(band, a - 1, a), (band, b + 1, b)]
    for support, outside, inside in cases:
        with pytest.raises(ValueError, match="outside its declared support"):
            Spectrum(freq, _one_nonzero(freq, outside), support)
        Spectrum(freq, _one_nonzero(freq, inside), support)


def test_half_lines_accept_a_nonzero_at_the_origin():
    freq = make_grid(1, 2.0, 64).reciprocal()
    zero = int(np.flatnonzero(freq.axis() == 0.0)[0])
    for support in (SupportSpec.nonneg(), SupportSpec.nonpos()):
        assert Spectrum(freq, _one_nonzero(freq, zero), support).values[zero] == 1.0


def _random_band(rng, half_width, points, ends):
    """Complex values on the lattice points of [min(ends), max(ends)] of a frequency grid."""
    freq = make_grid(1, half_width, points).reciprocal()
    support = SupportSpec.interval(*sorted(ends))
    start, stop = _support_range(freq, support)
    vals = np.zeros(freq.points, dtype=complex)
    vals[start:stop] = rng.standard_normal(stop - start) + 1j * rng.standard_normal(stop - start)
    return Spectrum(freq, vals, support)


# the chirp-z scan against the factored kernel at the same points: the
# points x0 + m step are dyadic, so both sum at exactly the same points.
# Space half-widths that are powers of two give frequency spacings that
# are too; the others do not.  A short largest transform cuts the points
# into chunks and the weights into blocks; the examples cross the chunk
# boundary of the real one
@given(
    half_width=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 8.0]), st.floats(0.5, 20.0)),
    half_points=st.integers(2, 600),
    ends=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
    start=st.integers(-2 ** 15, 2 ** 15),
    step=st.integers(-2 ** 10, 2 ** 10),
    count=st.integers(1, 400),
    length=st.sampled_from([8, 64, 1024, _CHIRP_LENGTH]),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(half_width=2.0, half_points=64, ends=(-0.01, 0.01), start=-2 ** 15, step=1,
         count=_CHIRP_LENGTH + 3, length=_CHIRP_LENGTH, seed=0)
@example(half_width=3.0, half_points=64, ends=(-4.0, 4.0), start=5, step=-3,
         count=_CHIRP_LENGTH - 20, length=_CHIRP_LENGTH, seed=1)
def test_chirp_scan_matches_the_factored_kernel(half_width, half_points, ends, start, step,
                                                 count, length, seed):
    F = _random_band(np.random.default_rng(seed), half_width, 2 * half_points, ends)
    x0, dx = start * 2.0 ** -10, step * 2.0 ** -12
    xs = x0 + dx * np.arange(count)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_CHIRP_LENGTH", length)
        got = _chirp_scan(F, x0, dx, count)
    want = lattice_sum(F, xs)
    mass = F.grid.spacing * np.sum(np.abs(F.values))
    # the scan's bound, plus the factored kernel's own rounding of phases
    # up to |x xi| turns
    phase = np.max(np.abs(xs)) * max(abs(F.support.a), abs(F.support.b))
    assert got.shape == (count,)
    assert np.max(np.abs(got - want)) <= mass * (1e-13 + 2.0 ** -50 * 2.0 * math.pi * phase)


def test_chirp_scan_keeps_its_accuracy_at_large_phases():
    # x xi reaches 8.6e4 turns, where a phase rounded in floating point is
    # off by up to about 6e-11 rad; the reference reduces each phase exactly
    rng = np.random.default_rng(7)
    F = _random_band(rng, 3.0, 100, (-7.0, 7.0))
    x0, step, count = 12345.678, 0.01, 20
    got = _chirp_scan(F, x0, step, count)
    start, stop = _support_range(F.grid, F.support)
    xi = [Fraction(F.grid._axis_range(start, start + 1)[0]) + k * Fraction(F.grid.spacing)
          for k in range(stop - start)]
    want = []
    for m in range(count):
        x = Fraction(x0) + m * Fraction(step)
        turns = np.array([float(x * q % 1) for q in xi])
        want.append(F.grid.spacing * np.sum(F.values[start:stop] * np.exp(2j * math.pi * turns)))
    mass = F.grid.spacing * np.sum(np.abs(F.values))
    assert np.max(np.abs(got - np.array(want))) <= 1e-13 * mass


def test_chirp_scan_of_no_points_or_no_weights_is_empty_or_zero():
    F = _random_band(np.random.default_rng(3), 2.0, 64, (0.1, 0.2))  # no lattice point
    assert _chirp_scan(F, 0.0, 0.5, 0).shape == (0,)
    assert _chirp_scan(F, 0.0, 0.5, 5).tobytes() == np.zeros(5, dtype=complex).tobytes()
