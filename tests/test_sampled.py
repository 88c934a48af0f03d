import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from abelharm import (
    Grid,
    KernelSpec,
    SampledFunction,
    abel_mean,
    convolve,
    forward_ft,
    gauss_mean,
    integrate,
    inverse_ft,
    make_grid,
    poisson_kernel,
    radial_integrate,
    sample_function,
    sample_kernel,
)
from abelharm import sampled
from abelharm.sampled import _exact_sum


def test_grid_axis_endpoints_and_spacing():
    g = make_grid(1, 4.0, 16)
    ax = g.axis()
    assert ax[0] == -4.0
    assert ax.shape == (16,)
    assert g.spacing == pytest.approx(0.5)
    # right endpoint is excluded: the last node sits one step short
    assert ax[-1] == pytest.approx(4.0 - g.spacing)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(4, 1.0, 8)
    with pytest.raises(ValueError):
        make_grid(1, -1.0, 8)
    with pytest.raises(ValueError):
        make_grid(1, 1.0, 7)
    with pytest.raises(ValueError):
        make_grid(1, 1.0, 2)



@pytest.mark.parametrize("half_width", [math.inf, -math.inf, math.nan])
def test_grid_rejects_a_non_finite_half_width(half_width):
    # an infinite box has no spacing to speak of: its reciprocal would have
    # half-width 0
    with pytest.raises(ValueError, match="finite and positive"):
        Grid(1, half_width, 8)


@pytest.mark.parametrize("half_width, what", [
    (1e308, "spacing"),  # 2R overflows: the axis would be [nan, inf, inf, inf]
    (8e307, "reciprocal half_width"),  # 4R overflows, so points/(4R) is 0
    (1e-320, "reciprocal half_width"),  # points/(4R) overflows
])
def test_grid_rejects_a_lattice_without_a_finite_step(half_width, what):
    # such grids once built, and failed later inside a transform or
    # accepted samples on an axis that is not finite
    with pytest.raises(ValueError, match=f"^{what} must be finite and positive"):
        make_grid(1, half_width, 4)


def test_grid_keeps_a_lattice_near_the_limits():
    g = make_grid(1, 1e300, 4)
    assert np.all(np.isfinite(g.axis()))
    assert g.reciprocal().reciprocal() is g
    assert make_grid(1, 1e-300, 4).reciprocal().spacing == 1.0 / 2e-300


def test_reciprocal_grid_round_trip():
    g = make_grid(1, 8.0, 256)
    r = g.reciprocal()
    assert r.points == g.points
    assert r.half_width == pytest.approx(256 / (4 * 8.0))
    assert r.spacing == pytest.approx(1.0 / (2 * 8.0))
    back = r.reciprocal()
    assert back.half_width == pytest.approx(g.half_width)


def test_grid_point_count_must_be_an_integer():
    # int() would truncate 8.7 to 8, and a float 8.0 would fail only
    # later, inside a transform or a slice
    for points in (8.7, 8.0):
        for make in (make_grid, Grid):
            with pytest.raises(TypeError):
                make(1, 1.0, points)
    for g in (make_grid(1, 1.0, np.int64(8)), Grid(1, 1.0, np.int64(8))):
        assert type(g.points) is int and g == make_grid(1, 1.0, 8)
        f = sample_function(g, np.cos)
        assert convolve(f, f).values.shape == forward_ft(f).values.shape == (8,)


def test_lattices_are_one_dimensional():
    for make in (lambda: Grid(2, 1.0, 8), lambda: make_grid(3, 1.0, 8),
                 lambda: KernelSpec("poisson", 1.0, 2)):
        with pytest.raises(ValueError, match="dimension must be 1"):
            make()
    # the positional forms with the dimension spelled out still construct
    g = make_grid(1, 2.0, 16)
    assert (g.n, g.size) == (1, g.points)
    for family in ("abel", "poisson", "abel_plus", "abel_minus"):
        assert KernelSpec(family, 1.0, 1).n == 1
        assert sample_kernel(g, KernelSpec(family, 1.0, 1)).values.shape == (g.size,)


def test_integrate_gaussian_unit_mass():
    g = make_grid(1, 10.0, 4096)
    f = sample_function(g, lambda x: np.exp(-math.pi * x * x))
    assert abs(integrate(f) - 1.0) < 1e-12


def test_integration_order_is_deterministic():
    g = make_grid(1, 50.0, 2 ** 16)
    f = sample_function(g, lambda x: np.exp(-np.abs(x)) * np.cos(7.0 * x))
    vals = {complex(integrate(f)) for _ in range(5)}
    assert len(vals) == 1


def test_convolve_gaussians_closed_form():
    # variances add under convolution, so the result widens by sqrt(2)
    g = make_grid(1, 12.0, 4096)
    f = sample_function(g, lambda x: np.exp(-math.pi * x * x))
    h = convolve(f, f)
    x = g.axis()
    target = np.exp(-math.pi * x * x / 2.0) / math.sqrt(2.0)
    assert np.max(np.abs(h.values - target)) < 1e-12


def test_convolve_requires_matching_grids():
    f = sample_function(make_grid(1, 4.0, 64), lambda x: np.exp(-x * x))
    g = sample_function(make_grid(1, 4.0, 128), lambda x: np.exp(-x * x))
    with pytest.raises(ValueError, match="same grid"):
        convolve(f, g)


def _fft_convolution(f, g):
    """The padded linear convolution by complex transforms."""
    N = f.grid.points
    c = np.fft.ifft(np.fft.fft(f.values, 2 * N) * np.fft.fft(g.values, 2 * N))
    return f.grid.spacing * c[N // 2 : N // 2 + N]


def _direct_convolution(f, g):
    """spacing sum_j f_j g_{i - j + N/2} per window index i, term by term."""
    N = f.grid.points
    i = np.arange(N)
    idx = i[:, None] - i[None, :] + N // 2
    inside = (idx >= 0) & (idx < N)
    idx = np.clip(idx, 0, N - 1)
    return f.grid.spacing * (np.where(inside, g.values[idx], 0.0) @ f.values)


@pytest.mark.parametrize("points", [4, 6, 10, 90])
def test_convolve_window_is_the_direct_sum(points):
    # the padded transforms are 3N/2 long: the wrap-around of the linear
    # convolution (indices 3N/2 .. 2N-2) lands on 0 .. N/2-2, below the
    # window, whether N/2 is odd or even
    rng = np.random.default_rng(points)
    g = make_grid(1, 2.5, points)
    f, h = (SampledFunction(g, rng.standard_normal(points)) for _ in range(2))
    scale = np.sum(np.abs(f.values)) * np.sum(np.abs(h.values)) * g.spacing
    assert np.max(np.abs(convolve(f, h).values - _direct_convolution(f, h))) <= 1e-14 * scale


_PARTS = {
    "real": lambda rng, k: rng.standard_normal(k),
    "zero": lambda rng, k: np.zeros(k),
}


@given(
    half_points=st.integers(2, 40),
    half_width=st.floats(0.5, 20.0),
    kinds=st.tuples(st.sampled_from(sorted(_PARTS)), st.sampled_from(sorted(_PARTS))),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(half_points=2 ** 12, half_width=30.0, kinds=("real", "real"), seed=0)
def test_convolve_matches_complex_transforms(half_points, half_width, kinds, seed):
    # real-transform convolution against complex transforms, for every mix
    # of real and zero factors
    rng = np.random.default_rng(seed)
    g = make_grid(1, half_width, 2 * half_points)
    f, h = (SampledFunction(g, _PARTS[kind](rng, g.points)) for kind in kinds)
    got = convolve(f, h).values
    scale = np.sum(np.abs(f.values)) * np.sum(np.abs(h.values)) * g.spacing
    assert got.dtype == np.float64
    assert np.max(np.abs(got - _fft_convolution(f, h))) <= 1e-13 * scale


@pytest.mark.parametrize("which", [0, 1])
def test_convolve_refuses_a_complex_factor(which):
    # even one whose imaginary part is zero: the dtype, not the values, decides
    g = make_grid(1, 4.0, 64)
    gauss = sample_function(g, lambda x: np.exp(-x * x))
    factors = [gauss, gauss]
    factors[which] = SampledFunction(g, gauss.values + 0j)
    with pytest.raises(ValueError, match="real samples"):
        convolve(*factors)


def test_sampled_function_shape_check():
    g = make_grid(1, 1.0, 8)
    with pytest.raises(ValueError):
        SampledFunction(g, np.zeros(9))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_sampled_function_rejects_non_finite_samples(bad):
    g = make_grid(1, 1.0, 8)
    vals = np.ones(8, dtype=complex)
    vals[3] = bad
    with pytest.raises(ValueError, match="finite"):
        SampledFunction(g, vals)
    with pytest.raises(ValueError, match="finite"):
        sample_function(g, lambda x: np.where(x == x[3], bad, 1.0))


@pytest.mark.parametrize("values, dtype", [
    (np.arange(8), np.float64),
    (np.ones(8, dtype=bool), np.float64),
    (np.ones(8, dtype=np.float32), np.float64),
    (np.ones(8), np.float64),
    ([0.5] * 8, np.float64),
    (np.ones(8, dtype=np.complex64), np.complex128),
    (np.ones(8) + 0j, np.complex128),
    ([0.5 + 0j] * 8, np.complex128),
])
def test_samples_are_float64_when_real_and_complex128_when_complex(values, dtype):
    # the dtype of the input, not the values, decides: a complex array with
    # a zero imaginary part stays complex
    f = SampledFunction(make_grid(1, 1.0, 8), values)
    assert f.values.dtype == dtype
    assert np.array_equal(f.values, np.asarray(values))


def test_stored_samples_are_a_private_read_only_copy():
    # a caller that changes its array afterwards, whether it passed the
    # array or returned it from the sampled callable, cannot put a NaN past
    # the finiteness check
    g = make_grid(1, 1.0, 8)
    for dtype in (np.float64, np.complex128):
        values = np.ones(8, dtype=dtype)
        kept = [SampledFunction(g, values), sample_function(g, lambda x: values)]
        values[3] = math.nan
        for f in kept:
            assert np.all(np.isfinite(f.values))
            with pytest.raises(ValueError, match="read-only"):
                f.values[0] = 2.0
            assert integrate(f) == 8 * g.spacing


def test_real_samples_stay_float64_and_transforms_are_complex():
    g = make_grid(1, 4.0, 64)
    gauss = sample_function(g, lambda x: np.exp(-x * x))
    assert gauss.values.dtype == np.float64
    assert sample_function(g, lambda x: np.ones(x.size, dtype=int)).values.dtype == np.float64
    assert sample_function(g, lambda x: np.exp(1j * x)).values.dtype == np.complex128
    assert sample_function(g, lambda x: x + 0j).values.dtype == np.complex128
    for family in ("abel", "poisson", "abel_plus", "abel_minus"):
        assert sample_kernel(g, KernelSpec(family, 1.0)).values.dtype == np.float64
    # two real factors convolve to real samples; a complex factor, even one
    # with a zero imaginary part, is refused
    assert convolve(gauss, gauss).values.dtype == np.float64
    as_complex = SampledFunction(g, gauss.values + 0j)
    with pytest.raises(ValueError, match="real samples"):
        convolve(gauss, as_complex)
    # transforms are complex whatever the samples
    F = forward_ft(gauss)
    assert F.values.dtype == np.complex128
    assert inverse_ft(F).values.dtype == np.complex128
    assert forward_ft(as_complex).values.dtype == np.complex128


def _complex_bytes(x):
    """The bytes of x as complex128: a real array gets +0.0 imaginary parts."""
    return np.asarray(x, dtype=complex).tobytes()


def _real_and_complex(rng, grid):
    """The same real samples typed float64 and complex128, imaginary parts +0.0."""
    vals = rng.standard_normal(grid.size) * 10.0 ** rng.integers(-6, 7, grid.size)
    return SampledFunction(grid, vals), SampledFunction(grid, vals + 0j)


@given(
    half_points=st.integers(2, 300),
    half_width=st.floats(0.5, 50.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(half_points=2 ** 12, half_width=30.0, seed=0)
def test_real_samples_give_the_bits_of_complex_ones(half_points, half_width, seed):
    # the float64 path of each operation against the complex128 one on the
    # same real samples
    rng = np.random.default_rng(seed)
    g = make_grid(1, half_width, 2 * half_points)
    real, cplx = _real_and_complex(rng, g)
    F = forward_ft(real)
    assert _complex_bytes(F.values) == _complex_bytes(forward_ft(cplx).values)
    assert _complex_bytes(inverse_ft(F).values) == _complex_bytes(inverse_ft(forward_ft(cplx)).values)
    assert _complex_bytes(integrate(real)) == _complex_bytes(integrate(cplx))


def test_radial_integrate_matches_cartesian():
    val = radial_integrate(lambda r: np.exp(-math.pi * r * r), 2)
    assert val == pytest.approx(1.0, abs=1e-12)
    val3 = radial_integrate(lambda r: poisson_kernel(3, 2.0, r), 3)
    assert val3 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_radial_rule_gives_unit_masses(n):
    # exp(-pi |x|^2) and every Poisson kernel have unit mass in each dimension
    assert abs(radial_integrate(lambda r: np.exp(-math.pi * r * r), n) - 1.0) <= 1e-15
    for t in (0.1, 1.0, 10.0):
        mass = radial_integrate(lambda r: poisson_kernel(n, t, r), n)
        assert abs(mass - 1.0) <= 2.3e-16


def test_radial_rule_calls_the_profile_once_on_an_array():
    calls = []

    def profile(r):
        calls.append(r)
        return np.exp(-r)

    assert abs(radial_integrate(profile, 1) - 2.0) <= 4.5e-16
    assert len(calls) == 1 and calls[0].ndim == 1


def test_radial_rule_overflow_in_the_tail_is_silent():
    # far out, the Poisson kernel's power overflows to inf and P is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(radial_integrate(lambda r: poisson_kernel(3, 0.1, r), 3) - 1.0) <= 2.3e-16


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_radial_integrate_rejects_a_non_finite_integrand(bad):
    with pytest.raises(ValueError, match="finite"):
        radial_integrate(lambda r: np.where(r < 0.5, bad, 1.0), 1)


# --- exact summation ------------------------------------------------------

def _bits(v: float) -> bytes:
    # equal bits, so +0.0 and -0.0 differ
    return struct.pack("<d", v)


def _fsum_oracle(values: np.ndarray) -> complex:
    # the summation the quadrature and the damped means used before exact
    # sums: math.fsum over Python lists of the real and imaginary parts
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


def _assert_same_complex(got: complex, want: complex):
    assert (_bits(got.real), _bits(got.imag)) == (_bits(want.real), _bits(want.imag))


# every binade from the least subnormal to the largest finite floats
_wide_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp,
              st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
              st.integers(-1074, 1023)),
)


def _assert_sum_matches_fsum(xs):
    try:
        want = math.fsum(xs)
    except OverflowError:
        assume(False)
    assert _bits(_exact_sum(np.array(xs, dtype=float))) == _bits(want)


@given(st.lists(_wide_floats, max_size=60))
def test_exact_sum_matches_fsum_bits(xs):
    _assert_sum_matches_fsum(xs)


# runs of one np.frexp exponent (exponent, length, seed), each at least 16
# addends long with both signs, so that every block sums its runs first at
# the default cut-off
_runs = st.lists(
    st.tuples(st.integers(-1074, 1024), st.integers(16, 300), st.integers(0, 2 ** 32 - 1)),
    min_size=1, max_size=8)


@given(_runs)
def test_exact_sum_of_runs_of_one_exponent(runs):
    xs = []
    for e, size, seed in runs:
        rng = np.random.default_rng(seed)
        xs += np.ldexp(rng.uniform(0.5, 1.0, size) * rng.choice([-1.0, 1.0], size), e).tolist()
    _assert_sum_matches_fsum(xs)


@given(st.lists(_wide_floats, max_size=30), st.randoms(use_true_random=False))
def test_exact_sum_of_cancelling_terms(xs, rnd):
    # mixed signs cancelling to exactly 0, in any order
    terms = xs + [-v for v in xs]
    rnd.shuffle(terms)
    _assert_sum_matches_fsum(terms)
    assert _bits(_exact_sum(np.array(terms, dtype=float))) == _bits(0.0)


_zeros = st.lists(st.sampled_from([0.0, -0.0]), max_size=40)


@given(_zeros, st.lists(_wide_floats, max_size=30), _zeros, st.booleans())
def test_exact_sum_of_a_core_between_zero_ends(head, core, tail, cancelling):
    # only the span between the first and the last nonzero addend is
    # summed; zero ends of either sign, around a core that may cancel to
    # exactly 0 or be empty (an array of zeros alone), keep math.fsum's bits
    if cancelling:
        core = core + [-v for v in core]
    xs = head + core + tail
    _assert_sum_matches_fsum(xs)
    if cancelling and any(core):
        assert _bits(_exact_sum(np.array(xs, dtype=float))) == _bits(0.0)


@pytest.mark.parametrize("xs", [
    [1.0, 2.0 ** -53],                       # tie, rounds to even 1.0
    [1.0 + 2.0 ** -52, 2.0 ** -53],          # tie, rounds up to even
    [-1.0, -(2.0 ** -53)],
    [1.0, 2.0 ** -53, 2.0 ** -1074],         # just above the tie
    [2.0 ** 53, 1.0, -(2.0 ** -60)],         # just below the tie
    [2.0 ** -1074, -(2.0 ** -1074), 2.0 ** -1074],
    [1e308, -1e308, 5e-324],
    [],
    [0.0],
    [-0.0],
    [0.0, 0.0, 0.0],
    [-0.0, -0.0, -0.0],
    [0.0, -0.0],
    [-0.0, 0.0, -0.0],
    [1.0, -1.0, -0.0],
])
def test_exact_sum_ties_and_zeros(xs):
    assert _bits(_exact_sum(np.array(xs, dtype=float))) == _bits(math.fsum(xs))


def _blockwise_cases(rng, block):
    # zero and -0.0 blocks between nonzero blocks, with and without a
    # nonzero total; one exponent over more than four blocks, where every
    # addend of every block shares its bucket
    gaps = rng.standard_normal(7 * block + 3)
    gaps[block:3 * block] = 0.0
    gaps[4 * block:5 * block] = -0.0
    cancelling = np.zeros(7 * block + 3)
    cancelling[[0, -1]] = 1.0, -1.0
    cancelling[block:3 * block] = -0.0
    one_exponent = rng.uniform(0.5, 1.0, 5 * block + 3) * rng.choice([-1.0, 1.0], 5 * block + 3)
    return [gaps, cancelling, -np.zeros(3 * block + 1), one_exponent, one_exponent * 2.0 ** -1040]


def _smooth_cases(block):
    # runs of one exponent that outlast a block and cross block and chunk
    # boundaries: a slow decay, a two-sided Gaussian-damped tail down to
    # subnormals and zeros, and a decay times an oscillation, whose runs
    # hold both signs
    u = np.linspace(0.0, 1.0, 9 * block + 5)
    return [np.exp(-3.0 * u), np.exp(-745.0 * (2.0 * u - 1.0) ** 2),
            np.exp(-40.0 * u) * np.cos(300.0 * u)]


# chunk lengths that are and are not multiples of the block length
@pytest.mark.parametrize("chunk, block", [(7, 3), (5, 5), (16, 4), (1, 1), (40, 6)])
def test_exact_sum_across_chunk_and_block_boundaries(monkeypatch, chunk, block):
    monkeypatch.setattr(sampled, "_CHUNK", chunk)
    monkeypatch.setattr(sampled, "_BLOCK", block)
    rng = np.random.default_rng(7)
    cases = [rng.standard_normal(size) * np.exp2(rng.integers(-1074, 1000, size))
             for size in range(0, 3 * chunk + 2 * block + 3)]
    cases += _blockwise_cases(rng, block) + _smooth_cases(block)
    for x in cases:
        assert _bits(_exact_sum(x)) == _bits(math.fsum(x.tolist()))


# the default block and chunk lengths: long runs, runs of one addend
# (noise) and runs that hold zeros next to subnormals, and runs of one
# exponent `run` addends long: one addend, a few, and one run over the
# whole array, across every block
@pytest.mark.parametrize("run", [1, 16, 1 << 20])
def test_exact_sum_runs_at_the_default_lengths(run):
    rng = np.random.default_rng(11)
    n = 3 * sampled._BLOCK + 77
    exponents = np.repeat(rng.integers(-1020, 1000, n // run + 1), run)[:n]
    runs = rng.choice([-1.0, 1.0], n) * np.ldexp(rng.uniform(0.5, 1.0, n), exponents)
    assert np.count_nonzero(np.diff(np.frexp(runs)[1])) <= n // run
    # mixed signs within each run of one exponent, the runs longer than
    # a block
    signs = rng.choice([-1.0, 1.0], n)
    scales = np.repeat(np.exp2([-3.0, 40.0, -900.0]), n // 3 + 1)[:n]
    mixed = signs * rng.uniform(0.5, 1.0, n) * scales
    # a Gauss-damped tail through more than 1000 binades down to subnormals
    r = np.linspace(-30.0, 30.0, n)
    tail = np.exp(-math.pi * r * r / 1.15) * np.cos(r)
    binades = np.frexp(tail[tail != 0])[1]
    assert binades.max() - binades.min() > 1000 and np.any(np.abs(tail) < 2.0 ** -1022)
    for x in (runs, mixed, tail, -tail, tail * 2.0 ** 1000, rng.standard_normal(n)):
        assert _bits(_exact_sum(x)) == _bits(math.fsum(x.tolist()))


@pytest.mark.parametrize("xs", [
    # carry groups of ten buckets whose merged values are negative, next
    # to positive ones, and borrowing across groups
    [2.0 ** 100, -(2.0 ** 60), 2.0 ** 20, -(2.0 ** -20), 2.0 ** -60, -(2.0 ** -1000)],
    [1.0, -(2.0 ** -1074)],
    [-1.0, 2.0 ** -1074],
    [2.0 ** -1022, -(2.0 ** -1074)],
    [2.0 ** 1023, -(2.0 ** 900), -(2.0 ** 500), 2.0 ** -500],
    [-(2.0 ** 1023), 2.0 ** 1013, -(2.0 ** 1003), 2.0 ** 993],
    [3.0 * 2.0 ** k * (-1) ** k for k in range(-1070, 1020, 7)],
])
def test_exact_sum_carry_groups_with_negative_values(xs):
    assert _bits(_exact_sum(np.array(xs))) == _bits(math.fsum(xs))


@pytest.mark.parametrize("head, run, sign", [
    # 1024 equal addends of 2**-63 add up to exactly 2**-53, half a unit
    # of 1.0: the total is a tie that rounds to even
    (1.0, [2.0 ** -63] * 1024, 1.0),
    (1.0 + 2.0 ** -52, [2.0 ** -63] * 1024, 1.0),
    # a run of both signs whose sum is the same tie
    (1.0, [2.0 ** -62] * 1024 + [-(2.0 ** -62)] * 512, 1.0),
    (1.0 + 2.0 ** -52, [-(2.0 ** -62)] * 512 + [2.0 ** -62] * 1024, -1.0),
    # 2**60 - 64, the tie just below a power of two, from runs that cross
    # block boundaries
    (2.0 ** 60, [-(2.0 ** -9)] * (1 << 15), 1.0),
    (2.0 ** 60, [-(2.0 ** -8)] * (1 << 15) + [2.0 ** -9] * (1 << 15), -1.0),
])
def test_exact_sum_of_a_run_that_lands_on_a_tie(head, run, sign):
    xs = [sign * head] + [sign * v for v in run]
    want = math.fsum(xs)
    exact = sum(map(Fraction, xs))
    # the exact total lies halfway between want and its neighbour
    other = math.nextafter(want, math.inf if exact > want else -math.inf)
    assert exact == (Fraction(want) + Fraction(other)) / 2
    assert _bits(_exact_sum(np.array(xs))) == _bits(want)


def test_exact_sum_overflow():
    # the exact total is out of range
    with pytest.raises(OverflowError):
        _exact_sum(np.array([1.7e308, 1.7e308]))
    # math.fsum overflows on the way; the exact total is representable
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308, -1e308])
    assert _exact_sum(np.array([1e308, 1e308, -1e308])) == 1e308


def test_exact_sum_defers_non_finite_addends_to_fsum():
    assert _exact_sum(np.array([1.0, math.inf])) == math.inf
    assert math.isnan(_exact_sum(np.array([1.0, math.nan])))
    with pytest.raises(ValueError):
        _exact_sum(np.array([math.inf, -math.inf]))


def _complex_samples(grid):
    # wide dynamic range in both parts, so the sums carry across many binades
    def func(x):
        r = np.abs(x)
        return (np.exp(-r) + 1e-3 / (1.0 + r * r)) * np.exp(3.0j * (r + 0.25))
    return sample_function(grid, func)


def _real_samples(grid, sign, imag):
    # sign times the real part of the complex samples, with an imaginary
    # part of zeros of one sign
    vals = sign * _complex_samples(grid).values.real + 0j
    vals.imag = imag
    return SampledFunction(grid, vals)


# 40000 points fill one block of the exact sum and part of a second
@pytest.mark.parametrize("grid", [make_grid(1, 40.0, 4096), make_grid(1, 400.0, 40000)])
def test_quadrature_and_means_match_fsum_on_complex_samples(grid):
    assert np.any(_complex_samples(grid).values.imag != 0.0)
    # a negative real sum lets the sign of a zero imaginary sum through
    # the complex product with the quadrature weight
    for f in (_complex_samples(grid), _real_samples(grid, 1.0, 0.0),
              _real_samples(grid, 1.0, -0.0), _real_samples(grid, -1.0, -0.0)):
        _assert_quadrature_and_means_match_fsum(f)


def _assert_quadrature_and_means_match_fsum(f):
    grid = f.grid
    r = np.abs(grid.axis())
    weight = grid.spacing
    _assert_same_complex(integrate(f), weight * _fsum_oracle(f.values))
    for t in (0.3, 1e-2, 1e-4):
        damped = _damp(f.values, np.exp(-2.0 * math.pi * t * r))
        _assert_same_complex(abel_mean(f, t), weight * _fsum_oracle(damped))
        damped = _damp(f.values, np.exp(-math.pi * (t * t) * r * r))
        _assert_same_complex(gauss_mean(f, t), weight * _fsum_oracle(damped))


def _damp(values, weights):
    # each part times the weights; a complex product would add a zero of
    # the other part's sign to a zero part
    out = np.empty_like(values)
    out.real, out.imag = values.real * weights, values.imag * weights
    return out
