import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from abelharm import (
    SampledFunction,
    SupportSpec,
    cauchy_represent,
    cr_residual,
    evaluate_field,
    evaluate_lower,
    evaluate_upper,
    forward_ft,
    half_kernel_ft,
    hardy_split,
    inverse_ft,
    make_grid,
    poisson_extend,
    poisson_kernel,
    sample_function,
    sample_kernel,
    sample_spectrum,
    KernelSpec,
)
from abelharm import halfplane


@pytest.fixture(scope="module")
def small_upper_spectrum():
    # frequency lattice fine enough that the geometric sum for exp decay
    # matches the continuum integral to ~1e-6
    g = make_grid(1, 8.0, 8192)
    return sample_spectrum(g, lambda xi: np.exp(-2.0 * math.pi * xi),
                           SupportSpec.nonneg())


def test_split_reassembles_small_grid():
    g = make_grid(1, 40.0, 2 ** 14)
    f = sample_function(g, lambda x: np.exp(-math.pi * x * x) * (1.0 + 0.3j))
    plus, minus = hardy_split(f)
    recon = inverse_ft(plus).values + inverse_ft(minus).values
    assert np.max(np.abs(recon - f.values)) < 1e-10


def test_split_supports_are_one_sided():
    g = make_grid(1, 20.0, 4096)
    f = sample_function(g, lambda x: np.exp(-math.pi * x * x))
    plus, minus = hardy_split(f)
    xi = plus.grid.axis()
    assert np.all(plus.values[xi < 0] == 0.0)
    assert np.all(minus.values[xi >= 0] == 0.0)


def test_evaluate_upper_closed_form(small_upper_spectrum):
    # the damped geometric sum at z = i has the closed value 1/(4 pi)
    got = evaluate_upper(small_upper_spectrum, 1j)
    assert abs(got - 1.0 / (4.0 * math.pi)) < 1e-5


def test_evaluate_upper_accepts_points_and_arrays(small_upper_spectrum):
    a = evaluate_upper(small_upper_spectrum, 1j)
    c = evaluate_upper(small_upper_spectrum, np.array([1j, 2j]))
    assert isinstance(a, complex)
    assert c.shape == (2,)
    assert c[0] == a


def test_evaluate_upper_rejects_lower_points(small_upper_spectrum):
    with pytest.raises(ValueError):
        evaluate_upper(small_upper_spectrum, -1j)


def test_evaluate_lower_mirror():
    g = make_grid(1, 8.0, 8192)
    low = sample_spectrum(g, lambda xi: np.exp(2.0 * math.pi * xi),
                          SupportSpec.nonpos())
    got = evaluate_lower(low, -1j)
    assert abs(got - 1.0 / (4.0 * math.pi)) < 1e-5
    with pytest.raises(ValueError):
        evaluate_lower(low, 1j)


def test_boundary_points_allowed_on_both_sides(small_upper_spectrum):
    v = evaluate_upper(small_upper_spectrum, 0.5)
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_evaluate_field_layout(small_upper_spectrum):
    xs = np.linspace(-1.0, 1.0, 5)
    ys = np.array([0.5, 1.0])
    fld = evaluate_field(small_upper_spectrum, xs, ys)
    assert fld.values.shape == (2, 5)
    assert fld.side == "upper"
    single = evaluate_upper(small_upper_spectrum, xs[3] + 1j * ys[1])
    assert fld.values[1, 3] == single


def test_evaluate_field_reaches_the_axis(small_upper_spectrum):
    # the field takes the closed half-plane its evaluators accept
    xs = np.array([-1.0, 0.0, 0.5, 1.0])
    fld = evaluate_field(small_upper_spectrum, xs, [0.0, 0.5])
    assert fld.values[0].tobytes() == evaluate_upper(small_upper_spectrum, xs).tobytes()
    low = sample_spectrum(small_upper_spectrum.grid, lambda xi: np.exp(2.0 * math.pi * xi),
                          SupportSpec.nonpos())
    fld = evaluate_field(low, xs, [-0.5, 0.0])
    assert fld.values[1].tobytes() == evaluate_lower(low, xs).tobytes()
    # a height below the axis is still outside an upper field
    with pytest.raises(ValueError, match="upper half-plane"):
        evaluate_field(small_upper_spectrum, xs, [-0.5, 0.0])


@pytest.mark.parametrize("shape", [(2, 2), (1, 4)])
def test_evaluate_field_refuses_a_lattice_that_is_not_1d(small_upper_spectrum, shape):
    # a (2, 2) lattice would reach numpy's broadcast error, and a (1, 4)
    # one a record whose table keeps one of its four x values
    bad = np.arange(4.0).reshape(shape)
    for what, call in (
        ("x values", lambda: evaluate_field(small_upper_spectrum, bad, [0.5, 1.0])),
        ("heights", lambda: evaluate_field(small_upper_spectrum, [0.0, 1.0], bad)),
    ):
        with pytest.raises(ValueError, match=re.escape(f"{what} must be a 1-D array, got shape {shape}")):
            call()


def test_cauchy_kernel_lattice_mass_is_half():
    g = make_grid(1, 5000.0, 2 ** 18)
    x = g.axis()
    vals = half_kernel_ft("-", 1.0, x)  # the upper Cauchy kernel 1/(2 pi (1 - ix))
    total = np.sum(vals) * g.spacing
    # the real part is half the Poisson kernel, so the mass is 1/2; the odd
    # imaginary part cancels in pairs except for the single unpaired node at
    # -R (the +R endpoint is excluded from the lattice)
    assert abs(total - 0.5) < 1e-3
    assert abs(total.imag) < 1e-5


def test_cauchy_represent_matches_spectral(small_upper_spectrum):
    f = inverse_ft(small_upper_spectrum)
    got = cauchy_represent(f, "upper", 0.5, 0.25)
    want = evaluate_upper(small_upper_spectrum, 0.25 + 0.5j)
    assert abs(got - want) < 1e-3


def test_cauchy_represent_keeps_the_shape_of_x():
    # each point's value is the same alone, in a flat array, or in any
    # array shape, including one whose last axis is the lattice size
    g = make_grid(1, 2.0, 8)
    f = sample_function(g, lambda x: np.exp(-math.pi * x * x))
    x = g.axis() + 0.1
    flat = cauchy_represent(f, "upper", 0.5, x)
    assert flat.shape == (8,)
    assert np.array_equal(cauchy_represent(f, "upper", 0.5, x[None, :]), flat[None, :])
    assert np.array_equal(cauchy_represent(f, "upper", 0.5, x.reshape(2, 4)), flat.reshape(2, 4))
    singles = [cauchy_represent(f, "upper", 0.5, xx) for xx in x]
    assert all(isinstance(v, complex) for v in singles)
    assert np.array_equal(np.array(singles), flat)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cauchy_represent_rejects_non_finite_points(bad):
    f = sample_function(make_grid(1, 2.0, 8), lambda x: np.exp(-math.pi * x * x))
    for x in (bad, np.array([0.0, bad])):
        with pytest.raises(ValueError, match="finite"):
            cauchy_represent(f, "lower", 0.5, x)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_cauchy_represent_and_poisson_extend_reject_a_non_finite_scale(t):
    # an infinite height would otherwise give nan+nanj from the oracle
    f = sample_function(make_grid(1, 2.0, 8), lambda x: np.exp(-math.pi * x * x))
    with pytest.raises(ValueError, match="finite and positive"):
        cauchy_represent(f, "upper", t, 0.0)
    with pytest.raises(ValueError, match="finite and positive"):
        poisson_extend(f, t)


def test_poisson_extend_semigroup():
    g = make_grid(1, 100.0, 2 ** 14)
    p1 = sample_kernel(g, KernelSpec("poisson", 1.0, 1))
    ext = poisson_extend(p1, 0.5)
    x = g.axis()
    win = np.abs(x) <= 5.0
    target = poisson_kernel(1, 1.5, x[win])
    rel = np.max(np.abs(ext.values[win] - target) / target)
    assert rel < 1e-2


def test_cr_residual_small_for_holomorphic(small_upper_spectrum):
    r = cr_residual(small_upper_spectrum, 1j, 1e-3)
    assert r < 1e-5


def test_cr_residual_flags_conjugate(small_upper_spectrum):
    F = small_upper_spectrum
    anti = cr_residual(F, 1j, 1e-3,
                       evaluator=lambda w: evaluate_upper(F, w).conjugate())
    assert anti > 1e-2


@pytest.mark.parametrize("spectrum", ["small_upper_spectrum", "exp_spectrum"])
@pytest.mark.parametrize("h", [1e-3, 5e-4])
@pytest.mark.parametrize("conjugate", [False, True])
def test_cr_residual_has_the_bits_of_four_calls(request, spectrum, h, conjugate):
    # one call on the four stencil points against one call per point, also
    # on the hardy suite's spectrum, whose residuals its table reports
    F = request.getfixturevalue(spectrum)
    z = 1j

    def field(w):
        value = evaluate_upper(F, w)
        return value.conjugate() if conjugate else value

    dx = (field(z + h) - field(z - h)) / (2.0 * h)
    dy = (field(z + 1j * h) - field(z - 1j * h)) / (2.0 * h)
    got = cr_residual(F, z, h, evaluator=field if conjugate else None)
    assert type(got) is float
    assert got.hex() == abs(dx + 1j * dy).hex()


def test_cr_residual_needs_margin(small_upper_spectrum):
    with pytest.raises(ValueError):
        cr_residual(small_upper_spectrum, 0.001j, 1e-3)


@given(
    half_points=st.integers(2, 256),
    half_width=st.floats(0.5, 50.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_split_reassembles_random_samples(half_points, half_width, seed):
    # the split partitions the lattice spectrum exactly, so the two halves
    # reassemble any samples up to round-trip rounding
    rng = np.random.default_rng(seed)
    g = make_grid(1, half_width, 2 * half_points)
    f = SampledFunction(g, rng.standard_normal(g.points) + 1j * rng.standard_normal(g.points))
    plus, minus = hardy_split(f)
    assert np.all(plus.values + minus.values == forward_ft(f).values)
    recon = inverse_ft(plus).values + inverse_ft(minus).values
    assert np.max(np.abs(recon - f.values)) <= 1e-12 * np.max(np.abs(f.values))


@given(
    half_points=st.integers(2, 300),
    half_width=st.floats(0.5, 50.0),
    t=st.floats(0.01, 5.0),
    block=st.sampled_from((8, None)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_real_samples_give_the_bits_of_complex_ones(half_points, half_width, t, block, seed):
    # the split and the Cauchy oracle of float64 samples against the same
    # samples typed complex128, imaginary parts +0.0; a block of 8 points
    # sends the oracle's far blocks to moments
    rng = np.random.default_rng(seed)
    g = make_grid(1, half_width, 2 * half_points)
    vals = rng.standard_normal(g.size) * 10.0 ** rng.integers(-6, 7, g.size)
    real, cplx = SampledFunction(g, vals), SampledFunction(g, vals + 0j)

    def same(a, b):
        return np.asarray(a, dtype=complex).tobytes() == np.asarray(b, dtype=complex).tobytes()

    for got, want in zip(hardy_split(real), hardy_split(cplx)):
        assert same(got.values, want.values)
    assert poisson_extend(real, t).values.dtype == np.float64
    x = rng.uniform(-2.0 * half_width, 2.0 * half_width, 5)
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(halfplane, "_CAUCHY_BLOCK", block)
        for side in ("upper", "lower"):
            assert same(cauchy_represent(real, side, t, x), cauchy_represent(cplx, side, t, x))


@given(
    half_points=st.integers(2, 1500),
    half_width=st.floats(0.5, 50.0),
    t=st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e),
    block=st.sampled_from((4, 64, None)),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(half_points=65, half_width=3.0, t=1e-3, block=None, seed=0)
@example(half_points=10000, half_width=40.0, t=0.25, block=None, seed=1)
@example(half_points=2 ** 15, half_width=100.0, t=3.0, block=None, seed=2)
def test_cauchy_lower_side_of_real_samples_is_the_conjugate(half_points, half_width, t,
                                                            block, seed):
    # the two sides differ by the sign of the height and of the output
    # factors, each exact, so for real samples the lower side is the
    # conjugate of the upper one bit for bit, in the far field and the
    # near field alike; the inversion suite's zero imaginary parts of the
    # Poisson integral rest on it
    rng = np.random.default_rng(seed)
    g = make_grid(1, half_width, 2 * half_points)
    f = SampledFunction(g, rng.standard_normal(g.size) * 10.0 ** rng.integers(-6, 7, g.size))
    x = np.concatenate([rng.uniform(-2.0 * half_width, 2.0 * half_width, 9),
                        [-half_width, 0.0, half_width]])
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(halfplane, "_CAUCHY_BLOCK", block)
        upper = cauchy_represent(f, "upper", t, x)
        lower = cauchy_represent(f, "lower", t, x)
    assert lower.tobytes() == np.conjugate(upper).tobytes()


# the Cauchy kernel of each side in closed form: 1/(2 pi (t - ix)) reproduces
# the upper extension, its conjugate the lower one; these are the half-line
# kernel transforms of sign "-" and "+", read at x
_KERNEL_SIGN = {"upper": "-", "lower": "+"}


def _direct_cauchy(f, side, t, x):
    """spacing * sum_j K(x - x_j) f_j, summed exactly, with the closed-form kernel."""
    terms = half_kernel_ft(_KERNEL_SIGN[side], t, x - f.grid.axis()) * f.values
    return f.grid.spacing * complex(math.fsum(terms.real), math.fsum(terms.imag))


def _assert_matches_direct(f, side, t, x, got):
    # each point's error is measured against the sum of its terms' moduli
    for xx, value in zip(x, got):
        kernel = half_kernel_ft(_KERNEL_SIGN[side], t, xx - f.grid.axis())
        size = f.grid.spacing * np.sum(np.abs(kernel) * np.abs(f.values))
        assert abs(value - _direct_cauchy(f, side, t, xx)) <= 1e-12 * size


def _random_samples(rng, grid):
    return SampledFunction(grid, rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points))


@given(
    half_points=st.integers(2, 1500),
    half_width=st.floats(0.5, 50.0),
    m=st.integers(1, 20),
    side=st.sampled_from(("upper", "lower")),
    t=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
    block=st.sampled_from((4, 16, 64, None)),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(half_points=5000, half_width=40.0, m=9, side="upper", t=0.25, block=None, seed=0)
@example(half_points=2, half_width=0.5, m=1, side="lower", t=0.01, block=None, seed=1)
@example(half_points=1001, half_width=3.0, m=20, side="lower", t=1e-3, block=4, seed=2)
@example(half_points=1001, half_width=3.0, m=20, side="upper", t=1e3, block=64, seed=3)
def test_cauchy_represent_matches_direct_sum(half_points, half_width, m, side, t, block, seed):
    # the block-moment far field and the direct near field against the
    # closed-form kernel, summed term by term; a short block length
    # (None keeps the default) sends most blocks to the far field, heights
    # run from 1e-3 to 1e3, and the points lie inside, at the edges of and
    # outside the lattice
    rng = np.random.default_rng(seed)
    g = make_grid(1, half_width, 2 * half_points)
    f = _random_samples(rng, g)
    edges = [-half_width, g._axis_range(g.points - 1, g.points)[0], half_width]
    x = np.concatenate([rng.uniform(-2.0 * half_width, 2.0 * half_width, m), edges])
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(halfplane, "_CAUCHY_BLOCK", block)
        got = cauchy_represent(f, side, t, x)
    _assert_matches_direct(f, side, t, x, got)


# (block length, lattice points); None is one block longer than the lattice
@pytest.mark.parametrize("block, points", [(1, 130), (7, 1030), (None, 130), (None, 2 ** 16)])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_cauchy_points_do_not_depend_on_their_batch(monkeypatch, block, points, side):
    # whatever the block length, each point's bits are the same alone, in
    # a batch, in reverse order and in a shorter batch
    g = make_grid(1, 3.0, points)
    f = _random_samples(np.random.default_rng(7), g)
    monkeypatch.setattr(halfplane, "_CAUCHY_BLOCK", points + 1 if block is None else block)
    x = np.linspace(-4.0, 4.0, 11)
    batch = cauchy_represent(f, side, 0.3, x)
    assert np.array_equal(cauchy_represent(f, side, 0.3, x[::-1])[::-1], batch)
    assert np.array_equal(cauchy_represent(f, side, 0.3, x[1:]), batch[1:])
    assert np.array_equal(np.array([cauchy_represent(f, side, 0.3, xx) for xx in x]), batch)
    _assert_matches_direct(f, side, 0.3, x, batch)


def test_a_sample_array_is_transformed_once(monkeypatch):
    # hardy_split(f) and then forward_ft(f) cost one transform; the kept
    # spectrum is read-only and has the bits of a fresh copy's transform
    from abelharm import spectral

    calls, dft = [], spectral._centred_dft

    def counting(values, spacing, inverse):
        calls.append(inverse)
        return dft(values, spacing, inverse)

    monkeypatch.setattr(spectral, "_centred_dft", counting)
    g = make_grid(1, 8.0, 4096)
    f = _random_samples(np.random.default_rng(3), g)
    plus, minus = hardy_split(f)
    F = forward_ft(f)
    assert calls == [False]
    assert forward_ft(f) is F
    assert np.all(plus.values + minus.values == F.values)
    with pytest.raises(ValueError, match="read-only"):
        F.values[0] = 1.0
    fresh = forward_ft(SampledFunction(g, f.values.copy()))
    assert len(calls) == 2
    assert F.values.tobytes() == fresh.values.tobytes()


def test_cauchy_moment_table_is_built_once_per_sample_array(monkeypatch):
    # three heights on both sides share one table, whose values are those
    # of a fresh copy's table; another block length builds its own
    calls, build = [], halfplane._block_moments

    def counting(f, block, order):
        calls.append((f, block))
        return build(f, block, order)

    monkeypatch.setattr(halfplane, "_block_moments", counting)
    monkeypatch.setattr(halfplane, "_CAUCHY_BLOCK", 64)
    g = make_grid(1, 40.0, 4096)
    f = _random_samples(np.random.default_rng(4), g)
    x = np.linspace(-2.0, 2.0, 9)
    cases = [(side, t) for side in ("upper", "lower") for t in (0.25, 0.5, 1.0)]
    values = [cauchy_represent(f, side, t, x) for side, t in cases]
    assert len(calls) == 1 and calls[0][0] is f
    fresh = SampledFunction(g, f.values.copy())
    for (side, t), got in zip(cases, values):
        assert cauchy_represent(fresh, side, t, x).tobytes() == got.tobytes()
    assert len(calls) == 2
    monkeypatch.setattr(halfplane, "_CAUCHY_BLOCK", 16)
    _assert_matches_direct(f, "upper", 0.5, x, cauchy_represent(f, "upper", 0.5, x))
    assert [(c is f, block) for c, block in calls[2:]] == [(True, 16)]
