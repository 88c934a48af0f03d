import math

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
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_real_samples_give_the_bits_of_complex_ones(half_points, half_width, t, seed):
    # the split, the harmonic extension and the Cauchy oracle of float64
    # samples against the same samples typed complex128, imaginary parts +0.0
    rng = np.random.default_rng(seed)
    g = make_grid(1, half_width, 2 * half_points)
    vals = rng.standard_normal(g.size) * 10.0 ** rng.integers(-6, 7, g.size)
    real, cplx = SampledFunction(g, vals), SampledFunction(g, vals + 0j)

    def same(a, b):
        return np.asarray(a, dtype=complex).tobytes() == np.asarray(b, dtype=complex).tobytes()

    for got, want in zip(hardy_split(real), hardy_split(cplx)):
        assert same(got.values, want.values)
    ext = poisson_extend(real, t)
    assert ext.values.dtype == np.float64
    assert same(ext.values, poisson_extend(cplx, t).values)
    x = rng.uniform(-2.0 * half_width, 2.0 * half_width, 5)
    for side in ("upper", "lower"):
        assert same(cauchy_represent(real, side, t, x), cauchy_represent(cplx, side, t, x))


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
    t=st.floats(0.01, 5.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(half_points=5000, half_width=40.0, m=9, side="upper", t=0.25, seed=0)
@example(half_points=2, half_width=0.5, m=1, side="lower", t=0.01, seed=1)
def test_cauchy_represent_matches_direct_sum(half_points, half_width, m, side, t, seed):
    # the blocked real-arithmetic sum against the closed-form kernel,
    # summed term by term
    rng = np.random.default_rng(seed)
    g = make_grid(1, half_width, 2 * half_points)
    f = _random_samples(rng, g)
    x = rng.uniform(-2.0 * half_width, 2.0 * half_width, m)
    _assert_matches_direct(f, side, t, x, cauchy_represent(f, side, t, x))


# (lattice chunk, lattice points); None is one chunk longer than the lattice
@pytest.mark.parametrize("chunk, points", [(1, 130), (7, 1030), (None, 130), (None, 2 ** 16)])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_cauchy_points_do_not_depend_on_their_batch(monkeypatch, chunk, points, side):
    # whatever the lattice chunk, each point's bits are the same alone, in
    # a batch (the last one short), in reverse order and in a shorter batch
    from abelharm import halfplane

    g = make_grid(1, 3.0, points)
    f = _random_samples(np.random.default_rng(7), g)
    monkeypatch.setattr(halfplane, "_CAUCHY_CHUNK", points + 1 if chunk is None else chunk)
    x = np.linspace(-4.0, 4.0, 11)
    batch = cauchy_represent(f, side, 0.3, x)
    assert np.array_equal(cauchy_represent(f, side, 0.3, x[::-1])[::-1], batch)
    assert np.array_equal(cauchy_represent(f, side, 0.3, x[1:]), batch[1:])
    assert np.array_equal(np.array([cauchy_represent(f, side, 0.3, xx) for xx in x]), batch)
    _assert_matches_direct(f, side, 0.3, x, batch)
