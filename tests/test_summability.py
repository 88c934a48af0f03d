import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from abelharm import (
    KernelSpec,
    SCALES,
    SampledFunction,
    abel_mean,
    abel_mean_radial,
    gauss_mean,
    make_grid,
    poisson_kernel,
    sample_function,
    sample_kernel,
    summability_verdict,
)
from abelharm import summability
from abelharm.summability import _extrapolate, _radii


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_damped_means_reject_a_non_finite_scale(t):
    h = sample_function(make_grid(1, 4.0, 64), lambda x: np.exp(-x * x))
    for mean in (lambda: abel_mean(h, t), lambda: gauss_mean(h, t),
                 lambda: abel_mean_radial(lambda r: np.exp(-r * r), 1, t)):
        with pytest.raises(ValueError, match="finite and positive"):
            mean()


def test_scales_are_geometric():
    assert len(SCALES) == 12
    assert SCALES[0] == pytest.approx(0.1)
    ratios = [b / a for a, b in zip(SCALES, SCALES[1:])]
    assert all(r == pytest.approx(0.5) for r in ratios)


def test_abel_mean_of_exponential_closed_form():
    # damping an exponential by another exponential gives a Poisson value:
    # the damped integral of exp(-2 pi s |x|) equals P_1 evaluated at scale
    # argument, i.e. 1 / (pi (s + t)) for our normalizations
    g = make_grid(1, 20.0, 2 ** 20)
    h = sample_function(g, lambda x: np.exp(-2.0 * math.pi * np.abs(x)))
    got = abel_mean(h, 1.0)
    assert abs(got - 1.0 / (2.0 * math.pi)) < 1e-8


def test_gauss_mean_approaches_integral():
    g = make_grid(1, 20.0, 2 ** 20)
    h = sample_function(g, lambda x: np.exp(-math.pi * x * x))
    # first-order deficit in the damping scale
    assert abs(gauss_mean(h, 1e-3) - 1.0) < 2e-3
    assert abs(gauss_mean(h, 1e-4) - 1.0) < 2e-4


def test_extrapolation_removes_linear_error():
    ts = (0.1, 0.05, 0.025, 0.0125)
    means = [2.0 + 3.0 * t for t in ts]
    out = _extrapolate(ts, means)
    assert abs(out[-1] - 2.0) < 1e-12


@given(
    limit=st.floats(-10.0, 10.0),
    slope=st.floats(-5.0, 5.0),
    ratio=st.floats(0.2, 0.8),
)
def test_extrapolation_exact_on_linear_sequences(limit, slope, ratio):
    ts = tuple(0.2 * ratio ** k for k in range(6))
    means = [limit + slope * t for t in ts]
    out = _extrapolate(ts, means)
    assert abs(out[-1] - limit) < 1e-9 * max(1.0, abs(limit), abs(slope))


def test_verdict_reports_convergence():
    g = make_grid(1, 200.0, 2 ** 17)
    h = sample_function(g, lambda x: np.exp(-math.pi * x * x))
    rep = summability_verdict(h, "gauss")
    assert rep.converged
    assert abs(rep.limit_estimate - 1.0) < 1e-6
    assert len(rep.means) == 12


def test_verdict_rejects_unknown_kind():
    g = make_grid(1, 10.0, 64)
    h = sample_function(g, lambda x: np.exp(-x * x))
    with pytest.raises(ValueError):
        summability_verdict(h, "cesaro")


def _span_witnesses():
    # zero tails on both sides (the span is trimmed), no zero at either
    # end (the whole lattice), and complex samples with zero tails
    g = make_grid(1, 60.0, 4096)
    return [
        sample_function(g, lambda x: np.exp(-math.pi * x * x)),
        sample_kernel(g, KernelSpec("poisson", 1.0, 1)),
        sample_function(g, lambda x: np.exp(-2.0 * math.pi * np.abs(x) + 3.0j * x)),
    ]


@pytest.mark.parametrize("kind, mean", [("abel", abel_mean), ("gauss", gauss_mean)])
def test_verdict_means_are_the_single_means_bit_for_bit(kind, mean):
    for h in _span_witnesses():
        means = summability_verdict(h, kind).means
        single = np.array([mean(h, t) for t in SCALES], dtype=complex)
        assert means.tobytes() == single.tobytes()


def test_nonzero_span_is_found_once_per_sample_array(monkeypatch):
    calls, span = [], summability._nonzero_span

    def counting(vals):
        calls.append(vals)
        return span(vals)

    monkeypatch.setattr(summability, "_nonzero_span", counting)
    witnesses = _span_witnesses()
    for h in witnesses:
        for kind in ("abel", "gauss"):
            summability_verdict(h, kind)
        abel_mean(h, 0.5)
    assert len(calls) == len(witnesses)
    assert all(c is h.values for c, h in zip(calls, witnesses))
    # kept in each array's memo: the Gaussian's span is trimmed, the
    # Poisson kernel's is the lattice
    spans = [h._derived("span", lambda: pytest.fail("span not kept")) for h in witnesses]
    assert spans[0] != (0, 4096) and spans[1] == (0, 4096)


def test_radial_means_match_lattice_means():
    # same damped integral computed on the lattice and by radial quadrature
    g = make_grid(1, 500.0, 2 ** 18)
    h = sample_kernel(g, KernelSpec("poisson", 1.0, 1))
    lattice = abel_mean(h, 0.05).real
    radial = abel_mean_radial(lambda r: poisson_kernel(1, 1.0, r), 1, 0.05)
    assert abs(lattice - radial) < 1e-6


def test_radial_means_higher_dimensions():
    # heavy t log t deficit for the slowly decaying kernel; the verdict
    # machinery extrapolates it away, here we only pin the raw means
    val = abel_mean_radial(lambda r: poisson_kernel(2, 1.0, r), 2, 0.001)
    assert 0.95 < val < 1.0


def test_radial_means_check_the_integrand():
    with pytest.raises(ValueError, match="finite"):
        abel_mean_radial(lambda r: np.full_like(r, math.nan), 1, 0.05)


def test_radii_are_built_once_per_grid_and_read_only():
    g = make_grid(1, 2.0, 8)
    r = _radii(g)
    assert _radii(make_grid(1, 2.0, 8)) is r
    assert not r.flags.writeable
    np.testing.assert_array_equal(r, np.abs(g.axis()))


@given(
    half_points=st.integers(2, 300),
    half_width=st.floats(0.5, 50.0),
    t=st.floats(1e-5, 10.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_real_samples_give_the_means_of_complex_ones(half_points, half_width, t, seed):
    # float64 samples skip the imaginary sum; the means keep every bit of
    # those of the same samples typed complex128 with +0.0 imaginary parts
    rng = np.random.default_rng(seed)
    g = make_grid(1, half_width, 2 * half_points)
    vals = rng.standard_normal(g.size) * 10.0 ** rng.integers(-6, 7, g.size)
    real, cplx = SampledFunction(g, vals), SampledFunction(g, vals + 0j)
    assert real.values.dtype == np.float64
    for mean in (abel_mean, gauss_mean):
        a, b = mean(real, t), mean(cplx, t)
        assert np.array([a]).tobytes() == np.array([b]).tobytes()


def _full_length_mean(h, weights):
    # the means as they were first written: every lattice point weighted,
    # multiplied and summed, zeros included
    vals = h.values
    im = math.fsum((vals.imag * weights).tolist()) if np.iscomplexobj(vals) else 0.0
    return h.grid.spacing * complex(math.fsum((vals.real * weights).tolist()), im)


@given(
    half_points=st.integers(2, 200),
    half_width=st.floats(0.5, 50.0),
    t=st.floats(1e-5, 1e3),
    seed=st.integers(0, 2 ** 32 - 1),
    head=st.integers(0, 400),
    tail=st.integers(0, 400),
    imag_tails=st.sampled_from([None, "same", "none", "other"]),
    zero=st.sampled_from([0.0, -0.0, "mixed"]),
    magnitude=st.sampled_from([0, -300, -320]),
)
@example(half_points=8, half_width=1.0, t=1.0, seed=0, head=16, tail=0,
         imag_tails=None, zero=-0.0, magnitude=0)
@example(half_points=8, half_width=1.0, t=1.0, seed=0, head=16, tail=0,
         imag_tails="same", zero=-0.0, magnitude=0)
@example(half_points=8, half_width=1.0, t=1.0, seed=0, head=3, tail=5,
         imag_tails="none", zero=-0.0, magnitude=0)
@example(half_points=200, half_width=50.0, t=1e3, seed=1, head=201, tail=0,
         imag_tails=None, zero=-0.0, magnitude=-320)
@example(half_points=200, half_width=50.0, t=1e3, seed=1, head=0, tail=200,
         imag_tails="other", zero="mixed", magnitude=-320)
def test_means_equal_the_full_length_sums_bit_for_bit(half_points, half_width, t, seed, head,
                                                      tail, imag_tails, zero, magnitude):
    # The means weight and sum only the span where the samples are
    # nonzero.  Zero tails of any length (none, or every sample), zeros of
    # either sign, complex samples whose tails lie in one part only, and
    # products that underflow to all zeros keep the full-length bits.
    rng = np.random.default_rng(seed)
    g = make_grid(1, half_width, 2 * half_points)
    n = g.size

    def samples(head, tail):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n) * 10.0 ** magnitude
        zeros = np.zeros(n, dtype=bool)
        zeros[:head] = True
        zeros[n - min(tail, n):] = True
        zeros |= rng.random(n) < 0.1
        signs = rng.standard_normal(n) if zero == "mixed" else np.full(n, zero)
        return np.where(zeros, np.copysign(0.0, signs), x)

    vals = samples(head, tail)
    if imag_tails is not None:
        # "same": the imaginary part has the real part's tails; "none" and
        # "other": the span of the samples is the union of the two parts'
        other = {"same": (head, tail), "none": (0, 0), "other": (tail, head)}[imag_tails]
        vals = vals + 1j * samples(*other)
        if imag_tails == "same":
            vals.imag[vals.real == 0] = vals.real[vals.real == 0]
    h = SampledFunction(g, vals)
    r = np.abs(g.axis())
    for mean, weights in ((abel_mean, np.exp(-2.0 * math.pi * t * r)),
                          (gauss_mean, np.exp(-math.pi * (t * t) * r * r))):
        got, want = mean(h, t), _full_length_mean(h, weights)
        assert np.array([got]).tobytes() == np.array([want]).tobytes()


@pytest.mark.parametrize("x", [summability._EXP_FLOOR,
                               np.nextafter(summability._EXP_FLOOR, -math.inf),
                               -1e300, -math.inf])
def test_exp_underflows_to_zero_at_and_below_the_floor(x):
    # the means compute no weight below the floor: numpy must give +0.0
    # there, as correct rounding does (exp(-746) < 2**-1075)
    assert np.array([np.exp(x)]).tobytes() == np.array([0.0]).tobytes()


@pytest.mark.parametrize("mean, scale", [(abel_mean, 740.0 / (2.0 * math.pi * 10.0)),
                                         (gauss_mean, math.sqrt(740.0 / math.pi) / 10.0)],
                         ids=["abel", "gauss"])
def test_weights_that_underflow_to_subnormals_still_count(mean, scale):
    # samples of 1e300 at every radius >= 10, zero inside: the exponent is
    # about -740 at radius 10, below -746 from the next point out, so the
    # only nonzero products come from subnormal weights, and they decide
    # the mean
    g = make_grid(1, 50.0, 400)
    r = np.abs(g.axis())
    h = SampledFunction(g, np.where(r >= 10.0, 1e300, 0.0))
    exponent = {abel_mean: -2.0 * math.pi * scale * r,
                gauss_mean: -math.pi * (scale * scale) * r * r}[mean]
    edge = exponent[r == 10.0]
    assert np.all((-746.0 < edge) & (edge < -708.0)) and edge.size == 2
    assert np.all(exponent[r > 10.0] < -746.0)
    got, want = mean(h, scale), _full_length_mean(h, np.exp(exponent))
    assert got != 0.0
    assert np.array([got]).tobytes() == np.array([want]).tobytes()


# a lattice of 400 points on [-50, 50), index 200 at the origin, whose
# exponents fall below the floor beyond radius ~20 (indices 120 and 280)
@pytest.mark.parametrize("lo, hi", [
    (0, 400),      # both ends of the span below the floor
    (10, 390),
    (130, 270),    # both ends above it
    (100, 250),    # one end on each side of the floor
    (150, 300),
    (200, 400),    # the origin is the span's first point
    (0, 201),      # ... its last point
    (200, 201),    # ... its only point
    (0, 100),      # the whole span below the floor, on either side
    (300, 400),
])
def test_window_edges_keep_the_full_length_bits(lo, hi):
    g = make_grid(1, 50.0, 400)
    r = np.abs(g.axis())
    rng = np.random.default_rng(lo * 1000 + hi)
    vals = np.zeros(g.size, dtype=complex)
    vals[lo:hi] = rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo)
    vals[[lo, hi - 1]] = 1.0 - 1.0j
    for h in (SampledFunction(g, vals), SampledFunction(g, vals.real)):
        for mean, scale, exponent in (
                (abel_mean, 5.94, lambda t, r: -2.0 * math.pi * t * r),
                (gauss_mean, 0.77, lambda s, r: -math.pi * (s * s) * r * r)):
            e = exponent(scale, r)
            # the window is the part of the span above the floor
            kept = np.flatnonzero(e[lo:hi] >= summability._EXP_FLOOR) + lo
            window = summability._window(lambda x: exponent(scale, x), _radii(g), lo, hi)
            assert window[1] - window[0] == kept.size
            if kept.size:
                assert window == (kept[0], kept[-1] + 1)
            got, want = mean(h, scale), _full_length_mean(h, np.exp(e))
            assert np.array([got]).tobytes() == np.array([want]).tobytes()


_fsum = math.fsum


def _fsum_keeping_negative_zero(xs):
    # math.fsum gives +0.0 for any sum of zeros; IEEE addition gives -0.0
    # when every addend is -0.0
    xs = list(xs)
    if xs and all(x == 0.0 and math.copysign(1.0, x) < 0.0 for x in xs):
        return -0.0
    return _fsum(xs)


@pytest.mark.parametrize("fsum", [_fsum, _fsum_keeping_negative_zero])
def test_means_of_products_that_underflow_keep_the_sign_of_the_full_sum(monkeypatch, fsum):
    # Every product is a zero of its sample's sign, and the span's products
    # alone do not see the zeros outside the span.  The sign of a sum of
    # zeros is math.fsum's to decide; under either rule the means give
    # what the full-length sums give.
    monkeypatch.setattr(math, "fsum", fsum)
    g = make_grid(1, 50.0, 400)
    r = np.abs(g.axis())
    for fill in (-0.0, 0.0):
        vals = np.full(g.size, fill)
        vals[-10:] = -1e-300
        h = SampledFunction(g, vals)
        for mean, weights in ((abel_mean, np.exp(-2.0 * math.pi * 1e3 * r)),
                              (gauss_mean, np.exp(-math.pi * (1e3 * 1e3) * r * r))):
            got, want = mean(h, 1e3), _full_length_mean(h, weights)
            assert got == 0.0
            assert np.array([got]).tobytes() == np.array([want]).tobytes()


@pytest.mark.parametrize("mean, scale", [(abel_mean, 1e308), (gauss_mean, 1e200)])
def test_means_at_extreme_scales_are_the_sample_at_the_origin(mean, scale):
    # 2 pi t or pi s^2 overflows; the weight is still 1 at the origin and
    # 0 elsewhere, not the NaN of inf * 0
    g = make_grid(1, 4.0, 64)
    h = sample_function(g, lambda x: 1.0 + x * x + 2j * np.cos(x))
    assert mean(h, scale) == g.spacing * (1.0 + 2j)
