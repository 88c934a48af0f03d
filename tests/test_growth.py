import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from abelharm import (
    Spectrum,
    SupportSpec,
    check_pl_bound,
    envelope_bound,
    estimate_type,
    evaluate_entire,
    growth,
    make_grid,
    measure_real_bound,
    sample_spectrum,
)
from abelharm.spectral import _chirp_scan, _support_range


@pytest.fixture(scope="module")
def flat_band():
    g = make_grid(1, 2.0, 2048)
    return sample_spectrum(g, lambda xi: np.ones_like(xi),
                           SupportSpec.interval(-1.0, 1.0))


@pytest.fixture(scope="module")
def half_band():
    g = make_grid(1, 2.0, 2048)
    return sample_spectrum(g, lambda xi: np.ones_like(xi),
                           SupportSpec.interval(0.0, 0.5))


def test_requires_interval_support():
    g = make_grid(1, 2.0, 256)
    F = sample_spectrum(g, lambda xi: np.exp(-xi * xi), SupportSpec.full_line())
    with pytest.raises(ValueError):
        envelope_bound(F, 1.0)
    with pytest.raises(ValueError):
        estimate_type(F, (2.0, 3.0, 4.0))
    # a half-line declared as an interval is still unbounded
    half = sample_spectrum(g, lambda xi: np.exp(-xi * xi), SupportSpec.interval(0.0, math.inf))
    for call in (lambda: envelope_bound(half, -1.0), lambda: evaluate_entire(half, 1j),
                 lambda: check_pl_bound(half, 1.0, 1.0, ([0.0], [1.0]))):
        with pytest.raises(ValueError, match="bounded interval support"):
            call()


def test_evaluate_entire_matches_sinc(flat_band):
    # flat band of half-width 1 transforms to sin(2 pi x) / (pi x)
    x = np.array([0.3, 1.7, -2.4])
    want = np.sin(2.0 * math.pi * x) / (math.pi * x)
    got = evaluate_entire(flat_band, x)
    assert np.max(np.abs(got - want)) < 1e-4


def test_evaluate_entire_scalar_shape(flat_band):
    v = evaluate_entire(flat_band, 0.5 + 0.5j)
    assert isinstance(v, complex)
    arr = evaluate_entire(flat_band, np.array([[1j, 2j], [0.0, 1.0]]))
    assert arr.shape == (2, 2)


def test_envelope_closed_form(flat_band):
    # total spectral mass 2, exponent from the worse edge
    assert envelope_bound(flat_band, 0.0) == pytest.approx(2.0)
    assert envelope_bound(flat_band, 1.0) == pytest.approx(2.0 * math.exp(2.0 * math.pi))
    assert envelope_bound(flat_band, -1.0) == pytest.approx(2.0 * math.exp(2.0 * math.pi))


def test_envelope_asymmetric_support(half_band):
    # support [0, 1/2]: growing direction is y < 0
    up = envelope_bound(half_band, 1.0)
    down = envelope_bound(half_band, -1.0)
    assert down > up
    assert down == pytest.approx(0.5 * math.exp(math.pi))


def test_envelope_dominates_samples(flat_band):
    ys = np.linspace(-2.0, 2.0, 9)
    xs = np.linspace(-4.0, 4.0, 17)
    for y in ys:
        env = envelope_bound(flat_band, float(y))
        vals = np.abs(evaluate_entire(flat_band, xs + 1j * y))
        assert np.all(vals <= env * (1.0 + 1e-12))


def test_measured_bound_flat(flat_band):
    assert measure_real_bound(flat_band) == pytest.approx(2.0)


def test_measured_bound_sums_only_the_points_near_the_scanned_maximum(flat_band, monkeypatch):
    # 10 001 points against 1 025 weights: the scan finds the peak at
    # x = 0, and the direct sum runs there alone
    sizes = []
    monkeypatch.setattr(growth, "evaluate_entire",
                        lambda F, z: sizes.append(np.size(z)) or evaluate_entire(F, z))
    assert measure_real_bound(flat_band) == 2.0
    assert sizes == [1]


def test_real_bound_scans_a_window_shorter_than_the_support(monkeypatch):
    # 101 points against a band of 4 097 weights: one scan, then direct
    # sums at fewer points than the window holds
    F = sample_spectrum(make_grid(1, 64.0, 8192).reciprocal(), lambda xi: np.exp(-xi * xi),
                        SupportSpec.interval(-16.0, 16.0))
    start, stop = _support_range(F.grid, F.support)
    assert stop - start == 4097
    scans, sizes = [], []
    monkeypatch.setattr(growth, "_chirp_scan",
                        lambda *args: scans.append(args[3]) or _chirp_scan(*args))
    monkeypatch.setattr(growth, "evaluate_entire",
                        lambda F, z: sizes.append(np.size(z)) or evaluate_entire(F, z))
    B = measure_real_bound(F, 0.5)
    assert scans == [101] and len(sizes) == 1 and sizes[0] < 101
    xs = np.arange(-0.5, 0.505, 0.01)
    assert B.hex() == float(np.max(np.abs(evaluate_entire(F, xs)))).hex()


def test_type_estimates(flat_band, half_band):
    assert abs(estimate_type(flat_band, (2.0, 3.0, 4.0, 5.0)) - 2.0 * math.pi) <= 0.3
    assert abs(estimate_type(half_band, (2.0, 3.0, 4.0, 5.0)) - math.pi) <= 0.3


def test_estimate_type_validation(flat_band):
    with pytest.raises(ValueError):
        estimate_type(flat_band, (2.0, 3.0))  # too few heights
    with pytest.raises(ValueError):
        estimate_type(flat_band, (3.0, 2.0, 4.0))  # not increasing
    with pytest.raises(ValueError):
        estimate_type(flat_band, (0.5, 1.0, 1.5))  # top height too small


def test_estimate_type_names_the_heights_where_f_vanishes(monkeypatch):
    # the zero field vanishes at every height, however they are moved: one
    # evaluation per direction, then a refusal
    zero = sample_spectrum(make_grid(1, 2.0, 256), lambda xi: np.zeros_like(xi),
                           SupportSpec.interval(-1.0, 1.0))
    calls = []
    monkeypatch.setattr(growth, "evaluate_entire",
                        lambda F, z: calls.append(z) or evaluate_entire(F, z))
    with pytest.raises(ValueError, match=r"vanishes at heights \[2\.0, 3\.0, 4\.0\]"):
        estimate_type(zero, (2.0, 3.0, 4.0))
    assert len(calls) == 2


def test_estimate_type_names_the_heights_where_f_overflows(flat_band):
    # f(iy) overflows from height 113 on; that is no zero of f
    with pytest.raises(OverflowError, match=r"z = \[120j\]"):
        estimate_type(flat_band, (2.0, 50.0, 120.0))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_growth_checks_refuse_a_non_finite_height(flat_band, bad):
    # refused up front: no warning, no OverflowError, and a NaN does not
    # pass the order check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"heights must be finite, got [{bad!r}]")):
            estimate_type(flat_band, (2.0, 3.0, bad))
        with pytest.raises(ValueError, match=re.escape(f"heights must be finite, got [{bad!r}]")):
            check_pl_bound(flat_band, 2.0 * math.pi, 2.0, ([0.0], [0.0, bad]))


def test_entire_values_and_envelopes_out_of_range_raise(flat_band):
    # f(112i) is 6.8e302; one step up the sum and the envelope overflow
    assert abs(evaluate_entire(flat_band, 112j)) < math.inf
    with pytest.raises(OverflowError, match=r"z = \[\(0\.5\+113j\)\]"):
        evaluate_entire(flat_band, np.array([0.5 + 2j, 0.5 + 113j]))
    for y in (113.0, -113.0):
        with pytest.raises(OverflowError, match=f"height {y!r}"):
            envelope_bound(flat_band, y)


def test_envelope_rejects_a_non_finite_height(flat_band):
    for y in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="height must be finite"):
            envelope_bound(flat_band, y)


def test_pl_bound_verdicts(flat_band):
    xs = np.linspace(-5.0, 5.0, 21)
    ys = np.linspace(-3.0, 3.0, 13)
    B = measure_real_bound(flat_band)
    assert check_pl_bound(flat_band, 2.0 * math.pi, B, (xs, ys)) <= 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        bad = check_pl_bound(flat_band, math.pi, B, (xs, ys))
    assert bad > 1.0


def test_pl_bound_warns_when_sigma_understates_type(flat_band):
    xs = np.linspace(-2.0, 2.0, 5)
    ys = np.linspace(-1.0, 1.0, 5)
    with pytest.warns(RuntimeWarning):
        check_pl_bound(flat_band, math.pi, 2.0, (xs, ys))


def test_pl_bound_rejects_a_non_finite_type(flat_band):
    for sigma in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="sigma must be finite"):
            check_pl_bound(flat_band, sigma, 2.0, ([0.0], [1.0]))


def test_pl_bound_rejects_a_bound_that_is_not_finite_and_nonnegative(flat_band):
    for B in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match="B must be finite"):
            check_pl_bound(flat_band, 2.0 * math.pi, B, ([0.0], [1.0]))


def test_pl_bound_names_the_height_where_the_ceiling_overflows(flat_band):
    # exp(10 * 100) is out of range, and so is 1e300 * exp(10 * 10); f
    # itself stays finite at both heights
    for B, y in ((1.0, 100.0), (1e300, -10.0)):
        with pytest.raises(OverflowError, match=f"height {y!r}"):
            check_pl_bound(flat_band, 10.0, B, ([0.0], [0.0, y]))


@pytest.mark.parametrize("window", [math.inf, math.nan, 0.0, -1.0])
def test_measured_bound_needs_a_finite_positive_window(flat_band, window):
    with pytest.raises(ValueError, match=f"window must be finite and positive, got {window!r}"):
        measure_real_bound(flat_band, window)


def test_pl_bound_keeps_a_nan_row_wherever_it_stands(flat_band, monkeypatch):
    # an evaluator that is NaN on the row at height 1 and 1 elsewhere
    monkeypatch.setattr(growth, "evaluate_entire",
                        lambda F, z: np.where(z.imag == 1.0, math.nan, 1.0))
    xs = np.array([0.0, 1.0])
    for ys in ([0.0, 1.0], [1.0, 0.0]):
        assert math.isnan(check_pl_bound(flat_band, 2.0 * math.pi, 2.0, (xs, ys)))


def test_pl_bound_evaluates_the_lattice_in_one_call(flat_band, monkeypatch):
    # one call, a row per height; the factored kernel gives each point the
    # same bits in any batch, so the margin is that of a call per row
    xs, ys = np.linspace(-5.0, 5.0, 21), np.linspace(-3.0, 3.0, 13)
    B = measure_real_bound(flat_band)
    per_row = max(float(np.max(np.abs(evaluate_entire(flat_band, xs + 1j * y))
                                / (B * math.exp(2.0 * math.pi * abs(y))))) - 1.0 for y in ys)
    shapes = []
    monkeypatch.setattr(growth, "evaluate_entire",
                        lambda F, z: shapes.append(np.shape(z)) or evaluate_entire(F, z))
    assert check_pl_bound(flat_band, 2.0 * math.pi, B, (xs, ys)) == per_row
    assert shapes == [(13, 21)]


def test_zero_spectrum_passes_trivially():
    g = make_grid(1, 2.0, 256)
    F = sample_spectrum(g, lambda xi: np.zeros_like(xi),
                        SupportSpec.interval(-1.0, 1.0))
    xs = np.linspace(-1.0, 1.0, 3)
    ys = np.linspace(-1.0, 1.0, 3)
    B = measure_real_bound(F)
    assert B == 0.0
    # the declared support still announces a type, so understating it warns
    # even though the zero function satisfies any bound, the zero bound too
    with pytest.warns(RuntimeWarning):
        assert check_pl_bound(F, 1.0, B, (xs, ys)) <= 0.0


# the real-axis bound is the largest direct sum over the window's points,
# bit for bit, however many points the chirp-z scan keeps: short windows,
# which are scanned too though they have fewer points than the support,
# the zero spectrum, whose scan keeps every point, and even spectra, whose
# maxima come in near-tied pairs at +-x
@given(
    half_width=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.5, 8.0)),
    half_points=st.integers(2, 400),
    ends=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
    window=st.one_of(st.floats(0.001, 2.0), st.floats(2.0, 50.0)),
    kind=st.sampled_from(["random", "even", "zero"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(half_width=2.0, half_points=512, ends=(-1.0, 1.0), window=50.0, kind="even", seed=0)
@example(half_width=8.0, half_points=512, ends=(-4.0, 4.0), window=0.5, kind="random", seed=0)
@example(half_width=2.0, half_points=64, ends=(-1.0, 1.0), window=25.0, kind="zero", seed=0)
def test_real_bound_is_the_direct_maximum_bit_for_bit(half_width, half_points, ends, window,
                                                     kind, seed):
    rng = np.random.default_rng(seed)
    freq = make_grid(1, half_width, 2 * half_points).reciprocal()
    c = max(abs(e) for e in ends)
    support = SupportSpec.interval(*sorted(ends)) if kind == "random" else SupportSpec.interval(-c, c)
    start, stop = _support_range(freq, support)
    vals = np.zeros(freq.points, dtype=complex)
    if kind == "random":
        vals[start:stop] = rng.standard_normal(stop - start) + 1j * rng.standard_normal(stop - start)
    elif kind == "even":
        xi = freq._axis_range(start, stop)
        vals[start:stop] = np.cos(3.0 * xi) + 1.0 / (1.0 + xi * xi)
    F = Spectrum(freq, vals, support)
    xs = np.arange(-window, window + 0.005, 0.01)
    want = float(np.max(np.abs(evaluate_entire(F, xs))))
    assert measure_real_bound(F, window).hex() == want.hex()
