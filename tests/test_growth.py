import math
import warnings

import numpy as np
import pytest

from abelharm import (
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


def test_estimate_type_names_the_heights_where_f_overflows(flat_band):
    # f(iy) overflows from height 113 on; that is no zero of f
    with pytest.raises(OverflowError, match=r"z = \[120j\]"):
        estimate_type(flat_band, (2.0, 50.0, 120.0))


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
