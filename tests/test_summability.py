import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from abelharm import (
    KernelSpec,
    SampledFunction,
    Schedule,
    abel_mean,
    abel_mean_radial,
    default_schedule,
    gauss_mean,
    make_grid,
    poisson_kernel,
    sample_function,
    sample_kernel,
    summability_verdict,
)
from abelharm.summability import _extrapolate, _radii


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule((0.1, 0.2, 0.05, 0.025))  # not decreasing
    with pytest.raises(ValueError):
        Schedule((0.1, 0.05, 0.025))  # too short
    with pytest.raises(ValueError):
        Schedule((0.1, 0.05, 0.025, 0.0))  # nonpositive entry



@pytest.mark.parametrize("scales", [
    (math.inf, 0.05, 0.025, 0.0125),
    (0.1, math.nan, 0.025, 0.0125),
    (0.1, 0.05, 0.025, math.nan),
])
def test_schedule_rejects_non_finite_scales(scales):
    with pytest.raises(ValueError, match="finite and positive"):
        Schedule(scales)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_schedule_rejects_a_non_finite_tolerance(tol):
    # an infinite tolerance would declare every schedule converged
    with pytest.raises(ValueError, match="finite and positive"):
        Schedule((0.1, 0.05, 0.025, 0.0125), convergence_tol=tol)

@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_damped_means_reject_a_non_finite_scale(t):
    h = sample_function(make_grid(1, 4.0, 64), lambda x: np.exp(-x * x))
    for mean in (lambda: abel_mean(h, t), lambda: gauss_mean(h, t),
                 lambda: abel_mean_radial(lambda r: np.exp(-r * r), 1, t)):
        with pytest.raises(ValueError, match="finite and positive"):
            mean()


def test_default_schedule_is_geometric():
    s = default_schedule()
    assert len(s.t_values) == 12
    assert s.t_values[0] == pytest.approx(0.1)
    ratios = [b / a for a, b in zip(s.t_values, s.t_values[1:])]
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
    rep = summability_verdict(h, "gauss", default_schedule())
    assert rep.converged
    assert abs(rep.limit_estimate - 1.0) < 1e-6
    assert len(rep.means) == 12


def test_verdict_rejects_unknown_kind():
    g = make_grid(1, 10.0, 64)
    h = sample_function(g, lambda x: np.exp(-x * x))
    with pytest.raises(ValueError):
        summability_verdict(h, "cesaro", default_schedule())


def test_radial_means_match_lattice_means():
    # same damped integral computed on the lattice and by radial quadrature
    g = make_grid(1, 500.0, 2 ** 18)
    h = sample_kernel(g, KernelSpec("poisson", 1.0, 1))
    lattice = abel_mean(h, 0.05).real
    radial = abel_mean_radial(lambda r: poisson_kernel(1, 1.0, r), 1, 0.05,
                              upper=g.half_width)
    assert abs(lattice - radial) < 1e-6


def test_radial_means_higher_dimensions():
    # heavy t log t deficit for the slowly decaying kernel; the verdict
    # machinery extrapolates it away, here we only pin the raw means
    val = abel_mean_radial(lambda r: poisson_kernel(2, 1.0, r), 2, 0.001)
    assert 0.95 < val < 1.0


def test_radial_means_check_the_range_and_the_integrand():
    unit = lambda r: poisson_kernel(1, 1.0, r)
    for upper in (math.nan, 0.0, -1.0, -math.inf):
        with pytest.raises(ValueError, match="positive"):
            abel_mean_radial(unit, 1, 0.05, upper=upper)
    for upper in (1.0, math.inf):
        with pytest.raises(ValueError, match="finite"):
            abel_mean_radial(lambda r: np.full_like(r, math.nan), 1, 0.05, upper=upper)


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
