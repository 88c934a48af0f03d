import math
import re

import numpy as np
import pytest

from abelharm import (
    KernelSpec,
    QuadratureBudgetError,
    abel_from_gaussians,
    abel_ft,
    abel_kernel,
    gauss_kernel,
    half_kernel,
    half_kernel_ft,
    kernel_value,
    poisson_constant,
    poisson_kernel,
    make_grid,
    radial_integrate,
    sample_kernel,
)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("triangle", 1.0)
    with pytest.raises(ValueError):
        KernelSpec("abel", 0.0)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_kernels_reject_a_non_finite_scale(t):
    for make in (
        lambda: KernelSpec("gauss", t, 1),
        lambda: abel_kernel(t, 0.0),
        lambda: gauss_kernel(t, 0.0),
        lambda: poisson_kernel(1, t, 0.0),
        lambda: abel_ft(1, t, 0.0),
        lambda: half_kernel("+", t, 0.0),
        lambda: half_kernel_ft("-", t, 0.0),
        lambda: abel_from_gaussians(t, 0.0),
    ):
        with pytest.raises(ValueError, match="finite and positive"):
            make()


def test_kernels_at_extreme_scales_are_finite():
    # where 2 pi t or pi s^2 overflows, the weight at 0 is still 1, not the
    # NaN of inf * 0, and an exponent that overflows is a weight of 0
    # without a warning
    assert abel_kernel(1e308, 0.0) == 1.0
    assert abel_kernel(1e308, 1.0) == 0.0
    assert abel_kernel(1e306, 1e5) == 0.0
    assert half_kernel("+", 1e308, 0.0) == 1.0
    assert half_kernel("-", 1e308, -1.0) == 0.0
    assert gauss_kernel(1e170, 0.0) == 1.0
    assert gauss_kernel(1e170, 1.0) == 0.0
    assert gauss_kernel(1e150, 1e10) == 0.0
    g = make_grid(1, 4.0, 64)
    for family in ("abel", "abel_plus", "gauss"):
        vals = sample_kernel(g, KernelSpec(family, 1e308)).values
        assert vals[32] == 1.0 and np.count_nonzero(vals) == 1


def test_kernels_keep_their_closed_form_bits_at_ordinary_scales():
    x = np.linspace(-50.0, 50.0, 1001)
    r = np.abs(x)
    for t in (1e-5, 0.3, 1.0, 7.5, 1e3):
        assert abel_kernel(t, x).tobytes() == np.exp(-2.0 * math.pi * t * r).tobytes()
        assert gauss_kernel(t, x).tobytes() == np.exp(-math.pi * (t * t) * r * r).tobytes()
        for n in (1, 2, 3):
            want = poisson_constant(n) * t / (x * x + t * t) ** ((n + 1) / 2.0)
            assert poisson_kernel(n, t, x).tobytes() == want.tobytes()


@pytest.mark.parametrize("n, t", [(1, 1e-200), (1, 1e200), (2, 1e-110), (3, 1e-100), (3, 1e100)])
def test_poisson_kernel_rejects_scales_whose_peak_is_out_of_range(n, t):
    # the peak's denominator t^(n+1) underflows or overflows; t = 1e-200
    # on the line used to give inf for the finite peak c_1 / t
    for make in (lambda: poisson_kernel(n, t, 0.0), lambda: abel_ft(n, t, 1.0)):
        with pytest.raises(ValueError, match=re.escape(f"scale {t} is out of range")):
            make()
    if n == 1:
        with pytest.raises(ValueError, match=re.escape(f"scale {t} is out of range")):
            sample_kernel(make_grid(1, 4.0, 64), KernelSpec("poisson", t))
    # the edges of the range in dimension 1 keep a finite, exact peak
    assert poisson_kernel(1, 1e-150, 0.0) == poisson_constant(1) * 1e-150 / (1e-150 * 1e-150)
    assert poisson_kernel(1, 1e150, 0.0) == poisson_constant(1) * 1e150 / (1e150 * 1e150)


def test_abel_kernel_values():
    assert abel_kernel(1.0, 0.0) == 1.0
    assert abel_kernel(0.5, 1.0) == pytest.approx(math.exp(-math.pi))


def test_gauss_kernel_self_scale():
    assert gauss_kernel(1.0, 1.0) == pytest.approx(math.exp(-math.pi))
    assert gauss_kernel(2.0, 0.5) == pytest.approx(math.exp(-math.pi))


def test_poisson_kernel_peak_and_scaling():
    for n in (1, 2, 3):
        assert poisson_kernel(n, 2.0, 0.0) == pytest.approx(
            poisson_constant(n) * 2.0 ** -n)
        # P_t(r) = t^-n P_1(r/t)
        assert poisson_kernel(n, 2.0, 3.0) == pytest.approx(
            2.0 ** -n * poisson_kernel(n, 1.0, 1.5))


def test_poisson_kernel_unit_mass_quick():
    assert radial_integrate(lambda r: poisson_kernel(2, 1.0, r), 2) == pytest.approx(1.0)


def test_half_kernels_partition_pointwise():
    x = np.append(np.linspace(-3.0, 3.0, 301), [-math.inf, math.inf, math.nan])
    total = half_kernel("+", 1.0, x) + half_kernel("-", 1.0, x)
    # bit for bit, and NaN where the Abel kernel is NaN
    np.testing.assert_array_equal(total, abel_kernel(1.0, x))
    # the origin belongs to the "+" side only
    assert half_kernel("+", 1.0, 0.0) == 1.0
    assert half_kernel("-", 1.0, 0.0) == 0.0


def test_half_kernel_transforms_are_conjugate():
    xi = np.linspace(-5.0, 5.0, 101)
    plus = half_kernel_ft("+", 1.0, xi)
    minus = half_kernel_ft("-", 1.0, xi)
    assert np.max(np.abs(minus - np.conjugate(plus))) < 1e-15
    assert np.max(np.abs(plus + minus - abel_ft(1, 1.0, xi))) < 1e-15


def test_abel_ft_is_poisson():
    xi = np.linspace(-4.0, 4.0, 41)
    assert np.allclose(abel_ft(1, 0.7, xi), poisson_kernel(1, 0.7, xi), atol=0.0)


def test_gaussian_average_reconstructs_abel():
    x = np.linspace(-3.0, 3.0, 41)
    for t in (0.5, 1.0, 2.0):
        err = np.max(np.abs(abel_from_gaussians(t, x) - abel_kernel(t, x)))
        assert err < 1e-10


def test_gaussian_average_scalar_input():
    v = abel_from_gaussians(1.0, 0.5)
    assert isinstance(v, float)
    assert v == pytest.approx(abel_kernel(1.0, 0.5), abs=1e-10)


def test_gaussian_average_budget_guard():
    with pytest.raises(QuadratureBudgetError):
        abel_from_gaussians(1.0, 0.0, u_max=2.0, M=8)
    with pytest.raises(ValueError):
        abel_from_gaussians(1.0, 0.0, M=7)
    # a NaN estimate is past the budget too, not within it
    with np.errstate(invalid="ignore"), pytest.raises(QuadratureBudgetError):
        abel_from_gaussians(1.0, 0.5, u_max=math.inf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gaussian_average_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="finite"):
        abel_from_gaussians(1.0, np.array([0.5, bad]))


def test_kernel_value_dispatch():
    x = np.array([0.0, 1.0, -1.0])
    spec = KernelSpec("poisson", 1.0, 1)
    assert np.allclose(kernel_value(spec, x), poisson_kernel(1, 1.0, x))
