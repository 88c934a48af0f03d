import math

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
    radial_integrate,
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
