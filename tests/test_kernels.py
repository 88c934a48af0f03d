import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from abelharm import (
    KernelSpec,
    QuadratureBudgetError,
    abel_from_gaussians,
    abel_kernel,
    abel_mean,
    gauss_mean,
    half_kernel,
    half_kernel_ft,
    poisson_kernel,
    make_grid,
    radial_integrate,
    sample_function,
    sample_kernel,
)
from abelharm.kernels import _POISSON_CONSTANT


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("triangle", 1.0)
    with pytest.raises(ValueError):
        KernelSpec("abel", 0.0)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_kernels_reject_a_non_finite_scale(t):
    for make in (
        lambda: KernelSpec("poisson", t, 1),
        lambda: abel_kernel(t, 0.0),
        lambda: poisson_kernel(1, t, 0.0),
        lambda: half_kernel("+", t, 0.0),
        lambda: half_kernel_ft("-", t, 0.0),
        lambda: abel_from_gaussians(t, 0.0),
    ):
        with pytest.raises(ValueError, match="finite and positive"):
            make()


def test_kernels_at_extreme_scales_are_finite():
    # where 2 pi t overflows, the weight at 0 is still 1, not the NaN of
    # inf * 0, and an exponent that overflows is a weight of 0 without a
    # warning
    assert abel_kernel(1e308, 0.0) == 1.0
    assert abel_kernel(1e308, 1.0) == 0.0
    assert abel_kernel(1e306, 1e5) == 0.0
    assert half_kernel("+", 1e308, 0.0) == 1.0
    assert half_kernel("-", 1e308, -1.0) == 0.0
    g = make_grid(1, 4.0, 64)
    for family in ("abel", "abel_plus"):
        vals = sample_kernel(g, KernelSpec(family, 1e308)).values
        assert vals[32] == 1.0 and np.count_nonzero(vals) == 1


def test_kernels_keep_their_closed_form_bits_at_ordinary_scales():
    x = np.linspace(-50.0, 50.0, 1001)
    r = np.abs(x)
    for t in (1e-5, 0.3, 1.0, 7.5, 1e3):
        assert abel_kernel(t, x).tobytes() == np.exp(-2.0 * math.pi * t * r).tobytes()
        for n in (1, 2, 3):
            want = _POISSON_CONSTANT[n] * t / (x * x + t * t) ** ((n + 1) / 2.0)
            assert poisson_kernel(n, t, x).tobytes() == want.tobytes()
        assert half_kernel_ft("+", t, x).tobytes() == (1.0 / (2.0 * math.pi * (t + 1j * x))).tobytes()
        assert half_kernel_ft("-", t, x).tobytes() == (1.0 / (2.0 * math.pi * (t - 1j * x))).tobytes()


_PEAK = 1.0 / (2.0 * math.pi) / 1e308


# each case used to stop with an overflow or invalid-value RuntimeWarning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value, want", [
    # 2 pi t overflows; the peak 1/(2 pi t) is a finite subnormal
    (lambda: half_kernel_ft("+", 1e308, 0.0), _PEAK),
    (lambda: half_kernel_ft("-", 1e308, np.array([0.0, 1e308])),
     np.array([_PEAK, _PEAK * (1.0 + 1.0j) / 2.0])),
    # pi t overflows at the origin, where the Abel kernel is 1 (to the
    # quadrature's accuracy)
    (lambda: abel_from_gaussians(1e308, 0.0), abel_from_gaussians(1.0, 0.0)),
    # (pi t |x|)^2 overflows: the Abel kernel underflows to 0
    (lambda: abel_from_gaussians(1e200, 1.0), 0.0),
    # 2 pi xi overflows at t = 1, on either side: about -+i/(2 pi xi)
    (lambda: half_kernel_ft("+", 1.0, 1e308), -1.0j * _PEAK),
    (lambda: half_kernel_ft("-", 1.0, np.array([0.5, -1e308])),
     np.array([1.0 / (2.0 * math.pi * (1.0 - 0.5j)), -1.0j * _PEAK])),
    # 2 pi (t + i xi) is finite, but numpy's division by it overflows
    (lambda: half_kernel_ft("+", 1.4305587428785142e307, 1.4305587428785142e307),
     (0.25 / math.pi) / 1.4305587428785142e307 * (1.0 - 1.0j)),
    # r^2 overflows: the kernel underflows to 0, or, scaled by max(t, |r|),
    # keeps a value that squaring both would round to 0
    (lambda: poisson_kernel(1, 1.0, np.array([0.0, 1e200])), np.array([1.0 / math.pi, 0.0])),
    (lambda: poisson_kernel(1, 1e150, 1e160), 1e-10 / math.pi / 1e160),
    # r^2 + t^2 is finite but its square overflows in dimension 3
    (lambda: poisson_kernel(3, 1.0, 1e100), 0.0),
], ids=["half_kernel_ft_huge_scale", "half_kernel_ft_huge_scale_and_point",
        "abel_from_gaussians_huge_scale_at_origin", "abel_from_gaussians_huge_exponent",
        "half_kernel_ft_huge_point_plus", "half_kernel_ft_huge_point_minus",
        "half_kernel_ft_huge_divisor",
        "poisson_kernel_huge_point", "poisson_kernel_huge_scale_and_point",
        "poisson_kernel_huge_point_dimension_3"])
def test_kernels_at_extreme_scales_return_finite_values(value, want):
    got = value()
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sign", ["+", "-"])
def test_half_kernel_ft_rejects_a_scale_whose_peak_overflows(sign):
    # 1/(2 pi t) is about 1.6e319 at t = 1e-320
    with pytest.raises(ValueError, match=re.escape("scale 1e-320 is out of range")):
        half_kernel_ft(sign, 1e-320, 0.0)
    # a subnormal scale whose peak is finite keeps it
    assert math.isfinite(half_kernel_ft(sign, 1e-309, 0.0).real)


@pytest.mark.parametrize("n, t", [(1, 1e-200), (1, 1e200), (2, 1e-110), (3, 1e-100), (3, 1e100)])
def test_poisson_kernel_rejects_scales_whose_peak_is_out_of_range(n, t):
    # the peak's denominator t^(n+1) underflows or overflows; t = 1e-200
    # on the line used to give inf for the finite peak c_1 / t
    with pytest.raises(ValueError, match=re.escape(f"scale {t} is out of range")):
        poisson_kernel(n, t, 0.0)
    if n == 1:
        with pytest.raises(ValueError, match=re.escape(f"scale {t} is out of range")):
            sample_kernel(make_grid(1, 4.0, 64), KernelSpec("poisson", t))
    # the edges of the range in dimension 1 keep a finite, exact peak
    assert poisson_kernel(1, 1e-150, 0.0) == _POISSON_CONSTANT[1] * 1e-150 / (1e-150 * 1e-150)
    assert poisson_kernel(1, 1e150, 0.0) == _POISSON_CONSTANT[1] * 1e150 / (1e150 * 1e150)


def test_abel_kernel_values():
    assert abel_kernel(1.0, 0.0) == 1.0
    assert abel_kernel(0.5, 1.0) == pytest.approx(math.exp(-math.pi))


def test_poisson_kernel_peak_and_scaling():
    for n in (1, 2, 3):
        assert poisson_kernel(n, 2.0, 0.0) == pytest.approx(
            _POISSON_CONSTANT[n] * 2.0 ** -n)
        # P_t(r) = t^-n P_1(r/t)
        assert poisson_kernel(n, 2.0, 3.0) == pytest.approx(
            2.0 ** -n * poisson_kernel(n, 1.0, 1.5))


def test_poisson_constants_are_the_gamma_closed_form():
    # c_n = Gamma((n+1)/2) pi^(-(n+1)/2), the normalizing constant of P_t in R^n
    for n in (1, 2, 3):
        want = math.gamma((n + 1) / 2.0) * math.pi ** (-(n + 1) / 2.0)
        assert abs(_POISSON_CONSTANT[n] - want) <= 1e-15 * want
    for n in (0, 4):
        with pytest.raises(ValueError, match="dimension must be 1, 2 or 3"):
            poisson_kernel(n, 1.0, 0.0)


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
    assert np.max(np.abs(plus + minus - poisson_kernel(1, 1.0, xi))) < 1e-15


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
    # one point past the budget refuses the whole call, and the points on
    # either side of the unresolved layer are within it
    for bad in (1e-6, 1e-4, 3e-3):
        with pytest.raises(QuadratureBudgetError, match="exceeds the 1e-8 budget"):
            abel_from_gaussians(1.0, np.array([0.5, bad]))
    x = np.array([0.0, 1e-2])
    assert np.max(np.abs(abel_from_gaussians(1.0, x) - abel_kernel(1.0, x))) <= 1e-8


def test_gaussian_average_refuses_points_near_the_origin_at_its_default_nodes():
    # the fixed nodes do not resolve the layer near v = sqrt(pi t |x|)
    with pytest.raises(QuadratureBudgetError):
        abel_from_gaussians(1.0, 1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gaussian_average_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="finite"):
        abel_from_gaussians(1.0, np.array([0.5, bad]))


def test_sample_kernel_matches_each_closed_form_bit_for_bit():
    g = make_grid(1, 8.0, 256)
    x = g.axis()
    for t in (1e-3, 0.5, 1.0, 7.5):
        for family, closed in (
            ("abel", abel_kernel(t, x)),
            ("poisson", poisson_kernel(1, t, x)),
            ("abel_plus", half_kernel("+", t, x)),
            ("abel_minus", half_kernel("-", t, x)),
        ):
            values = sample_kernel(g, KernelSpec(family, t)).values
            assert values.tobytes() == closed.tobytes(), (family, t)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# the scales where an intermediate of a closed form leaves the float
# range: 2 pi t overflows past 2**1023/pi, numpy's complex division by
# 2 pi (t +- i xi) overflows once a part reaches 2**1023, and the
# Gaussian damping's pi t**2 reaches 2**1023 at sqrt(2**1023/pi)
_EDGES = (2.0 ** 1023 / math.pi, 2.0 ** 1023 / (2.0 * math.pi), math.sqrt(2.0 ** 1023 / math.pi))


@st.composite
def _scales_and_points(draw):
    """A scale and 1 to 3 points: from the whole finite range, or near an edge.

    A scale near an edge is one of ``_EDGES`` times a factor in [1/8, 2];
    a point on the scale is t * u, u in [-4, 4], kept where finite.  Both
    are needed to reach, say, 2 pi (t + i xi) with both parts near 2**1023.
    """
    t = draw(st.one_of(_FINITE, st.builds(lambda e, c: e * c, st.sampled_from(_EDGES),
                                          st.floats(0.125, 2.0))))
    on_scale = st.floats(-4.0, 4.0).map(lambda u: t * u).filter(math.isfinite)
    return t, draw(st.lists(st.one_of(_FINITE, on_scale), min_size=1, max_size=3))


# every closed form over the whole finite float range, subnormals
# included, and near its overflow edges: a finite value or a refusal,
# never a warning, inf or NaN.  Warnings are errors inside the body only:
# a mark would still be active while hypothesis reports a failing example,
# and a warning raised by its reporting would hide the example
# the damped means and the kernel samples run over these fixed lattices
_SAMPLES = sample_function(make_grid(1, 4.0, 16), lambda x: np.exp(-x * x))
_KERNEL_GRID = make_grid(1, 4.0, 16)


@given(tx=_scales_and_points(), n=st.sampled_from([1, 2, 3]), sign=st.sampled_from(["+", "-"]))
def test_closed_forms_over_the_float_range_are_finite_or_refused(tx, n, sign):
    t, x = tx[0], np.array(tx[1])
    calls = [
        (lambda: abel_kernel(t, x), ValueError),
        (lambda: poisson_kernel(n, t, x), ValueError),
        (lambda: half_kernel(sign, t, x), ValueError),
        (lambda: half_kernel_ft(sign, t, x), ValueError),
        (lambda: abel_from_gaussians(t, x), (ValueError, QuadratureBudgetError)),
        (lambda: abel_mean(_SAMPLES, t), ValueError),
        (lambda: gauss_mean(_SAMPLES, t), ValueError),
    ] + [(lambda family=family: sample_kernel(_KERNEL_GRID, KernelSpec(family, t)).values, ValueError)
         for family in ("abel", "poisson", "abel_plus", "abel_minus")]
    for call, refusals in calls:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = call()
        except refusals:
            continue
        assert np.all(np.isfinite(value))
