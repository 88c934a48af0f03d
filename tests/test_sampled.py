import math

import numpy as np
import pytest

from abelharm import (
    Grid,
    SampledFunction,
    convolve,
    integrate,
    make_grid,
    poisson_kernel,
    radial_integrate,
    sample_function,
)


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


def test_lattice_shape_and_order():
    g = make_grid(2, 1.0, 4)
    pts = g.lattice()
    assert pts.shape == (16, 2)
    # lexicographic: the second coordinate varies fastest
    assert np.allclose(pts[0], [-1.0, -1.0])
    assert np.allclose(pts[1], [-1.0, -0.5])
    assert np.allclose(pts[4], [-0.5, -1.0])


def test_reciprocal_grid_round_trip():
    g = make_grid(1, 8.0, 256)
    r = g.reciprocal()
    assert r.points == g.points
    assert r.half_width == pytest.approx(256 / (4 * 8.0))
    assert r.spacing == pytest.approx(1.0 / (2 * 8.0))
    back = r.reciprocal()
    assert back.half_width == pytest.approx(g.half_width)


def test_reciprocal_rejects_higher_dimensions():
    with pytest.raises(ValueError):
        make_grid(2, 1.0, 8).reciprocal()


def test_integrate_gaussian_unit_mass():
    g = make_grid(1, 10.0, 4096)
    f = sample_function(g, lambda x: np.exp(-math.pi * x * x))
    assert abs(integrate(f) - 1.0) < 1e-12


def test_integrate_gaussian_2d():
    g = make_grid(2, 6.0, 128)
    f = sample_function(g, lambda p: np.exp(-math.pi * np.sum(p * p, axis=-1)))
    assert abs(integrate(f) - 1.0) < 1e-10


def test_integrate_rejects_bounded_only():
    g = make_grid(1, 1.0, 8)
    f = sample_function(g, np.cos, decay_tag="bounded-only")
    with pytest.raises(ValueError):
        integrate(f)


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


def test_convolve_2d_preserves_mass():
    g = make_grid(2, 6.0, 64)
    f = sample_function(g, lambda p: np.exp(-math.pi * np.sum(p * p, axis=-1)))
    h = convolve(f, f)
    assert abs(integrate(h) - 1.0) < 1e-8


def test_convolve_requires_matching_grids():
    f = sample_function(make_grid(1, 4.0, 64), lambda x: np.exp(-x * x))
    g = sample_function(make_grid(1, 4.0, 128), lambda x: np.exp(-x * x))
    with pytest.raises(ValueError):
        convolve(f, g)


def test_sampled_function_shape_check():
    g = make_grid(1, 1.0, 8)
    with pytest.raises(ValueError):
        SampledFunction(g, np.zeros(9))
    with pytest.raises(ValueError):
        SampledFunction(g, np.zeros(8), decay_tag="rapid")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_sampled_function_rejects_non_finite_samples(bad):
    g = make_grid(1, 1.0, 8)
    vals = np.ones(8, dtype=complex)
    vals[3] = bad
    with pytest.raises(ValueError, match="finite"):
        SampledFunction(g, vals)
    with pytest.raises(ValueError, match="finite"):
        sample_function(g, lambda x: np.where(x == x[3], bad, 1.0))


def test_radial_integrate_matches_cartesian():
    val = radial_integrate(lambda r: np.exp(-math.pi * r * r), 2)
    assert val == pytest.approx(1.0, abs=1e-12)
    val3 = radial_integrate(lambda r: poisson_kernel(3, 2.0, r), 3)
    assert val3 == pytest.approx(1.0, abs=1e-9)
