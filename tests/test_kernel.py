"""The factored off-lattice kernel against independent sums.

Every off-lattice evaluation (half-plane extensions, the damped inverse,
entire extensions) goes through one block-factored lattice phase sum,
``spectral._factored_sum``.  The direct sum below, one exponential per
term, is its oracle; ``scipy.signal.czt`` is a second one for points on a
horizontal line.
"""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.signal import czt

from abelharm import (
    Spectrum,
    SupportSpec,
    abel_regularized_inverse,
    cr_residual,
    evaluate_entire,
    evaluate_field,
    evaluate_lower,
    evaluate_upper,
    lattice_sum,
    make_grid,
    sample_spectrum,
)
from abelharm.spectral import _factored_sum


def direct_sum(xi, weights, z, scale):
    """scale * sum_k weights_k exp(2 pi i z xi_k), one exponential per term."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    return scale * (np.exp((2j * math.pi) * zs[:, None] * xi[None, :]) @ weights)


def _random_weights(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@given(
    n=st.integers(1, 5000),
    m=st.integers(1, 40),
    side=st.sampled_from((1.0, -1.0)),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(n=1025, m=40, side=1.0, seed=0)
@example(n=1025, m=40, side=-1.0, seed=1)
@example(n=4097, m=3, side=-1.0, seed=2)
@example(n=1, m=1, side=-1.0, seed=3)
def test_factored_matches_direct_in_the_half_plane(n, m, side, seed):
    # the half-plane geometry of every extension: the lattice lies on the
    # half-line where exp(2 pi i z xi) decays, so each term is at most
    # |w_k| and the error is measured against scale * sum |w|
    rng = np.random.default_rng(seed)
    step = side * rng.uniform(1e-3, 0.05)
    xi0 = side * rng.uniform(0.0, 3.0)
    xi = xi0 + step * np.arange(n)
    w = _random_weights(rng, n)
    z = rng.uniform(-10.0, 10.0, m) + 1j * side * rng.uniform(0.0, 50.0, m)
    scale = rng.uniform(0.1, 2.0)
    got = _factored_sum(xi0, step, w, z, scale)
    assert np.max(np.abs(got - direct_sum(xi, w, z, scale))) <= 1e-12 * scale * np.sum(np.abs(w))


@given(
    n=st.integers(1, 5000),
    m=st.integers(1, 40),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(n=1023, m=17, seed=0)
def test_factored_matches_direct_on_both_sides(n, m, seed):
    # a lattice across 0 with points above and below the axis: terms grow
    # on one side, so each point's error is measured against the sum of
    # its terms' moduli
    rng = np.random.default_rng(seed)
    xi0, step = (-2.0, 4.0 / (n - 1)) if n > 1 else (rng.uniform(-2.0, 2.0), 0.0)
    xi = xi0 + step * np.arange(n)
    w = _random_weights(rng, n)
    z = rng.uniform(-10.0, 10.0, m) + 1j * rng.uniform(-50.0, 50.0, m)
    got = _factored_sum(xi0, step, w, z, 1.0)
    terms = np.abs(np.exp((2j * math.pi) * z[:, None] * xi[None, :]) * w[None, :])
    assert np.all(np.abs(got - direct_sum(xi, w, z, 1.0)) <= 1e-12 * np.sum(terms, axis=1))


@pytest.mark.parametrize("n", [1, 7, 1024, 1025, 3000])
@pytest.mark.parametrize("height", [0.0, 0.3, 5.0])
def test_factored_matches_chirp_z(n, height):
    # points z0 + m dx on a horizontal line: sum_k w_k q_m^k with
    # q_m = exp(2 pi i step z0) exp(2 pi i step dx)^m is a chirp-z transform
    rng = np.random.default_rng(n)
    xi0, step, dx, m = 0.25, 1.0 / 64.0, 0.037, 33
    xi = xi0 + step * np.arange(n)
    w = _random_weights(rng, n)
    z = -0.6 + height * 1j + dx * np.arange(m)
    ratio = np.exp(2j * math.pi * step * dx)
    start = np.exp(-2j * math.pi * step * z[0])
    want = 0.5 * np.exp(2j * math.pi * z * xi0) * czt(w, m, ratio, start)
    got = _factored_sum(xi0, step, w, z, 0.5)
    assert np.max(np.abs(got - want)) <= 1e-11 * 0.5 * np.sum(np.abs(w))


def test_lower_half_line_stays_finite_far_below_the_axis():
    # anchoring every block at its first point would multiply an underflowed
    # anchor (0) by an overflowed within-block factor (inf) here
    xi = -64.0 + 0.5 * np.arange(129)
    w = np.exp(2.0 * math.pi * xi)
    got = _factored_sum(-64.0, 0.5, w, 0.3 - 20j, 0.5)
    want = direct_sum(xi, w, 0.3 - 20j, 0.5)[0]
    assert np.isfinite(got)
    assert got == pytest.approx(0.5, rel=1e-14)
    assert abs(got - want) <= 1e-15


def test_phase_sum_accepts_descending_lattice():
    rng = np.random.default_rng(5)
    xi = 1.0 - 0.01 * np.arange(300)
    w = _random_weights(rng, 300)
    z = np.array([0.4 + 2j, -1.0 - 3j, 0.7])
    got = _factored_sum(1.0, -0.01, w, z, 1.0)
    terms = np.abs(np.exp((2j * math.pi) * z[:, None] * xi[None, :]) * w[None, :])
    assert np.all(np.abs(got - direct_sum(xi, w, z, 1.0)) <= 1e-12 * np.sum(terms, axis=1))


def test_points_do_not_depend_on_their_batch():
    # each point's bits are the same alone, in a batch, and in any order
    g = make_grid(1, 2.0, 2048)
    F = sample_spectrum(g, lambda xi: 1.0 - np.abs(xi), SupportSpec.interval(-1.0, 1.0))
    z = np.linspace(-3.0, 3.0, 7) + 1j * np.linspace(-2.0, 2.0, 7)
    batch = evaluate_entire(F, z)
    reversed_batch = evaluate_entire(F, z[::-1])[::-1]
    singles = np.array([evaluate_entire(F, zz) for zz in z])
    assert np.array_equal(batch, singles)
    assert np.array_equal(batch, reversed_batch)


def test_batches_of_the_product_do_not_change_the_bits(monkeypatch):
    # many points against a long lattice go through the product in batches
    # that bound the factor tables; shrink the bound so 97 points make 13
    # batches, the last of one row, and compare with one batch
    from abelharm import spectral

    g = make_grid(1, 2.0, 2048)
    F = sample_spectrum(g, lambda xi: 1.0 - np.abs(xi), SupportSpec.interval(-1.0, 1.0))
    z = np.linspace(-5.0, 5.0, 97) + 0.5j
    whole = evaluate_entire(F, z)
    monkeypatch.setattr(spectral, "_TABLE_ENTRIES", 8 * 33)
    assert np.array_equal(evaluate_entire(F, z), whole)


@given(
    half_points=st.integers(2, 300),
    half_width=st.floats(0.5, 100.0),
    ends=st.tuples(st.integers(-2, 601), st.integers(-2, 601)),
    nudge=st.sampled_from((0.0, 0.5, -1e-12)),
)
@example(half_points=40960, half_width=128.0, ends=(40960, 40960), nudge=0.0)
def test_lattice_sum_takes_exactly_the_points_in_range(half_points, half_width, ends, nudge):
    # values 1 + ik make the sum at z = 0 read back how many points were
    # taken (real part) and which (imaginary part), against the same range
    # selected by a mask on the axis
    freq = make_grid(1, half_width, 2 * half_points).reciprocal()
    xi = freq.axis()
    k = np.arange(freq.points)
    F = Spectrum(freq, 1.0 + 1j * k, SupportSpec.full_line())
    lo, hi = (-freq.half_width + freq.spacing * (e + nudge) for e in sorted(ends))
    mask = (xi >= lo) & (xi <= hi)
    want = complex(np.count_nonzero(mask), np.sum(k[mask])) * freq.spacing
    assert lattice_sum(F, 0.0, lo, hi) == want
    assert lattice_sum(F, 0.0, lo=lo) == complex(np.count_nonzero(xi >= lo), np.sum(k[xi >= lo])) * freq.spacing
    assert lattice_sum(F, 0.0, hi=hi) == complex(np.count_nonzero(xi <= hi), np.sum(k[xi <= hi])) * freq.spacing


@pytest.fixture(scope="module")
def spectra():
    g = make_grid(1, 8.0, 1024)
    return {
        "upper": sample_spectrum(g, lambda xi: np.exp(-2.0 * math.pi * xi), SupportSpec.nonneg()),
        "lower": sample_spectrum(g, lambda xi: np.exp(2.0 * math.pi * xi), SupportSpec.nonpos()),
        "full": sample_spectrum(g, lambda xi: np.exp(-np.abs(xi)), SupportSpec.full_line()),
        "band": sample_spectrum(g, np.ones_like, SupportSpec.interval(-1.0, 1.0)),
    }


UPPER_NON_FINITE = [complex(math.nan, 1.0), complex(0.5, math.nan), complex(math.inf, 1.0),
                    complex(-math.inf, 1.0), complex(0.5, math.inf)]
LOWER_NON_FINITE = [z.conjugate() for z in UPPER_NON_FINITE]


@pytest.mark.parametrize("bad", UPPER_NON_FINITE)
def test_upper_entries_reject_non_finite_points(spectra, bad):
    F = spectra["upper"]
    calls = (
        lambda: evaluate_upper(F, bad),
        lambda: evaluate_upper(F, np.array([1j, bad])),
        lambda: evaluate_field(F, [0.0, bad.real], [1.0, bad.imag]),
        lambda: cr_residual(F, bad, 1e-3),
    )
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.parametrize("bad", LOWER_NON_FINITE)
def test_lower_entries_reject_non_finite_points(spectra, bad):
    F = spectra["lower"]
    for call in (lambda: evaluate_lower(F, bad), lambda: evaluate_lower(F, np.array([-1j, bad]))):
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.parametrize("bad", UPPER_NON_FINITE + LOWER_NON_FINITE)
def test_entire_and_phase_sum_reject_non_finite_points(spectra, bad):
    with pytest.raises(ValueError, match="finite"):
        evaluate_entire(spectra["band"], np.array([0.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        _factored_sum(0.0, 1.0, np.ones(8), bad, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_damped_inverse_rejects_non_finite_points(spectra, bad):
    with pytest.raises(ValueError, match="finite"):
        abel_regularized_inverse(spectra["full"], 0.1, np.array([0.0, bad]))


_THREADING_PROBE = textwrap.dedent("""
    import hashlib, math, sys
    import numpy as np
    from abelharm import (KernelSpec, SupportSpec, cauchy_represent, evaluate_entire,
                          evaluate_upper, inverse_ft, make_grid, poisson_extend,
                          sample_kernel, sample_spectrum)
    freq = make_grid(1, 65536.0, 2 ** 21).reciprocal()
    w_exp = sample_spectrum(freq, lambda xi: np.exp(-2.0 * math.pi * xi), SupportSpec.nonneg())
    upper = evaluate_upper(w_exp, np.linspace(-2.0, 2.0, 25) + 0.5j)
    cauchy = cauchy_represent(inverse_ft(w_exp), "upper", 0.5, np.linspace(-2.0, 2.0, 25))
    small = make_grid(1, 100.0, 2 ** 14)
    extension = poisson_extend(sample_kernel(small, KernelSpec("poisson", 1.0, 1)), 0.5).values
    band = sample_spectrum(make_grid(1, 2.0, 2048), np.ones_like, SupportSpec.interval(-1.0, 1.0))
    xs, ys = np.linspace(-5.0, 5.0, 21), np.linspace(-3.0, 3.0, 13)
    entire = evaluate_entire(band, xs[None, :] + 1j * ys[:, None])
    axis = evaluate_entire(band, np.arange(-50.0, 50.005, 0.01))
    sha = hashlib.sha256()
    for arr in (upper, cauchy, extension, entire, axis):
        sha.update(np.ascontiguousarray(arr).tobytes())
    sys.stdout.write(sha.hexdigest())
""")


def test_output_bytes_do_not_depend_on_blas_threads():
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        res = subprocess.run([sys.executable, "-c", _THREADING_PROBE], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        digests.append(res.stdout)
    assert digests[0] == digests[1]
