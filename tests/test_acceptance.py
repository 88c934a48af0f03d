"""End-to-end gates for the headline numerical identities.

Every test pins its grid and tolerance; the margins were calibrated against
independent oracles (closed forms where they exist, adaptive quadrature or
asymptotic error laws elsewhere) before being frozen here.  One test is a
strict expected failure: the
transform identity on the coarse reference grid sits on a discretization
floor that no implementation can cross, and the companion test shows the
identity holds once the grid is refined.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from abelharm import (
    KernelSpec,
    SupportSpec,
    abel_from_gaussians,
    abel_kernel,
    abel_regularized_inverse,
    cauchy_represent,
    check_pl_bound,
    convolve,
    cr_residual,
    envelope_bound,
    estimate_type,
    evaluate_entire,
    evaluate_upper,
    forward_ft,
    half_kernel_ft,
    hardy_split,
    integrate,
    inverse_ft,
    make_grid,
    measure_real_bound,
    poisson_kernel,
    radial_integrate,
    sample_function,
    sample_kernel,
    sample_spectrum,
)
from abelharm import cli
from abelharm.summability import summability_verdict


def test_poisson_kernel_unit_mass():
    t0 = time.perf_counter()
    for t in (0.1, 1.0, 10.0):
        for n in (1, 2, 3):
            mass = radial_integrate(lambda r: poisson_kernel(n, t, r), n)
            assert abs(mass - 1.0) <= 1e-6
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.xfail(
    strict=True,
    reason="the kernel kink at the origin aliases as (pi/3)*spacing^2, about "
           "2.5e-5 on the 16384-point box of half-width 40; no implementation "
           "of the lattice transform can beat that floor, and the refined-grid "
           "companion test shows the identity itself is sound",
)
def test_abel_transform_matches_poisson_on_reference_grid():
    grid = make_grid(1, 40.0, 2 ** 14)
    F = forward_ft(sample_kernel(grid, KernelSpec("abel", 1.0, 1)))
    xi = F.grid.axis()
    win = np.abs(xi) <= 4.0
    err = float(np.max(np.abs(F.values[win] - poisson_kernel(1, 1.0, xi[win]))))
    assert err <= 1e-6


def test_abel_transform_matches_poisson_on_refined_grid():
    t0 = time.perf_counter()
    grid = make_grid(1, 40.0, 2 ** 17)
    F = forward_ft(sample_kernel(grid, KernelSpec("abel", 1.0, 1)))
    xi = F.grid.axis()
    win = np.abs(xi) <= 4.0
    err = float(np.max(np.abs(F.values[win] - poisson_kernel(1, 1.0, xi[win]))))
    assert err <= 1e-6
    assert time.perf_counter() - t0 < 5.0


def test_half_line_transforms_match_closed_forms():
    grid = make_grid(1, 40.0, 2 ** 20)
    for fam, sign in (("abel_plus", "+"), ("abel_minus", "-")):
        F = forward_ft(sample_kernel(grid, KernelSpec(fam, 1.0, 1)))
        xi = F.grid.axis()
        win = np.abs(xi) <= 4.0
        err = float(np.max(np.abs(F.values[win] - half_kernel_ft(sign, 1.0, xi[win]))))
        assert err <= 1e-4
    xi = np.linspace(-4.0, 4.0, 1601)
    plus, minus = half_kernel_ft("+", 1.0, xi), half_kernel_ft("-", 1.0, xi)
    assert np.max(np.abs(minus - np.conjugate(plus))) <= 1e-12
    assert np.max(np.abs(plus + minus - poisson_kernel(1, 1.0, xi))) <= 1e-12


def test_gaussian_average_rebuilds_abel_kernel():
    t0 = time.perf_counter()
    x = np.linspace(-3.0, 3.0, 201)
    for t in (0.5, 1.0, 2.0):
        err = np.max(np.abs(abel_from_gaussians(t, x) - abel_kernel(t, x)))
        assert err <= 1e-8
    assert time.perf_counter() - t0 < 10.0


def test_poisson_semigroup_under_convolution():
    t0 = time.perf_counter()
    grid = make_grid(1, 200.0, 2 ** 16)
    p1 = sample_kernel(grid, KernelSpec("poisson", 1.0, 1))
    conv = convolve(p1, p1)
    x = grid.axis()
    win = np.abs(x) <= 10.0
    target = poisson_kernel(1, 2.0, x[win])
    rel = np.max(np.abs(conv.values[win] - target) / target)
    assert rel <= 1e-4
    assert time.perf_counter() - t0 < 30.0


def test_damped_means_recover_integrals():
    grid = make_grid(1, 2000.0, 400000)
    witnesses = [
        sample_function(grid, lambda x: np.exp(-math.pi * x * x)),
        sample_kernel(grid, KernelSpec("poisson", 1.0, 1)),
        sample_function(grid, lambda x: np.exp(-2.0 * math.pi * np.abs(x))),
    ]
    for h in witnesses:
        reference = integrate(h).real
        rep_a = summability_verdict(h, "abel")
        rep_g = summability_verdict(h, "gauss")
        assert rep_a.converged and rep_g.converged
        assert abs(rep_a.limit_estimate - reference) <= 1e-3
        assert abs(rep_a.limit_estimate - rep_g.limit_estimate) <= 2e-3


def test_damped_inverse_matches_poisson_convolution():
    grid = make_grid(1, 128.0, 81920)
    f = sample_function(grid, lambda x: np.exp(-math.pi * x * x))
    F = forward_ft(f)
    xq = np.linspace(-2.0, 2.0, 11)
    iq = np.round((xq + grid.half_width) / grid.spacing).astype(int)
    for t in (0.2, 0.1, 0.05):
        p = sample_kernel(grid, KernelSpec("poisson", t, 1))
        conv = convolve(p, f)
        reg = abel_regularized_inverse(F, t, xq)
        assert np.max(np.abs(reg - conv.values[iq])) <= 1e-5


def test_cauchy_pair_is_the_poisson_convolution_at_the_inversion_points():
    # the inversion suite reads its Poisson integrals as the sum of the two
    # Cauchy sides; on the lattice points it reads they are the padded
    # convolution with the sampled kernel to rounding
    grid = make_grid(1, 128.0, 81920)
    f = sample_function(grid, lambda x: np.exp(-math.pi * x * x))
    xq = np.linspace(-2.0, 2.0, 11)
    iq = np.round((xq + grid.half_width) / grid.spacing).astype(int)
    for t in (0.2, 0.1, 0.05):
        pair = cauchy_represent(f, "upper", t, xq) + cauchy_represent(f, "lower", t, xq)
        conv = convolve(sample_kernel(grid, KernelSpec("poisson", t, 1)), f)
        assert np.max(np.abs(pair - conv.values[iq])) <= 1e-13


def test_spectral_split_partitions_identity():
    grid = make_grid(1, 40.0, 2 ** 14)
    cases = [
        lambda x: np.exp(-math.pi * x * x),
        lambda x: poisson_kernel(1, 1.0, x),
        lambda x: np.exp(-2.0 * math.pi * np.abs(x)),
    ]
    for func in cases:
        f = sample_function(grid, func)
        plus, minus = hardy_split(f)
        recon = inverse_ft(plus).values + inverse_ft(minus).values
        assert np.max(np.abs(recon - f.values)) <= 1e-8


def test_half_plane_representations_agree(
        exp_spectrum, exp_boundary, poisson_split, gauss_split):
    w_pois = poisson_split[0]
    w_gauss = gauss_split[0]
    f_pois = inverse_ft(w_pois)
    f_gauss = inverse_ft(w_gauss)
    xq = np.linspace(-2.0, 2.0, 25)
    for F, f_space in ((exp_spectrum, exp_boundary), (w_pois, f_pois), (w_gauss, f_gauss)):
        for t in (0.25, 0.5, 1.0):
            spectral = evaluate_upper(F, xq + 1j * t)
            damped = abel_regularized_inverse(F, t, xq)
            cauchy = cauchy_represent(f_space, "upper", t, xq)
            assert np.max(np.abs(spectral - damped)) <= 1e-5
            assert np.max(np.abs(spectral - cauchy)) <= 1e-5
            assert np.max(np.abs(damped - cauchy)) <= 1e-5


def test_boundary_values_recovered_continuously(exp_spectrum, poisson_split):
    xb = np.linspace(-2.0, 2.0, 81)
    for F in (exp_spectrum, poisson_split[0]):
        base = evaluate_upper(F, xb)
        sups = []
        for t in (0.2, 0.1, 0.05, 0.025):
            sups.append(float(np.max(np.abs(evaluate_upper(F, xb + 1j * t) - base))))
        assert all(b <= a for a, b in zip(sups, sups[1:]))
        assert sups[-1] <= 1e-2


def test_cr_residual_certifies_holomorphy(exp_spectrum):
    r_coarse = cr_residual(exp_spectrum, 1j, 1e-3)
    r_fine = cr_residual(exp_spectrum, 1j, 5e-4)
    assert r_coarse <= 1e-5
    # halving the step must shrink the second-order residual at least 3x
    assert r_coarse / r_fine >= 3.0
    anti = cr_residual(
        exp_spectrum, 1j, 1e-3,
        evaluator=lambda w: evaluate_upper(exp_spectrum, w).conjugate())
    assert anti >= 1e-2


def test_growth_bound_verdicts():
    grid = make_grid(1, 2.0, 2048)
    band = sample_spectrum(grid, lambda xi: np.ones_like(xi),
                           SupportSpec(-1.0, 1.0))
    xs = np.linspace(-5.0, 5.0, 21)
    ys = np.linspace(-3.0, 3.0, 13)
    B = measure_real_bound(band)
    assert check_pl_bound(band, 2.0 * math.pi, B, (xs, ys)) <= 1e-6
    bad = check_pl_bound(band, math.pi, B, (xs, ys))
    assert bad > 1e-6
    spot = abs(evaluate_entire(band, 1j))
    want = math.sinh(2.0 * math.pi) / math.pi
    assert abs(spot - want) / want <= 1e-4
    env = envelope_bound(band, 1.0)
    want_env = 2.0 * math.exp(2.0 * math.pi)
    assert abs(env - want_env) / want_env <= 1e-4


def test_envelope_dominates_lattice():
    grid = make_grid(1, 2.0, 2048)
    spectra = [
        sample_spectrum(grid, lambda xi: np.ones_like(xi), SupportSpec(-1.0, 1.0)),
        sample_spectrum(grid, lambda xi: np.ones_like(xi), SupportSpec(0.0, 0.5)),
        sample_spectrum(grid, lambda xi: 1.0 - np.abs(xi), SupportSpec(-1.0, 1.0)),
    ]
    xs = np.linspace(-5.0, 5.0, 21)
    ys = np.linspace(-3.0, 3.0, 13)
    for F in spectra:
        for y in ys:
            env = envelope_bound(F, float(y))
            vals = np.abs(evaluate_entire(F, xs + 1j * y))
            assert np.all(vals <= env * (1.0 + 1e-8))


def test_type_estimates_within_gate():
    grid = make_grid(1, 2.0, 2048)
    band = sample_spectrum(grid, lambda xi: np.ones_like(xi),
                           SupportSpec(-1.0, 1.0))
    half = sample_spectrum(grid, lambda xi: np.ones_like(xi),
                           SupportSpec(0.0, 0.5))
    heights = (2.0, 3.0, 4.0, 5.0)
    assert abs(estimate_type(band, heights) - 2.0 * math.pi) <= 0.3
    assert abs(estimate_type(half, heights) - math.pi) <= 0.3


@pytest.fixture(scope="module")
def full_runs(tmp_path_factory):
    """Two ``--suite all`` runs in subprocesses, with every warning an
    error: their output directories, results and the wall time of both."""
    t0 = time.perf_counter()
    outs, results = [], []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(tag)
        results.append(subprocess.run(
            [sys.executable, "-m", "abelharm.cli", "run", "--suite", "all",
             "--out", str(out)],
            capture_output=True, text=True, timeout=280,
            env={**os.environ, "PYTHONWARNINGS": "error"},
        ))
        outs.append(out)
    return outs, results, time.perf_counter() - t0


def test_reports_are_deterministic(full_runs):
    outs, results, elapsed = full_runs
    for res in results:
        assert res.returncode == 0, res.stderr + res.stdout[-2000:]
        assert res.stderr == ""
        assert "poisson_normalization n=1 t=1: pass" in res.stdout
    a, b = outs
    csvs = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
    assert len(csvs) >= 15
    for rel in csvs:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), str(rel)
    assert (a / "summary.txt").read_bytes() == (b / "summary.txt").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert elapsed < 300.0


# the checks that belong to no criterion, and the criteria each suite runs
_SUPPORTING = {"transform_round_trip", "inverse_closed_form_poisson",
               "regularized_inverse_attenuation", "lower_half_plane_mirror"}
_SUITE_CRITERIA = {"kernels": {1, 2, 3, 4, 5}, "summability": {6}, "inversion": {7},
                   "hardy": {7, 8, 9, 10, 11}, "growth": {12, 13, 14}}


def test_every_check_names_its_criterion(full_runs, tmp_path):
    summary = json.loads((full_runs[0][0] / "summary.json").read_text())
    checks = summary["checks"]
    assert {c["name"] for c in checks if c["criterion"] is None} == _SUPPORTING
    assert all(c["criterion"] in range(1, 16) for c in checks if c["name"] not in _SUPPORTING)
    assert [c["index"] for c in summary["criteria"] if c["verdict"] != "not-run"] == list(range(1, 16))
    # the four fast suites run alone; the hardy suite's checks are the
    # rest of the full run's
    elsewhere = {"deterministic_reports"}
    for suite in ("kernels", "summability", "inversion", "growth"):
        bundle = cli.run(cli.ExperimentConfig(suite=suite, output_dir=str(tmp_path / suite)))
        assert {c.index for c in bundle.criteria if c.verdict != "not-run"} == _SUITE_CRITERIA[suite]
        elsewhere |= {c.name for c in bundle.checks}
    hardy = {c["criterion"] for c in checks if c["name"] not in elsewhere} - {None}
    assert hardy == _SUITE_CRITERIA["hardy"]


def test_representation_legs_are_distinct_computations(full_runs):
    # criterion 9 compares three computations pairwise; two legs that were
    # one computation would leave a column of exact zeros, as the damped
    # leg did while it was the spectral lattice sum again
    with open(full_runs[0][0] / "hardy" / "agreement.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 225
    for column in ("spectral_vs_damped", "spectral_vs_cauchy", "damped_vs_cauchy"):
        assert min(float(r[column]) for r in rows) > 0.0, column
