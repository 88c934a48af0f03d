"""A catalogue of seeded faults, each caught by the criteria it must fail.

A gate that passes under a broken identity proves nothing: mutation
analysis (DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE
Computer 1978) measures a check suite by the defects it catches.  Each row
patches one fault into its module and into the runner's binding of it,
reruns one suite and pins the exact set of criteria that fail.  Every
criterion 1-14 has a row whose fault it catches; the determinism gate
(15) is the byte comparison of two full runs in tests/test_acceptance.py.
"""

import math

import numpy as np
import pytest

from abelharm import (
    SampledFunction, cli, growth, halfplane, kernels, sampled, spectral, summability)


def _scaled(factor):
    return lambda f: lambda *args: f(*args) * factor


def _where(cond, change):
    # the evaluator's values, with change() applied at the z where cond(Im z)
    return lambda f: lambda F, z: (lambda v: np.where(cond(np.imag(z)), change(v), v))(f(F, z))


def _reflected_default(f):
    # the default field taken at each stencil point's mirror image in the
    # horizontal line through z, so that z + ih and z - ih swap places
    def faulty(F, z, h, evaluator=None):
        if evaluator is None:
            side = halfplane._require_side(F)
            evaluator = lambda w: halfplane._evaluate_side(F, np.conj(w - z) + z, side)
        return f(F, z, h, evaluator)
    return faulty


# name -> (module, attribute, the fault as a function of the original)
_FAULTS = {
    "poisson_constant_high": (kernels, "_POISSON_CONSTANT",
                              lambda c: {n: v * (1 + 1e-5) for n, v in c.items()}),
    "subordination_high": (kernels, "abel_from_gaussians", _scaled(1 + 1e-7)),
    # c_2 = Gamma(3/2) / pi^(3/2) = 1/(2 pi), taken with Gamma(1) instead
    "poisson_constant_c2_gamma": (kernels, "_POISSON_CONSTANT",
                                  lambda c: {**c, 2: 1.0 / math.pi ** 1.5}),
    "half_kernel_ft_conjugated": (kernels, "half_kernel_ft",
                                  lambda f: lambda *args: np.conjugate(f(*args))),
    "convolve_high": (sampled, "convolve", lambda f: lambda a, b: SampledFunction(
        a.grid, f(a, b).values * (1 + 1e-3))),
    "scales_doubled": (summability, "SCALES", lambda scales: tuple(2 * t for t in scales)),
    "damped_inverse_rescaled": (spectral, "abel_regularized_inverse",
                                lambda f: lambda F, t, x: f(F, 1.0001 * t, x)),
    "exp_floor_raised": (summability, "_EXP_FLOOR", lambda floor: -700.0),
    "partition_not_exact": (spectral, "_support_range",
                            lambda f: lambda grid, support, partition=False: f(grid, support)),
    "upper_high_off_axis": (halfplane, "evaluate_upper",
                            _where(lambda y: y > 0, lambda v: v * (1 + 1e-3))),
    "upper_shifted_on_axis": (halfplane, "evaluate_upper",
                              _where(lambda y: y == 0, lambda v: v + 0.02)),
    "cr_stencil_reflected": (halfplane, "cr_residual", _reflected_default),
    "cauchy_lower_negated": (halfplane, "cauchy_represent", lambda f: lambda g, side, t, x: (
        -f(g, side, t, x) if side == "lower" else f(g, side, t, x))),
    "cauchy_order_low": (halfplane, "_CAUCHY_ORDER", lambda order: 8),
    "envelope_low": (growth, "envelope_bound", _scaled(0.99)),
    "type_high": (growth, "estimate_type", lambda f: lambda *args: f(*args) + 0.5),
}

# (fault, suite, the criteria that must fail)
_ROWS = [
    ("poisson_constant_high", "kernels", {1, 2, 3}),
    # the witnesses' limits and both damped paths scale with c_n alike
    ("poisson_constant_high", "summability", set()),
    ("poisson_constant_high", "inversion", set()),
    ("poisson_constant_c2_gamma", "kernels", {1}),
    ("poisson_constant_c2_gamma", "summability", {6}),
    ("subordination_high", "kernels", {4}),
    # the conjugacy and sum identities hold for the conjugated pair too
    ("half_kernel_ft_conjugated", "kernels", {3}),
    ("convolve_high", "kernels", {5}),
    ("scales_doubled", "summability", {6}),
    # the weights between e^-746 and e^-700 are dropped, which moves no
    # mean of the suite past a gate; tier-1's
    # test_weights_that_underflow_to_subnormals_still_count catches it
    ("exp_floor_raised", "summability", set()),
    ("damped_inverse_rescaled", "inversion", {7}),
    # the lower Cauchy integral of the hardy witnesses, whose spectra lie
    # in [0, inf), is nearly zero, so criterion 9 does not see its sign:
    # the hardy suite fails {7} only too
    ("cauchy_lower_negated", "inversion", {7}),
    # 8 moments keep the suite's Poisson integrals within criterion 7's
    # gate; tier-1's test_cauchy_represent_matches_direct_sum catches it
    ("cauchy_order_low", "inversion", set()),
    # the partition then counts xi = 0 on both sides
    ("partition_not_exact", "hardy", {8}),
    ("upper_high_off_axis", "hardy", {9}),
    ("upper_shifted_on_axis", "hardy", {10}),
    # an explicit evaluator, the conjugated field's, passes unchanged
    ("cr_stencil_reflected", "hardy", {11}),
    ("envelope_low", "growth", {12, 13}),
    ("type_high", "growth", {14}),
]


def _inject(monkeypatch, fault):
    module, name, make = _FAULTS[fault]
    faulty = make(getattr(module, name))
    monkeypatch.setattr(module, name, faulty)
    if hasattr(cli, name):
        monkeypatch.setattr(cli, name, faulty)


@pytest.mark.parametrize("fault, suite, failing", _ROWS,
                         ids=[f"{fault}-{suite}" for fault, suite, _ in _ROWS])
def test_seeded_fault_fails_exactly_its_criteria(monkeypatch, tmp_path, fault, suite, failing):
    _inject(monkeypatch, fault)
    bundle = cli.run(cli.ExperimentConfig(suite, str(tmp_path)))
    # the suite ran to its end: a suite that raises leaves its criteria not-run
    assert not any(c.name.startswith("suite_error") for c in bundle.checks)
    assert {c.index for c in bundle.criteria if c.verdict == "fail"} == failing


def test_quadrature_over_budget_aborts_the_run(monkeypatch, tmp_path):
    # 256 nodes cannot meet the subordination budget; the kernels suite
    # ends in the exception, and the run still writes its verdict
    monkeypatch.setattr(kernels, "_GAUSS_NODES", 256)
    bundle = cli.run(cli.ExperimentConfig("all", str(tmp_path)))
    error = next(c for c in bundle.checks if c.name == "suite_error kernels")
    assert error.verdict == "fail" and error.detail.startswith("QuadratureBudgetError: ")
    assert [c.index for c in bundle.criteria if c.verdict == "not-run"] == [1, 2, 3, 4, 5]
    assert [c.index for c in bundle.criteria if c.verdict == "fail"] == []
    assert bundle.failed == 1 and bundle.summary_text.endswith(
        f"result: FAIL ({len(bundle.checks)} checks, 1 failed, 0 expected-fail)\n")
    assert (tmp_path / "summary.txt").read_text() == bundle.summary_text
    assert (tmp_path / "summary.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [
        "growth", "hardy", "inversion", "summability"]
