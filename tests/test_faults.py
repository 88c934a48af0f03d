"""A catalogue of seeded faults, each caught by the criteria it must fail.

A gate that passes under a broken identity proves nothing: mutation
analysis (DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE
Computer 1978) measures a check suite by the defects it catches.  Each row
patches one fault into its module and into the runner's binding of it,
reruns one suite and pins the exact set of criteria that fail.  The hardy
suite's criteria 8-11 have no row here: each of its reruns takes 1-2 s.
"""

import math

import numpy as np
import pytest

from abelharm import SampledFunction, cli, growth, kernels, sampled, spectral, summability


def _scaled(factor):
    return lambda f: lambda *args: f(*args) * factor


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
    assert {c.index for c in bundle.criteria if c.verdict == "fail"} == failing


def test_quadrature_over_budget_aborts_the_run(monkeypatch, tmp_path):
    # 256 nodes cannot meet the subordination budget; the exception ends
    # the run today, before any report is written
    monkeypatch.setattr(kernels, "_GAUSS_NODES", 256)
    with pytest.raises(kernels.QuadratureBudgetError):
        cli.run(cli.ExperimentConfig("kernels", str(tmp_path)))
    assert not (tmp_path / "summary.txt").exists()
