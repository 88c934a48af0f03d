import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

import abelharm
from abelharm import SupportSpec, cli, evaluate_field, make_grid, sample_spectrum, summability
from abelharm.cli import (
    CRITERIA,
    CheckResult,
    ConfigError,
    ExperimentConfig,
    _check,
    _criteria,
    _field_table,
    _render_table,
    main,
    run,
)
from abelharm.spectral import _support_range


def test_package_exports_exactly_each_module_all():
    # the package namespace is its modules' __all__, star-imported; a name
    # that a later module shadowed would not be its home module's object,
    # and tracing rebinds the package's names by identity
    names = abelharm.__all__
    assert len(names) == len(set(names))
    modules = {m.name: importlib.import_module(f"abelharm.{m.name}")
               for m in pkgutil.iter_modules(abelharm.__path__)}
    for mod in modules.values():
        assert not [n for n in mod.__all__ if n.startswith("_")], mod.__name__
    homes = {n: mod for key, mod in modules.items() if key != "cli" for n in mod.__all__}
    assert set(names) == set(homes) | {"__version__"}
    for n, mod in homes.items():
        assert getattr(abelharm, n) is getattr(mod, n), n
    namespace = {}
    exec("from abelharm import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(names)


def test_config_defaults_valid():
    # the suite and the output directory are all there is to configure
    c = ExperimentConfig()
    assert [f.name for f in fields(c)] == ["suite", "output_dir"]
    assert (c.suite, c.output_dir) == ("all", "reports")
    assert ExperimentConfig(suite="growth", output_dir="out").suite == "growth"


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig(suite="volume")
    with pytest.raises(ConfigError):
        ExperimentConfig(output_dir=5)


def test_dump_field_schema():
    g = make_grid(1, 4.0, 512)
    F = sample_spectrum(g, lambda xi: np.exp(-2.0 * math.pi * xi),
                        SupportSpec.nonneg())
    xs = np.array([-1.0, 0.0, 1.0])
    ys = np.array([0.5, 1.0])
    fld = evaluate_field(F, xs, ys)
    # the encoding of hardy/field_upper.csv
    lines = _render_table(*_field_table(fld)).splitlines()
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 1 + len(xs) * len(ys)
    # row-major over (y, x): x varies fastest
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == 0.5
    assert float(second[0]) == 0.0 and float(second[1]) == 0.5
    # shortest round-trip float encoding survives a parse
    assert float(first[2]) == fld.values[0, 0].real


def test_run_growth_bundle(tmp_path):
    cfg = ExperimentConfig(suite="growth", output_dir=str(tmp_path / "rep"))
    bundle = run(cfg)
    assert bundle.failed == 0
    assert any(c.name.startswith("envelope_dominates") for c in bundle.checks)
    verdicts = {c.index: c.verdict for c in bundle.criteria}
    assert verdicts[13] == "pass"
    assert verdicts[1] == "not-run"
    root = tmp_path / "rep"
    assert (root / "summary.txt").exists()
    assert (root / "summary.json").exists()
    assert (root / "manifest.json").exists()
    assert (root / "growth" / "lattice_flat_full.csv").exists()
    header = (root / "growth" / "lattice_flat_full.csv").read_text().splitlines()[0]
    assert header == "x,y,abs_f,envelope,margin"
    mirror = json.loads((root / "summary.json").read_text())
    assert mirror["result"] == "PASS"
    assert len(mirror["checks"]) == len(bundle.checks)
    manifest = json.loads((root / "manifest.json").read_text())
    # configuration, versions and timings; the counts live in summary.json
    assert set(manifest) == {"config", "versions", "timings_seconds"}
    assert manifest["config"]["suite"] == "growth"


def test_growth_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(ExperimentConfig(suite="growth", output_dir=str(out1)))
    run(ExperimentConfig(suite="growth", output_dir=str(out2)))
    names = sorted(p.name for p in (out1 / "growth").iterdir())
    assert names
    for name in names:
        assert (out1 / "growth" / name).read_bytes() == (out2 / "growth" / name).read_bytes()
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()


def test_main_exit_codes(tmp_path, capsys):
    assert main(["run", "--suite", "growth", "--out", str(tmp_path / "ok")]) == 0
    assert capsys.readouterr().err == ""
    # an output directory that cannot be created is a configuration error
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", "--suite", "growth", "--out", str(blocker / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_main_reports_a_suite_that_raises(tmp_path, monkeypatch, capsys):
    def broken():
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._SUITE_FN, "growth", broken)
    assert main(["run", "--suite", "growth", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("Traceback") and "RuntimeError: boom" in captured.err
    assert "suite_error growth: fail (RuntimeError: boom)" in captured.out
    assert captured.out.endswith("result: FAIL (1 checks, 1 failed, 0 expected-fail)\n")
    assert (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("text", ['{"schedule_steps": 12.5}', '{"convergence_tol": 1e400}'])
def test_main_rejects_bad_config_values(tmp_path, capsys, text):
    # such files once crashed the run (a fractional step count) or passed
    # every convergence verdict (an infinite tolerance); no flag reads a
    # config file any more, so --config is a usage error
    conf = tmp_path / "conf.json"
    conf.write_text(text)
    out = tmp_path / "rep"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(conf), "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()


def test_main_env_var_out(tmp_path, monkeypatch, capsys):
    target = tmp_path / "via-env"
    monkeypatch.setenv("ABELHARM_OUT", str(target))
    assert main(["run", "--suite", "growth"]) == 0
    assert (target / "summary.txt").exists()
    text = capsys.readouterr().out
    assert "result: PASS" in text


def test_main_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ABELHARM_OUT", str(tmp_path / "env"))
    flag = tmp_path / "flag"
    assert main(["run", "--suite", "growth", "--out", str(flag)]) == 0
    assert (flag / "summary.txt").exists()
    assert not (tmp_path / "env").exists()


def test_main_refuses_an_empty_out_flag_even_with_env(tmp_path, monkeypatch, capsys):
    # the flag beats the environment when given, even empty, and an empty
    # output directory is a configuration error
    monkeypatch.setenv("ABELHARM_OUT", str(tmp_path / "env"))
    assert main(["run", "--suite", "growth", "--out", ""]) == 2
    assert capsys.readouterr().err.startswith("error: output_dir '' is not writable")
    assert not (tmp_path / "env").exists()


def test_summary_states_timing_location(tmp_path):
    # timings must never appear in tables or the summary; the manifest is
    # the single home so reruns stay byte-identical
    cfg = ExperimentConfig(suite="growth", output_dir=str(tmp_path / "rep"))
    bundle = run(cfg)
    for rel, (header, rows) in bundle.tables.items():
        assert "seconds" not in header and "time" not in header


# ---------------------------------------------------------------------------
# deriving the acceptance criteria from their member checks

def _outcome(checks, index):
    return {c.index: c for c in _criteria(checks)}[index]


def test_check_gate_and_override():
    assert _check(None, "g", 1e-9, 1e-8).verdict == "pass"
    assert _check(None, "g", 2e-8, 1e-8).verdict == "fail"
    assert _check(None, "g", math.nan, 1e-8).verdict == "fail"
    assert _check(None, "g", 4.0, 3.0, ok=4.0 >= 3.0).verdict == "pass"
    assert _check(None, "g", 1e-9, 1e-8, ok=False).verdict == "fail"
    # without a gate of its own, a check takes its criterion's tolerance
    assert (_check(4, "g", 2e-8).tolerance, _check(4, "g", 2e-8).verdict) == (1e-8, "fail")
    assert _check(4, "g", 2e-8, 1e-7).criterion == 4


# every gate a check can have, as (criterion, tolerance, lower bound):
# the criterion tolerances, the explicit upper gates (the 1e-12 identities,
# the 2e-3 family agreement, the three supporting checks' 1e-8, 1e-6 and
# 5e-2) and the three lower bounds, each with the criterion it serves
_GATES = ([(index, tol, False) for index, _, tol, _ in CRITERIA if tol is not None]
          + [(3, 1e-12, False), (6, 2e-3, False), (None, 1e-8, False), (None, 1e-6, False),
             (None, 5e-2, False), (11, 3.0, True), (11, 1e-2, True), (12, 1e-6, True)])


@pytest.mark.parametrize("criterion, tol, lower", _GATES)
def test_gates_fail_closed(criterion, tol, lower):
    # NaN, +-inf and the first value past the gate fail, and so does a
    # non-finite value passed with ok=True; so does the criterion of each,
    # next to passing members with and without gates of their own
    past = np.nextafter(tol, -math.inf if lower else math.inf)
    others = [CheckResult(f"passing gate={gate}", "pass", 0.0, gate, criterion=criterion)
              for gate in (None, 1e-12, 2e-3)]
    failing = [(v, None) for v in (math.nan, math.inf, -math.inf, past)]
    failing += [(v, True) for v in (math.nan, math.inf, -math.inf)]
    for measured, ok in failing:
        if ok is None and lower:
            ok = measured >= tol
        check = _check(criterion, "gate", measured, tol, ok=ok)
        assert check.verdict == "fail", (measured, ok)
        if criterion is not None:
            assert _outcome([check] + others, criterion).verdict == "fail"


def test_criterion_fails_when_any_member_fails():
    checks = [
        CheckResult("gaussian_subordination t=0.5", "pass", 1e-9, 1e-8, criterion=4),
        CheckResult("gaussian_subordination t=1", "fail", 2e-8, 1e-8, criterion=4),
        CheckResult("gaussian_subordination t=2", "expected-fail", 5e-9, 1e-8, criterion=4),
    ]
    out = _outcome(checks, 4)
    assert (out.name, out.verdict) == ("gaussian_subordination", "fail")
    assert (out.measured, out.tolerance) == (2e-8, 1e-8)
    assert out.detail == "201 points in [-3,3], t in {0.5,1,2}"


def test_criterion_is_expected_fail_when_a_member_is_and_none_fails():
    checks = [
        CheckResult("transform_identity_pinned_grid", "expected-fail", 2.5e-5, 1e-6, "aliasing floor", 2),
        CheckResult("transform_identity_refined_grid", "pass", 1e-9, 1e-6, criterion=2),
    ]
    out = _outcome(checks, 2)
    assert out.verdict == "expected-fail"
    assert out.measured == 2.5e-5
    # both members are gated at the criterion's tolerance, so the detail is
    # the row's text alone; the floor stays on its check's line
    assert out.detail == CRITERIA[1][3]
    checks = [
        CheckResult("abel_limit witness=gauss", "expected-fail", 1e-4, 1e-3, criterion=6),
        CheckResult("abel_gauss_agreement witness=gauss", "pass", 1e-4, 2e-3, criterion=6),
    ]
    assert _outcome(checks, 6).verdict == "expected-fail"


def test_criterion_without_members_is_not_run():
    # membership is the criterion a check names, not its name
    outcomes = _criteria([CheckResult("transform_round_trip", "pass", 1e-12, 1e-8),
                          CheckResult("poisson_normalization n=1 t=1", "fail", 1.0, 1e-6)])
    assert [c.index for c in outcomes] == list(range(1, 16))
    for c in outcomes:
        assert (c.verdict, c.measured, c.tolerance, c.detail) == ("not-run", None, None, "")


def test_criterion_measures_the_worst_member_at_its_tolerance():
    # criterion 11 gates at 1e-5; its step-scaling (gate 3) and conjugate
    # (gate 1e-2) members enter only the detail, each with its gate
    checks = [
        CheckResult("cr_residual_holomorphic", "pass", 2e-8, 1e-5, criterion=11),
        CheckResult("cr_residual_step_scaling", "pass", 4.0, 3.0, criterion=11),
        CheckResult("cr_residual_detects_antiholomorphic", "pass", 0.08, 1e-2, criterion=11),
    ]
    out = _outcome(checks, 11)
    assert (out.verdict, out.measured, out.tolerance) == ("pass", 2e-8, 1e-5)
    assert out.detail == ("central differences at z=i; cr_residual_step_scaling 4 vs 3; "
                          "cr_residual_detects_antiholomorphic 0.08 vs 0.01")
    checks = [
        CheckResult("half_line_transform sign=+", "pass", 3e-5, 1e-4, criterion=3),
        CheckResult("half_line_transform sign=-", "pass", 1e-5, 1e-4, criterion=3),
        CheckResult("half_line_conjugacy_identity", "pass", 5e-17, 1e-12, criterion=3),
        CheckResult("half_line_sum_identity", "pass", 1e-16, 1e-12, criterion=3),
    ]
    out = _outcome(checks, 3)
    assert (out.measured, out.tolerance) == (3e-5, 1e-4)
    assert out.detail == ("lattice vs closed form on |xi| <= 4; half_line_conjugacy_identity "
                          "5e-17 vs 1e-12; half_line_sum_identity 1e-16 vs 1e-12")
    # a member that measured NaN makes the criterion's value NaN, wherever
    # it stands among the members
    for values in ((1e-9, math.nan), (math.nan, 1e-9)):
        checks = [CheckResult(f"gaussian_subordination t={t}", "pass" if v <= 1e-8 else "fail", v, 1e-8,
                              criterion=4)
                  for t, v in zip((0.5, 1), values)]
        out = _outcome(checks, 4)
        assert out.verdict == "fail" and math.isnan(out.measured)


_members = st.lists(st.builds(
    CheckResult,
    name=st.text(max_size=8),
    verdict=st.sampled_from(("pass", "fail", "expected-fail")),
    measured=st.none() | st.floats(),
    tolerance=st.none() | st.sampled_from([row[2] for row in CRITERIA]) | st.floats(),
    criterion=st.none() | st.integers(1, 15),
), max_size=12)


@given(_members)
def test_criteria_derive_every_outcome_from_any_member_set(checks):
    # no member set makes the summary raise, whatever the members' names,
    # values and gates: each outcome follows from its members alone
    outcomes = _criteria(checks)
    assert [c.index for c in outcomes] == list(range(1, 16))
    for (index, slug, tol, text), out in zip(CRITERIA, outcomes):
        members = [c for c in checks if c.criterion == index]
        assert (out.index, out.name) == (index, slug)
        if not members:
            assert (out.verdict, out.measured, out.tolerance, out.detail) == ("not-run", None, None, "")
            continue
        verdicts = {c.verdict for c in members}
        assert out.verdict == next(v for v in ("fail", "expected-fail", "pass") if v in verdicts)
        assert out.tolerance == tol
        gated = [c.measured for c in members if c.tolerance == tol and c.measured is not None]
        if any(math.isnan(v) for v in gated):
            assert math.isnan(out.measured)
        else:
            assert out.measured == max(gated, default=None)
        # the row's text, then each member with a value and a gate of its own
        apart = [f"{c.name} {c.measured:.6g} vs {c.tolerance:.6g}" for c in members
                 if c.measured is not None and c.tolerance is not None and c.tolerance != tol]
        assert out.detail == "; ".join([text] + apart)


def test_unconverged_means_fail_criterion_six_through_their_checks(tmp_path, monkeypatch):
    # no limit converges to 1e-300: the limit errors stay inside their
    # gate, so it is the convergence condition that fails the abel_limit
    # checks, and through them criterion 6
    monkeypatch.setattr(summability, "_CONVERGENCE_TOL", 1e-300)
    bundle = run(ExperimentConfig(suite="summability", output_dir=str(tmp_path)))
    limits = [c for c in bundle.checks if c.name.startswith("abel_limit")]
    assert len(limits) == 3
    for c in limits:
        assert c.verdict == "fail" and c.measured <= c.tolerance
    criteria = {c.index: c for c in bundle.criteria}
    assert criteria[6].verdict == "fail"
    assert bundle.failed == len(limits)
    assert "result: FAIL" in bundle.summary_text


def test_hardy_suite_holds_each_witness_only_while_its_checks_run():
    # the suite's 2**21-point arrays take 16-32 MiB each; with every one
    # named to the end of the suite, the traced peak was 410 MiB, and
    # freeing each after its last check brings it near 220 MiB
    tracemalloc.start()
    try:
        cli._run_hardy()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 300 * 2 ** 20


# an import of scipy raises once sys.modules maps it to None
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from abelharm import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("suite", ["kernels", "summability"])
def test_radial_suites_run_without_scipy(tmp_path, suite):
    # the runtime needs numpy only; these suites integrate radially
    src = os.path.dirname(os.path.dirname(abelharm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, "run", "--suite", suite, "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr + res.stdout[-2000:]


# the pinned windows of the kernels suite: |xi| <= 4 on the frequency
# grids of the transform identities, |x| <= 10 on the semigroup's grid
@pytest.mark.parametrize("grid, half_width", [
    (make_grid(1, 40.0, 2 ** 14).reciprocal(), 4.0),
    (make_grid(1, 40.0, 2 ** 17).reciprocal(), 4.0),
    (make_grid(1, 40.0, 2 ** 20).reciprocal(), 4.0),
    (make_grid(1, 200.0, 2 ** 16), 10.0),
])
def test_windows_by_index_select_what_the_mask_selects(grid, half_width):
    axis = grid.axis()
    mask = np.abs(axis) <= half_width
    start, stop = _support_range(grid, SupportSpec(-half_width, half_width))
    # the same indices, so the same values of any array on the grid
    assert np.array_equal(np.arange(start, stop), np.flatnonzero(mask))
    assert grid._axis_range(start, stop).tobytes() == axis[mask].tobytes()
