import json
import math
import os

import numpy as np
import pytest

from abelharm import SupportSpec, evaluate_field, make_grid, sample_spectrum
from abelharm.cli import (
    ConfigError,
    ExperimentConfig,
    dump_field,
    main,
    run,
)


def test_config_defaults_valid():
    c = ExperimentConfig()
    assert c.suite == "all"
    assert c.points == 16384
    assert c.method == "richardson_1"


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig(suite="volume")
    with pytest.raises(ConfigError):
        ExperimentConfig(points=15)
    with pytest.raises(ConfigError):
        ExperimentConfig(schedule_ratio=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(schedule_steps=2)
    with pytest.raises(ConfigError):
        ExperimentConfig(method="cesaro")


def test_config_from_json(tmp_path):
    p = tmp_path / "conf.json"
    p.write_text(json.dumps({"suite": "growth", "convergence_tol": 1e-4}))
    c = ExperimentConfig.from_json(str(p))
    assert c.suite == "growth"
    assert c.convergence_tol == 1e-4


def test_config_from_json_rejects_unknown_keys(tmp_path):
    p = tmp_path / "conf.json"
    p.write_text(json.dumps({"speed": "maximum"}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(str(p))


def test_config_from_json_rejects_non_object(tmp_path):
    p = tmp_path / "conf.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(str(p))


def test_dump_field_schema(tmp_path):
    g = make_grid(1, 4.0, 512)
    F = sample_spectrum(g, lambda xi: np.exp(-2.0 * math.pi * xi),
                        SupportSpec.nonneg())
    xs = np.array([-1.0, 0.0, 1.0])
    ys = np.array([0.5, 1.0])
    fld = evaluate_field(F, xs, ys)
    out = tmp_path / "field.csv"
    dump_field(fld, str(out))
    lines = out.read_text().splitlines()
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
    assert "timings_seconds" in manifest
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


def test_main_exit_codes(tmp_path):
    assert main(["run", "--suite", "growth", "--out", str(tmp_path / "ok")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2


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


def test_summary_states_timing_location(tmp_path):
    # timings must never appear in tables or the summary; the manifest is
    # the single home so reruns stay byte-identical
    cfg = ExperimentConfig(suite="growth", output_dir=str(tmp_path / "rep"))
    bundle = run(cfg)
    for rel, (header, rows) in bundle.tables.items():
        assert "seconds" not in header and "time" not in header


def test_config_file_suite_is_not_overridden_by_flag_default(tmp_path):
    # precedence is flag > config > default: a config naming one suite runs
    # that suite when no --suite flag is given
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"suite": "growth"}))
    out = tmp_path / "rep"
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["suite"] == "growth"
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["growth"]


def test_suite_flag_beats_config_file(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"suite": "kernels"}))
    out = tmp_path / "rep"
    assert main(["run", "--suite", "growth", "--config", str(conf), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["suite"] == "growth"
