"""Benchmark worker: runs one workload repeatedly in a fresh interpreter.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and the BLAS/OpenMP
thread counts pinned.  Each pass of the workload is timed, its outputs are
checked (verdict map against the frozen expectation, report digest equal
on every pass), and with ``--trace 1`` every other pass runs under the
layer tracer.  A fixed reference loop is timed before the first timed pass
and after every pass, so that each pass's time can be read against the speed
the host gave the process at that moment.  The last stdout line is one
JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

import abelharm as ah
from abelharm import cli

from tracer import SIZES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# workload -> the cli suites it runs, in order; hardy_slice runs no suite
SUITES = {
    "summability": ("summability",),
    "lattice_mix": ("kernels", "inversion", "growth"),
    "hardy_slice": (),
}

# checks whose gate is measured >= tolerance; every other gated check is
# measured <= tolerance
AT_LEAST_GATES = {
    "cr_residual_step_scaling",
    "cr_residual_detects_antiholomorphic",
    "growth_bound_rejects_half_type",
}


# inputs and output buffers of the reference loop, fixed by their own seed
# and built at import, outside every timed interval; the loop allocates no
# array, so its time does not depend on the allocator state a pass leaves
_REF_RNG = np.random.default_rng(20040317)
_REF_SPECTRUM = _REF_RNG.standard_normal(1 << 17) + 1j * _REF_RNG.standard_normal(1 << 17)
_REF_ADDENDS = _REF_RNG.standard_normal(200_000).tolist()
_REF_MATRIX = _REF_RNG.standard_normal((256, 256))
_REF_BLOCK = _REF_RNG.standard_normal((256, 16))
_REF_COMPLEX = (np.empty_like(_REF_SPECTRUM), np.empty_like(_REF_SPECTRUM))
_REF_REAL = np.empty(_REF_SPECTRUM.shape)
_REF_PRODUCT = np.empty((256, 16))


def reference_seconds() -> float:
    """Wall time of a fixed loop over the primitives abelharm spends its time in.

    FFTs, a complex exponential, ``math.fsum`` and a generator sum over a
    Python list, and small matmuls, about 0.5 s on a 2-core Xeon VM.  The
    loop is benchmark code and never changes with the program, so a change
    in its time is a change in the host's speed, which on a shared host
    swings by +-25 % in phases of tens of seconds to minutes.
    """
    spectrum, (a, b), real, product = _REF_SPECTRUM, _REF_COMPLEX, _REF_REAL, _REF_PRODUCT
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(16):
        np.fft.fft(spectrum, out=a)
        np.fft.ifft(a, out=b)
        acc += float(np.abs(b, out=real).sum())
        np.multiply(spectrum.real, 1j, out=a)
        acc += float(np.exp(a, out=a).real.sum())
        acc += math.fsum(_REF_ADDENDS)
        acc += sum(x * x for x in _REF_ADDENDS[:50_000])
        for _ in range(40):
            acc += float(np.matmul(_REF_MATRIX, _REF_BLOCK, out=product)[0, 0])
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("reference loop produced a non-finite sum")
    return elapsed


def _load_expected() -> dict:
    with open(os.path.join(HERE, "expected_verdicts.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _verdict(measured: float, tol: float, at_least: bool = False) -> str:
    return "pass" if (measured >= tol if at_least else measured <= tol) else "fail"


def hardy_slice():
    """One witness of the hardy suite on its pinned 2^21-point grid.

    The exp_halfline witness at height t = 0.5 through the three
    representations of criterion 9 (spectral evaluation, damped inverse,
    Cauchy convolution against the 2^20-2^21-point lattices), the three
    Cauchy-Riemann probes of criterion 11, the lower-half-plane mirror
    check, the Hardy projection of the Poisson kernel, its harmonic
    extension by a 2^22-point padded convolution checked against the
    damped inverse, and the plot-ready field sample, with the suite's
    grids, calls and gates.  Each evaluation runs on a subset of the
    suite's points, which keeps a pass short enough for several passes per
    run: criterion 9's gate on 9 of its 25 points (every third) at one of
    its three heights, the extension check on 9 of its 65 points (every
    eighth) and the field on 5 of its 17 abscissae (every fourth).

    Returns ``(checks, arrays)``: checks as summary.json records and the
    computed values that the digest covers.
    """
    space = ah.make_grid(1, 65536.0, 2 ** 21)
    freq = space.reciprocal()
    w_exp = ah.sample_spectrum(freq, lambda xi: np.exp(-2.0 * math.pi * xi), ah.SupportSpec.nonneg())
    f_exp = ah.inverse_ft(w_exp)
    p1 = ah.sample_kernel(space, ah.KernelSpec("poisson", 1.0, 1))
    w_pois, _ = ah.hardy_split(p1)

    t = 0.5
    xq = np.linspace(-2.0, 2.0, 9)
    es = ah.evaluate_upper(w_exp, xq + 1j * t)
    ea = ah.abel_regularized_inverse(w_exp, t, xq)
    ec = ah.cauchy_represent(f_exp, "upper", t, xq)
    agree = float(max(np.max(np.abs(es - ea)), np.max(np.abs(es - ec)), np.max(np.abs(ea - ec))))

    r_coarse = ah.cr_residual(w_exp, 1j, 1e-3)
    r_fine = ah.cr_residual(w_exp, 1j, 5e-4)
    ratio = r_coarse / r_fine if r_fine > 0 else math.inf
    anti = ah.cr_residual(w_exp, 1j, 1e-3, evaluator=lambda w: ah.evaluate_upper(w_exp, w).conjugate())

    w_low = ah.sample_spectrum(freq, lambda xi: np.exp(2.0 * math.pi * xi), ah.SupportSpec.nonpos())
    mirror = ah.evaluate_lower(w_low, -1j)
    mirror_err = abs(mirror - 1.0 / (4.0 * math.pi))

    F_p1 = ah.forward_ft(p1)
    ext = ah.poisson_extend(p1, 0.5)
    x_ext = np.linspace(-2.0, 2.0, 65)[::8]
    ix = np.round((x_ext + space.half_width) / space.spacing).astype(int)
    damped = ah.abel_regularized_inverse(F_p1, 0.5, x_ext)
    ext_err = float(np.max(np.abs(ext.values[ix] - damped)))

    fld = ah.evaluate_field(w_exp, np.linspace(-2.0, 2.0, 17)[::4], np.array([0.25, 0.5, 1.0]))

    gates = (
        ("representation_agreement witness=exp_halfline t=0.5", agree, 1e-5),
        ("cr_residual_holomorphic", r_coarse, 1e-5),
        ("cr_residual_step_scaling", ratio, 3.0),
        ("cr_residual_detects_antiholomorphic", anti, 1e-2),
        ("lower_half_plane_mirror", mirror_err, 1e-8),
        ("poisson_extension_agrees", ext_err, 1e-5),
    )
    checks = [{"name": name, "verdict": _verdict(m, tol, name in AT_LEAST_GATES),
               "measured": m, "tolerance": tol} for name, m, tol in gates]
    arrays = [es, ea, ec, np.array([r_coarse, r_fine, anti, mirror]), w_pois.values,
              ext.values[ix], damped, fld.values]
    return checks, arrays


def _suite_pass(suites, root: str):
    """Run the workload's suites through cli.run; returns (seconds, out dirs)."""
    outs, elapsed = [], 0.0
    for suite in suites:
        out = os.path.join(root, suite)
        config = cli.ExperimentConfig(suite=suite, output_dir=out)
        t0 = time.perf_counter()
        cli.run(config)
        elapsed += time.perf_counter() - t0
        outs.append(out)
    return elapsed, outs


def _report_files(out: str):
    """Every table and both summaries, as sorted relative paths."""
    files = []
    for dirpath, _dirs, names in os.walk(out):
        for name in names:
            rel = os.path.relpath(os.path.join(dirpath, name), out)
            if rel.endswith(".csv") or rel in ("summary.json", "summary.txt"):
                files.append(rel)
    return sorted(files)


def check_reports(outs, expected: dict):
    """Digest, verdict map and gate records of one pass's report directories.

    Returns ``(digest, verdict_map_ok, checks, criteria, bytes_written)``.
    The digest covers every table and summary.json; bytes_written covers
    the deterministic files (tables and both summaries, not the manifest).
    """
    sha = hashlib.sha256()
    checks, criteria = [], []
    verdicts_ok = True
    written = 0
    for out in outs:
        suite = os.path.basename(out)
        for rel in _report_files(out):
            with open(os.path.join(out, rel), "rb") as fh:
                data = fh.read()
            written += len(data)
            if rel != "summary.txt":
                sha.update(f"{suite}/{rel}\0{len(data)}\0".encode())
                sha.update(data)
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        got = {
            "checks": {c["name"]: c["verdict"] for c in summary["checks"]},
            "criteria": {str(c["index"]): c["verdict"] for c in summary["criteria"]
                         if c["verdict"] != "not-run"},
        }
        verdicts_ok = verdicts_ok and got == expected[suite] and len(got["checks"]) == len(summary["checks"])
        checks.extend(summary["checks"])
        criteria.extend(c for c in summary["criteria"] if c["verdict"] != "not-run")
    return sha.hexdigest(), verdicts_ok, checks, criteria, written


def headroom_log10(checks) -> float:
    """min log10(tolerance / measured) over checks gated measured <= tolerance.

    Expected failures and checks measured at or below zero (exact, or a
    negative margin) are left out: their headroom is unbounded.
    """
    values = [math.log10(c["tolerance"] / c["measured"]) for c in checks
              if c["name"] not in AT_LEAST_GATES and c["verdict"] != "expected-fail"
              and c.get("measured") is not None and c.get("tolerance") is not None
              and c["measured"] > 0]
    return min(values) if values else math.inf


def run_pass(workload: str, scratch: str, expected: dict) -> dict:
    """One timed pass of the workload plus its output check."""
    if workload == "hardy_slice":
        t0 = time.perf_counter()
        checks, arrays = hardy_slice()
        wall = time.perf_counter() - t0
        sha = hashlib.sha256()
        for arr in arrays:
            sha.update(np.ascontiguousarray(arr).tobytes())
        sha.update(json.dumps(checks, sort_keys=True).encode())
        got = {c["name"]: c["verdict"] for c in checks}
        verdicts_ok = got == expected["hardy_slice"]["checks"]
        criteria, written, digest = [], 0, sha.hexdigest()
    else:
        out_root = tempfile.mkdtemp(prefix="pass-", dir=scratch)
        try:
            wall, outs = _suite_pass(SUITES[workload], out_root)
            digest, verdicts_ok, checks, criteria, written = check_reports(outs, expected)
        finally:
            shutil.rmtree(out_root, ignore_errors=True)
    gates = checks + criteria
    return {
        "wall_s": wall,
        "digest": digest,
        "verdicts_ok": verdicts_ok,
        "attempted": len(gates),
        "failed": sum(1 for g in gates if g["verdict"] == "fail"),
        "headroom": headroom_log10(checks),
        "bytes_written": written,
    }


def layer_metrics(names, tracers, traced_walls, untraced_walls, bytes_written):
    """Per-layer metric values named ``<module>.<function>.<stat>``.

    Counts come from the first traced pass (``counts_repeat`` checks that
    every traced pass gives the same ones); times are medians over the
    traced passes.
    """
    def med(fn):
        return statistics.median(fn(tr) for tr in tracers)

    values = {}
    for name in names:
        if name == "trace.overhead_s":
            # passes alternate untraced, traced: pair each traced pass with
            # the untraced pass just before it, so a slow phase of the host
            # falls on both halves of a pair
            values[name] = statistics.median(
                tr - un for un, tr in zip(untraced_walls, traced_walls))
            continue
        if name == "cli.bytes_written":
            values[name] = bytes_written
            continue
        span, stat = name.rsplit(".", 1)
        first = tracers[0]
        if name == "growth.estimate_type.attempts":
            values[name] = first.child_calls.get((span, "growth.evaluate_entire"), 0) // 2
        elif span.startswith("cli.suite.") and stat == "s":
            values[name] = med(lambda tr: tr.stats[span].incl_s if span in tr.stats else 0.0)
        elif stat == "calls":
            values[name] = first.stats[span].calls if span in first.stats else 0
        elif stat == "self_s":
            values[name] = med(lambda tr: tr.stats[span].self_s if span in tr.stats else 0.0)
        elif stat == "terms_per_s":
            size = first.stats[span].size if span in first.stats else 0
            busy = med(lambda tr: tr.stats[span].self_s if span in tr.stats else 0.0)
            values[name] = size / busy if busy > 0 else 0.0
        elif span in SIZES and stat == SIZES[span][0]:
            values[name] = first.stats[span].size if span in first.stats else 0
        else:
            raise ValueError(f"no rule computes per-layer metric {name!r}")
    return values


def counts_of(tracer: Tracer) -> dict:
    counts = {name: (st.calls, st.size) for name, st in tracer.stats.items()}
    counts.update({f"{p}->{c}": n for (p, c), n in tracer.child_calls.items()})
    return counts


def measure(workload: str, seconds: float, trace: bool, scratch: str):
    """Repeat passes until the next one would overrun ``seconds``.

    With ``trace`` the passes alternate untraced / traced, so the tracing
    overhead is measured against untraced passes of the same process.
    One untimed pass comes first: the first pass of a process runs up to
    10 % slower than the rest (lazy set-up, fresh memory).  The reference loop then runs before the first
    timed pass and after each pass; a pass's ``wall_rel`` is its wall time
    over the mean of the two reference times around it.  The warm-up pass
    is checked like every other pass.
    """
    expected = _load_expected()
    untraced, traced, tracers = [], [], []
    durations = []
    t_begin = time.perf_counter()
    warmup = run_pass(workload, scratch, expected)
    refs = [reference_seconds()]
    while True:
        t_pass = time.perf_counter()
        if trace and len(durations) % 2 == 1:
            tracer = Tracer()
            with tracer:
                result = run_pass(workload, scratch, expected)
            traced.append(result)
            tracers.append(tracer)
        else:
            result = run_pass(workload, scratch, expected)
            untraced.append(result)
        refs.append(reference_seconds())
        result["ref_s"] = 0.5 * (refs[-2] + refs[-1])
        durations.append(time.perf_counter() - t_pass)
        done = len(durations) >= (2 if trace else 1)
        if done and time.perf_counter() - t_begin + statistics.median(durations) > seconds:
            break

    passes = [warmup] + untraced + traced
    digests = {p["digest"] for p in passes}
    counts_repeat = all(counts_of(tr) == counts_of(tracers[0]) for tr in tracers)
    # one attempted output check per pass on top of its gates
    broken = sum(1 for p in passes if not (p["verdicts_ok"] and len(digests) == 1))
    report = {
        "passes": len(passes),
        "traced_passes": len(traced),
        "attempted": sum(p["attempted"] + 1 for p in passes),
        "failed": sum(p["failed"] for p in passes) + broken,
        "digest": passes[0]["digest"] if len(digests) == 1 else None,
        "counts_repeat": counts_repeat,
        "wall_s": [p["wall_s"] for p in untraced],
        "wall_rel": [p["wall_s"] / p["ref_s"] for p in untraced],
        "ref_s": refs,
        "traced_wall_s": [p["wall_s"] for p in traced],
        "min_headroom_log10": min(p["headroom"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        with open(BENCHMARK_JSON, encoding="utf-8") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        report["layers"] = layer_metrics(
            names, tracers, report["traced_wall_s"], report["wall_s"], traced[0]["bytes_written"])
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SUITES))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True, help="directory for report output")
    args = parser.parse_args(argv)
    try:
        report = measure(args.workload, args.seconds, bool(args.trace), args.scratch)
    except Exception:
        traceback.print_exc()
        report = {"error": traceback.format_exc(limit=1).strip().splitlines()[-1]}
    report["abelharm_file"] = ah.__file__
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    report["versions"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')}-{blas.get('version', '?')}",
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
