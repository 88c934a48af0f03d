"""abelharm benchmark: wall time per workload, with a traced layer breakdown.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload summability --seed 1 --seconds 20 --trace 0

Measures the set-up time of a fresh interpreter importing ``abelharm``
(several fresh processes, median), then runs the workload in one more
fresh process (``worker.py``) for about ``--seconds`` seconds.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, among
them ``wall_rel``, each pass's wall time over that of a fixed reference
loop timed around it (see ``worker.reference_seconds``); with
``--trace 1`` its per-layer metrics.  Every pass is checked: the verdict
map must equal the frozen expectation and the report digest must be
identical on every pass and on every run of the same source tree.  The
last stdout line is one JSON object; the exit status is 0 only when every
check held.

The workload inputs are the suites' pinned grids, which the acceptance
gates were calibrated against, so ``--seed`` is recorded but moves no
input.  Reports and the digest record live under ``.perfbench_state``
in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench_state")

# set-up is sampled before and after the worker, so that the median spans
# the whole run rather than one moment of the host's load; one more probe
# first, untimed, because a host core that was idle runs slow for about a
# second once work arrives
SETUP_SAMPLES = 2
# one BLAS/OpenMP thread: the growth suite's E @ w matmul is otherwise
# sensitive to both the thread count and to other processes on the cores
THREADS = 1
WORKER_TIMEOUT_S = 150.0
SETUP_PROBE = "import time\nimport abelharm\nprint(repr(time.monotonic()))"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def setup_seconds(env, samples: int = SETUP_SAMPLES) -> list[float]:
    """Fresh interpreter start to ``import abelharm`` returning, per sample.

    time.monotonic is CLOCK_MONOTONIC, shared by parent and child.
    """
    times = []
    for _ in range(samples):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def source_fingerprint() -> str:
    """SHA-256 over the package and benchmark sources: what a digest is of."""
    sha = hashlib.sha256()
    for top in (os.path.join(SRC, "abelharm"), HERE):
        for dirpath, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(n for n in names if n.endswith((".py", ".json"))):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    sha.update(os.path.relpath(path, ROOT).encode() + b"\0" + fh.read())
    return sha.hexdigest()


def record_digest(fingerprint: str, workload: str, digest: str) -> bool:
    """Store the first digest seen for this source tree; False on a mismatch."""
    path = os.path.join(STATE, "digests.json")
    record = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    seen = record.setdefault(fingerprint, {}).setdefault(workload, digest)
    if seen != digest:
        return False
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def run_worker(env, workload: str, seconds: float, trace: int) -> dict:
    scratch = tempfile.mkdtemp(prefix="run-", dir=STATE)
    try:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seconds", repr(seconds), "--trace", str(trace), "--scratch", scratch]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="abelharm benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the workloads run the suites' pinned inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "abelharm", "__init__.py")):
        print(f"error: no abelharm sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("error: --seconds must lie in (0, 60]", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(STATE, exist_ok=True)
    env = child_env()
    setup_seconds(env, samples=1)
    setup = setup_seconds(env)
    report = run_worker(env, args.workload, args.seconds, args.trace)
    setup += setup_seconds(env)
    if "error" in report:
        print(f"error: worker failed: {report['error']}", file=sys.stderr)
        return 1

    fingerprint = source_fingerprint()
    problems = []
    if not os.path.abspath(report["abelharm_file"]).startswith(SRC + os.sep):
        problems.append(f"imported abelharm from {report['abelharm_file']}, not {SRC}")
    if report["digest"] is None:
        problems.append("report digest differs between passes of one run")
    elif not record_digest(fingerprint, args.workload, report["digest"]):
        problems.append("report digest differs from an earlier run of the same sources")
    if args.trace and not report["counts_repeat"]:
        problems.append("layer counts differ between traced passes")
    failed = report["failed"] + (1 if problems else 0)

    values = report["layers"] if args.trace else {
        "wall_rel": statistics.median(report["wall_rel"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": report["peak_rss_mb"],
        "min_headroom_log10": report["min_headroom_log10"],
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    v = report["versions"]
    print(f"# workload={args.workload} seed={args.seed} (inputs are the suites' pinned grids; "
          f"the seed moves none) passes={report['passes']} (the first untimed) traced={report['traced_passes']}")
    print(f"# env nproc={len(os.sched_getaffinity(0))} python={v['python']} numpy={v['numpy']} "
          f"scipy={v['scipy']} blas={v['blas']} threads={THREADS}")
    print(f"# source={fingerprint[:16]} digest={report['digest']} "
          f"fail_ratio={failed / report['attempted']:.6g} ({failed}/{report['attempted']})")
    print(f"# wall_s median {statistics.median(report['wall_s']):.6g} s; per pass: "
          + " ".join(f"{w:.4f}" for w in report["wall_s"]))
    print("# reference loop s: " + " ".join(f"{r:.4f}" for r in report["ref_s"])
          + " | setup_s per sample: " + " ".join(f"{w:.4f}" for w in setup))
    for p in problems:
        print(f"# check failed: {p}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
