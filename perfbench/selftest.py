"""Fast self-test of the layer tracer on the inversion suite (a few seconds).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Traces ``cli.run`` on the inversion suite twice and checks that

- every span's self time is >= 0;
- the self times of all spans sum to the traced wall time of cli.run,
  and that agrees with the wall time measured around the call;
- every count (calls, sizes, parent -> child calls) repeats exactly;
- calls made through a re-imported name are seen, with their parent;
- uninstalling restores every original function;
- every per-layer metric named in BENCHMARK.json can be computed.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import abelharm  # noqa: E402
from abelharm import cli, halfplane, spectral  # noqa: E402

from tracer import Tracer  # noqa: E402
from worker import BENCHMARK_JSON, counts_of, layer_metrics  # noqa: E402


def traced_inversion(scratch: str):
    tracer = Tracer()
    out = tempfile.mkdtemp(dir=scratch)
    with tracer:
        t0 = time.perf_counter()
        cli.run(cli.ExperimentConfig(suite="inversion", output_dir=out))
        wall = time.perf_counter() - t0
    return tracer, wall


def main() -> int:
    originals = (cli.run, cli.abel_regularized_inverse, halfplane.phase_sum, abelharm.phase_sum)
    state = os.path.join(ROOT, ".perfbench_state")
    os.makedirs(state, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=state)
    try:
        runs = [traced_inversion(scratch) for _ in range(2)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = []
    for i, (tracer, wall) in enumerate(runs):
        negative = {k: st.self_s for k, st in tracer.stats.items() if st.self_s < 0.0}
        if negative:
            failures.append(f"run {i}: negative self time {negative}")
        traced_wall = tracer.stats["cli.run"].incl_s
        total_self = sum(st.self_s for st in tracer.stats.values())
        if abs(total_self - traced_wall) > 1e-9 * max(1.0, traced_wall):
            failures.append(f"run {i}: self times sum to {total_self!r}, cli.run took {traced_wall!r}")
        if not 0.0 <= wall - traced_wall <= 1e-3 + 0.01 * wall:
            failures.append(f"run {i}: traced wall {traced_wall!r} vs measured {wall!r}")
        nested = tracer.child_calls.get(("spectral.abel_regularized_inverse", "spectral.phase_sum"), 0)
        if nested == 0 or tracer.stats["cli.suite.inversion"].calls != 1:
            failures.append(f"run {i}: nested or suite spans missing")
    if counts_of(runs[0][0]) != counts_of(runs[1][0]):
        failures.append("counts differ between the two traced runs")
    now = (cli.run, cli.abel_regularized_inverse, halfplane.phase_sum, abelharm.phase_sum)
    if any(a is not b for a, b in zip(originals, now)) or spectral.phase_sum is not now[2]:
        failures.append("uninstall left wrapped functions behind")

    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    walls = [w for _, w in runs]
    try:
        layer_metrics(names, [tr for tr, _ in runs], walls, walls, 1)
    except (ValueError, KeyError) as exc:
        failures.append(f"per-layer metric not computable: {exc}")

    tracer = runs[0][0]
    print(f"inversion traced wall {runs[0][1]:.4f} s; {len(tracer.stats)} spans; "
          f"phase_sum calls {tracer.stats['spectral.phase_sum'].calls}")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
