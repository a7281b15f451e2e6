"""Small-size self-check of the benchmark, so it cannot rot unnoticed.

    python3 perfbench/selfcheck.py

Runs every workload at a few seconds' size through the same code paths as
``run.py``: one untraced run (every end-to-end metric present, non-zero,
no failed operation) and two traced runs (every per-layer metric present,
no failed operation, every exact counter identical between the two runs).
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

import run

run.import_package()
import tracing  # noqa: E402  (needs the package on the path)
import workloads as wl  # noqa: E402

SEED = 7
# each instance is also the others' probe, as workloads.PROBES are in a full run
SMALL = {
    "detect": (lambda: wl.Detect(SEED, records_per_noise=1, duration_s=1.0), 0.1),
    "stream256": (lambda: wl.Stream256(SEED, channels=32, scans=4608), 0.1),
    "calibrate": (lambda: wl.Calibrate(SEED, records=1, duration_s=0.3), 0.1),
    "sweep": (lambda: wl.Sweep(SEED, points=(0.1,), replicates=1, duration_s=1.0), 0.1),
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name, (make, _) in SMALL.items():
        values, tally, _ = run.run_untraced(make(), SMALL, 0.0, wl)
        result = run.result_line(values, tally, spec["end_to_end"])
        zero = [k for k, m in result["metrics"].items() if not (math.isfinite(m["value"]) and m["value"] > 0)]
        if zero or not result["correct"]:
            problems.append(f"{name}: untraced failed={result['failed']} zero-or-invalid={zero}")
        counts = []
        for _ in range(2):
            values, tally, detail = run.run_traced(make(), 0.0, wl, tracing)
            result = run.result_line(values, tally, spec["per_layer"])
            if not result["correct"]:
                problems.append(f"{name}: traced run failed {result['failed']}/{result['attempted']}")
            counts.append(detail["counts_per_traced_pass"][0])
        if counts[0] != counts[1]:
            problems.append(f"{name}: exact counters differ between traced runs")
        print(f"{name:10s} ok" if not any(p.startswith(name) for p in problems) else f"{name:10s} FAILED")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
