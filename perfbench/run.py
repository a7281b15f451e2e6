"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload detect --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run times the workload with tracing off
and prints every end-to-end metric, its times scaled to host speed 1.0 by a
fixed yardstick timed in the same run; with ``--trace 1`` it alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Results, the spans of
a traced run and the environment are also written under ``perfbench/out/``.
See ``perfbench/DESIGN.md`` for the workloads, the metrics and the seeds.
"""

from __future__ import annotations

import os

# single-threaded numerical libraries; must be set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0  # cheap set-ups repeat until this much set-up time is measured
MIN_PASSES = 3
# The host reference (workloads.HostReference): its share of the timed window,
# and the typical pass time that defines host speed 1.0.  The constant fixes
# the unit of every host-scaled metric, so it must never change.
REFERENCE_SHARE = 0.05
REFERENCE_MS = 10.0
# end-to-end metrics scaled to host speed 1.0: +1 where lower is better
# (divided by the run's host factor), -1 where higher is better (multiplied)
HOST_SCALED = {
    "setup_s": 1, "float_record_ms_p50": 1, "float_record_ms_p90": 1,
    "hw_record_ms_p50": 1, "hw_record_ms_p90": 1, "calibrate_float_s": 1,
    "calibrate_hw_s": 1, "sweep_s": 1, "realtime_x": -1,
}
TUNING_SEEDS = tuple(range(1, 11))
HELD_OUT_SEEDS = tuple(range(1001, 1011))


def import_package():
    """Import ``dualteo`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dualteo
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dualteo from {src}: {exc}")
    if Path(dualteo.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: dualteo resolved to {dualteo.__file__}, not {src}")


def environment(seed: int) -> dict:
    import numpy as np
    commit = "unknown"
    if (ROOT / ".git").exists():  # an exported checkout has none; never read an enclosing repo's
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "seed": seed,
        "tuning_seeds": list(TUNING_SEEDS),
        "held_out_seeds": list(HELD_OUT_SEEDS),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timed_setup(workload) -> float:
    """Median of several set-ups; the inputs of the last one are kept."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_untraced(workload, probes: dict, seconds: float, wl):
    """End-to-end metrics, tracing off.

    The workload's own metrics come from its passes.  The end-to-end metrics
    owned by the other workloads come from smaller instances of each
    (``probes``: name -> (factory, share)) whose passes are interleaved with
    the workload's, each kept to its share of the timed window, so every
    workload reports every metric and all of them sample the same stretch of
    machine time.
    Peak memory is read after the first pass, before any probe exists.

    The host reference runs as one more interleaved entry.  Its typical pass
    time (``workloads.typical``), divided by ``REFERENCE_MS``, is the run's
    host factor, and every metric in ``HOST_SCALED`` is scaled by it: a run
    on a host in a slow phase reports what the same run would read at host
    speed 1.0.  The unscaled values and the factor go to the result file.
    """
    tally = wl.Tally()
    values = {"setup_s": timed_setup(workload)}
    probes = {name: probe for name, probe in probes.items() if name != workload.name}
    entries = [{"wl": workload, "share": 1.0 - sum(share for _, share in probes.values()),
                "busy": 0.0, "passes": 0, "samples": {}}]

    def run_entry(entry):
        t0 = time.perf_counter()
        entry["wl"].run_pass(entry["samples"], tally)
        entry["busy"] += time.perf_counter() - t0
        entry["passes"] += 1

    run_entry(entries[0])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for make, share in [*probes.values(), (wl.HostReference, REFERENCE_SHARE)]:
        probe = make()
        probe.setup()
        entries.append({"wl": probe, "share": share, "busy": 0.0, "passes": 0, "samples": {}})

    elapsed = entries[0]["busy"]
    start = time.perf_counter() - elapsed
    while elapsed < seconds or any(e["passes"] < MIN_PASSES for e in entries):
        behind = [e for e in entries if e["passes"] < MIN_PASSES] if elapsed >= seconds else entries
        run_entry(max(behind, key=lambda e: e["share"] * elapsed - e["busy"]))
        elapsed = time.perf_counter() - start
    for entry in entries:
        entry["wl"].final_check(tally)
        for metric, value in entry["wl"].metrics(entry["samples"]).items():
            values.setdefault(metric, value)
    factor = values.pop("host_ref_ms") / REFERENCE_MS
    unscaled = {metric: values[metric] for metric in HOST_SCALED}
    for metric, sign in HOST_SCALED.items():
        values[metric] /= factor ** sign
    detail = {e["wl"].name: {"passes": e["passes"], "busy_s": e["busy"],
                             "samples": {str(k): v for k, v in e["samples"].items()}}
              for e in entries}
    detail["host_factor"] = factor
    detail["unscaled"] = unscaled
    return values, tally, detail


def run_traced(workload, seconds: float, wl, tracing):
    """Per-layer metrics: untraced and traced passes alternate.

    Times are medians over traced passes; counters come from one pass and
    must repeat exactly in every traced pass.  ``trace.overhead_pct`` is the
    median traced pass over the median untraced pass.  The spans of the
    first traced pass ([name, start, end, parent index], seconds from the
    pass start) go to the result file.
    """
    tally = wl.Tally()
    workload.setup()
    plain_s, traced_s, layers, counts = [], [], [], []
    spans = None
    deadline = time.perf_counter() + seconds
    while len(traced_s) < 2 or len(plain_s) < 2 or time.perf_counter() < deadline:
        traced = len(plain_s) > len(traced_s)
        tracer = tracing.Tracer() if traced else None
        t0 = time.perf_counter()
        workload.run_pass({}, tally, tracer.op if traced else wl.no_trace)
        (traced_s if traced else plain_s).append(time.perf_counter() - t0)
        if traced:
            layers.append(tracing.layer_metrics(tracer))
            counts.append(tracer.counts)
            if spans is None:
                t0 = tracer.spans[0][1]
                spans = [[name, round(start - t0, 7), round(end - t0, 7), parent]
                         for name, start, end, parent in tracer.spans]
    workload.final_check(tally)
    with tally.op("exact counters repeat in every traced pass") as problems:
        if any(c != counts[0] for c in counts[1:]):
            problems.append("counters differ between traced passes")
    values = {
        metric: (layers[0][metric] if metric in counts[0]
                 else statistics.median(layer[metric] for layer in layers))
        for metric in layers[0]
    }
    values["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
    detail = {"counts_per_traced_pass": counts, "untraced_pass_s": plain_s, "traced_pass_s": traced_s,
              "spans_of_first_traced_pass": spans}
    return values, tally, detail


def result_line(values: dict, tally, declared: list) -> dict:
    """The benchmark's result object; every declared metric must have a value."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: workload produced no value for {missing}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    import_package()
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    env = environment(args.seed)

    workload = wl.WORKLOADS[args.workload](args.seed)
    if args.trace:
        import tracing
        declared = spec["per_layer"]
        values, tally, detail = run_traced(workload, args.seconds, wl, tracing)
    else:
        declared = spec["end_to_end"]
        values, tally, detail = run_untraced(workload, wl.PROBES, args.seconds, wl)
    result = result_line(values, tally, declared)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "result"
    (OUT_DIR / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"workload": args.workload, "environment": env, "result": result, "detail": detail}))

    print(f"environment: {json.dumps(env)}")
    if not args.trace:
        print(f"host factor {detail['host_factor']:.4f} (times below are scaled to host speed 1.0)")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:10s} {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{args.workload:10s} failed {tally.failed}/{tally.attempted} "
          f"({100.0 * tally.failed / tally.attempted:.1f}%)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
