"""The benchmark must keep running against the package.

``perfbench/tracing.py`` replaces package functions by name in specific
module namespaces, and its ``Tracer`` constructor looks every one of them up.
``perfbench/workloads.py`` calls the public API and checks every output.  A
refactor that drops or moves a traced binding, or breaks a workload, fails
here, in the test suite, rather than only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_traced_name():
    tracing = load_perfbench("tracing")
    tracing.Tracer()  # looks up every traced name; AttributeError if one is gone


def tiny_workloads(workloads):
    tiny = [
        workloads.Detect(7, records_per_noise=1, duration_s=1.0),
        workloads.Stream256(7, channels=8, scans=4608),
        workloads.Calibrate(7, records=1),
        workloads.Sweep(7, points=(0.1,), replicates=1, duration_s=1.0),
    ]
    assert {w.name for w in tiny} == set(workloads.WORKLOADS)
    return tiny


def test_every_workload_runs_clean_at_tiny_size():
    workloads = load_perfbench("workloads")
    for workload in tiny_workloads(workloads):
        tally, samples = workloads.Tally(), {}
        workload.setup()
        workload.run_pass(samples, tally)
        workload.final_check(tally)
        metrics = workload.metrics(samples)
        assert tally.attempted > 0 and tally.failed == 0, workload.name
        assert metrics and all(v is not None for v in metrics.values()), workload.name


# counters each workload must drive; they read traced call arguments by position
OWNED_COUNTERS = {
    "detect": ("threshold.frames", "detector.events", "metrics.truth_spikes"),
    "stream256": ("threshold.frames", "hw_model.codes"),
    "calibrate": ("threshold.frames", "threshold.candidate_evals", "metrics.truth_spikes"),
    "sweep": ("threshold.frames", "detector.events", "metrics.truth_spikes"),
}


def test_traced_pass_counts_every_workload():
    workloads, tracing = load_perfbench("workloads"), load_perfbench("tracing")
    for workload in tiny_workloads(workloads):
        tally, samples, tracer = workloads.Tally(), {}, tracing.Tracer()
        workload.setup()
        workload.run_pass(samples, tally, tracer.op)
        layers = tracing.layer_metrics(tracer)
        assert tally.attempted > 0 and tally.failed == 0, workload.name
        for counter in OWNED_COUNTERS[workload.name]:
            assert layers[counter] > 0, (workload.name, counter)
        if workload.name == "stream256":
            # the engine reaches its kernels through the bindings the tracer replaces
            assert layers["transforms.fixed_ms"] > 0 and layers["threshold.sigma_q10_ms"] > 0
