"""Span tracing from outside the package, for the benchmark's traced runs.

Each traced function is replaced, for the length of one benchmark
operation, by a wrapper bound in every module namespace its callers resolve
it through (``detector.py`` imports ``smooth2`` into its own namespace, so
that copy is the one ``prepare_dual`` calls).  A wrapper records a span --
name, start, end, parent -- in memory and, after the span has closed, adds
the exact work counts it can read off the call's arguments and result.
Nothing under ``src/`` changes; the original bindings are restored when the
operation ends.

``hw_detect_multichannel`` is one span: the serial engine's inner calls
(its per-frame ``compute_thresholds_q10``) keep their original binding, so a
breakdown inside the engine needs tracing inside the program.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

from dualteo import dataio, detector, hw_model, metrics, signal_model, threshold, transforms


def _count_frames(args, kwargs, result, counts):
    counts["threshold.frames"] += len(result)


def _count_form_events(args, kwargs, result, counts):
    crossings = args[0] if args else kwargs["crossings"]
    counts["detector.crossing_samples"] += int(np.count_nonzero(crossings))
    counts["detector.events"] += len(result)


def _count_multichannel(args, kwargs, result, counts):
    frames = args[0] if args else kwargs["frames"]
    events = result[0] if isinstance(result, tuple) else result
    counts["hw_model.codes"] += int(np.size(frames))
    counts["hw_model.events"] += sum(len(ev) for ev in events)


def _count_score(args, kwargs, result, counts):
    counts["metrics.tp"] += result.tp
    counts["metrics.fp"] += result.fp
    counts["metrics.fn"] += result.fn
    counts["metrics.truth_spikes"] += result.tp + result.fn


def _count_candidates(args, kwargs, result, counts):
    training_set = args[0] if args else kwargs["training_set"]
    grid = args[1] if len(args) > 1 else kwargs.get("search_grid")
    if grid is None:
        grid = threshold.default_coefficient_grid(kwargs.get("pipeline", "float"))
    counts["threshold.candidate_evals"] += len(grid) * len(training_set)


# (defining module, function name, namespaces whose binding is replaced, counter)
TRACED = [
    (dataio, "generate", (dataio, metrics), None),
    (dataio, "resample", (dataio, metrics), None),
    (dataio, "rescale_ground_truth", (dataio, metrics), None),
    (hw_model, "quantize_for_hw", (hw_model,), None),
    (signal_model, "quantize_mid_tread", (signal_model, hw_model, metrics), None),
    (transforms, "smooth2", (transforms, detector), None),
    (transforms, "teo", (transforms, detector), None),
    (transforms, "smooth2_fixed", (transforms, hw_model), None),
    (transforms, "teo_fixed", (transforms, hw_model), None),
    (threshold, "sigma_frames", (threshold, detector), _count_frames),
    (threshold, "sigma_frames_q10", (threshold, hw_model), _count_frames),
    # detector's binding only: hw_model's copy runs inside the serial engine
    (threshold, "compute_thresholds_q10", (detector,), None),
    (threshold, "calibrate_coefficients", (threshold,), _count_candidates),
    (detector, "prepare_dual", (detector,), None),
    (hw_model, "prepare_hw_dual", (hw_model,), None),
    (detector, "finish_dual", (detector, hw_model), None),
    (detector, "dual_crossing_streams", (detector,), None),
    (detector, "form_events", (detector,), _count_form_events),
    (detector, "detect_at", (detector,), None),
    (detector, "detect_dvt", (detector,), None),
    (detector, "detect_mae", (detector,), None),
    (hw_model, "hw_detect_channel", (hw_model,), None),
    (hw_model, "hw_detect_multichannel", (hw_model,), _count_multichannel),
    (metrics, "score_events", (metrics,), _count_score),
    (metrics, "match_events", (metrics,), None),
    (metrics, "sweep", (metrics,), None),
]

# per-layer time metric -> spans whose self time it sums (milliseconds per pass)
LAYER_SPANS = {
    "dataio.generate_ms": ("dataio.generate",),
    "dataio.resample_ms": ("dataio.resample", "dataio.rescale_ground_truth"),
    "signal_model.quantize_ms": ("hw_model.quantize_for_hw", "signal_model.quantize_mid_tread"),
    "transforms.float_ms": ("transforms.smooth2", "transforms.teo"),
    "transforms.fixed_ms": ("transforms.smooth2_fixed", "transforms.teo_fixed"),
    "threshold.sigma_float_ms": ("threshold.sigma_frames",),
    "threshold.sigma_q10_ms": ("threshold.sigma_frames_q10",),
    "threshold.thresholds_ms": ("threshold.compute_thresholds_q10",),
    "detector.prepare_ms": ("detector.prepare_dual", "hw_model.prepare_hw_dual"),
    "detector.crossing_ms": ("detector.finish_dual", "detector.dual_crossing_streams"),
    "detector.form_events_ms": ("detector.form_events",),
    "detector.baseline_ms": ("detector.detect_at", "detector.detect_dvt", "detector.detect_mae"),
    "hw_model.channel_ms": ("hw_model.hw_detect_channel",),
    "metrics.match_ms": ("metrics.score_events", "metrics.match_events"),
}

COUNTERS = (
    "threshold.frames",
    "threshold.candidate_evals",
    "detector.crossing_samples",
    "detector.events",
    "hw_model.codes",
    "hw_model.events",
    "metrics.tp",
    "metrics.fp",
    "metrics.fn",
    "metrics.truth_spikes",
)


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_s, end_s, parent index or -1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._bindings = []  # (namespace, attribute, wrapper, original)
        for owner, attr, namespaces, counter in TRACED:
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            traced = self._wrap(getattr(owner, attr), name, counter)
            self._bindings.extend((ns, attr, traced, getattr(ns, attr)) for ns in namespaces)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None:
                counter(args, kwargs, result, self.counts)
            return result
        return traced

    @contextmanager
    def op(self, name: str):
        """Trace one benchmark operation: a root span, wrappers installed inside it.

        Output checks run outside this block, so they add no spans or counts.
        """
        try:
            for ns, attr, traced, _ in self._bindings:
                setattr(ns, attr, traced)
            sid = self._open(name)
            try:
                yield
            finally:
                self._close(sid)
        finally:
            for ns, attr, _, original in self._bindings:
                setattr(ns, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - c)
        return out

    def total_time(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass (times in the unit their name gives)."""
    self_s = tracer.self_times()
    out = {
        layer: 1e3 * sum(self_s.get(n, 0.0) for n in names)
        for layer, names in LAYER_SPANS.items()
    }
    counts = tracer.counts
    out.update({name: float(value) for name, value in counts.items()})
    multichannel_s = self_s.get("hw_model.hw_detect_multichannel", 0.0)
    out["hw_model.multichannel_s"] = multichannel_s
    out["hw_model.ns_per_code"] = (
        1e9 * multichannel_s / counts["hw_model.codes"] if counts["hw_model.codes"] else 0.0
    )
    out["threshold.candidate_us"] = (
        1e6 * tracer.total_time("threshold.calibrate_coefficients") / counts["threshold.candidate_evals"]
        if counts["threshold.candidate_evals"] else 0.0
    )
    out["detector.events_per_crossing"] = (
        counts["detector.events"] / counts["detector.crossing_samples"]
        if counts["detector.crossing_samples"] else 0.0
    )
    return out
