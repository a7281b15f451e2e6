"""Per-element loops that the package's whole-array kernels replaced.

Each function here is the earlier implementation, kept as an oracle that
the vectorized code must equal exactly: the per-candidate calibration loop,
the ``np.split``/argmax event former, the greedy matcher, the row-wise
trace writer and the per-frame sigma count.
"""

import numpy as np

from dualteo import detector, metrics
from dualteo.threshold import CONVERGENCE_FACTOR, FRAME_LEN


def calibration_means(prepared, truths, grid) -> np.ndarray:
    """Mean accuracy of each candidate, one candidate and one record at a time."""
    means = []
    for cand in grid:
        total = 0.0
        for prep, truth in zip(prepared, truths):
            events = detector.finish_dual(prep, cand)
            report = metrics.score_events(
                events, truth, prep.tolerance_samples(),
                skip_before=prep.warmup_samples,
            )
            total += metrics.accuracy(report) if (report.tp + report.fp + report.fn) else 1.0
        means.append(total / len(prepared))
    return np.asarray(means)


def split_events(crossings, values, refractory_samples: int) -> list[int]:
    """Event sample indices: split crossing runs at gaps, argmax within each run."""
    idx = np.flatnonzero(crossings)
    if idx.size == 0:
        return []
    splits = np.flatnonzero(np.diff(idx) >= refractory_samples) + 1
    return [int(group[np.argmax(values[group])]) for group in np.split(idx, splits)]


def greedy_tp(detected, truth_indices, tolerance_samples: int) -> int:
    """Greedy one-to-one matching: each truth in turn takes its nearest free detection."""
    det = np.sort(np.asarray(detected, dtype=np.int64))
    taken = np.zeros(len(det), dtype=bool)
    tp = 0
    for t in truth_indices:
        lo = np.searchsorted(det, t - tolerance_samples, side="left")
        hi = np.searchsorted(det, t + tolerance_samples, side="right")
        best = -1
        best_dist = None
        for j in range(lo, hi):
            if taken[j]:
                continue
            dist = abs(int(det[j]) - int(t))
            if best_dist is None or dist < best_dist:
                best, best_dist = j, dist
        if best >= 0:
            taken[best] = True
            tp += 1
    return tp


def write_trace_rows(trace, path) -> None:
    """Trace CSV written one row at a time."""
    cols = [getattr(trace, c) for c in trace.COLUMNS]
    with open(path, "w") as fh:
        fh.write(",".join(trace.COLUMNS) + "\n")
        for row in zip(*cols):
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def sigma_track(values, measure, step, shift=None) -> np.ndarray:
    """One channel's sigma trajectory: one ``count_nonzero`` of each frame above its level."""
    L = FRAME_LEN
    n_frames = -(-len(values) // L)
    out = np.empty(n_frames, dtype=np.float64 if values.dtype.kind == "f" else np.int64)
    sigma, fresh = 0, True
    for f in range(n_frames):
        out[f] = sigma
        frame = values[f * L:(f + 1) * L]
        if len(frame) < L:
            break
        if fresh:
            sigma, fresh = measure(frame), False
            continue
        level = sigma if shift is None else sigma >> shift
        count = int(np.count_nonzero(frame > level))
        sigma = max(0, sigma + step * (count - CONVERGENCE_FACTOR))
    return out
