"""Event matching, the detection-accuracy metric, and sweep harnesses.

Accuracy is the ratio of correctly detected spikes (true positives) to the
total of detected (TP + FP) and missed (FN) spikes: ``tp / (tp + fp + fn)``.
Matching is greedy one-to-one in time order, each truth spike taking the
nearest unmatched detection within the tolerance window; with inter-spike
gaps above twice the tolerance this equals the optimal assignment.  Unless
some detection lies within tolerance of two truth spikes, no two truths
compete, a truth is matched exactly when a detection lies within tolerance
of it, and one ``searchsorted`` counts the matches; otherwise the greedy
loop runs.  Calibration counts the matches of a whole block of candidate
detection lists in the same pass.

Every benchmark number is scored by :func:`score_record`: a 1 ms window
(clamped to the record length), truth spikes and detections inside the
estimator warm-up dropped, and an all-zero report scoring 1.0.  Detectors
emit nothing in the warm-up by construction, so truth spikes there are
dropped from the denominator rather than booked as misses.

Sweeps reproduce mean-accuracy curves against noise level, input resolution,
or sampling rate.  Every axis generates once per replicate: on the noise axis
:func:`~dualteo.dataio.generate_levels` builds the seed's spike train and
background once and rescales the background per point; on the other two one
base record, at the spec's own noise level, is transformed per point.  Sweep
results are written, never read back, by the package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import detector as _detector
from .dataio import (
    GroundTruth,
    SyntheticConfig,
    generate,
    generate_levels,
    rescale_ground_truth,
    resample,
)
from .detector import DetectorKind, Events
from .signal_model import (
    FixedPointFormat,
    dequantize,
    is_finite_real,
    is_integer,
    peak_full_scale,
    quantize_mid_tread,
)
from .threshold import WARMUP_SAMPLES

__all__ = [
    "MatchReport",
    "SweepSpec",
    "SweepResult",
    "match_events",
    "accuracy",
    "score_events",
    "match_window",
    "score_record",
    "sweep",
    "report",
]

DEFAULT_TOLERANCE_MS = 1.0
RESULTS_HEADER = "axis,point,detector,mean_accuracy,std_accuracy,replicates"


@dataclass(frozen=True)
class MatchReport:
    """True positives, false positives and misses of one matching; none negative."""

    tp: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("match report fields must be non-negative")


def _greedy_tp(det: np.ndarray, tru: np.ndarray, tolerance_samples: int) -> int:
    """True positives of the greedy matcher, one truth spike at a time."""
    taken = np.zeros(len(det), dtype=bool)
    tp = 0
    for t in tru:
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


def _true_positives(det: np.ndarray, rows: np.ndarray, n_rows: int, tru: np.ndarray,
                    tolerance_samples: int) -> np.ndarray:
    """Greedy-matching true positives of ``n_rows`` detection lists against one truth.

    Row ``r``'s detections are ``det[rows == r]``; rows ascend and detections
    ascend within a row.  Where no detection of a row lies within tolerance
    of two truth spikes, no two truths compete for a detection, so a truth
    is matched exactly when some detection lies within tolerance of it: one
    ``searchsorted`` counts those.  Rows where a detection does reach two
    truths run the greedy loop.
    """
    lo = np.searchsorted(tru, det - tolerance_samples, side="left")
    hi = np.searchsorted(tru, det + tolerance_samples, side="right")
    hit = hi > lo
    pair = (rows * len(tru) + lo)[hit]  # (row, first truth in reach), ascending
    distinct = np.ones(len(pair), dtype=bool)
    np.not_equal(pair[1:], pair[:-1], out=distinct[1:])
    tp = np.bincount(rows[hit][distinct], minlength=n_rows)
    for r in np.unique(rows[hi - lo > 1]).tolist():
        a, b = np.searchsorted(rows, [r, r + 1])
        tp[r] = _greedy_tp(det[a:b], tru, tolerance_samples)
    return tp


def match_events(
    detected: Events | np.ndarray,
    truth: GroundTruth,
    tolerance_samples: int,
) -> MatchReport:
    """Greedy one-to-one matching of detections to truth spikes.

    Truth spikes are visited in time order; each takes the nearest unmatched
    detection within ``tolerance_samples`` (earlier detection on distance
    ties).  Leftover detections are false positives, leftover truths are
    misses, so ``tp + fp`` is the number of detections and ``tp + fn`` that
    of truth spikes.  Unless a detection lies within tolerance of two truth
    spikes, the count is vectorized (see :func:`_true_positives`).
    """
    if tolerance_samples < 0:
        raise ValueError("tolerance_samples must be >= 0")
    det = np.sort(np.asarray(detected.sample_index if isinstance(detected, Events) else detected, dtype=np.int64))
    tru = truth.spike_indices
    tp = int(_true_positives(det, np.zeros(len(det), dtype=np.int64), 1, tru, tolerance_samples)[0])
    return MatchReport(tp=tp, fp=len(det) - tp, fn=len(tru) - tp)


def accuracy(report: MatchReport) -> float:
    """``tp / (tp + fp + fn)``; undefined (raises) when all three are zero."""
    denom = report.tp + report.fp + report.fn
    if denom == 0:
        raise ValueError("accuracy undefined for an all-zero match report")
    return report.tp / denom


def score_events(
    detected: Events,
    truth: GroundTruth,
    tolerance_samples: int,
    skip_before: int = 0,
) -> MatchReport:
    """Match after dropping truth spikes and detections inside the warm-up region."""
    det = detected.sample_index
    det = det[det >= skip_before]
    tru_idx = truth.spike_indices[truth.spike_indices >= skip_before]
    return match_events(det, GroundTruth(spike_indices=tru_idx), tolerance_samples)


def match_window(rate_hz: float, n_samples: int, tolerance_ms: float = DEFAULT_TOLERANCE_MS) -> int:
    """The match window in samples: ``tolerance_ms`` at ``rate_hz``, rounded.

    A window past the record's length matches as the length does, so it is
    clamped there, which keeps a huge header rate inside int64.
    """
    return round(min(rate_hz * tolerance_ms / 1000.0, n_samples))


def score_record(
    detected: Events,
    truth: GroundTruth,
    rate_hz: float,
    n_samples: int,
    tolerance_ms: float = DEFAULT_TOLERANCE_MS,
) -> tuple[MatchReport, float]:
    """Match report and accuracy of one record's detections, as every benchmark scores them.

    The window is :func:`match_window`, truth spikes and detections inside
    the warm-up (``WARMUP_SAMPLES``) are dropped, and an all-zero report
    (nothing to find and nothing found) scores 1.0.
    """
    report = score_events(
        detected, truth, match_window(rate_hz, n_samples, tolerance_ms), skip_before=WARMUP_SAMPLES
    )
    return report, (accuracy(report) if report.tp + report.fp + report.fn else 1.0)


# ---------------------------------------------------------------------------
# Sweep harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    axis: str                      # "noise_level" | "resolution_bits" | "rate_hz"
    points: tuple
    detectors: tuple               # DetectorKind members
    replicates: int = 10
    base_cfg: SyntheticConfig = SyntheticConfig()
    tolerance_ms: float = DEFAULT_TOLERANCE_MS

    def __post_init__(self):
        if self.axis not in ("noise_level", "resolution_bits", "rate_hz"):
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        points = tuple(self.points)
        if not points:
            raise ValueError("a sweep needs at least one point")
        if not all(is_finite_real(p) for p in points):
            raise ValueError(f"sweep points must be finite numbers, got {points}")
        if any(b <= a for a, b in zip(points, points[1:])):
            raise ValueError(f"sweep points must be sorted and distinct, got {points}")
        if self.axis == "resolution_bits" and not all(float(p).is_integer() and 2 <= p <= 32 for p in points):
            raise ValueError(f"resolution_bits points must be integers in 2..32, got {points}")
        # resampling interpolates, so a point above the base rate invents samples
        if self.axis == "rate_hz" and not all(0 < float(p) <= self.base_cfg.rate_hz for p in points):
            raise ValueError(f"rate_hz points must lie in (0, {self.base_cfg.rate_hz:g}], got {points}")
        object.__setattr__(self, "points", points)
        detectors = tuple(
            d if isinstance(d, DetectorKind) else DetectorKind(d) for d in self.detectors
        )
        if not detectors:
            raise ValueError("at least one detector required")
        if len(set(detectors)) != len(detectors):
            raise ValueError(f"detectors must be distinct, got {[d.value for d in detectors]}")
        object.__setattr__(self, "detectors", detectors)
        if not is_integer(self.replicates) or self.replicates < 1:
            raise ValueError(f"replicates must be an integer >= 1, got {self.replicates!r}")
        if not is_finite_real(self.tolerance_ms) or self.tolerance_ms < 0:
            raise ValueError(f"tolerance_ms must be a finite number >= 0, got {self.tolerance_ms!r}")


@dataclass(frozen=True)
class SweepResult:
    axis: str
    point: float
    detector: DetectorKind
    mean_accuracy: float
    std_accuracy: float
    replicates: int


def _transform_for_point(spec, record, truth, point):
    """Apply the swept-axis transformation to one base record."""
    if spec.axis == "noise_level":
        return record, truth
    if spec.axis == "resolution_bits":
        fmt = FixedPointFormat(total_bits=int(point))
        q = quantize_mid_tread(record, fmt, full_scale=peak_full_scale(record))
        return dequantize(q), truth
    # rate_hz, the one axis left: SweepSpec refuses any other
    resampled = resample(record, float(point))
    return resampled, rescale_ground_truth(truth, record.rate_hz, float(point), len(resampled))


def sweep(spec: SweepSpec) -> list[SweepResult]:
    """Run the full (point x detector x replicate) grid and aggregate accuracy.

    The resolution and rate axes keep ``base_cfg``'s noise level.  Results
    are bit-reproducible given the spec: replicate r uses seed
    ``base_cfg.seed + r``.  A replicate is generated once: one base record
    feeds every resolution or rate point, and on the noise axis one
    :func:`generate_levels` call yields every point's record, bit-identical
    to a :func:`generate` of that point's config.
    """
    # cell accuracies keyed by (point, detector)
    acc: dict = {(p, d): [] for p in spec.points for d in spec.detectors}
    for r in range(spec.replicates):
        cfg = replace(spec.base_cfg, seed=spec.base_cfg.seed + r)
        if spec.axis == "noise_level":
            bases = generate_levels([replace(cfg, noise_level=float(p)) for p in spec.points])
        else:
            bases = [generate(cfg)] * len(spec.points)
        for p, (record, truth) in zip(spec.points, bases):
            try:
                record_p, truth_p = _transform_for_point(spec, record, truth, p)
                for d, events in zip(spec.detectors, _detector.detect_each(record_p, spec.detectors)):
                    _, score = score_record(
                        events, truth_p, record_p.rate_hz, len(record_p), spec.tolerance_ms
                    )
                    acc[(p, d)].append(score)
            except Exception as exc:
                raise RuntimeError(
                    f"sweep cell failed: axis={spec.axis} point={p} replicate={r}"
                ) from exc
    return [
        SweepResult(spec.axis, float(p), d, float(np.mean(v)), float(np.std(v)), len(v))
        for (p, d), v in acc.items()
    ]


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------


def report(results: list[SweepResult], format: str = "csv", path=None) -> str:
    """Render results as CSV text, or a self-contained plotting script.

    With ``path`` given the text is also written there.  The plot script reads
    ``sweep_results.csv`` beside it and draws one accuracy curve per detector.
    """
    if format == "csv":
        lines = [RESULTS_HEADER]
        for r in results:
            lines.append(
                f"{r.axis},{r.point:g},{r.detector.value},"
                f"{r.mean_accuracy:.6f},{r.std_accuracy:.6f},{r.replicates}"
            )
        text = "\n".join(lines) + "\n"
    elif format == "plot_script":
        text = _PLOT_SCRIPT
    else:
        raise ValueError(f"unknown report format {format!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Plot mean detection accuracy per detector from sweep_results.csv."""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

curves = defaultdict(list)
with open("sweep_results.csv") as fh:
    # blank and "#" lines are skipped, as dualteo's own reader skips them
    lines = [line for line in fh if line.strip() and not line.lstrip().startswith("#")]
for row in csv.DictReader(lines):
    curves[row["detector"]].append(
        (float(row["point"]), float(row["mean_accuracy"]), float(row["std_accuracy"]))
    )

fig, ax = plt.subplots(figsize=(5, 3.5))
axis_label = None
for detector, pts in sorted(curves.items()):
    pts.sort()
    xs = [p for p, _, _ in pts]
    ys = [100 * m for _, m, _ in pts]
    es = [100 * s for _, _, s in pts]
    ax.errorbar(xs, ys, yerr=es, marker="o", capsize=2, label=detector)
ax.set_xlabel("sweep point")
ax.set_ylabel("mean detection accuracy (%)")
ax.grid(True, alpha=0.3)
ax.legend()
fig.tight_layout()
fig.savefig("sweep_results.png", dpi=150)
print("wrote sweep_results.png")
'''
