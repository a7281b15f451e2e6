"""The benchmark's four workloads.

Each workload builds its inputs in ``setup`` (from the run seed, except for
``calibrate``'s fixed corpus), runs one unit of
work per ``run_pass`` (every operation timed on its own and its output
checked at once), makes the checks that need a whole run in ``final_check``,
and reduces its timing samples to the end-to-end metrics it owns in
``metrics``.  One process, one thread, one caller: the next operation starts
when the previous one has returned (a closed loop).

Why these four: ``detect`` runs the per-record float and integer pipelines
(transforms, sigma loop, one event-formation pass); ``stream256`` runs the
sample-serial 256-channel engine; ``calibrate`` runs the per-candidate tail
(thresholds, crossings, event formation, matching) 2340 times per record;
``sweep`` is dominated by the synthetic generator and is the only workload
that runs the amplitude baselines.  Each stresses a layer the others leave
idle, so a change aimed at one layer has a workload where the prediction is
"no change".
"""

from __future__ import annotations

import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np

from dualteo import dataio, detector, hw_model, metrics, threshold

NOISE_LEVELS = (0.05, 0.1, 0.15, 0.2)
WARMUP = threshold.EstimatorConfig().warmup_samples
# seeds the repository's own tests and calibration use; workload data never does
RESERVED_SEEDS = frozenset(range(42, 52)) | frozenset(range(142, 146)) | {31337}


def data_seed(seed: int, offset: int) -> int:
    """Generator seed for input ``offset`` of benchmark seed ``seed``.

    Always at least 10**6, so it stays clear of ``RESERVED_SEEDS``.
    """
    value = 10**6 + (seed % 10**6) * 1000 + offset
    if value in RESERVED_SEEDS:
        raise ValueError(f"data seed {value} is reserved")
    return value


def no_trace(name: str):
    return nullcontext()


class Tally:
    """Attempted and failed operations of one run; a failure is an exception
    or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def op(self, what: str):
        self.attempted += 1
        problems: list[str] = []
        try:
            yield problems
        except Exception:
            traceback.print_exc()
            problems.append("raised")
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


def _require(problems: list, ok, message: str) -> None:
    if not ok:
        problems.append(message)


def _accuracy(report) -> float:
    """tp/(tp+fp+fn), 1.0 when all three are zero (the calibration convention)."""
    return metrics.accuracy(report) if report.tp + report.fp + report.fn else 1.0


def check_scored(problems, events, report, truth, refractory: int) -> float:
    """Events sorted and a refractory gap apart, match bookkeeping exact,
    accuracy in [0, 1].  Returns the accuracy."""
    idx = detector.event_indices(events)
    _require(problems, np.all(np.diff(idx) >= refractory),
             "events unsorted or closer than the refractory gap")
    n_det = int(np.count_nonzero(idx >= WARMUP))
    n_truth = int(np.count_nonzero(truth.spike_indices >= WARMUP))
    _require(problems, report.tp + report.fp == n_det, "tp+fp != detections")
    _require(problems, report.tp + report.fn == n_truth, "tp+fn != truth spikes")
    acc = _accuracy(report)
    _require(problems, 0.0 <= acc <= 1.0, f"accuracy {acc} outside [0, 1]")
    return acc


def _same_as_first(problems, first: dict, key, value) -> None:
    """Every repeat of an operation on the same input gives the same output."""
    if first.setdefault(key, value) != value:
        problems.append("output differs from the first run on the same input")


def typical(times) -> float:
    """A run's figure for one timed operation: the mean of its fastest 90%.

    A mean moves in proportion to the share of the run the host spent in
    each of its speed phases, as the host reference's mean does, so the
    host factor cancels the mix; the slowest tenth is left out so that a
    rare stall does not count (see DESIGN.md, "Why trimmed means").
    """
    x = np.sort(np.asarray(times, dtype=float))
    return float(x[:max(1, len(x) - len(x) // 10)].mean())


def _refractory(rate_hz: float) -> int:
    return detector.EventFormationConfig.for_rate(rate_hz).refractory_samples


class Detect:
    """Distinct 10 s, 24 kHz records through ``dualteo detect`` and ``detect --hw``.

    Each record's time is its ``typical`` time over the run's passes; the
    p50 and p90 are taken across records, so they describe how the time
    varies with the input rather than with the host's moment-to-moment speed.
    Each pass starts one record later than the one before: the first records
    after another workload's pass run about 10% slow on cold caches, and the
    rotation keeps that from landing on the same record every time.
    """

    name = "detect"

    def __init__(self, seed: int, records_per_noise: int = 4, duration_s: float = 10.0):
        self.seed = seed
        self.records_per_noise = records_per_noise
        self.duration_s = duration_s
        self.hw_cfg = hw_model.HwConfig()
        self.first: dict = {}
        self.accuracy: dict = {}
        self.passes = 0

    def setup(self) -> None:
        self.records = [
            dataio.generate(dataio.SyntheticConfig(
                duration_s=self.duration_s, noise_level=noise,
                seed=data_seed(self.seed, i * self.records_per_noise + k),
            ))
            for i, noise in enumerate(NOISE_LEVELS)
            for k in range(self.records_per_noise)
        ]

    def run_pass(self, samples, tally: Tally, trace=no_trace) -> None:
        cfg = self.hw_cfg
        n, start = len(self.records), self.passes % len(self.records)
        self.passes += 1
        for i in [*range(start, n), *range(start)]:
            record, truth = self.records[i]
            with tally.op(f"float record {i}") as problems:
                with trace("bench.float_record"):
                    t0 = time.perf_counter()
                    events = detector.detect_dual(record)
                    report = metrics.score_events(
                        events, truth, round(record.rate_hz / 1000.0), skip_before=WARMUP)
                    dt = time.perf_counter() - t0
                samples.setdefault(("float", i), []).append(1e3 * dt)
                acc = check_scored(problems, events, report, truth, _refractory(record.rate_hz))
                _same_as_first(problems, self.first, ("float", i), (tuple(detector.event_indices(events)), report))
                self.accuracy[("float", i)] = acc
            with tally.op(f"hw record {i}") as problems:
                with trace("bench.hw_record"):
                    t0 = time.perf_counter()
                    rec16 = dataio.resample(record, cfg.rate_hz)
                    truth16 = dataio.rescale_ground_truth(truth, record.rate_hz, cfg.rate_hz, len(rec16))
                    q = hw_model.quantize_for_hw(rec16, cfg)
                    events = hw_model.hw_detect_channel(q, cfg)
                    report = metrics.score_events(
                        events, truth16, round(cfg.rate_hz / 1000.0), skip_before=WARMUP)
                    dt = time.perf_counter() - t0
                samples.setdefault(("hw", i), []).append(1e3 * dt)
                acc = check_scored(problems, events, report, truth16, _refractory(cfg.rate_hz))
                _same_as_first(problems, self.first, ("hw", i), (tuple(detector.event_indices(events)), report))
                self.accuracy[("hw", i)] = acc

    def final_check(self, tally: Tally) -> None:
        pass

    def metrics(self, samples) -> dict:
        out = {}
        for path in ("float", "hw"):
            per_record = [typical(ms) for (p, _), ms in samples.items() if p == path]
            out[f"{path}_record_ms_p50"] = float(np.percentile(per_record, 50))
            out[f"{path}_record_ms_p90"] = float(np.percentile(per_record, 90))
            out[f"{path}_accuracy"] = float(np.mean(
                [acc for (p, _), acc in self.accuracy.items() if p == path]))
        return out


class Stream256:
    """A (scans x 256) 7-bit, 16 kHz code stream through the sample-serial engine.

    Channel ``c`` carries a distinct slice of one of four generated 16 kHz
    records (one per noise level), quantized the way ``detect --hw`` does, so
    channels differ, carry spikes and have known truth.
    """

    name = "stream256"
    SLICE_STRIDE = 1500

    def __init__(self, seed: int, channels: int = 256, scans: int = 8000):
        self.seed = seed
        self.cfg = hw_model.HwConfig(channels=channels)
        self.scans = scans
        self.events = None
        self.hw_accuracy = None

    def setup(self) -> None:
        cfg = self.cfg
        per_record = cfg.channels // len(NOISE_LEVELS)
        n = self.scans + (per_record - 1) * self.SLICE_STRIDE
        stream = np.empty((self.scans, cfg.channels), dtype=np.int64)
        self.truths = []
        for r, noise in enumerate(NOISE_LEVELS):
            record, truth = dataio.generate(dataio.SyntheticConfig(
                duration_s=n / cfg.rate_hz, rate_hz=cfg.rate_hz, noise_level=noise,
                seed=data_seed(self.seed, 100 + r),
            ))
            codes = hw_model.quantize_for_hw(record, cfg).codes
            spikes = truth.spike_indices
            for k in range(per_record):
                off = k * self.SLICE_STRIDE
                stream[:, r * per_record + k] = codes[off:off + self.scans]
                inside = spikes[(spikes >= off) & (spikes < off + self.scans)] - off
                self.truths.append(dataio.GroundTruth(spike_indices=inside))
        self.stream = stream
        self.coeffs = threshold.default_hw_coefficients()

    def run_pass(self, samples, tally: Tally, trace=no_trace) -> None:
        with tally.op("multichannel stream") as problems:
            with trace("bench.stream"):
                t0 = time.perf_counter()
                events = hw_model.hw_detect_multichannel(self.stream, self.cfg, self.coeffs)
                dt = time.perf_counter() - t0
            samples.setdefault("stream_s", []).append(dt)
            if self.events is None:
                self.events = events
            _require(problems, events == self.events, "output differs from the first run on the same input")

    def final_check(self, tally: Tally) -> None:
        """Transparency: the serial engine equals independent per-channel runs
        (``prepare_hw_dual`` + ``finish_dual``) in events and comparator streams."""
        ref_events, ref_crossings = [], []
        for ch in range(self.cfg.channels):
            q = hw_model.QuantizedRecord(
                codes=self.stream[:, ch], format=self.cfg.input_format,
                rate_hz=self.cfg.rate_hz, channel_id=ch)
            prep = hw_model.prepare_hw_dual(q, self.cfg)
            ref_events.append(detector.finish_dual(prep, self.coeffs))
            cx, cs = detector.dual_crossing_streams(prep, self.coeffs)
            ref_crossings.append(cx | cs)
        with tally.op("multichannel events") as problems:
            _require(problems, self.events == ref_events,
                     "events differ from independent per-channel runs")
            tol = round(self.cfg.rate_hz / 1000.0)
            accs = []
            for ev, truth in zip(self.events, self.truths):
                report = metrics.score_events(ev, truth, tol, skip_before=WARMUP)
                accs.append(check_scored(problems, ev, report, truth, _refractory(self.cfg.rate_hz)))
            self.hw_accuracy = float(np.mean(accs))
        with tally.op("multichannel comparator streams") as problems:
            events, crossings = hw_model.hw_detect_multichannel(
                self.stream, self.cfg, self.coeffs, return_crossings=True)
            _require(problems, events == ref_events and np.array_equal(crossings, np.stack(ref_crossings)),
                     "serial engine is not bit-identical to per-channel runs")

    def metrics(self, samples) -> dict:
        return {"realtime_x": self.scans / self.cfg.rate_hz / typical(samples["stream_s"]),
                "hw_accuracy": self.hw_accuracy}


class Calibrate:
    """``calibrate_coefficients`` over the full default grid, float then hw,
    on a short fixed corpus with one record per noise level.

    The corpus does not depend on the run seed: calibration cost differs by
    about 15% between corpora of different seeds, and with one fixed corpus
    the run-to-run spread is the host's alone.
    """

    name = "calibrate"
    PIPELINES = ("float", "hw")
    CORPUS_SEED = 0

    def __init__(self, seed: int, records: int = 4, duration_s: float = 0.3):
        self.n_records = records
        self.duration_s = duration_s
        self.first: dict = {}
        self.prepared: dict = {}
        self.score: dict = {}

    def setup(self) -> None:
        self.corpus = [
            dataio.generate(dataio.SyntheticConfig(
                duration_s=self.duration_s, noise_level=NOISE_LEVELS[i % len(NOISE_LEVELS)],
                seed=data_seed(self.CORPUS_SEED, 200 + i),
            ))
            for i in range(self.n_records)
        ]

    def _rescore(self, pipeline: str, coeffs) -> float:
        """Mean accuracy of ``coeffs`` on the corpus, summed as calibration does."""
        if pipeline not in self.prepared:
            pairs = self.corpus
            cfg = hw_model.HwConfig() if pipeline == "hw" else None
            if cfg is not None:
                pairs = []
                for record, truth in self.corpus:
                    rec16 = dataio.resample(record, cfg.rate_hz)
                    pairs.append((rec16, dataio.rescale_ground_truth(
                        truth, record.rate_hz, cfg.rate_hz, len(rec16))))
            self.prepared[pipeline] = [
                (detector.prepare_dual(record, pipeline=pipeline, hw_cfg=cfg), truth)
                for record, truth in pairs
            ]
        total = 0.0
        for prep, truth in self.prepared[pipeline]:
            events = detector.finish_dual(prep, coeffs)
            report = metrics.score_events(
                events, truth, prep.tolerance_samples(1.0), skip_before=prep.warmup_samples)
            total += _accuracy(report)
        return total / len(self.prepared[pipeline])

    def run_pass(self, samples, tally: Tally, trace=no_trace) -> None:
        for pipeline in self.PIPELINES:
            with tally.op(f"calibrate {pipeline}") as problems:
                with trace(f"bench.calibrate_{pipeline}"):
                    t0 = time.perf_counter()
                    coeffs, score = threshold.calibrate_coefficients(
                        self.corpus, pipeline=pipeline, return_score=True)
                    dt = time.perf_counter() - t0
                samples.setdefault(f"calibrate_{pipeline}_s", []).append(dt)
                if pipeline not in self.first:
                    default = (threshold.default_float_coefficients() if pipeline == "float"
                               else threshold.default_hw_coefficients())
                    _require(problems, self._rescore(pipeline, coeffs) == score,
                             "returned score differs from a re-scoring of the winner")
                    _require(problems, self._rescore(pipeline, default) <= score,
                             "winner scores below the shipped defaults")
                _same_as_first(problems, self.first, pipeline, (coeffs, score))
                self.score[pipeline] = score

    def final_check(self, tally: Tally) -> None:
        pass

    def metrics(self, samples) -> dict:
        return {
            "calibrate_float_s": typical(samples["calibrate_float_s"]),
            "calibrate_hw_s": typical(samples["calibrate_hw_s"]),
            "float_accuracy": self.score["float"],
            "hw_accuracy": self.score["hw"],
        }


class Sweep:
    """``metrics.sweep`` on the noise-level axis, all five detectors."""

    name = "sweep"

    def __init__(self, seed: int, points=NOISE_LEVELS, replicates: int = 2, duration_s: float = 10.0):
        self.spec = metrics.SweepSpec(
            axis="noise_level", points=tuple(points), detectors=tuple(detector.DetectorKind),
            replicates=replicates,
            base_cfg=dataio.SyntheticConfig(duration_s=duration_s, seed=data_seed(seed, 300)),
        )
        self.first: dict = {}

    def setup(self) -> None:
        """The records the sweep regenerates, built independently for the check."""
        base = self.spec.base_cfg
        self.records = {
            (point, r): dataio.generate(replace(base, noise_level=float(point), seed=base.seed + r))
            for r in range(self.spec.replicates)
            for point in self.spec.points
        }

    def run_pass(self, samples, tally: Tally, trace=no_trace) -> None:
        with tally.op("sweep") as problems:
            with trace("bench.sweep"):
                t0 = time.perf_counter()
                results = metrics.sweep(self.spec)
                dt = time.perf_counter() - t0
            samples.setdefault("sweep_s", []).append(dt)
            _same_as_first(problems, self.first, "results", results)
            self.results = results

    def final_check(self, tally: Tally) -> None:
        """Re-derive every sweep cell from public calls; means must match exactly."""
        with tally.op("sweep cells") as problems:
            spec = self.spec
            expected = []
            for point in spec.points:
                for kind in spec.detectors:
                    accs = []
                    for r in range(spec.replicates):
                        record, truth = self.records[(point, r)]
                        events = detector.detect(record, kind)
                        report = metrics.score_events(
                            events, truth, round(record.rate_hz * spec.tolerance_ms / 1000.0),
                            skip_before=WARMUP)
                        accs.append(check_scored(problems, events, report, truth, _refractory(record.rate_hz)))
                    vals = np.asarray(accs)
                    expected.append(metrics.SweepResult(
                        axis=spec.axis, point=float(point), detector=kind,
                        mean_accuracy=float(vals.mean()), std_accuracy=float(vals.std()),
                        replicates=len(vals)))
            _require(problems, self.results == expected, "sweep results differ from per-cell runs")

    def metrics(self, samples) -> dict:
        dual = [r.mean_accuracy for r in self.results if r.detector == detector.DetectorKind.DUAL]
        return {"sweep_s": typical(samples["sweep_s"]), "float_accuracy": float(np.mean(dual))}


class HostReference:
    """A fixed yardstick of host speed, interleaved with every workload.

    The host this benchmark runs on speeds up and slows down by about 20%
    over minutes, and every timing in a run moves with it (see DESIGN.md).
    One pass does a fixed mix of the kinds of work dualteo does: elementwise
    numpy over a long array, a per-sample Python loop and many small numpy
    calls.  It uses numpy and the standard library only, never ``dualteo``,
    so no change to the package can change what it measures.
    """

    name = "host"

    def __init__(self):
        self.first = None

    def setup(self) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(200_000)
        self.codes = rng.integers(-64, 64, 24_000).tolist()
        self.small = rng.standard_normal(1_000)

    def _work(self):
        x = self.x
        y = 0.5 * (x[1:] + x[:-1])
        e = y[1:-1] * y[1:-1] - y[:-2] * y[2:]
        crossings = int(np.count_nonzero(e > 4.0 * float(np.median(np.abs(e)))))
        acc = peak = 0
        for c in self.codes:
            acc = (acc + c) >> 1 if c & 1 else acc + (c >> 2)
            if acc > peak:
                peak = acc
        total = 0.0
        for k in range(400):
            total += float(np.max(self.small * (k + 1) - self.small[::-1]))
        return crossings, acc, peak, total

    def run_pass(self, samples, tally: Tally, trace=no_trace) -> None:
        with tally.op("host reference") as problems:
            t0 = time.perf_counter()
            result = self._work()
            samples.setdefault("host_ref_ms", []).append(1e3 * (time.perf_counter() - t0))
            if self.first is None:
                self.first = result
            _require(problems, result == self.first, "reference result differs between passes")

    def final_check(self, tally: Tally) -> None:
        pass

    def metrics(self, samples) -> dict:
        return {"host_ref_ms": typical(samples["host_ref_ms"])}


WORKLOADS = {cls.name: cls for cls in (Detect, Stream256, Calibrate, Sweep)}

# Smaller instances on one fixed input (seed PROBE_SEED) that measure the
# end-to-end metrics a workload does not own, each given its share of the
# timed window (see run.py).  The input is fixed so that their figures carry
# machine noise only, not the run seed's; shares follow the cost of a pass.
PROBE_SEED = 0
PROBES = {
    "detect": (lambda: Detect(PROBE_SEED, records_per_noise=1), 0.08),
    "stream256": (lambda: Stream256(PROBE_SEED, scans=512), 0.09),
    "calibrate": (lambda: Calibrate(PROBE_SEED, records=1, duration_s=0.3), 0.38),
    "sweep": (lambda: Sweep(PROBE_SEED, points=(0.1,), replicates=1), 0.05),
}
