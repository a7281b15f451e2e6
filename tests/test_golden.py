"""Golden outputs: calibration's mean accuracies, every detector's events, the
sweep CSVs and the ``detect`` command's report.

Calibration must pick the same coefficients with the same score however its
scoring is computed.  These digests pin the full mean-accuracy vector over
each default grid, byte for byte, together with the winner and its score, on
two corpora: a small fixed corpus at 24 kHz, which the hw pipeline resamples
to 16 kHz as ``calibrate_coefficients`` does, and the ``oracle_training``
records, which sit at each pipeline's own rate.  The integer engine's events
and comparator outputs are pinned the same way, however the engine walks
its stream, and so is every column of its per-sample trace.  So are the
events of all five detectors and of the ``--hw`` path on short records
across the noise grid, the sweep CSV of each axis, and the stdout of
``dualteo detect --truth``, however events are formed.

The digests were taken with numpy 2.4 on x86-64.  A change that moves one on
purpose updates it in the same change and says which one moved and why; a
digest that differs only under another numpy release is a finding to report,
not a reason to loosen the test.
"""

import hashlib

import numpy as np
import pytest

from dualteo import dataio, metrics
from dualteo.cli import main
from dualteo.detector import DetectorKind, detect, detect_each, prepare_dual
from dualteo.hw_model import (
    HwConfig,
    HwTrace,
    hw_detect_channel,
    hw_detect_multichannel,
    quantize_for_hw,
    trace_internal,
)
from dualteo.signal_model import QuantizedRecord, save_record
from dualteo.threshold import (
    WARMUP_SAMPLES,
    ThresholdCoefficients,
    _mean_accuracies,
    calibrate_coefficients,
    default_coefficient_grid,
    default_hw_coefficients,
)

# three 0.5 s records at 24 kHz, one per noise level, noisy enough that no
# candidate scores 1.0
FIXED_CORPUS = [(0.1, 11), (0.25, 12), (0.4, 13)]

# corpus -> pipeline -> (SHA-256 prefix of the little-endian float64 means,
# winner as (c1, c2, c3) (numerator, shift) pairs, winner's score)
GOLDEN = {
    "fixed": {
        "float": ("4560c01cf032c56a", ((1, 0), (1, 2), (1, 1)), 0.9444444444444445),
        "hw": ("e24d82d340097ecc", ((1, 1), (0, 0), (1, 0)), 0.8888888888888888),
    },
    "oracle": {
        "float": ("d73d4b7285f3fce6", ((1, 0), (0, 0), (1, 0)), 0.7),
        "hw": ("d79887d76d786b90", ((1, 0), (0, 0), (1, 0)), 0.7),
    },
}


@pytest.fixture(scope="module")
def fixed_corpus():
    return [
        dataio.generate(dataio.SyntheticConfig(duration_s=0.5, noise_level=noise, seed=seed))
        for noise, seed in FIXED_CORPUS
    ]


def _at_pipeline_rate(pairs, pipeline):
    """The pairs as ``calibrate_coefficients`` scores them: hw records at the chip's rate."""
    if pipeline != "hw":
        return pairs
    out = []
    for record, truth in pairs:
        resampled = dataio.resample(record, HwConfig.rate_hz)
        out.append((resampled, dataio.rescale_ground_truth(truth, record.rate_hz, HwConfig.rate_hz, len(resampled))))
    return out


def _digest(means: np.ndarray) -> str:
    assert means.dtype == np.float64
    return hashlib.sha256(means.astype("<f8").tobytes()).hexdigest()[:16]


def _winner_key(coeffs) -> tuple:
    return tuple((d.numerator, d.shift) for d in (coeffs.c1, coeffs.c2, coeffs.c3))


@pytest.mark.parametrize("pipeline", ["float", "hw"])
@pytest.mark.parametrize("corpus", sorted(GOLDEN))
def test_calibration_outputs_are_pinned(corpus, pipeline, fixed_corpus, oracle_training):
    pairs = fixed_corpus if corpus == "fixed" else oracle_training[pipeline][0]
    scored = _at_pipeline_rate(pairs, pipeline)
    prepared = [prepare_dual(record, pipeline=pipeline) for record, _ in scored]
    means = _mean_accuracies(prepared, [truth for _, truth in scored], default_coefficient_grid(pipeline))
    winner, score = calibrate_coefficients(pairs, pipeline=pipeline, return_score=True)
    digest, want_winner, want_score = GOLDEN[corpus][pipeline]
    assert (_digest(means), _winner_key(winner), score) == (digest, want_winner, want_score)


# ---------------------------------------------------------------------------
# Integer engine outputs
# ---------------------------------------------------------------------------

# A changed walk over the 256-channel stream must not move these.  Each digest
# is the SHA-256 prefix of the events as little-endian int64 (channel,
# sample_index) pairs, and of the packed comparator outputs with their shape.
#
# "extreme" drives the raw path's Q.10 threshold far below zero (every
# sample crosses, so each channel's event spans its whole live part) and
# the smoothed path's far beyond int16 once shifted.
EXTREME_HW_COEFFS = ThresholdCoefficients.make((-(3 << 12), 0), (3 << 12, 0), (-3, 0))

# (channels, n_scans, seed); neither length is a multiple of the frame
STREAMS = {"33": (33, WARMUP_SAMPLES + 1337, 41), "256": (256, WARMUP_SAMPLES + 2101, 42)}

# stream -> coefficient set -> (events digest, crossings digest)
GOLDEN_MULTICHANNEL = {
    "33": {
        "shipped": ("51dc9f4a61e27e66", "c49d0c2efc3e9bbf"),
        "extreme": ("4be447f0d80fd2f7", "acfa69f4d9ed3772"),
    },
    "256": {
        "shipped": ("2392763c244f2fad", "f13dce2b4561be98"),
        "extreme": ("1f243749099dc7ac", "9d7c7e64b25ce651"),
    },
}

# coefficient set -> events digest of hw_detect_channel over channels 0..7 of
# the 33-channel stream and one generated 16 kHz record
GOLDEN_CHANNEL = {"shipped": "736602a44427601e", "extreme": "b13e7659ba14b052"}

# coefficient set -> trace column -> (dtype, SHA-256 prefix of its
# little-endian bytes) of trace_internal on channel 0 of the 33-channel stream
GOLDEN_TRACE = {
    "shipped": {
        "x": ("int64", "74275a1d08545ee0"), "s": ("int64", "5c611e6124ab9900"),
        "x_teo": ("int64", "9b6c4c10835bc585"), "s_teo": ("int64", "fb2539f222df3c6c"),
        "thr_x": ("int64", "ffbd4e5c019c9dfa"), "thr_s": ("int64", "b55519a7592f01cd"),
        "crossing": ("int64", "72fb51b44771753c"),
    },
    "extreme": {
        "x": ("int64", "74275a1d08545ee0"), "s": ("int64", "5c611e6124ab9900"),
        "x_teo": ("int64", "9b6c4c10835bc585"), "s_teo": ("int64", "fb2539f222df3c6c"),
        "thr_x": ("int64", "1c21c065f0a7c8a3"), "thr_s": ("int64", "c79bbf7fea533e0a"),
        "crossing": ("int64", "10036aa678f12744"),
    },
}


def golden_stream(channels: int, n_scans: int, seed: int) -> np.ndarray:
    """Low-amplitude noise, with sparse spikes of random height and spacing,
    some of them closer than the refractory gap."""
    rng = np.random.default_rng(seed)
    stream = rng.integers(-6, 7, size=(n_scans, channels))
    for ch in range(channels):
        spikes = np.cumsum(rng.integers(5, 400, size=n_scans // 5))
        spikes = spikes[spikes < n_scans]
        stream[spikes, ch] = rng.integers(-64, 64, size=len(spikes))
    return stream


def golden_coeffs(name: str) -> ThresholdCoefficients:
    return default_hw_coefficients() if name == "shipped" else EXTREME_HW_COEFFS


def events_digest(events) -> str:
    """Each ``Events`` of ``events`` in turn, hashed as its ``(channel_id, sample_index)`` pairs in ``<i8``."""
    pairs = [np.column_stack([ev.channel_id, ev.sample_index]) for ev in events]
    return hashlib.sha256(np.concatenate([np.zeros((0, 2), dtype="<i8")] + pairs).astype("<i8").tobytes()).hexdigest()[:16]


def crossings_digest(crossings: np.ndarray) -> str:
    assert crossings.dtype == bool
    body = repr(crossings.shape).encode() + np.packbits(crossings).tobytes()
    return hashlib.sha256(body).hexdigest()[:16]


@pytest.mark.parametrize("layout", ["2d", "flat"])
@pytest.mark.parametrize("coeffs", ["shipped", "extreme"])
@pytest.mark.parametrize("stream", sorted(GOLDEN_MULTICHANNEL))
def test_multichannel_outputs_are_pinned(stream, coeffs, layout):
    channels, n_scans, seed = STREAMS[stream]
    codes = golden_stream(channels, n_scans, seed)
    if layout == "flat":
        codes = codes.ravel()
    cfg = HwConfig(channels=channels)
    events, crossings = hw_detect_multichannel(codes, cfg, golden_coeffs(coeffs), return_crossings=True)
    assert hw_detect_multichannel(codes, cfg, golden_coeffs(coeffs)) == events
    assert sum(map(len, events)) >= channels and crossings.any() and not crossings.all()
    assert (events_digest(events), crossings_digest(crossings)) == GOLDEN_MULTICHANNEL[stream][coeffs]


@pytest.mark.parametrize("coeffs", ["shipped", "extreme"])
def test_channel_events_are_pinned(coeffs):
    cfg = HwConfig()
    channels, n_scans, seed = STREAMS["33"]
    codes = golden_stream(channels, n_scans, seed)
    records = [
        QuantizedRecord(codes=codes[:, ch], format=cfg.input_format, rate_hz=cfg.rate_hz, channel_id=ch)
        for ch in range(8)
    ]
    synthetic = dataio.SyntheticConfig(duration_s=1.0, rate_hz=cfg.rate_hz, noise_level=0.15, seed=43)
    record, _ = dataio.generate(synthetic)
    records.append(quantize_for_hw(record, cfg))
    events = [hw_detect_channel(q, cfg, golden_coeffs(coeffs)) for q in records]
    assert all(events)
    assert events_digest(events) == GOLDEN_CHANNEL[coeffs]


@pytest.mark.parametrize("coeffs", ["shipped", "extreme"])
def test_trace_columns_are_pinned(coeffs):
    channels, n_scans, seed = STREAMS["33"]
    codes = golden_stream(channels, n_scans, seed)[:, 0]
    q = QuantizedRecord(codes=codes, format=HwConfig.input_format, rate_hz=HwConfig.rate_hz)
    trace = trace_internal(q, coeffs=golden_coeffs(coeffs))
    assert trace.crossing.any() and not trace.crossing.all()
    columns = {}
    for name in HwTrace.COLUMNS:
        column = getattr(trace, name)
        little = column.astype(column.dtype.newbyteorder("<")).tobytes()
        columns[name] = (column.dtype.name, hashlib.sha256(little).hexdigest()[:16])
    assert columns == GOLDEN_TRACE[coeffs]


# ---------------------------------------------------------------------------
# Detector, sweep and command outputs
# ---------------------------------------------------------------------------

# name -> (duration_s, rate_hz, noise_level, seed): the sweep's noise grid at
# 24 kHz, and one record at the chip's 16 kHz
RECORDS = {
    "noise0.05": (2.0, 24000.0, 0.05, 51),
    "noise0.1": (2.0, 24000.0, 0.1, 52),
    "noise0.15": (2.0, 24000.0, 0.15, 53),
    "noise0.2": (2.0, 24000.0, 0.2, 54),
    "16k": (3.0, 16000.0, 0.1, 55),
}

# record -> detector kind, or "hw" for resample -> quantize_for_hw ->
# hw_detect_channel of a 24 kHz record -> events digest
GOLDEN_EVENTS = {
    "noise0.05": {"dual": "a2e0e2865c4b3fb7", "at": "92d549da40eb7a1b", "dvt": "92d549da40eb7a1b",
                  "mae": "453b3ccd525447b1", "teo_single": "a2e0e2865c4b3fb7", "hw": "5a25263d0b1cb265"},
    "noise0.1": {"dual": "e75f198664753427", "at": "3e680b8d40dc8068", "dvt": "3e680b8d40dc8068",
                 "mae": "41623a476732eecb", "teo_single": "e75f198664753427", "hw": "64ddcaa959a106e9"},
    "noise0.15": {"dual": "96ac6c5d750e66ac", "at": "07504319a8a6d358", "dvt": "07504319a8a6d358",
                  "mae": "af48d150632176f7", "teo_single": "96ac6c5d750e66ac", "hw": "f865b55d3c38108b"},
    "noise0.2": {"dual": "c7084c78b8c18e83", "at": "3e62a465b48c8e62", "dvt": "3e62a465b48c8e62",
                 "mae": "923005997b8694a2", "teo_single": "b7f1fd99c1eaae87", "hw": "85f18faed5552103"},
    "16k": {"dual": "e7062b95b9c6e047", "at": "623385c20ac98e33", "dvt": "623385c20ac98e33",
            "mae": "769574336a39a15b", "teo_single": "e7062b95b9c6e047"},
}

# axis -> (points, SHA-256 prefix of the CSV text); 1 replicate of 2 s
# records, at points where the detectors' accuracies differ
GOLDEN_SWEEPS = {
    "noise_level": ((0.1, 0.3, 0.5), "7f5460f0ec850b6b"),
    "resolution_bits": ((2, 3, 5), "0d20663390efbba5"),
    "rate_hz": ((3000.0, 6000.0, 24000.0), "7467328d8beb5371"),
}

# detector, or "hw" for ``--hw``, -> SHA-256 prefix of the stdout of
# ``dualteo detect --truth`` on the noise0.2 record
GOLDEN_DETECT_STDOUT = {
    "dual": "dca9c0196f06bffb",
    "at": "78e600b0319a95ce",
    "dvt": "78e600b0319a95ce",
    "mae": "8374e28efd6018f1",
    "teo_single": "945ceeea4260b8f4",
    "hw": "aa670f1335c3457c",
}


@pytest.fixture(scope="module")
def golden_records():
    return {
        name: dataio.generate(dataio.SyntheticConfig(duration_s=d, rate_hz=rate, noise_level=noise, seed=seed))
        for name, (d, rate, noise, seed) in RECORDS.items()
    }


def hw_path_events(record):
    cfg = HwConfig()
    return hw_detect_channel(quantize_for_hw(dataio.resample(record, cfg.rate_hz), cfg), cfg)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_detector_events_are_pinned(name, golden_records):
    record, _ = golden_records[name]
    kinds = list(DetectorKind)
    events = {kind.value: detect(record, kind) for kind in kinds}
    if RECORDS[name][1] == 24000.0:
        events["hw"] = hw_path_events(record)
    assert all(events.values())
    assert {k: events_digest([ev]) for k, ev in events.items()} == GOLDEN_EVENTS[name]
    assert detect_each(record, kinds) == [events[kind.value] for kind in kinds]


@pytest.mark.parametrize("axis", sorted(GOLDEN_SWEEPS))
def test_sweep_csv_is_pinned(axis):
    points, digest = GOLDEN_SWEEPS[axis]
    spec = metrics.SweepSpec(
        axis=axis, points=points, detectors=tuple(DetectorKind), replicates=1,
        base_cfg=dataio.SyntheticConfig(duration_s=2.0, seed=61),
    )
    text = metrics.report(metrics.sweep(spec), "csv")
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("detector", sorted(GOLDEN_DETECT_STDOUT))
def test_detect_stdout_is_pinned(detector, golden_records, tmp_path, capsys):
    record, truth = golden_records["noise0.2"]
    save_record(record, tmp_path / "rec.f32")
    dataio.save_ground_truth(truth, tmp_path / "truth.csv")
    argv = ["detect", "--detector", "dual" if detector == "hw" else detector,
            "--record", str(tmp_path / "rec.f32"), "--truth", str(tmp_path / "truth.csv")]
    assert main(argv + (["--hw"] if detector == "hw" else [])) == 0
    out = capsys.readouterr().out
    assert "tp=" in out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_DETECT_STDOUT[detector]
