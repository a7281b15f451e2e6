import numpy as np
import pytest

from dualteo import GroundTruth, SignalRecord, SyntheticConfig, generate
from dualteo.detector import prepare_dual
from dualteo.threshold import FRAME_LEN, WARMUP_SAMPLES

# each pipeline at its own rate, so calibration converts none of its records
ORACLE_RATES = {"float": 24000.0, "hw": 16000.0}


@pytest.fixture(scope="session")
def noisy_record():
    """One mid-noise synthetic record with truth, reused across tests."""
    return generate(SyntheticConfig(duration_s=6.0, noise_level=0.1, seed=7))


@pytest.fixture(scope="session")
def oracle_training():
    """Per pipeline: training pairs at its own rate (so calibration converts
    none of them), their prepared records and their truths.

    Besides a plain record: one exactly as long as the warm-up, a silent one
    whose truth is all missed (no crossings for any candidate), the plain
    record against truth spikes 2 samples apart, so detections reach two
    truths and the greedy matcher runs, and the plain record cut 16 samples
    past its last live spike that lies at least 16 samples before its
    frame's end, so the live part ends mid-frame with that spike in the
    partial last frame.  (The plain hw record's live part is exactly 9
    frames long.)
    """
    out = {}
    for pipeline, rate in ORACLE_RATES.items():
        cfg = SyntheticConfig(duration_s=0.4, rate_hz=rate, noise_level=0.1, seed=5)
        record, truth = generate(cfg)
        idx = truth.spike_indices
        short = SignalRecord(samples=record.samples[:WARMUP_SAMPLES], rate_hz=rate)
        silent = SignalRecord(samples=np.zeros(len(record)), rate_hz=rate)
        crowded = GroundTruth(spike_indices=np.unique(np.concatenate([idx, idx + 2])))
        live = idx[(idx >= WARMUP_SAMPLES) & ((idx - WARMUP_SAMPLES) % FRAME_LEN < FRAME_LEN - 16)]
        cut = int(live[-1]) + 16
        pairs = [
            (record, truth),
            (short, GroundTruth(spike_indices=idx[idx < WARMUP_SAMPLES])),
            (silent, truth),
            (record, crowded),
            (SignalRecord(samples=record.samples[:cut], rate_hz=rate), GroundTruth(spike_indices=idx[idx < cut])),
        ]
        prepared = [prepare_dual(r, pipeline=pipeline) for r, _ in pairs]
        out[pipeline] = pairs, prepared, [t for _, t in pairs]
    return out


def make_clean_spike_record(
    spike_index: int = 5000,
    n: int = 10000,
    rate_hz: float = 24000.0,
    width_s: float = 0.12e-3,
    amplitude: float = 1.0,
) -> SignalRecord:
    """Noise-free record holding a single fast biphasic transient.

    The waveform peak lands exactly on ``spike_index``.
    """
    t = (np.arange(n) - spike_index) / rate_hz
    w = amplitude * (
        np.exp(-0.5 * (t / width_s) ** 2)
        - 0.5 * np.exp(-0.5 * ((t - 0.5e-3) / (2.5 * width_s)) ** 2)
    )
    return SignalRecord(samples=w, rate_hz=rate_hz, channel_id=0)
