import numpy as np
import pytest

from dualteo import SignalRecord, SyntheticConfig, generate


@pytest.fixture(scope="session")
def noisy_record():
    """One mid-noise synthetic record with truth, reused across tests."""
    return generate(SyntheticConfig(duration_s=6.0, noise_level=0.1, seed=7))


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
