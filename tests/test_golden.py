"""Golden calibration outputs: digests of every candidate's mean accuracy.

Calibration must pick the same coefficients with the same score however its
scoring is computed.  These digests pin the full mean-accuracy vector over
each default grid, byte for byte, together with the winner and its score, on
two corpora: a small fixed corpus at 24 kHz, which the hw pipeline resamples
to 16 kHz as ``calibrate_coefficients`` does, and the ``oracle_training``
records, which sit at each pipeline's own rate.

The digests were taken with numpy 2.4 on x86-64.  A change that moves one on
purpose updates it in the same change and says which one moved and why; a
digest that differs only under another numpy release is a finding to report,
not a reason to loosen the test.
"""

import hashlib

import numpy as np
import pytest

from dualteo import dataio
from dualteo.detector import prepare_dual
from dualteo.hw_model import HwConfig
from dualteo.threshold import _mean_accuracies, calibrate_coefficients, default_coefficient_grid

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
