"""Dual Teager-energy spike detection: float reference pipeline, bit-exact
integer hardware model, amplitude-domain baselines, and a benchmark harness
with synthetic labeled data."""

from .signal_model import (
    FixedPointFormat,
    QuantizedRecord,
    SignalRecord,
    dequantize,
    load_record,
    peak_full_scale,
    quantize_mid_tread,
    save_record,
)
from .transforms import smooth2, smooth2_fixed, teo, teo_fixed
from .threshold import (
    Dyadic,
    ThresholdCoefficients,
    calibrate_coefficients,
    compute_thresholds,
    compute_thresholds_q10,
    default_float_coefficients,
    default_hw_coefficients,
    load_coefficients,
    save_coefficients,
)
from .detector import (
    DetectorKind,
    EventFormationConfig,
    Events,
    detect,
    detect_at,
    detect_dual,
    detect_dvt,
    detect_mae,
    detect_teo_single,
    events_to_csv,
    form_events,
)
from .hw_model import (
    HwConfig,
    HwTrace,
    hw_detect_channel,
    hw_detect_multichannel,
    quantize_for_hw,
    trace_internal,
)
from .dataio import (
    GroundTruth,
    SyntheticConfig,
    generate,
    generate_levels,
    load_ground_truth,
    resample,
    rescale_ground_truth,
    save_ground_truth,
)
from .metrics import (
    MatchReport,
    SweepResult,
    SweepSpec,
    accuracy,
    match_events,
    report,
    score_events,
    score_record,
    sweep,
)

__version__ = "0.1.0"
