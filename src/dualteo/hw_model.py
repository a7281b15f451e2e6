"""Bit-exact integer realization of the dual detector and its 256-channel
stream interface.

Datapath per channel, all in two's-complement integers: 7-bit input codes,
exact half-sum smoother (codes stay in the 7-bit range, carried at half-LSB
weight), exact Teager energies truncated by arithmetic right shift into 8-bit
(raw path) and 9-bit (smoothed path) streams, and Q.10 sigma/threshold
registers so the 2**-10 per-frame correction accumulates below one code LSB.
Nothing on the data path is ever a float.  The sigma loop, the warm-up and
the 1 ms refractory gap (16 samples at 16 kHz) are the float pipeline's own
constants, read from the same place.

There is one datapath, and its kernels work along axis 0 of either one
channel ``(n,)`` or a time-major block ``(n, channels)``.
:func:`prepare_hw_dual` is the one-channel case, in int64:
:func:`hw_detect_channel` finishes it with :func:`~dualteo.detector.finish_dual`
and :func:`trace_internal` exposes its every intermediate value.
:func:`hw_detect_multichannel` is the block case: it walks the stream in
``(n_scans, BLOCK_CHANNELS)`` blocks, the chip's 32-channel block, at the
chip's widths: int8 codes and half-sums, int16 energies and int32 sigma
registers.  It steps the sigma of every column at once, compares once per
block and forms the events of all its channels in one pass.  Neither case
ever shifts data into Q.10: each compare against a Q.10 register shifts the
register down instead, which is the same integer compare.  Channels share
no state, so the chip's time-multiplexed schedule cannot change any output;
the test suite holds a sample-serial, block-scheduled engine as a bit-exact
oracle and checks the multichannel output against it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .detector import (
    PreparedDual,
    SpikeEvent,
    _check_warmup,
    _event_peaks,
    _frame_thresholds,
    dual_crossing_streams,
    finish_dual,
)
from .signal_model import (
    FixedPointFormat,
    QuantizedRecord,
    SignalRecord,
    peak_full_scale,
    quantize_mid_tread,
)
from .threshold import (
    FRAME_LEN,
    SIGMA_FRACTION_BITS,
    ThresholdCoefficients,
    default_hw_coefficients,
    sigma_frames_q10,
)
from .transforms import smooth2_fixed, teo_fixed

__all__ = [
    "HwConfig",
    "HwTrace",
    "quantize_for_hw",
    "prepare_hw_dual",
    "hw_detect_channel",
    "hw_detect_multichannel",
    "trace_internal",
    "assert_closure",
]

THRESHOLD_REGISTER_BITS = 32  # signed Q.10; ample for the coefficient grid
BLOCK_CHANNELS = 32  # the chip services its channels in blocks of 32


@dataclass(frozen=True)
class HwConfig:
    """Datapath parameters: channel count and the two energy truncation shifts.

    The chip's register widths and rate are class constants.  The smoothed
    stream needs no width of its own: its half-sum codes span the input range
    at half-LSB weight.
    """

    input_format: ClassVar[FixedPointFormat] = FixedPointFormat(total_bits=7)
    xteo_format: ClassVar[FixedPointFormat] = FixedPointFormat(total_bits=8)
    steo_format: ClassVar[FixedPointFormat] = FixedPointFormat(total_bits=9)
    rate_hz: ClassVar[float] = 16000.0
    # sigma never exceeds the top input code plus one correction step
    sigma_register_max: ClassVar[int] = 1 << (input_format.total_bits + SIGMA_FRACTION_BITS)

    channels: int = 256
    xteo_drop_lsbs: int = 7
    steo_drop_lsbs: int = 6

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if min(self.xteo_drop_lsbs, self.steo_drop_lsbs) < 0:
            raise ValueError("drop counts must be >= 0")


def quantize_for_hw(record: SignalRecord, cfg: HwConfig) -> QuantizedRecord:
    """Mid-tread quantization at the record's :func:`~dualteo.signal_model.peak_full_scale`."""
    return quantize_mid_tread(record, cfg.input_format, full_scale=peak_full_scale(record))


def _align_stream(x_teo: np.ndarray, s_teo: np.ndarray, cfg: HwConfig) -> np.ndarray:
    """Alignment signal on the common de-truncated scale of the two energies.

    It stays in the energies' dtype while both shifted energies fit it (an
    int16 block at the shipped drops needs 9 and 10 bits) and widens to
    int64 otherwise.
    """
    base = min(cfg.xteo_drop_lsbs, cfg.steo_drop_lsbs)
    x_shift, s_shift = cfg.xteo_drop_lsbs - base, cfg.steo_drop_lsbs - base
    bits = max(cfg.xteo_format.total_bits + x_shift, cfg.steo_format.total_bits + s_shift)
    dtype = x_teo.dtype if bits <= np.iinfo(x_teo.dtype).bits else np.int64
    return np.maximum(
        x_teo.astype(dtype, copy=False) << x_shift,
        s_teo.astype(dtype, copy=False) << s_shift,
    )


def _prepare_codes(codes: np.ndarray, cfg: HwConfig, channel_id: int) -> PreparedDual:
    """The integer datapath, along axis 0 of one channel ``(n,)`` or a block ``(n, channels)``.

    The kernels compute in :func:`~dualteo.signal_model.datapath_ints` of
    ``codes``: int64 for a record; for a block of the multichannel stream,
    cut as int8, int8 half-sums and int16 energies.
    """
    s = smooth2_fixed(codes)
    x_teo = teo_fixed(codes, cfg.xteo_format, cfg.xteo_drop_lsbs)
    s_teo = teo_fixed(s, cfg.steo_format, cfg.steo_drop_lsbs)
    return PreparedDual(
        x_energy=x_teo,
        s_energy=s_teo,
        sigma_per_frame=sigma_frames_q10(s),
        align=_align_stream(x_teo, s_teo, cfg),
        rate_hz=cfg.rate_hz,
        channel_id=channel_id,
        integer_domain=True,
    )


def prepare_hw_dual(
    source: SignalRecord | QuantizedRecord,
    cfg: HwConfig | None = None,
) -> PreparedDual:
    """Coefficient-independent integer pipeline work for one channel."""
    cfg = cfg if cfg is not None else HwConfig()
    if isinstance(source, SignalRecord):
        q = quantize_for_hw(source, cfg)
    else:
        q = source
    if q.format != cfg.input_format:
        raise ValueError(
            f"expected {cfg.input_format.total_bits}-bit codes, got {q.format.total_bits}-bit"
        )
    if q.rate_hz != cfg.rate_hz:
        raise ValueError(f"expected rate {cfg.rate_hz} Hz, got {q.rate_hz} Hz")
    return _prepare_codes(q.codes, cfg, q.channel_id)


def hw_detect_channel(
    q: QuantizedRecord,
    cfg: HwConfig | None = None,
    coeffs: ThresholdCoefficients | None = None,
) -> list[SpikeEvent]:
    """Integer-only dual detection of one quantized channel."""
    if coeffs is None:
        coeffs = default_hw_coefficients()
    if not _check_warmup(q):
        return []
    prep = prepare_hw_dual(q, cfg)
    return finish_dual(prep, coeffs)


# ---------------------------------------------------------------------------
# Per-sample trace and format-closure checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HwTrace:
    """Per-sample intermediate values; thresholds are raw Q.10 register values."""

    x: np.ndarray
    s: np.ndarray
    x_teo: np.ndarray
    s_teo: np.ndarray
    thr_x: np.ndarray
    thr_s: np.ndarray
    crossing: np.ndarray

    COLUMNS = ("x", "s", "x_teo", "s_teo", "thr_x", "thr_s", "crossing")

    def __len__(self) -> int:
        return len(self.x)

    def to_csv(self, path) -> None:
        # one %-format over the whole table; "%d" prints each value as str(int(v))
        table = np.column_stack([getattr(self, c) for c in self.COLUMNS])
        row = ",".join(["%d"] * len(self.COLUMNS)) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(self.COLUMNS) + "\n")
            fh.write((row * len(table)) % tuple(table.ravel().tolist()))

    @classmethod
    def from_csv(cls, path) -> "HwTrace":
        header, _, body = Path(path).read_text().partition("\n")
        if header.rstrip("\r") != ",".join(cls.COLUMNS):
            raise ValueError(f"{path}: bad trace header")
        if body.strip():
            # one parse of the whole table; a malformed row raises ValueError
            table = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, ndmin=2)
        else:
            table = np.zeros((0, len(cls.COLUMNS)), dtype=np.int64)
        if table.shape[1] != len(cls.COLUMNS):
            raise ValueError(f"{path}: expected {len(cls.COLUMNS)} columns, got {table.shape[1]}")
        return cls(*np.ascontiguousarray(table.T))


def trace_internal(
    q: QuantizedRecord,
    cfg: HwConfig | None = None,
    coeffs: ThresholdCoefficients | None = None,
) -> HwTrace:
    """Emit every intermediate integer per sample for golden-trace regression.

    The crossing column is the raw comparator OR, before warm-up gating.
    """
    if coeffs is None:
        coeffs = default_hw_coefficients()
    prep = prepare_hw_dual(q, cfg)
    thr_x, thr_s = (np.repeat(thr, FRAME_LEN)[:prep.n] for thr in _frame_thresholds(prep, coeffs))
    cross_x, cross_s = dual_crossing_streams(prep, coeffs)
    return HwTrace(
        x=q.codes.copy(),
        s=smooth2_fixed(q.codes),
        x_teo=prep.x_energy,
        s_teo=prep.s_energy,
        thr_x=thr_x,
        thr_s=thr_s,
        crossing=(cross_x | cross_s).astype(np.int64),
    )


def assert_closure(trace: HwTrace) -> None:
    """Verify every traced value stays inside its declared register format."""

    def check(name, values, lo, hi):
        if len(values) and (values.min() < lo or values.max() > hi):
            raise AssertionError(
                f"{name} escaped [{lo}, {hi}]: range "
                f"[{values.min()}, {values.max()}]"
            )

    in_fmt, x_fmt, s_fmt = HwConfig.input_format, HwConfig.xteo_format, HwConfig.steo_format
    check("x", trace.x, in_fmt.min_code, in_fmt.max_code)
    # half-sum smoother: full input range at half-LSB weight
    check("s", trace.s, in_fmt.min_code, in_fmt.max_code)
    check("x_teo", trace.x_teo, x_fmt.min_code, x_fmt.max_code)
    check("s_teo", trace.s_teo, s_fmt.min_code, s_fmt.max_code)
    thr_bound = 1 << (THRESHOLD_REGISTER_BITS - 1)
    check("thr_x", trace.thr_x, -thr_bound, thr_bound - 1)
    check("thr_s", trace.thr_s, -thr_bound, thr_bound - 1)
    check("crossing", trace.crossing, 0, 1)
    # sigma is not a trace column; bound it via the thresholds' inputs instead
    # (sigma_frames_q10 clamps at zero and cannot exceed the top code + one step)


# ---------------------------------------------------------------------------
# Multichannel stream interface
# ---------------------------------------------------------------------------


def _block_events(prep: PreparedDual, crossing: np.ndarray) -> list[list[SpikeEvent]]:
    """Gate the warm-up and form the events of every channel of a block in one pass.

    The block's crossings after the warm-up are laid out channel-major, each
    channel's row padded with refractory gap - 1 clear samples, as
    calibration spaces its crossing-map rows: in the flattened map two
    channels' crossings are then always a gap apart, so one
    ``_event_peaks`` pass forms every channel's events and none merge across
    channels.
    """
    gap = prep.event_cfg.refractory_samples
    n_ch = crossing.shape[1]
    live = max(0, prep.n - prep.warmup_samples)
    padded = np.zeros((n_ch, live + gap - 1), dtype=bool)
    padded[:, :live] = crossing[prep.warmup_samples:].T
    flat = np.flatnonzero(padded)
    rows, cols = np.divmod(flat, padded.shape[1])
    peaks = _event_peaks(flat, prep.align[prep.warmup_samples:][cols, rows], gap)
    rows, times = rows[peaks], cols[peaks] + prep.warmup_samples
    per_channel = np.split(times, np.searchsorted(rows, np.arange(1, n_ch)))
    return [
        [SpikeEvent(channel_id=prep.channel_id + ch, sample_index=t) for t in ts.tolist()]
        for ch, ts in enumerate(per_channel)
    ]


def hw_detect_multichannel(
    frames,
    cfg: HwConfig | None = None,
    coeffs: ThresholdCoefficients | None = None,
    return_crossings: bool = False,
):
    """Run the integer pipeline on an interleaved code stream, 32 channels at a time.

    ``frames`` is either a flat stream (scan-major: sample t of channels
    0..C-1, then sample t+1) whose length must divide by the channel count, or
    a 2D array of shape (n_scans, channels).  Codes must have an integer
    dtype.

    The stream is walked in time-major ``(n_scans, BLOCK_CHANNELS)`` blocks,
    the chip's own block size, cut as int8 from the stream's native layout
    once the whole stream has passed the 7-bit range check.
    Each block runs the datapath of :func:`prepare_hw_dual` along axis 0, with
    every column's sigma stepped at once, compares once, and forms the
    events of all its channels in one pass.  Channels share no state, so this
    equals the chip's round-robin service of the interleaved stream bit for
    bit; ``tests/serial_oracle.py`` holds that sample-serial, block-scheduled
    engine, and the test suite checks the two against each other.

    Returns a list of per-channel event lists; with ``return_crossings`` also
    a (channels, n_scans) boolean array of raw comparator outputs, taken from
    the same compare.
    """
    cfg = cfg if cfg is not None else HwConfig()
    if coeffs is None:
        coeffs = default_hw_coefficients()
    stream = np.asarray(frames)
    if not np.issubdtype(stream.dtype, np.integer):
        raise ValueError(f"expected integer codes, got dtype {stream.dtype}")
    if stream.ndim == 1:
        if stream.size % cfg.channels != 0:
            raise ValueError(
                f"ragged stream: {stream.size} codes do not divide into "
                f"{cfg.channels} channels"
            )
        stream = stream.reshape(-1, cfg.channels)
    elif stream.ndim != 2 or stream.shape[1] != cfg.channels:
        raise ValueError(f"expected (n_scans, {cfg.channels}) stream")
    if not cfg.input_format.contains(stream):
        raise ValueError(f"codes outside {cfg.input_format.total_bits}-bit range")

    n_scans = len(stream)
    events = []
    crossings = np.empty((cfg.channels, n_scans), dtype=bool) if return_crossings else None
    for base in range(0, cfg.channels, BLOCK_CHANNELS):
        block = stream[:, base:base + BLOCK_CHANNELS].astype(np.int8)
        prep = _prepare_codes(block, cfg, base)
        cross_x, cross_s = dual_crossing_streams(prep, coeffs)
        crossing = cross_x | cross_s
        if return_crossings:
            crossings[base:base + block.shape[1]] = crossing.T
        events.extend(_block_events(prep, crossing))
    if return_crossings:
        return events, crossings
    return events
