"""Bit-exact integer realization of the dual detector and its 256-channel
stream interface.

Datapath per channel, all in two's-complement integers, at the widths of
:class:`HwConfig`'s register map: 7-bit input codes, exact half-sum smoother
(codes stay in the 7-bit range, carried at half-LSB weight), exact Teager
energies truncated by arithmetic right shift into 8-bit (raw path) and 9-bit
(smoothed path) streams, and Q.10 sigma/threshold registers so the 2**-10
per-frame correction accumulates below one code LSB.
Nothing on the data path is ever a float.  The sigma loop, the warm-up and
the 1 ms refractory gap (16 samples at 16 kHz) are the float pipeline's own
constants, read from the same place.

Records enter through one input stage, :func:`chip_input`.  There is one
datapath, in the register map's dtypes (int8 codes and half-sums, int16
energies and int32 sigma registers), and its kernels work along axis 0 of
either one channel ``(n,)`` or a time-major block ``(n, channels)``.
:func:`prepare_hw_dual` is the whole-record case, which
:func:`~dualteo.detector.finish_dual` finishes: hw calibration prepares its
records with it once for every candidate, and :func:`trace_internal`
exposes its every intermediate value, its thresholds as Q.10 registers.
:class:`MultichannelStream` is the block case: it walks the interleaved
stream in time chunks of one kernel block of cells
(:data:`~dualteo.transforms.BLOCK_CELLS`) across all channels.  Across two
or more channels its sigma loop compares each frame's int8 half-sums with
every channel's level in int8, into one reused bool buffer, and counts the
exceedances with one ``np.add.reduce`` of the buffer's bytes into int16.  A
feed merges its chunks' crossings into events once, and returns one
:class:`~dualteo.detector.Events` per channel.
:func:`hw_detect_multichannel` is one final run of its chunk loop, and so
is :func:`hw_detect_channel`, on one channel.  Neither case ever shifts
data into Q.10: each compare against a Q.10 register shifts the register
down instead, which is the same integer compare.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import dataio, transforms
from .detector import (
    EventFormationConfig,
    Events,
    PreparedDual,
    _check_warmup,
    _merge_runs,
    dual_crossing_streams,
    finish_dual,  # unused here; perfbench/tracing.py rebinds this name to trace the record path
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
    UNMEASURED,
    ThresholdCoefficients,
    compute_thresholds_q10,
    default_hw_coefficients,
    sigma_frames_q10,
)
from .transforms import smooth2_fixed, teo_fixed

__all__ = [
    "HwConfig",
    "HwTrace",
    "chip_input",
    "quantize_for_hw",
    "prepare_hw_dual",
    "hw_detect_channel",
    "hw_detect_multichannel",
    "MultichannelStream",
    "trace_internal",
]


@dataclass(frozen=True)
class HwConfig:
    """Datapath parameters: channel count and the two energy truncation shifts.

    The rate and the register map, the signed width of each per-channel register, are class
    constants; ``tests/test_register_map.py`` proves each holds every value 7-bit codes reach.
    A shift too small for that is refused here, so no energy register ever saturates; so is a
    shift wider than the exact energies, which would leave only 0 and -1 and could push the
    alignment's left shift past the width of its int32.
    """

    input_format: ClassVar[FixedPointFormat] = FixedPointFormat(total_bits=7)
    # the half-sum of two codes spans the input range, at half-LSB weight
    halfsum_format: ClassVar[FixedPointFormat] = FixedPointFormat(total_bits=7)
    xteo_format: ClassVar[FixedPointFormat] = FixedPointFormat(total_bits=8)
    steo_format: ClassVar[FixedPointFormat] = FixedPointFormat(total_bits=9)
    # Q.10; holds the top code plus one correction step, and UNMEASURED
    sigma_format: ClassVar[FixedPointFormat] = FixedPointFormat(total_bits=8 + SIGMA_FRACTION_BITS)
    threshold_format: ClassVar[FixedPointFormat] = FixedPointFormat(total_bits=32)  # Q.10 thr_x, thr_s
    rate_hz: ClassVar[float] = 16000.0

    channels: int = 256
    xteo_drop_lsbs: int = 7
    steo_drop_lsbs: int = 6

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        # signed bits of the codes' exact energies, which lie in [-lo*lo, lo*lo - lo*hi]; the
        # half-sums stay in [lo, hi], so theirs need no more
        lo, hi = self.input_format.min_code, self.input_format.max_code
        bits = max(lo * lo - lo * hi, lo * lo - 1).bit_length() + 1
        for name in ("xteo", "steo"):
            fmt, drop = getattr(self, f"{name}_format"), getattr(self, f"{name}_drop_lsbs")
            if not (least := max(0, bits - fmt.total_bits)) <= drop <= bits:
                raise ValueError(
                    f"{name}_drop_lsbs must be in [{least}, {bits}] for the {fmt.total_bits}-bit {name} register"
                )


def quantize_for_hw(record: SignalRecord, cfg: HwConfig) -> QuantizedRecord:
    """Mid-tread quantization at the record's :func:`~dualteo.signal_model.peak_full_scale`."""
    return quantize_mid_tread(record, cfg.input_format, full_scale=peak_full_scale(record))


def chip_input(record: SignalRecord, truth=None) -> tuple[QuantizedRecord, dataio.GroundTruth | None]:
    """The chip's input stage: ``record`` resampled to ``HwConfig.rate_hz``, then quantized.

    ``truth``, when given, is rescaled from the record's rate to the
    resampled length; the codes come back with it, or with ``None``.
    """
    resampled = dataio.resample(record, HwConfig.rate_hz)
    if truth is not None:
        truth = dataio.rescale_ground_truth(truth, record.rate_hz, HwConfig.rate_hz, len(resampled))
    return quantize_for_hw(resampled, HwConfig()), truth


def _align_stream(x_teo: np.ndarray, s_teo: np.ndarray, cfg: HwConfig) -> np.ndarray:
    """Alignment signal on the common de-truncated scale of the two energies, in int32.

    Every drop pair :class:`HwConfig` accepts keeps it within int32
    (``tests/test_register_map.py``).  A record takes it of every sample;
    the stream only of its kept crossings' energies, a few per chunk.
    """
    base = min(cfg.xteo_drop_lsbs, cfg.steo_drop_lsbs)
    return np.maximum(
        x_teo.astype(np.int32) << (cfg.xteo_drop_lsbs - base),
        s_teo.astype(np.int32) << (cfg.steo_drop_lsbs - base),
    )


def _prepare_codes(
    codes: np.ndarray, cfg: HwConfig, channel_id: int, rows=slice(None), register=None
) -> PreparedDual:
    """The integer datapath, along axis 0 of one channel ``(n,)`` or a block ``(n, channels)``.

    ``codes`` are int8, a record's or a stream chunk's, and the kernels
    compute in int16.  A chunk keeps only its own ``rows`` of ``codes``,
    which start on a frame boundary, carries its sigma loop in ``register``
    (see :func:`~dualteo.threshold.sigma_frames_q10`), and leaves ``align``
    unset: the stream takes :func:`_align_stream` of its crossings alone.
    """
    s = smooth2_fixed(codes)
    x_teo = teo_fixed(codes, cfg.xteo_drop_lsbs)[rows]
    s_teo = teo_fixed(s, cfg.steo_drop_lsbs)[rows]
    return PreparedDual(
        x_energy=x_teo,
        s_energy=s_teo,
        sigma_per_frame=sigma_frames_q10(s[rows], register),
        align=_align_stream(x_teo, s_teo, cfg) if register is None else None,
        rate_hz=cfg.rate_hz,
        channel_id=channel_id,
    )


def prepare_hw_dual(
    source: SignalRecord | QuantizedRecord,
    cfg: HwConfig | None = None,
) -> PreparedDual:
    """Coefficient-independent integer pipeline work for one channel."""
    cfg = cfg if cfg is not None else HwConfig()
    q = quantize_for_hw(source, cfg) if isinstance(source, SignalRecord) else source
    _check_chip_codes(q, cfg)
    return _prepare_codes(q.codes, cfg, q.channel_id)


def _check_chip_codes(q: QuantizedRecord, cfg: HwConfig) -> None:
    """Refuse codes of another format than the chip's input, or at another rate."""
    if q.format != cfg.input_format:
        raise ValueError(
            f"expected {cfg.input_format.total_bits}-bit codes, got {q.format.total_bits}-bit"
        )
    if q.rate_hz != cfg.rate_hz:
        raise ValueError(f"expected rate {cfg.rate_hz} Hz, got {q.rate_hz} Hz")


def hw_detect_channel(
    q: QuantizedRecord,
    cfg: HwConfig | None = None,
    coeffs: ThresholdCoefficients | None = None,
) -> Events:
    """Integer-only dual detection of one quantized channel.

    The channel is one final feed of a one-channel :class:`MultichannelStream`,
    so it runs the stream's chunk loop in the register map's dtypes; its
    events equal those of the record path,
    ``finish_dual(prepare_hw_dual(q, cfg), coeffs)``, on ``q.channel_id``.
    """
    cfg = cfg if cfg is not None else HwConfig()
    _check_chip_codes(q, cfg)
    _check_warmup(q)
    (events,) = MultichannelStream(replace(cfg, channels=1), coeffs)._feed(q.codes, final=True)
    return Events(np.full(len(events), q.channel_id, dtype=np.int64), events.sample_index)


# ---------------------------------------------------------------------------
# Per-sample trace
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
        Path(path).write_text(",".join(self.COLUMNS) + "\n" + (row * len(self)) % tuple(table.ravel().tolist()))


def trace_internal(
    q: QuantizedRecord,
    cfg: HwConfig | None = None,
    coeffs: ThresholdCoefficients | None = None,
) -> HwTrace:
    """Emit every intermediate integer per sample for golden-trace regression.

    Every column is widened to int64.  The crossing column is the raw
    comparator OR, before warm-up gating.
    """
    if coeffs is None:
        coeffs = default_hw_coefficients()
    prep = prepare_hw_dual(q, cfg)
    registers = compute_thresholds_q10(prep.sigma_per_frame, coeffs)
    thr_x, thr_s = (np.repeat(thr, FRAME_LEN)[:prep.n] for thr in registers)
    cross_x, cross_s = dual_crossing_streams(prep, coeffs)
    columns = (q.codes, smooth2_fixed(q.codes), prep.x_energy, prep.s_energy, thr_x, thr_s, cross_x | cross_s)
    return HwTrace(*(column.astype(np.int64) for column in columns))


# ---------------------------------------------------------------------------
# Multichannel stream interface
# ---------------------------------------------------------------------------

# no open events: channels, last crossings, peak scans and peak alignment values
_NO_OPEN_EVENTS = (np.zeros(0, dtype=np.intp),) * 3 + (np.zeros(0, dtype=np.int32),)


class MultichannelStream:
    """The multichannel engine as a stream: code scans in, finished events out.

    :meth:`push` takes the next scans, flat (scan-major) or ``(n_scans,
    channels)``, under the input checks of :func:`hw_detect_multichannel`,
    and returns the events they finished, a list of one
    :class:`~dualteo.detector.Events` per channel; a push that fails a check
    leaves the stream as it was, so the next push continues from the last
    accepted one; :meth:`close` ends the stream and returns the rest.  With
    ``return_crossings`` each call also returns the raw comparator outputs
    of the scans it decided, a ``(channels, scans)`` boolean view of the
    time-major array its chunks wrote; joined along axis 1, the calls'
    arrays cover the whole stream.

    Both calls run one chunk loop, :meth:`_feed`, which walks the stream in
    time chunks across all channels, each a whole number of frames and at
    most one kernel block of cells long (512 scans at 256 channels), in the
    register map's dtypes.  Each chunk's scans are range-checked in their
    own dtype just before the cast, so the input is read once and never
    copied whole.  A chunk runs the datapath of :func:`prepare_hw_dual`
    along axis 0, steps every channel's sigma at once (one channel walks it
    by bisection, as a record does), compares once, and takes the alignment
    signal only at its crossings, which the call then merges into events in
    one pass.  The energy of scan ``k`` reads scan ``k + 1``, so a chunk
    waits for the scan after it, and codes are buffered until a whole frame
    has arrived; only the last chunk, walked by :meth:`close`, has no scan
    after it.  Each channel carries its last two codes and its sigma
    register from chunk to chunk, and its one event that may still grow (as
    its peak and last crossing) from call to call.  So neither the chunk
    length nor the pushes can change an output, and the memory held between
    calls does not grow with the stream; within a call it grows only by the
    live crossings, a few per event.
    """

    def __init__(
        self,
        cfg: HwConfig | None = None,
        coeffs: ThresholdCoefficients | None = None,
        return_crossings: bool = False,
    ):
        self.cfg = cfg if cfg is not None else HwConfig()
        self.coeffs = coeffs if coeffs is not None else default_hw_coefficients()
        self.return_crossings = return_crossings
        # longest chunk: whole frames, at least one, of one kernel block of cells
        self._chunk = max(1, transforms.BLOCK_CELLS // self.cfg.channels // FRAME_LEN) * FRAME_LEN
        self._start = 0  # scan index of the next chunk
        # the two carried codes before the next chunk (none before the first
        # chunk), then the codes of it received so far
        self._held = np.zeros((0, self.cfg.channels), dtype=self.cfg.input_format.dtype)
        self._sigma = np.full(self.cfg.channels, UNMEASURED, dtype=self.cfg.sigma_format.dtype)
        self._open = _NO_OPEN_EVENTS
        self._closed = False

    def _scans(self, frames) -> np.ndarray:
        """``frames`` as ``(n_scans, channels)`` integer codes in their own dtype.

        :meth:`_feed` checks their range, a slice at a time.
        """
        channels = self.cfg.channels
        stream = np.asarray(frames)
        if not np.issubdtype(stream.dtype, np.integer):
            raise ValueError(f"expected integer codes, got dtype {stream.dtype}")
        if stream.ndim == 1:
            if stream.size % channels != 0:
                raise ValueError(
                    f"ragged stream: {stream.size} codes do not divide into {channels} channels"
                )
            stream = stream.reshape(-1, channels)
        elif stream.ndim != 2 or stream.shape[1] != channels:
            raise ValueError(f"expected (n_scans, {channels}) stream")
        return stream

    def push(self, frames):
        """Take the next scans; return the events they finished."""
        return self._feed(frames, final=False)

    def close(self):
        """End the stream: decide its last scans and return the events still open."""
        return self._feed(self._held[:0], final=True)

    def _feed(self, frames, final: bool):
        """Walk what ``frames`` makes ready, chunk by chunk; return what it decided.

        Ready are the whole frames whose following scan has arrived, or with
        ``final`` every scan left, after which the stream is closed.  A
        slice out of range can fail the feed after chunks have been walked,
        so the carried state is taken before the walk and put back.  The
        chunks' live crossings are kept, a few per event, and merged into
        events once, after the last chunk (:meth:`_form_events`).
        """
        if self._closed:
            raise ValueError("stream is closed")
        scans = self._scans(frames)
        carried = 2 if self._start else 0
        left = len(self._held) - carried + len(scans)  # scans still to decide
        ready = left if final else max(0, left - 1) // FRAME_LEN * FRAME_LEN
        # written time-major as the chunks compute it, returned transposed
        crossings = np.empty((ready, self.cfg.channels) if self.return_crossings else (0, 0), dtype=bool)
        # the sigma register is stepped in place, so it is saved as a copy
        start = self._start
        state = start, self._held, self._sigma.copy()
        fmt = self.cfg.input_format
        live = [self._open]  # the open events, then each chunk's live crossings
        try:
            done = taken = 0
            while done < ready:
                chunk = min(ready - done, self._chunk)
                last = final and done + chunk == ready
                # the window ends with the scan after the chunk, unless the stream ends there
                need = carried + chunk + (not last) - len(self._held)
                window = np.concatenate([self._held, fmt.check(scans[taken:taken + need])], dtype=fmt.dtype)
                out = crossings[done:done + chunk] if self.return_crossings else None
                live.append(self._walk(window, carried, chunk, out))
                self._held, carried = window[-3:].copy(), 2
                done, taken = done + chunk, taken + need
            self._held = np.concatenate([self._held, fmt.check(scans[taken:])], dtype=fmt.dtype)
        except BaseException:
            self._start, self._held, self._sigma = state
            raise
        events = self._form_events(live, start, final)
        self._closed = final
        return (events, crossings.T) if self.return_crossings else events

    def _walk(self, window, carried: int, chunk: int, out) -> tuple:
        """Decide the ``chunk`` scans of ``window`` that follow its ``carried`` codes.

        The window ends with the scan after the chunk, unless the stream
        ends there, where the energy of the last scan is the boundary 0.
        The comparator output goes into ``out`` when it is given.  Returns
        the chunk's crossings after the warm-up as runs of one crossing each,
        in the layout of the open events: channels, last crossings, peak
        scans and alignment values.
        """
        prep = _prepare_codes(window, self.cfg, 0, slice(carried, carried + chunk), self._sigma)
        crossing = np.bitwise_or(*dual_crossing_streams(prep, self.coeffs), out=out)
        start = self._start
        self._start += chunk
        skip = max(0, prep.warmup_samples - start)
        times, channels = np.divmod(np.flatnonzero(crossing[skip:]), crossing.shape[1])
        # the alignment is elementwise: take it of the live crossings' energies alone
        align = _align_stream(
            prep.x_energy[skip:][times, channels], prep.s_energy[skip:][times, channels], self.cfg
        )
        times += start + skip
        return channels, times, times, align

    def _form_events(self, live, start: int, final: bool) -> list[Events]:
        """Merge the open events and a feed's ``live`` crossings from scan ``start`` on into events.

        They arrive in time order within each channel, so a stable sort on
        the channel alone (a radix sort, on keys of at most 16 bits) puts
        them channel-major.  Keyed with a gap between channels, as
        calibration spaces its crossing-map rows, one ``_merge_runs`` pass
        forms every channel's events and none merge across channels.
        Returns the finished events, one ``Events`` per channel, views of
        the channel-major arrays; an event stays open while a crossing at
        the next feed's first scan would still join it, and none once the
        stream has ended.
        """
        channels = self.cfg.channels
        channel, last, scan, align = (np.concatenate(field) for field in zip(*live))
        # nothing to merge, or no chunk walked, after which every open event is still open; an
        # empty Events holds nothing to change, so the channels share one
        if len(channel) == 0 or (len(live) == 1 and not final):
            return [Events()] * channels
        gap = EventFormationConfig.for_rate(self.cfg.rate_hz).refractory_samples
        end = self._start
        order = np.argsort(channel.astype(np.min_scalar_type(channels - 1)), kind="stable")
        channel, last, scan, align = channel[order], last[order], scan[order], align[order]
        # open events' last crossings lie after start - gap
        key = channel * (end - start + 2 * gap) + (last - (start - gap))
        _, peaks = _merge_runs(key, key, np.arange(len(key)), align, gap)
        # each channel's last crossing, and its last event
        last_crossing = np.flatnonzero(np.append(channel[1:] != channel[:-1], True))
        last_event = np.flatnonzero(np.append(channel[peaks[1:]] != channel[peaks[:-1]], True))
        still = (last[last_crossing] > end - gap) & (not final)
        stay = peaks[last_event[still]]
        self._open = (channel[stay], last[last_crossing[still]], scan[stay], align[stay])
        finished = np.ones(len(peaks), dtype=bool)
        finished[last_event[still]] = False
        channel, scan = channel[peaks[finished]], scan[peaks[finished]]
        bounds = np.searchsorted(channel, np.arange(channels + 1)).tolist()
        views = list(map(slice, bounds[:-1], bounds[1:]))
        return list(map(Events, map(channel.__getitem__, views), map(scan.__getitem__, views)))


def hw_detect_multichannel(
    frames,
    cfg: HwConfig | None = None,
    coeffs: ThresholdCoefficients | None = None,
    return_crossings: bool = False,
):
    """Run the integer pipeline on an interleaved code stream, all channels at once.

    ``frames`` is either a flat stream (scan-major: sample t of channels
    0..C-1, then sample t+1) whose length must divide by the channel count, or
    a 2D array of shape (n_scans, channels), of an integer dtype.  The whole
    stream is one final feed of a :class:`MultichannelStream`, so a code out
    of range anywhere in it raises before any event is returned.  Channels
    share no state, so this equals the chip's round-robin service of the
    interleaved stream bit for bit; ``tests/serial_oracle.py`` holds that
    sample-serial, block-scheduled engine, and the test suite checks the two
    against each other.

    Returns a list of one :class:`~dualteo.detector.Events` per channel;
    with ``return_crossings`` also a (channels, n_scans) boolean view of the
    raw comparator outputs, taken from the same compare and stored time-major.
    """
    return MultichannelStream(cfg, coeffs, return_crossings)._feed(frames, final=True)
