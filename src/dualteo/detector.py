"""End-to-end spike detectors and crossing-to-event formation.

The dual detector runs two energy paths in parallel: the Teager energy of the
raw signal, and the Teager energy of the two-sample-smoothed signal.  The raw
path keys on sharp transients and wins when high-frequency noise is limited;
the smoothed path survives high-frequency noise at the cost of some edge
sharpness.  A sample crosses when either stream exceeds its adaptive
threshold, and the OR of the two boolean streams feeds event formation.

The float dual and raw-path detectors walk a record as the chip walks its
stream: in cache-sized chunks of whole frames, each through the datapath
of :func:`prepare_dual`, with the sigma loop carried from chunk to chunk
in a register.  Only the crossings' indices and their alignment values
outlast a chunk, as in the stream's walk, and the events are formed once,
after the walk.  :func:`prepare_dual` and :func:`finish_dual` are the whole-record
path, which calibration runs once per record for every candidate; the
walk's events equal theirs.

A single sigma estimator observes the smoothed signal and feeds both
thresholds; detections are suppressed for the first 16 frames
(``threshold.WARMUP_SAMPLES``) while it converges.  A record of any length
takes the one path, and the gate alone leaves one inside the warm-up no
events; the caller is warned.  Every detector forms
events the same way: crossing runs closer than a 1 ms refractory gap at the
record's rate (:meth:`EventFormationConfig.for_rate`) merge into one event,
aligned on the peak of its alignment signal, ties to the earliest.  The one
event former, ``_merge_runs``, has four callers: :func:`form_events`, the
256-channel stream's feeds (``hw_model.MultichannelStream._form_events``),
and calibration's two merges, crossings into runs (``threshold._map_runs``)
and a map pair's runs into events (``threshold._record_accuracies``).
Its event indices go straight into the :class:`Events` every detector
returns, two int64 arrays that scoring and the events file read as they are.

Amplitude-domain baselines (absolute threshold, dual-vertex threshold, moving
average energy over a fixed 8-sample window) use the record's global
standard deviation as their noise scale, so their thresholds are exactly
scale-equivariant.  A constant record has no noise scale, and they report
nothing on it, as the energy detectors do.  The absolute threshold is the
dual-vertex threshold with both multiples equal.  Their default multiples
were tuned on the bundled synthetic corpus by
``scripts/calibrate_defaults.py``; the dual-vertex search picks (4.0, 4.0),
the absolute threshold's 4.0, so at the shipped defaults the two give the
same events.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import transforms
from .signal_model import SignalRecord, is_integer
from .threshold import (
    FRAME_LEN,
    SIGMA_FRACTION_BITS,
    UNMEASURED,
    WARMUP_SAMPLES,
    ThresholdCoefficients,
    compute_thresholds,
    compute_thresholds_q10,
    default_float_coefficients,
    sigma_frames,
)
from .transforms import smooth2, teo

__all__ = [
    "Events",
    "EventFormationConfig",
    "DetectorKind",
    "PreparedDual",
    "form_events",
    "prepare_dual",
    "finish_dual",
    "dual_crossing_streams",
    "detect_dual",
    "detect_teo_single",
    "detect_at",
    "detect_dvt",
    "detect_mae",
    "detect",
    "detect_each",
    "moving_average_energy",
    "events_to_csv",
    "event_indices",
]

# Tuned on the bundled synthetic corpus (scripts/calibrate_defaults.py).
DEFAULT_AT_MULTIPLE = 4.0
DEFAULT_DVT_POS_MULTIPLE = 4.0
DEFAULT_DVT_NEG_MULTIPLE = 4.0
DEFAULT_MAE_WINDOW = 8
DEFAULT_MAE_MULTIPLE = 9.0


_NO_INDICES = np.zeros(0, dtype=np.int64)


class Events:
    """Detected events: int64 arrays ``channel_id`` and ``sample_index`` of equal length.

    Detectors return them sorted by channel, then by sample.  A value whose
    arrays no caller changes in place: ``==`` is one bool, ``Events()`` is
    empty.  A plain slotted class, as the stream builds one per channel per
    feed, and a frozen dataclass's ``__init__`` costs more.
    """

    __slots__ = ("channel_id", "sample_index")

    def __init__(self, channel_id: np.ndarray = _NO_INDICES, sample_index: np.ndarray = _NO_INDICES):
        self.channel_id = channel_id
        self.sample_index = sample_index

    def __len__(self) -> int:
        return len(self.sample_index)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Events):
            return NotImplemented
        n = len(self.sample_index)
        if n != len(other.sample_index) or not n:  # empty, as most channels of a short feed are: no numpy
            return n == len(other.sample_index)
        same = np.array_equal(self.sample_index, other.sample_index)
        return same and np.array_equal(self.channel_id, other.channel_id)

    def __repr__(self) -> str:
        return f"Events(channel_id={self.channel_id!r}, sample_index={self.sample_index!r})"

    @classmethod
    def join(cls, parts) -> Events:
        """``parts`` end to end, as a stream's calls return a channel's events."""
        parts = list(parts)
        channel_id = np.concatenate([_NO_INDICES] + [part.channel_id for part in parts])
        return cls(channel_id, np.concatenate([_NO_INDICES] + [part.sample_index for part in parts]))


@dataclass(frozen=True)
class EventFormationConfig:
    """Merging policy for crossing runs; every event aligns on its energy peak.

    The detectors always use :meth:`for_rate`; :func:`form_events` takes any gap.
    """

    refractory_samples: int

    def __post_init__(self):
        if not is_integer(self.refractory_samples) or self.refractory_samples < 1:
            raise ValueError(f"refractory_samples must be an integer >= 1, got {self.refractory_samples!r}")
        object.__setattr__(self, "refractory_samples", int(self.refractory_samples))

    @classmethod
    def for_rate(cls, rate_hz: float) -> "EventFormationConfig":
        """The refractory gap of 1 ms at the given sampling rate."""
        return cls(refractory_samples=max(1, round(rate_hz / 1000.0)))


class DetectorKind(Enum):
    DUAL = "dual"
    AT = "at"
    DVT = "dvt"
    MAE = "mae"
    TEO_SINGLE = "teo_single"


def _merge_runs(first, last, peak, values, gap: int) -> tuple[np.ndarray, np.ndarray]:
    """The one event former: merge crossing runs closer than ``gap`` into events.

    The runs come sorted by ``first``, their first crossing; ``last`` is
    their last crossing, and a single crossing is a run whose ``first``,
    ``last`` and ``peak`` are equal.  A run starts a new event where its
    first crossing lies at least ``gap`` past the last crossing of every run
    before it.  Each event sits on the smallest ``peak`` among its runs at
    the event's maximum of ``values``; a NaN counts as the maximum, as
    ``np.argmax`` treats it.  A caller whose runs do not overlap and that
    needs the peak run's index passes ``np.arange(len(first))`` as ``peak``.

    Returns the index of each event's first run, and each event's peak.
    """
    if len(first) == 0:  # nothing crossed: skip a dozen array calls
        return np.zeros(0, dtype=np.intp), peak[:0]
    # single crossings come sorted, so each is the furthest reach so far
    reach = last if last is first else np.maximum.accumulate(last)
    starts = np.empty(len(first), dtype=bool)
    starts[0] = True
    np.greater_equal(first[1:] - reach[:-1], gap, out=starts[1:])
    heads = np.flatnonzero(starts)
    event = np.cumsum(starts) - 1
    at_peak = values == np.maximum.reduceat(values, heads)[event]
    if values.dtype.kind == "f":
        at_peak |= np.isnan(values)
    at_peak = np.flatnonzero(at_peak)
    # every event has a run at its peak; mark each event's first one
    lead = np.empty(len(at_peak), dtype=bool)
    lead[0] = True
    np.not_equal(event[at_peak[1:]], event[at_peak[:-1]], out=lead[1:])
    return heads, np.minimum.reduceat(peak[at_peak], np.flatnonzero(lead))


def form_events(crossings, teo_values, cfg: EventFormationConfig, channel_id: int = 0) -> Events:
    """Merge crossing runs separated by less than the refractory gap into events.

    The gap between two crossing samples is their index difference; runs whose
    gap is below ``refractory_samples`` belong to one event.  The event sits
    on the maximum of ``teo_values`` over its crossing samples (earliest on
    ties).  Any two returned events are at least ``refractory_samples`` apart.
    Returns them as one :class:`Events` on ``channel_id``.
    """
    crossings = np.asarray(crossings, dtype=bool)
    teo_values = np.asarray(teo_values)
    if len(crossings) != len(teo_values):
        raise ValueError("crossings and teo_values must have the same length")
    idx = np.flatnonzero(crossings)
    _, peaks = _merge_runs(idx, idx, idx, teo_values[idx], cfg.refractory_samples)
    return Events(np.full(len(peaks), channel_id, dtype=np.int64), peaks)


def _form(source, crossings, align) -> Events:
    """:func:`form_events` at the refractory gap of ``source``'s rate, on its channel.

    ``source`` is a record or a :class:`PreparedDual`.
    """
    return form_events(crossings, align, EventFormationConfig.for_rate(source.rate_hz), source.channel_id)


# ---------------------------------------------------------------------------
# Dual pipeline, split into a coefficient-independent prepare step and a
# cheap finish step so calibration can sweep coefficients without redoing
# transforms or the sigma trajectory.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedDual:
    """Per-record transform and sigma work, ready for thresholding.

    The warm-up and the refractory gap are not settable: both pipelines gate
    ``WARMUP_SAMPLES`` and merge within 1 ms at ``rate_hz``.  The arrays hold
    one channel, a record or a chunk of the float detectors' walk over one
    (:func:`_detect_paths`), or, inside
    :class:`~dualteo.hw_model.MultichannelStream`, a time chunk of every
    channel of the stream along axis 1.  Only a whole record has ``align``:
    the chunks of both walks align their crossings alone.  The energies'
    dtype picks the comparator levels (:func:`_frame_levels`): float
    thresholds, or Q.10 registers shifted down to the integer energies.
    No package code reads ``warmup_samples``; it stays for ``perfbench/workloads.py``.
    """

    warmup_samples: ClassVar[int] = WARMUP_SAMPLES

    x_energy: np.ndarray        # raw-path energy stream
    s_energy: np.ndarray        # smoothed-path energy stream
    sigma_per_frame: np.ndarray  # sigma in effect during each frame
    align: np.ndarray | None    # alignment signal for event formation
    rate_hz: float
    channel_id: int

    @property
    def n(self) -> int:
        return len(self.x_energy)

    def tolerance_samples(self, tolerance_ms: float = 1.0) -> int:
        """This record's :func:`~dualteo.metrics.match_window`; kept for ``perfbench/workloads.py``."""
        from .metrics import match_window
        return match_window(self.rate_hz, self.n, tolerance_ms)


def prepare_dual(
    record: SignalRecord,
    *,
    pipeline: str = "float",
    hw_cfg=None,
) -> PreparedDual:
    """Run the coefficient-independent part of the dual pipeline.

    With ``pipeline="hw"`` the record, or its codes, go through the integer
    pipeline at its native rate (see :func:`dualteo.hw_model.prepare_hw_dual`).
    """
    if pipeline == "hw":
        from . import hw_model
        return hw_model.prepare_hw_dual(record, cfg=hw_cfg)
    if pipeline != "float":
        raise ValueError(f"unknown pipeline {pipeline!r}")
    return _prepare_samples(record.samples, record)


def _prepare_samples(x: np.ndarray, record: SignalRecord, rows=slice(None), register=None) -> PreparedDual:
    """The float datapath over samples ``x`` of ``record``, the twin of ``hw_model._prepare_codes``.

    ``x`` is the whole record, or a chunk's window of it
    (:func:`_detect_paths`): the chunk keeps only its own ``rows`` of
    ``x``, which start on a frame boundary, carries its sigma loop in
    ``register`` (see :func:`~dualteo.threshold.sigma_frames`), and leaves
    ``align`` unset: the walk takes the alignment of its crossings alone.
    """
    s = smooth2(x)
    x_energy = teo(x)[rows]
    s_energy = teo(s)[rows]
    return PreparedDual(
        x_energy=x_energy,
        s_energy=s_energy,
        sigma_per_frame=sigma_frames(s[rows], register),
        align=np.maximum(x_energy, s_energy) if register is None else None,
        rate_hz=record.rate_hz,
        channel_id=record.channel_id,
    )


def _frame_levels(prep: PreparedDual, coeffs):
    """Per-frame comparator levels ``(x, s)`` of both paths, on the energies' own scale.

    ``coeffs`` is one candidate, or a stack of them for ``(candidates,
    frames)`` levels.  Float energies take their float thresholds as they
    are.  An integer energy ``e`` crosses its Q.10 threshold ``t`` when
    ``e << 10 > t``, which holds exactly when ``e > t >> 10``: an arithmetic
    shift is a floor.  So the thresholds shift down instead of the energies
    up, and are then clipped into the energies' int16, a record's and a
    stream chunk's alike.  The clip changes no comparison: the 8- and 9-bit
    energies lie strictly inside int16's range.
    """
    dtype = prep.x_energy.dtype
    if dtype.kind == "f":
        return compute_thresholds(prep.sigma_per_frame, coeffs)
    lim = np.iinfo(dtype)
    return tuple(
        (thr >> SIGMA_FRACTION_BITS).clip(lim.min, lim.max).astype(dtype, copy=False)
        for thr in compute_thresholds_q10(prep.sigma_per_frame, coeffs)
    )


def dual_crossing_streams(prep: PreparedDual, coeffs: ThresholdCoefficients):
    """Boolean crossing streams (raw path, smoothed path) before warm-up gating.

    The comparator: each frame's level (:func:`_frame_levels`) holds over
    its samples, along axis 0 for a block, and each energy crosses where it
    strictly exceeds that level.
    """
    return tuple(map(_exceeds, (prep.x_energy, prep.s_energy), _frame_levels(prep, coeffs)))


def _exceeds(energy: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """``energy > thr`` of each sample's frame: the full frames as one view, then the partial tail."""
    out = np.empty(energy.shape, dtype=bool)
    n_full = len(energy) // FRAME_LEN
    full, frames = n_full * FRAME_LEN, (n_full, FRAME_LEN) + energy.shape[1:]
    np.greater(energy[:full].reshape(frames), thr[:n_full, None], out=out[:full].reshape(frames))
    if full < len(energy):
        np.greater(energy[full:], thr[-1], out=out[full:])
    return out


def _gate_and_form(source, crossings: np.ndarray, align: np.ndarray) -> Events:
    """Clear crossings inside the warm-up region (in place) and form events (:func:`_form`)."""
    crossings[:WARMUP_SAMPLES] = False
    return _form(source, crossings, align)


def finish_dual(prep: PreparedDual, coeffs: ThresholdCoefficients) -> Events:
    """Threshold, OR, gate the warm-up region, and form events."""
    cross_x, cross_s = dual_crossing_streams(prep, coeffs)
    return _gate_and_form(prep, cross_x | cross_s, prep.align)


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _check_warmup(record) -> None:
    """Warn, at the caller outside the package, when ``record`` does not outlast the warm-up."""
    if len(record) <= WARMUP_SAMPLES:
        # stacklevel 1 is this function; count up to the first frame outside
        # the package, however many package frames the call went through
        frame, level = sys._getframe(1), 2
        while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"record of {len(record)} samples does not outlast the "
            f"{WARMUP_SAMPLES}-sample warm-up; no detections possible",
            stacklevel=level,
        )


def _detect_paths(record: SignalRecord, coeffs: ThresholdCoefficients | None, kinds) -> dict:
    """The events of each of ``DUAL`` and ``TEO_SINGLE`` in ``kinds``, from one walk of the record.

    The walk takes the record in chunks of whole frames, a quarter of a
    kernel block of samples (:data:`~dualteo.transforms.BLOCK_CELLS`):
    their float64 fills the 256 KB that a block's int16 energies fill, so
    a chunk's transforms, sigma steps and compare stay in cache.  Chunk
    ``[lo, hi)`` runs :func:`_prepare_samples` on the window
    ``x[lo-2 : hi+1]``, which adds the samples its energies read on either
    side, and carries the sigma loop in a register.  Of each path, a chunk
    keeps what a stream chunk keeps (``hw_model.MultichannelStream._walk``):
    its crossings' sample indices and their alignment values, the larger
    energy at the OR's crossings for ``DUAL``, the raw energy at the raw
    path's for ``TEO_SINGLE``.  After the walk each path's events are
    formed once, so they equal the record path's,
    ``finish_dual(prepare_dual(record), coeffs)``.
    """
    _check_warmup(record)
    if coeffs is None:
        coeffs = default_float_coefficients()
    x, n = record.samples, len(record)
    found = {kind: ([], []) for kind in kinds}  # each chunk's crossing indices and their alignment values
    # 2**15 samples, 128 frames.  In a loop of 10 s, 24 kHz records through detect and detect
    # --hw (2 CPUs), the float record took 1.43-1.46 times the hw record's time at 2**15,
    # 1.52-1.53 at 2**17, 1.91 at 2**13 and 2.57-2.58 at 2**12, where the per-chunk calls
    # dominate; the whole-record path took 1.93-1.95 times.
    chunk = max(1, transforms.BLOCK_CELLS // 4 // FRAME_LEN) * FRAME_LEN
    register = np.array(UNMEASURED, dtype=np.float64)
    for lo in range(0, max(n, 1), chunk):  # an empty record still takes one chunk
        hi, start = min(lo + chunk, n), max(0, lo - 2)
        prep = _prepare_samples(x[start:hi + 1], record, slice(lo - start, hi - start), register)
        cross_x, cross_s = dual_crossing_streams(prep, coeffs)
        for kind, (indices, values) in found.items():
            dual = kind == DetectorKind.DUAL
            at = np.flatnonzero(cross_x | cross_s if dual else cross_x)
            x_at = prep.x_energy[at]
            values.append(np.maximum(x_at, prep.s_energy[at]) if dual else x_at)
            indices.append(at + lo)
    # form_events and its record-length arrays stay only for the detect workload's detector.events
    # counter, which tests/test_benchmark_bindings.py needs; it reads align at the crossings alone
    align, events = np.empty(n), {}
    for kind, (indices, values) in found.items():
        crossings, at = np.zeros(n, dtype=bool), np.concatenate(indices)
        crossings[at] = True
        align[at] = np.concatenate(values)
        events[kind] = _gate_and_form(record, crossings, align)
    return events


def detect_dual(
    record: SignalRecord,
    coeffs: ThresholdCoefficients | None = None,
) -> Events:
    """Dual-path detection on a floating-point record."""
    return _detect_paths(record, coeffs, [DetectorKind.DUAL])[DetectorKind.DUAL]


def detect_teo_single(
    record: SignalRecord,
    coeffs: ThresholdCoefficients | None = None,
) -> Events:
    """Raw-path-only detection; its crossing set is a subset of the dual's."""
    return _detect_paths(record, coeffs, [DetectorKind.TEO_SINGLE])[DetectorKind.TEO_SINGLE]


# ---------------------------------------------------------------------------
# Amplitude-domain baselines
# ---------------------------------------------------------------------------


def detect_at(
    record: SignalRecord,
    threshold_multiple: float = DEFAULT_AT_MULTIPLE,
) -> Events:
    """Absolute thresholding: ``|x| > multiple * std(x)``, aligned on the |x| peak.

    This is :func:`detect_dvt` with both multiples equal: ``|x| > t`` holds
    exactly when ``x > t`` or ``x < -t``.
    """
    return detect_dvt(record, threshold_multiple, threshold_multiple)


def detect_dvt(
    record: SignalRecord,
    pos_multiple: float = DEFAULT_DVT_POS_MULTIPLE,
    neg_multiple: float = DEFAULT_DVT_NEG_MULTIPLE,
) -> Events:
    """Dual-vertex thresholding with independent positive and negative levels."""
    x = record.samples
    sd = float(np.std(x)) if len(x) else 0.0
    if sd == 0:  # a constant record has no noise to scale a threshold by
        return Events()
    crossings = (x > pos_multiple * sd) | (x < -neg_multiple * sd)
    return _form(record, crossings, np.abs(x))


def moving_average_energy(x) -> np.ndarray:
    """Trailing mean of squared samples over ``DEFAULT_MAE_WINDOW``; the window grows during warm-in.

    ``e[k]`` averages ``min(k+1, DEFAULT_MAE_WINDOW)`` trailing squares, so a
    constant record maps to its squared value everywhere.
    """
    window = DEFAULT_MAE_WINDOW
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    cs = np.empty(n + 1)
    cs[0] = 0.0
    np.cumsum(np.square(x), out=cs[1:])
    e = np.empty(n)
    head = min(window - 1, n)
    e[:head] = cs[1 : head + 1] / np.arange(1, head + 1)
    if n >= window:
        tail = e[window - 1 :]
        np.subtract(cs[window:], cs[:-window], out=tail)
        tail /= window
    return e


def detect_mae(
    record: SignalRecord,
    threshold_multiple: float = DEFAULT_MAE_MULTIPLE,
) -> Events:
    """Moving-average-energy detection: ``e > multiple * var(x)``, ``e`` by :func:`moving_average_energy`."""
    x = record.samples
    e = moving_average_energy(x)
    var = float(np.var(x)) if len(x) else 0.0
    if var == 0:  # a constant record has no noise to scale a threshold by
        return Events()
    return _form(record, e > threshold_multiple * var, e)


def detect(record: SignalRecord, kind: DetectorKind, **kwargs) -> Events:
    """Dispatch to one detector by kind; ``kwargs`` override its default tuning."""
    if kind == DetectorKind.DUAL:
        return detect_dual(record, **kwargs)
    if kind == DetectorKind.TEO_SINGLE:
        return detect_teo_single(record, **kwargs)
    if kind == DetectorKind.AT:
        return detect_at(record, **kwargs)
    if kind == DetectorKind.DVT:
        return detect_dvt(record, **kwargs)
    if kind == DetectorKind.MAE:
        return detect_mae(record, **kwargs)
    raise ValueError(f"unknown detector kind {kind!r}")


def detect_each(record: SignalRecord, kinds) -> list[Events]:
    """The events of each detector in ``kinds`` at its default tuning, as :func:`detect` gives them.

    The dual and raw-path detectors share one prepare and one compare when
    both are asked for.
    """
    kinds = list(kinds)
    paths = [kind for kind in kinds if kind in (DetectorKind.DUAL, DetectorKind.TEO_SINGLE)]
    shared = _detect_paths(record, None, paths) if paths else {}
    return [shared[kind] if kind in shared else detect(record, kind) for kind in kinds]


# ---------------------------------------------------------------------------
# Event list file format
# ---------------------------------------------------------------------------


_EVENT_COLUMNS = ("channel", "sample_index")
_EVENTS_HEADER = ",".join(_EVENT_COLUMNS)


def _events_text(events: Events) -> str:
    """The events file of ``events``: its header, then one ``channel,sample_index`` line per event."""
    fields = np.column_stack([events.channel_id, events.sample_index]).ravel().tolist()
    return _EVENTS_HEADER + "\n" + ("%d,%d\n" * len(events)) % tuple(fields)


def events_to_csv(events: Events, path) -> None:
    Path(path).write_text(_events_text(events))


def event_indices(events: Events) -> np.ndarray:
    """The sample index of each event, ``events.sample_index``."""
    return events.sample_index
