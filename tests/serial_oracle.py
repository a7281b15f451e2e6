"""Sample-serial reference models that the tests check the library against.

* :func:`serial_detect_multichannel` is a bit-exact, sample-serial model of
  the 256-channel chip.  It services the interleaved channel stream one code
  at a time, round-robin within 32-channel blocks, blocks in order, and holds
  every register of a channel in a :class:`ChannelState`.  The energy at
  index k needs the k+1 input, so each comparator is evaluated one service
  cycle after its sample arrives; frame-boundary sigma updates fire after
  that comparator, which reproduces the vectorized frame timing exactly.
* :func:`estimator_step` with :class:`SigmaEstimatorState` is the scalar,
  one-sample-at-a-time model of the float sigma feedback loop.

Neither shares control flow with the vectorized pipelines in ``dualteo``;
the serial engine reuses only :func:`compute_thresholds_q10`, which
``test_threshold.py`` checks against an exact rational oracle, and reads the
design-point constants (frame length, convergence target, warm-up and the
1 ms refractory gap) from the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from dualteo.detector import EventFormationConfig, SpikeEvent
from dualteo.hw_model import HwConfig
from dualteo.threshold import (
    CONVERGENCE_FACTOR,
    FRAME_LEN,
    SCALING_FACTOR,
    SIGMA_FRACTION_BITS,
    WARMUP_SAMPLES,
    ThresholdCoefficients,
    compute_thresholds_q10,
)

CHANNELS_PER_BLOCK = 32  # the chip services channels in 32-channel blocks


# ---------------------------------------------------------------------------
# Sample-serial engine and the block scheduler
# ---------------------------------------------------------------------------


class ChannelState:
    """All per-channel registers of the serial engine.

    Mirrors the hardware register banks: the two input delay codes (the newer
    one doubles as the smoother input), two smoothed delay codes, the sigma
    estimator accumulators, the current Q.10 threshold pair, and the running
    event-formation registers (peak, gap, pending flag).
    """

    __slots__ = (
        "channel_id", "t", "x1", "x2", "s1", "s2",
        "sigma_q", "exceed", "sum_s", "sumsq_s",
        "thr_x_q", "thr_s_q",
        "pending", "peak_val", "peak_idx", "last_true",
        "events", "crossings",
    )

    def __init__(self, channel_id: int, n_samples: int, record_crossings: bool):
        self.channel_id = channel_id
        self.t = 0
        self.x1 = 0
        self.x2 = 0
        self.s1 = 0
        self.s2 = 0
        self.sigma_q = 0
        self.exceed = 0
        self.sum_s = 0
        self.sumsq_s = 0
        self.thr_x_q = 0
        self.thr_s_q = 0
        self.pending = False
        self.peak_val = 0
        self.peak_idx = -1
        self.last_true = -(1 << 40)
        self.events: list[SpikeEvent] = []
        self.crossings = np.zeros(n_samples, dtype=bool) if record_crossings else None


class SerialChannel:
    """One channel of the serial engine; one ``push`` per arriving code."""

    def __init__(self, cfg: HwConfig, coeffs: ThresholdCoefficients,
                 channel_id: int, n_samples: int, record_crossings: bool):
        self.coeffs = coeffs
        self.refractory = EventFormationConfig.for_rate(cfg.rate_hz).refractory_samples
        self.state = ChannelState(channel_id, n_samples, record_crossings)
        # precompute comparator constants; the engine clips energies into their
        # registers on its own, although at every drop pair HwConfig accepts
        # the clip never fires
        self.xteo_min = cfg.xteo_format.min_code
        self.xteo_max = cfg.xteo_format.max_code
        self.steo_min = cfg.steo_format.min_code
        self.steo_max = cfg.steo_format.max_code
        self.xdrop = cfg.xteo_drop_lsbs
        self.sdrop = cfg.steo_drop_lsbs
        base = min(self.xdrop, self.sdrop)
        self.xshift = self.xdrop - base
        self.sshift = self.sdrop - base

    def _emit(self, k: int, x_teo: int, s_teo: int) -> None:
        """Comparator plus streaming event formation for energy index k."""
        st = self.state
        crossed = (
            (x_teo << SIGMA_FRACTION_BITS) > st.thr_x_q
            or (s_teo << SIGMA_FRACTION_BITS) > st.thr_s_q
        )
        if st.crossings is not None:
            st.crossings[k] = crossed
        if not crossed or k < WARMUP_SAMPLES:
            return
        align = max(x_teo << self.xshift, s_teo << self.sshift)
        if st.pending and k - st.last_true < self.refractory:
            if align > st.peak_val:
                st.peak_val = align
                st.peak_idx = k
            st.last_true = k
            return
        if st.pending:
            self._finalize_event()
        st.pending = True
        st.peak_val = align
        st.peak_idx = k
        st.last_true = k

    def _finalize_event(self) -> None:
        st = self.state
        st.events.append(SpikeEvent(channel_id=st.channel_id, sample_index=st.peak_idx))
        st.pending = False

    def push(self, code: int) -> None:
        st = self.state
        t = st.t
        L = FRAME_LEN
        s_t = code if t == 0 else (code + st.x1) >> 1

        # 1) comparator for energy index t-1, before any frame update
        if t >= 1:
            if t == 1:
                self._emit(0, 0, 0)  # boundary convention
            else:
                xe = st.x1 * st.x1 - code * st.x2
                xe >>= self.xdrop
                if xe < self.xteo_min:
                    xe = self.xteo_min
                elif xe > self.xteo_max:
                    xe = self.xteo_max
                se = st.s1 * st.s1 - s_t * st.s2
                se >>= self.sdrop
                if se < self.steo_min:
                    se = self.steo_min
                elif se > self.steo_max:
                    se = self.steo_max
                self._emit(t - 1, xe, se)

        # 2) frame boundary: measurement frame assigns sigma, later frames
        #    apply the counting correction; thresholds recompute right after
        if t > 0 and t % L == 0:
            if t == L:
                v = L * st.sumsq_s - st.sum_s * st.sum_s
                st.sigma_q = (
                    math.isqrt((1 << (2 * SIGMA_FRACTION_BITS)) * v) // L if v > 0 else 0
                )
            else:
                st.sigma_q = max(
                    0, st.sigma_q + (st.exceed - CONVERGENCE_FACTOR)
                )
            st.exceed = 0
            thr_x, thr_s = compute_thresholds_q10(st.sigma_q, self.coeffs)
            st.thr_x_q, st.thr_s_q = int(thr_x), int(thr_s)

        # 3) estimator observes the smoothed sample
        if t < L:
            st.sum_s += s_t
            st.sumsq_s += s_t * s_t
        elif (s_t << SIGMA_FRACTION_BITS) > st.sigma_q:
            st.exceed += 1

        # 4) shift the delay registers
        st.x2 = st.x1
        st.x1 = code
        st.s2 = st.s1
        st.s1 = s_t
        st.t = t + 1

    def finish(self) -> list[SpikeEvent]:
        st = self.state
        if st.t >= 1:
            self._emit(st.t - 1, 0, 0)  # final boundary index, energy is 0
        if st.pending:
            self._finalize_event()
        return st.events


def serial_detect_multichannel(stream, cfg: HwConfig, coeffs: ThresholdCoefficients):
    """Serve a (n_scans, channels) code stream through the serial engine.

    Channels are serviced round-robin within each block of
    ``CHANNELS_PER_BLOCK`` channels, blocks in order.  Returns the per-channel
    event lists and the (channels, n_scans) boolean comparator outputs.
    """
    stream = np.asarray(stream, dtype=np.int64)
    n_scans, channels = stream.shape
    engines = [
        SerialChannel(cfg, coeffs, ch, n_scans, record_crossings=True)
        for ch in range(channels)
    ]
    blocks = [
        range(base, min(base + CHANNELS_PER_BLOCK, channels))
        for base in range(0, channels, CHANNELS_PER_BLOCK)
    ]
    for row in stream.tolist():  # plain ints keep the inner loop cheap
        for block in blocks:
            for ch in block:
                engines[ch].push(row[ch])
    events = [eng.finish() for eng in engines]
    return events, np.stack([eng.state.crossings for eng in engines])


# ---------------------------------------------------------------------------
# Scalar model of the float sigma feedback loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaEstimatorState:
    """Feedback-loop state: current sigma plus the in-progress frame counters."""

    sigma: float
    frame_len: int = FRAME_LEN
    exceed_count: int = 0
    samples_in_frame: int = 0
    convergence_factor: int = CONVERGENCE_FACTOR
    scaling_factor: float = SCALING_FACTOR

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if not 0 <= self.exceed_count <= self.samples_in_frame <= self.frame_len:
            raise ValueError("frame counters out of order")


def estimator_step(state: SigmaEstimatorState, s_sample: float) -> SigmaEstimatorState:
    """Advance the estimator by one smoothed sample; update sigma at frame end.

    The comparison is strict: a sample equal to sigma does not count.  When the
    frame fills, sigma moves by ``scaling_factor * (count - convergence_factor)``,
    is clamped at zero, and the counters reset.
    """
    exceed = state.exceed_count + (1 if s_sample > state.sigma else 0)
    filled = state.samples_in_frame + 1
    if filled < state.frame_len:
        return replace(state, exceed_count=exceed, samples_in_frame=filled)
    sigma = state.sigma + state.scaling_factor * (exceed - state.convergence_factor)
    return replace(state, sigma=max(0.0, sigma), exceed_count=0, samples_in_frame=0)
