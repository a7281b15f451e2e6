import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_clean_spike_record
from loop_oracles import write_trace_rows
from serial_oracle import serial_detect_multichannel
from test_threshold import _exact_in_q10
from dualteo.detector import EventFormationConfig, Events, detect_dual, dual_crossing_streams, finish_dual
from dualteo import transforms
from dualteo.dataio import GroundTruth, SyntheticConfig, generate, resample, rescale_ground_truth
from dualteo.hw_model import (
    HwConfig,
    MultichannelStream,
    _align_stream,
    HwTrace,
    chip_input,
    hw_detect_channel,
    hw_detect_multichannel,
    prepare_hw_dual,
    quantize_for_hw,
    trace_internal,
)
from dualteo.signal_model import FixedPointFormat, QuantizedRecord, SignalRecord
from dualteo.threshold import (
    FRAME_LEN,
    WARMUP_SAMPLES,
    Dyadic,
    ThresholdCoefficients,
    compute_thresholds_q10,
    default_hw_coefficients,
)

HW_COEFFS = ThresholdCoefficients.make((3, 3), (0, 0), (1, 2))

# signed numerators of one or two set bits up to 2**20, small shifts
wide_dyadics = st.builds(
    lambda sign, hi, lo, shift: Dyadic(sign * ((1 << hi) | (1 << lo)), shift),
    st.sampled_from([-1, 1]),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=6),
) | st.just(Dyadic(0, 0))


def read_trace(path):
    """The trace written to ``path``, read back with a plain ``np.loadtxt`` after its header line."""
    assert Path(path).read_text().partition("\n")[0] == ",".join(HwTrace.COLUMNS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on an empty table
        table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2).reshape(-1, len(HwTrace.COLUMNS))
    return HwTrace(*table.T)


def quantized(codes, rate=16000.0, channel=0):
    return QuantizedRecord(
        codes=np.asarray(codes, dtype=np.int64),
        format=FixedPointFormat(total_bits=7),
        rate_hz=rate,
        channel_id=channel,
        full_scale=1.0,
    )


def random_codes(rng, n):
    return rng.integers(-64, 64, size=n)


def spiky_stream(rng, n_scans, channels):
    """Low-amplitude noise plus sparse one-sample spikes, one of them on the
    first sample past the warm-up.

    Random full-range codes cross on about half of all samples and merge into
    one long event, so neither the warm-up edge nor the refractory gap would
    change the output.  Here spike spacings fall on both sides of the 16-sample
    gap, so both decide which events form.
    """
    stream = rng.integers(-4, 5, size=(n_scans, channels))
    for ch in range(channels):
        spikes = np.cumsum(rng.integers(4, 60, size=n_scans // 4 + 1))
        spikes = np.append(spikes, WARMUP_SAMPLES)
        stream[spikes[spikes < n_scans], ch] = 50
    return stream


def detect_multichannel_checked(stream, cfg, coeffs, return_crossings=False):
    """``hw_detect_multichannel``, asserted bit-identical to the serial oracle.

    Events and the comparator streams must both match; inputs the library
    rejects raise before the oracle runs.
    """
    events, crossings = hw_detect_multichannel(stream, cfg, coeffs, return_crossings=True)
    scans = np.asarray(stream).reshape(-1, cfg.channels)
    oracle_events, oracle_crossings = serial_detect_multichannel(scans, cfg, coeffs)
    assert events == oracle_events, "events differ from the serial oracle"
    assert np.array_equal(crossings, oracle_crossings), "crossings differ from the serial oracle"
    assert hw_detect_multichannel(stream, cfg, coeffs) == events
    return (events, crossings) if return_crossings else events


class TestHwConfig:
    def test_channels_must_be_positive(self):
        for channels in (0, -1):
            with pytest.raises(ValueError, match="channels"):
                HwConfig(channels=channels)

    def test_default_topology(self):
        cfg = HwConfig()
        assert cfg.channels == 256
        assert cfg.input_format.min_code == -64
        assert cfg.xteo_format.max_code == 127
        assert cfg.steo_format.max_code == 255


@given(
    rate=st.sampled_from([8000.0, 16000.0, 44100.0, 48000.0]) | st.floats(8000.0, 48000.0),
    n=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
    with_truth=st.booleans(),
)
@example(rate=16000.0, n=300, seed=0, with_truth=True)
@example(rate=16000.0, n=300, seed=0, with_truth=False)
def test_chip_input_is_resample_quantize_and_rescale(rate, n, seed, with_truth):
    rng = np.random.default_rng(seed)
    record = SignalRecord(samples=rng.normal(size=n), rate_hz=rate, channel_id=3)
    spikes = np.flatnonzero(rng.random(n) < 0.05)
    truth = GroundTruth(spikes, template_ids=rng.integers(0, 3, len(spikes))) if with_truth else None
    q, got_truth = chip_input(record, truth)
    resampled = resample(record, HwConfig.rate_hz)
    want = quantize_for_hw(resampled, HwConfig())
    assert (q.format, q.rate_hz, q.channel_id, q.full_scale) == (
        want.format, want.rate_hz, want.channel_id, want.full_scale)
    assert q.codes.dtype == want.codes.dtype and np.array_equal(q.codes, want.codes)
    if rate == HwConfig.rate_hz:  # already at the chip's rate: quantized as it is
        assert np.array_equal(q.codes, quantize_for_hw(record, HwConfig()).codes)
    if truth is None:
        assert got_truth is None
    else:
        want_truth = rescale_ground_truth(truth, rate, HwConfig.rate_hz, len(resampled))
        assert np.array_equal(got_truth.spike_indices, want_truth.spike_indices)
        assert np.array_equal(got_truth.template_ids, want_truth.template_ids)


class TestHwDetectChannel:
    def test_all_zero_codes_give_no_events(self):
        q = quantized(np.zeros(8192, dtype=int))
        assert hw_detect_channel(q, coeffs=HW_COEFFS) == Events()

    def test_rate_mismatch_rejected(self):
        q = quantized(np.zeros(8192, dtype=int), rate=24000.0)
        for detect in (prepare_hw_dual, hw_detect_channel):
            with pytest.raises(ValueError, match="rate"):
                detect(q, HwConfig())

    def test_format_mismatch_rejected(self):
        q = QuantizedRecord(
            codes=np.zeros(8192, dtype=np.int64),
            format=FixedPointFormat(total_bits=8),
            rate_hz=16000.0,
        )
        for detect in (prepare_hw_dual, hw_detect_channel):
            with pytest.raises(ValueError, match="7-bit"):
                detect(q, HwConfig())

    def test_short_record_warns(self):
        q = quantized(np.zeros(100, dtype=int))
        with pytest.warns(UserWarning, match="warm-up"):
            assert hw_detect_channel(q, coeffs=HW_COEFFS) == Events()

    def test_no_floats_on_data_path(self):
        rng = np.random.default_rng(0)
        q = quantized(random_codes(rng, 2000))
        prep = prepare_hw_dual(q, HwConfig())
        # the register map's widths, as in a stream chunk
        assert prep.x_energy.dtype == np.int16
        assert prep.s_energy.dtype == np.int16
        assert prep.sigma_per_frame.dtype == np.int32
        assert prep.align.dtype == np.int32

    def test_clean_spike_matches_float_pipeline_location(self):
        record = make_clean_spike_record(spike_index=5000, n=10000, rate_hz=16000.0)
        float_events = detect_dual(record, ThresholdCoefficients.make((3, 2), (1, 1), (2, 0)))
        q = quantize_for_hw(record, HwConfig())
        hw_events = hw_detect_channel(q, coeffs=HW_COEFFS)
        assert len(float_events) == 1 and len(hw_events) == 1
        refractory = EventFormationConfig.for_rate(16000.0).refractory_samples
        assert abs(hw_events.sample_index[0] - float_events.sample_index[0]) <= refractory

    def test_events_carry_the_records_channel(self):
        # the one-channel stream runs as channel 0; its events take the record's id
        q = quantized(spiky_stream(np.random.default_rng(5), WARMUP_SAMPLES + 2000, 1)[:, 0], channel=7)
        events = hw_detect_channel(q, coeffs=HW_COEFFS)
        assert len(events) > 5 and events.channel_id.tolist() == [7] * len(events)
        assert events.channel_id.dtype == events.sample_index.dtype == np.int64
        assert events == finish_dual(prepare_hw_dual(q), HW_COEFFS)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        q = quantized(random_codes(rng, 6000))
        a = hw_detect_channel(q, coeffs=HW_COEFFS)
        b = hw_detect_channel(q, coeffs=HW_COEFFS)
        assert a == b


class TestTrace:
    def test_zero_input_gives_zero_trace(self):
        q = quantized(np.zeros(600, dtype=int))
        trace = trace_internal(q, coeffs=HW_COEFFS)
        for col in HwTrace.COLUMNS:
            assert np.all(getattr(trace, col) == 0), col

    def test_x_column_is_input_verbatim(self):
        rng = np.random.default_rng(1)
        codes = random_codes(rng, 1500)
        trace = trace_internal(quantized(codes), coeffs=HW_COEFFS)
        assert np.array_equal(trace.x, codes)

    def test_xteo_column_matches_independent_replay(self):
        rng = np.random.default_rng(2)
        codes = random_codes(rng, 1200).tolist()
        cfg = HwConfig()
        trace = trace_internal(quantized(codes), cfg, HW_COEFFS)
        # replay the energy column from the x column with plain integer ops
        for k in range(len(codes)):
            if k == 0 or k == len(codes) - 1:
                expect = 0
            else:
                exact = codes[k] * codes[k] - codes[k + 1] * codes[k - 1]
                expect = exact >> cfg.xteo_drop_lsbs
            assert trace.x_teo[k] == expect

    def test_trace_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        trace = trace_internal(quantized(random_codes(rng, 700)), coeffs=HW_COEFFS)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = read_trace(path)
        for col in HwTrace.COLUMNS:
            assert np.array_equal(getattr(trace, col), getattr(back, col)), col

    def test_trace_csv_bytes_equal_row_wise_writer(self, tmp_path):
        rng = np.random.default_rng(8)
        trace = trace_internal(quantized(random_codes(rng, 900)), coeffs=HW_COEFFS)
        assert trace.x.min() < 0 and trace.x_teo.min() < 0
        trace.to_csv(tmp_path / "fast.csv")
        write_trace_rows(trace, tmp_path / "rows.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        empty = HwTrace(*[np.zeros(0, dtype=np.int64) for _ in HwTrace.COLUMNS])
        empty.to_csv(tmp_path / "empty.csv")
        write_trace_rows(empty, tmp_path / "empty_rows.csv")
        assert (tmp_path / "empty.csv").read_bytes() == (tmp_path / "empty_rows.csv").read_bytes()

    def test_trace_csv_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        full = trace_internal(quantized(random_codes(rng, 5000)), coeffs=HW_COEFFS)
        negative = ThresholdCoefficients.make((-3, 0), (-1, 0), (0, 0))
        low = trace_internal(quantized(random_codes(rng, 600)), coeffs=negative)
        empty = HwTrace(*[np.zeros(0, dtype=np.int64) for _ in HwTrace.COLUMNS])
        assert full.x.min() < 0 and low.thr_x.min() < 0
        for name, trace in (("full", full), ("negative", low), ("empty", empty)):
            path = tmp_path / f"{name}.csv"
            trace.to_csv(path)
            back = read_trace(path)
            assert len(back) == len(trace)
            for col in HwTrace.COLUMNS:
                got = getattr(back, col)
                assert got.dtype == np.int64 and np.array_equal(got, getattr(trace, col)), (name, col)


class TestScheduler:
    def test_multichannel_equals_per_channel(self):
        cfg = HwConfig(channels=64)
        rng = np.random.default_rng(10)
        n_scans = 6000
        stream = rng.integers(-64, 64, size=(n_scans, 64))
        events, crossings = detect_multichannel_checked(
            stream, cfg, HW_COEFFS, return_crossings=True
        )
        for ch in range(cfg.channels):
            prep = prepare_hw_dual(quantized(stream[:, ch], channel=ch), cfg)
            assert events[ch] == finish_dual(prep, HW_COEFFS), f"channel {ch} events differ"
            cx, cs = dual_crossing_streams(prep, HW_COEFFS)
            assert np.array_equal(crossings[ch], cx | cs), f"channel {ch} crossings differ"

    def test_identical_channels_give_identical_outputs(self):
        cfg = HwConfig(channels=32)
        rng = np.random.default_rng(11)
        one = rng.integers(-64, 64, size=5000)
        stream = np.tile(one[:, None], (1, 32))
        events = detect_multichannel_checked(stream, cfg, HW_COEFFS)
        first = events[0].sample_index
        assert len(first) > 0
        for ch in range(1, 32):
            assert np.array_equal(events[ch].sample_index, first)

    def test_channel_permutation_equivariance(self):
        cfg = HwConfig(channels=32)
        rng = np.random.default_rng(12)
        stream = rng.integers(-64, 64, size=(4500, 32))
        perm = rng.permutation(32)
        base = detect_multichannel_checked(stream, cfg, HW_COEFFS)
        permuted = detect_multichannel_checked(stream[:, perm], cfg, HW_COEFFS)
        for new_ch, old_ch in enumerate(perm):
            assert np.array_equal(permuted[new_ch].sample_index, base[old_ch].sample_index)

    def test_flat_stream_reshaped_scan_major(self):
        cfg = HwConfig(channels=32)
        rng = np.random.default_rng(13)
        stream = rng.integers(-64, 64, size=(700, 32))
        a = detect_multichannel_checked(stream, cfg, HW_COEFFS)
        b = detect_multichannel_checked(stream.ravel(), cfg, HW_COEFFS)
        assert a == b

    def test_ragged_stream_rejected(self):
        cfg = HwConfig(channels=32)
        with pytest.raises(ValueError, match="ragged"):
            detect_multichannel_checked(np.zeros(33, dtype=int), cfg, HW_COEFFS)

    def test_out_of_range_codes_rejected(self):
        cfg = HwConfig(channels=32)
        stream = np.zeros((10, 32), dtype=int)
        stream[3, 7] = 99
        with pytest.raises(ValueError, match="range"):
            detect_multichannel_checked(stream, cfg, HW_COEFFS)

    def test_non_integer_codes_rejected(self):
        # a float stream must not be truncated toward zero into valid codes
        cfg = HwConfig(channels=32)
        stream = np.full((10, 32), 1.7)
        with pytest.raises(ValueError, match="integer"):
            detect_multichannel_checked(stream, cfg, HW_COEFFS)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        channels=st.integers(min_value=1, max_value=12),
        n_scans=st.integers(min_value=0, max_value=6000),
    )
    # below, at and just past the warm-up, and ending inside a frame
    @example(seed=1, channels=3, n_scans=WARMUP_SAMPLES - 1)
    @example(seed=2, channels=3, n_scans=WARMUP_SAMPLES)
    @example(seed=3, channels=3, n_scans=WARMUP_SAMPLES + 1)
    @example(seed=4, channels=5, n_scans=WARMUP_SAMPLES + 1000)
    # partial, exact and multiple 32-channel blocks, and the chip's 256 channels
    @example(seed=5, channels=31, n_scans=WARMUP_SAMPLES + 500)
    @example(seed=6, channels=32, n_scans=WARMUP_SAMPLES + 500)
    @example(seed=7, channels=33, n_scans=WARMUP_SAMPLES + 500)
    @example(seed=8, channels=65, n_scans=WARMUP_SAMPLES + 500)
    @example(seed=9, channels=256, n_scans=WARMUP_SAMPLES + 300)
    @settings(max_examples=15, deadline=None)
    def test_oracle_agreement_over_configs(self, seed, channels, n_scans):
        rng = np.random.default_rng(seed)
        cfg = HwConfig(channels=channels)
        stream = spiky_stream(rng, n_scans, channels)
        events, crossings = hw_detect_multichannel(stream, cfg, HW_COEFFS, return_crossings=True)
        oracle_events, oracle_crossings = serial_detect_multichannel(stream, cfg, HW_COEFFS)
        assert events == oracle_events
        assert np.array_equal(crossings, oracle_crossings)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        channels=st.integers(min_value=1, max_value=40),
        n_scans=st.integers(min_value=0, max_value=5000),
        triple=st.tuples(wide_dyadics, wide_dyadics, wide_dyadics).filter(_exact_in_q10),
    )
    @settings(max_examples=15, deadline=None)
    def test_oracle_agreement_over_wide_coefficients(self, seed, channels, n_scans, triple):
        # negative and large coefficients drive the Q.10 thresholds across the
        # threshold register, far past the int16 range that the blocks compare in
        coeffs = ThresholdCoefficients(*triple)
        cfg = HwConfig(channels=channels)
        stream = spiky_stream(np.random.default_rng(seed), n_scans, channels)
        events, crossings = hw_detect_multichannel(stream, cfg, coeffs, return_crossings=True)
        oracle_events, oracle_crossings = serial_detect_multichannel(stream, cfg, coeffs)
        assert np.array_equal(crossings, oracle_crossings)
        assert events == oracle_events

    def test_crossings_come_with_the_same_events(self):
        cfg = HwConfig(channels=40)
        stream = spiky_stream(np.random.default_rng(22), WARMUP_SAMPLES + 900, 40)
        events, crossings = hw_detect_multichannel(stream, cfg, HW_COEFFS, return_crossings=True)
        assert sum(map(len, events)) > 0
        assert hw_detect_multichannel(stream, cfg, HW_COEFFS) == events
        assert crossings.shape == (40, WARMUP_SAMPLES + 900) and crossings.dtype == bool

    @given(seed=st.integers(min_value=0, max_value=2**31), n_scans=st.integers(min_value=300, max_value=900))
    @settings(max_examples=10, deadline=None)
    def test_transparency_property(self, seed, n_scans):
        cfg = HwConfig(channels=32)
        rng = np.random.default_rng(seed)
        stream = rng.integers(-64, 64, size=(n_scans, 32))
        _, crossings = detect_multichannel_checked(
            stream, cfg, HW_COEFFS, return_crossings=True
        )
        for ch in (0, 13, 31):
            prep = prepare_hw_dual(quantized(stream[:, ch], channel=ch), cfg)
            cx, cs = dual_crossing_streams(prep, HW_COEFFS)
            assert np.array_equal(crossings[ch], cx | cs)

    @pytest.mark.parametrize("n_scans", [1, 100, 255, 256, 257, 512, 768])
    def test_transparency_at_frame_boundary_lengths(self, n_scans):
        cfg = HwConfig(channels=32)
        rng = np.random.default_rng(n_scans)
        stream = rng.integers(-64, 64, size=(n_scans, 32))
        events, crossings = detect_multichannel_checked(
            stream, cfg, HW_COEFFS, return_crossings=True
        )
        for ch in range(32):
            prep = prepare_hw_dual(quantized(stream[:, ch], channel=ch), cfg)
            cx, cs = dual_crossing_streams(prep, HW_COEFFS)
            assert np.array_equal(crossings[ch], cx | cs), f"n={n_scans} ch={ch}"
            assert events[ch] == finish_dual(prep, HW_COEFFS)

    def test_transparency_under_negative_thresholds(self):
        # a strongly negative linear term drives thr_s below zero once sigma
        # settles; both engines must agree on the everything-crosses regime,
        # including the zero-energy boundary samples
        coeffs = ThresholdCoefficients.make((3, 3), (-3, 0), (0, 0))
        cfg = HwConfig(channels=32)
        rng = np.random.default_rng(77)
        stream = rng.integers(-64, 64, size=(600, 32))
        events, crossings = detect_multichannel_checked(
            stream, cfg, coeffs, return_crossings=True
        )
        assert crossings[:, 300:].any()
        for ch in range(0, 32, 7):
            prep = prepare_hw_dual(quantized(stream[:, ch], channel=ch), cfg)
            cx, cs = dual_crossing_streams(prep, coeffs)
            assert np.array_equal(crossings[ch], cx | cs)
            assert events[ch] == finish_dual(prep, coeffs)


def bursty_stream(rng, n_scans, channels, bursts_per_frame=5):
    """Silence after a silent measurement frame, plus sparse 3-code bursts of 1..63.

    About 20 smoothed codes per frame sit above zero, so every sigma
    register stays within a few dozen Q.10 LSBs of zero and, at the smallest
    drops, lands on the truncated energies of the bursts again and again.
    """
    stream = np.zeros((n_scans, channels), dtype=np.int64)
    n_bursts = n_scans * bursts_per_frame // FRAME_LEN
    for ch in range(channels):
        for start in rng.integers(FRAME_LEN, max(FRAME_LEN + 1, n_scans - 3), size=n_bursts):
            burst = stream[start:start + 3, ch]
            burst[:] = rng.integers(1, 64, size=len(burst))
    return stream


class TestNarrowComparator:
    """The blocks compare int16 energies with ``thr >> 10`` clipped into int16;
    the oracle compares ``e << 10`` with the full Q.10 register."""

    SMALLEST_DROPS = HwConfig(channels=40, xteo_drop_lsbs=6, steo_drop_lsbs=5)

    def per_sample_q10(self, codes, cfg, coeffs):
        """``(e << 10, thr)`` of both paths of one channel, past the warm-up."""
        prep = prepare_hw_dual(quantized(codes), cfg)
        thr = compute_thresholds_q10(prep.sigma_per_frame, coeffs)
        live = slice(WARMUP_SAMPLES, None)
        return [
            (e[live] << 10, np.repeat(t, FRAME_LEN)[:prep.n][live])
            for e, t in zip((prep.x_energy, prep.s_energy), thr)
        ]

    def test_thresholds_on_and_one_below_an_energy(self):
        # thr_x = 1024*sigma lands exactly on e << 10 when e == sigma (no
        # crossing); thr_s = 1024*sigma - 1 sits one below it (a crossing)
        coeffs = ThresholdCoefficients.make((1 << 10, 0), (1 << 10, 0), (-1, 10))
        cfg = self.SMALLEST_DROPS
        stream = bursty_stream(np.random.default_rng(31), WARMUP_SAMPLES + 1500, cfg.channels)
        on = below = 0
        for ch in range(cfg.channels):
            (ex, tx), (es, ts) = self.per_sample_q10(stream[:, ch], cfg, coeffs)
            on += np.count_nonzero((ex == tx) & (ex > 0))
            below += np.count_nonzero((es == ts + 1) & (es > 0))
        assert on > 0 and below > 0
        events, crossings = detect_multichannel_checked(stream, cfg, coeffs, return_crossings=True)
        assert sum(map(len, events)) > 0

    @pytest.mark.parametrize("coeffs", [
        ThresholdCoefficients.make((-3, 0), (-1, 0), (0, 0)),
        ThresholdCoefficients.make((-(1 << 10), 0), (-3, 2), (-1, 4)),
    ], ids=["negative-linear", "negative-quadratic"])
    def test_negative_thresholds(self, coeffs):
        cfg = self.SMALLEST_DROPS
        stream = spiky_stream(np.random.default_rng(32), WARMUP_SAMPLES + 900, cfg.channels)
        (_, tx), (_, ts) = self.per_sample_q10(stream[:, 5], cfg, coeffs)
        assert tx.max() < 0 and ts.max() < 0
        _, crossings = detect_multichannel_checked(stream, cfg, coeffs, return_crossings=True)
        assert crossings[:, WARMUP_SAMPLES:].any()

    @pytest.mark.parametrize("coeffs", [
        ThresholdCoefficients.make((3 << 12, 0), (-(3 << 12), 0), (0, 0)),
        ThresholdCoefficients.make((-(3 << 12), 0), (3 << 12, 0), (0, 0)),
    ], ids=["x-high-s-low", "x-low-s-high"])
    def test_shifted_thresholds_beyond_int16(self, coeffs):
        # thr >> 10 leaves int16 while the Q.10 registers stay inside int32
        cfg = HwConfig(channels=40)
        stream = spiky_stream(np.random.default_rng(33), WARMUP_SAMPLES + 900, cfg.channels)
        int16, int32 = np.iinfo(np.int16), np.iinfo(np.int32)
        shifted = []
        for ch in range(cfg.channels):
            for _, thr in self.per_sample_q10(stream[:, ch], cfg, coeffs):
                assert int32.min <= thr.min() and thr.max() <= int32.max
                shifted.append(thr >> 10)
        shifted = np.concatenate(shifted)
        assert shifted.min() < int16.min and shifted.max() > int16.max
        detect_multichannel_checked(stream, cfg, coeffs)


@pytest.mark.parametrize("drops", [(7, 6), (6, 5), (8, 5), (9, 5), (14, 5), (6, 14)])
def test_align_stream_of_int16_energies_equals_int64(drops):
    # every 8- and 9-bit register value, shifted onto the common scale
    cfg = HwConfig(xteo_drop_lsbs=drops[0], steo_drop_lsbs=drops[1])
    x = np.resize(np.arange(-128, 128), 512).astype(np.int16)
    s = np.arange(-256, 256).astype(np.int16)
    got = _align_stream(x, s, cfg)
    assert np.array_equal(got, _align_stream(x.astype(np.int64), s.astype(np.int64), cfg))


def test_drops_past_the_energies_width_are_refused_and_every_other_pair_aligns_exactly():
    # a left shift by 64 or more wraps numpy's int64 to 0, where Python's integers grow
    for drops, register in (((6, 70), "9-bit steo register"), ((15, 5), "8-bit xteo register")):
        with pytest.raises(ValueError, match=register):
            HwConfig(xteo_drop_lsbs=drops[0], steo_drop_lsbs=drops[1])
    x = np.resize(np.arange(-128, 128), 512)
    s = np.arange(-256, 256)
    accepted = 0
    for xdrop in range(21):
        for sdrop in range(21):
            try:
                cfg = HwConfig(xteo_drop_lsbs=xdrop, steo_drop_lsbs=sdrop)
            except ValueError:
                continue
            accepted += 1
            base = min(xdrop, sdrop)
            want = [max(a << (xdrop - base), b << (sdrop - base)) for a, b in zip(x.tolist(), s.tolist())]
            for dtype in (np.int16, np.int64):
                assert _align_stream(x.astype(dtype), s.astype(dtype), cfg).tolist() == want, (xdrop, sdrop)
    assert accepted == 9 * 10  # xteo drops 6..14, steo drops 5..14


class TestInt8Streams:
    def test_int8_stream_detects_like_original(self):
        stream = spiky_stream(np.random.default_rng(16), WARMUP_SAMPLES + 1000, 40)
        stream[WARMUP_SAMPLES + 500, ::3] = -64  # the int8 extremes pass through too
        stream[WARMUP_SAMPLES + 700, 1::3] = 63
        assert stream.dtype == np.int64
        cfg = HwConfig(channels=40)
        events, crossings = hw_detect_multichannel(stream.astype(np.int8), cfg, return_crossings=True)
        expected, expected_crossings = hw_detect_multichannel(stream, cfg, return_crossings=True)
        assert sum(map(len, events)) > 40
        assert events == expected
        assert np.array_equal(crossings, expected_crossings)

    # (14, 5): a negative raw energy truncates to -1 and aligns as -2**9
    @pytest.mark.parametrize("drops", [(7, 6), (6, 5), (12, 5), (14, 5)])
    @pytest.mark.parametrize("coeffs", [
        HW_COEFFS,
        ThresholdCoefficients.make((1 << 10, 0), (1 << 10, 0), (-1, 10)),
        ThresholdCoefficients.make((-(3 << 12), 0), (3 << 12, 0), (-3, 0)),
    ], ids=["shipped-like", "on-and-below", "wide"])
    def test_int8_stream_equals_its_int64_copy(self, drops, coeffs):
        rng = np.random.default_rng(17)
        n_scans = WARMUP_SAMPLES + 700
        stream = np.concatenate([spiky_stream(rng, n_scans, 20), bursty_stream(rng, n_scans, 13)], axis=1)
        stream[-3:, :] = [[-64], [63], [-64]]
        narrow = stream.astype(np.int8)
        cfg = HwConfig(channels=33, xteo_drop_lsbs=drops[0], steo_drop_lsbs=drops[1])
        events, crossings = hw_detect_multichannel(narrow, cfg, coeffs, return_crossings=True)
        wide_events, wide_crossings = detect_multichannel_checked(
            narrow.astype(np.int64), cfg, coeffs, return_crossings=True)
        assert events == wide_events and np.array_equal(crossings, wide_crossings)

    def test_float_codes_rejected(self):
        with pytest.raises(ValueError, match="integer codes"):
            hw_detect_multichannel(np.full((4, 32), 3.7), HwConfig(channels=32))


# drives the raw path's threshold far below zero, so every live sample
# crosses and each channel's one event stays open until the stream ends
EXTREME_COEFFS = ThresholdCoefficients.make((-(3 << 12), 0), (3 << 12, 0), (-3, 0))


def push_in_pieces(stream, cuts, cfg, coeffs):
    """Push ``stream`` cut at the sorted scan indices ``cuts`` and close it.

    A repeated cut gives an empty push.  Returns the events of all calls,
    joined per channel, and their crossings, joined along the scans.
    """
    engine = MultichannelStream(cfg, coeffs, return_crossings=True)
    bounds = [0, *cuts, len(stream)]
    results = [engine.push(stream[lo:hi]) for lo, hi in zip(bounds, bounds[1:])] + [engine.close()]
    events = [Events.join(channel) for channel in zip(*(found for found, _ in results))]
    return events, np.concatenate([crossings for _, crossings in results], axis=1)


@st.composite
def stream_cuts(draw, n_scans, events, gap):
    """Cut points: frame boundaries, points inside an event's refractory
    window, scan 4096, runs of 1-scan pushes and repeated (empty) pushes."""
    frames = st.integers(0, n_scans // FRAME_LEN).map(lambda f: [f * FRAME_LEN])
    anywhere = st.integers(0, n_scans).map(lambda k: [k])
    ones = st.integers(0, n_scans).map(lambda k: list(range(k, k + 5)))
    empties = st.integers(0, n_scans).map(lambda k: [k, k, k])
    kinds = [frames, anywhere, ones, empties, st.just([4096])]
    peaks = np.concatenate([channel.sample_index for channel in events]).tolist()
    if peaks:
        kinds.append(st.tuples(st.sampled_from(peaks), st.integers(1, gap - 1)).map(lambda p: [sum(p)]))
    groups = draw(st.lists(st.one_of(kinds), max_size=6))
    return sorted(min(k, n_scans) for group in groups for k in group)


class TestStream:
    @given(
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**31),
        channels=st.sampled_from([1, 33, 256]),
        n_scans=st.one_of(
            st.just(0),
            st.integers(min_value=1, max_value=WARMUP_SAMPLES),
            st.integers(min_value=WARMUP_SAMPLES + 1, max_value=WARMUP_SAMPLES + 2500),
        ),
        coeffs=st.sampled_from([HW_COEFFS, default_hw_coefficients(), EXTREME_COEFFS]),
        chunk=st.sampled_from([FRAME_LEN, 2 * FRAME_LEN, 1 << 16]),
    )
    @example(data=None, seed=1, channels=33, n_scans=WARMUP_SAMPLES + 1001, coeffs=HW_COEFFS, chunk=FRAME_LEN)
    @example(data=None, seed=2, channels=256, n_scans=WARMUP_SAMPLES + 700, coeffs=EXTREME_COEFFS, chunk=1 << 16)
    @settings(max_examples=25, deadline=None)
    def test_any_split_gives_the_same_outputs(self, data, seed, channels, n_scans, coeffs, chunk):
        cfg = HwConfig(channels=channels)
        stream = spiky_stream(np.random.default_rng(seed), n_scans, channels)
        events, crossings = hw_detect_multichannel(stream, cfg, coeffs, return_crossings=True)
        gap = EventFormationConfig.for_rate(cfg.rate_hz).refractory_samples
        if data is None:  # every frame boundary, and a refractory window cut scan by scan
            cuts = list(range(0, n_scans, FRAME_LEN))
            peak = int(next(channel for channel in events if channel).sample_index[0])
            cuts = sorted(cuts + list(range(peak, peak + gap)) + [4096, 4096])
        else:
            cuts = data.draw(stream_cuts(n_scans, events, gap))
        with mock.patch.object(transforms, "BLOCK_CELLS", chunk * channels):
            split_events, split_crossings = push_in_pieces(stream, cuts, cfg, coeffs)
            assert hw_detect_multichannel(stream, cfg, coeffs) == events
        assert split_events == events
        assert np.array_equal(split_crossings, crossings)

    @pytest.mark.parametrize("scans_per_push", [1, 257, None], ids=["1", "257", "whole"])
    def test_readme_stream_example(self, scans_per_push):
        # the README's MultichannelStream example, run as written on pieces of the stream
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        (example,) = [block for block in re.findall(r"```python\n(.*?)```", readme, re.S)
                      if "MultichannelStream(" in block]
        stream = spiky_stream(np.random.default_rng(29), WARMUP_SAMPLES + 700, 256)
        step = scans_per_push or len(stream)
        namespace = {"pieces": [stream[lo:lo + step] for lo in range(0, len(stream), step)]}
        exec(example, namespace)
        assert namespace["events"] == hw_detect_multichannel(stream)
        assert sum(map(len, namespace["events"])) > 256

    def test_pushes_return_events_once_finished(self):
        cfg = HwConfig(channels=40)
        n_scans = WARMUP_SAMPLES + 3000
        stream = spiky_stream(np.random.default_rng(23), n_scans, cfg.channels)
        engine = MultichannelStream(cfg, HW_COEFFS)
        pushed = [engine.push(stream[lo:lo + 700]) for lo in range(0, n_scans, 700)]
        closed = engine.close()
        # a push hands back every event that no later crossing could join
        decided = (n_scans - 1) // FRAME_LEN * FRAME_LEN
        gap = EventFormationConfig.for_rate(cfg.rate_hz).refractory_samples
        assert sum(len(ch) for piece in pushed for ch in piece) > 10 * sum(map(len, closed))
        assert all(np.all(ch.sample_index > decided - 2 * gap) for ch in closed)
        joined = [Events.join(channel) for channel in zip(*pushed, closed)]
        assert joined == detect_multichannel_checked(stream, cfg, HW_COEFFS)

    @pytest.mark.parametrize("chunk", [FRAME_LEN, 2 * FRAME_LEN])
    def test_events_straddling_chunk_ends_form_as_the_oracle(self, chunk):
        # spike pairs around every chunk end, at every spacing up to past the
        # refractory gap: the open events of one chunk meet the next chunk's
        # first crossings at, just below and just past the gap
        cfg = HwConfig(channels=48)
        n_scans = WARMUP_SAMPLES + 2000
        stream = np.random.default_rng(26).integers(-3, 4, size=(n_scans, cfg.channels))
        for end in range(WARMUP_SAMPLES, n_scans - 8, chunk):
            for ch in range(cfg.channels):
                stream[end - 1 - ch % 24, ch] = 50
                stream[end + ch // 24, ch] = -50
        with mock.patch.object(transforms, "BLOCK_CELLS", chunk * cfg.channels):
            events = detect_multichannel_checked(stream, cfg, HW_COEFFS)
        assert sum(map(len, events)) > cfg.channels

    def test_rejected_push_leaves_the_stream_as_it_was(self):
        cfg = HwConfig(channels=8)
        stream = spiky_stream(np.random.default_rng(24), WARMUP_SAMPLES + 600, cfg.channels)
        engine = MultichannelStream(cfg, HW_COEFFS, return_crossings=True)
        first = engine.push(stream[:3000])
        bad = stream[3000:3100].copy()
        bad[50, 3] = 64
        with pytest.raises(ValueError, match="range"):
            engine.push(bad)
        with pytest.raises(ValueError, match="ragged"):
            engine.push(stream[3000:3100].ravel()[:-1])
        second, last = engine.push(stream[3000:]), engine.close()
        events, crossings = hw_detect_multichannel(stream, cfg, HW_COEFFS, return_crossings=True)
        assert [Events.join(parts) for parts in zip(first[0], second[0], last[0])] == events
        assert np.array_equal(np.concatenate([first[1], second[1], last[1]], axis=1), crossings)

    @pytest.mark.parametrize("dtype, offset, code", [
        (np.int64, 1200, 99),
        (np.int64, -3, -65),
        (np.int64, 40, 256),
        (np.int64, 40, -192),
        (np.int16, 40, 320),
        (np.int8, 40, 64),
    ], ids=["past-first-chunk", "held-tail", "int64-256", "int64-minus-192", "int16-320", "int8-64"])
    def test_a_bad_slice_rejects_the_whole_push(self, dtype, offset, code):
        # after a 3000-scan push the stream holds 186 scans, so the second
        # push casts its scans 0..328 for its first chunk, scan 1200 in its
        # third, and holds its last 7 scans; as int8, 256 would read as the
        # valid code 0, and -192 and 320 as 64
        cfg = HwConfig(channels=8)
        stream = spiky_stream(np.random.default_rng(27), WARMUP_SAMPLES + 1800, cfg.channels).astype(dtype)
        engine = MultichannelStream(cfg, HW_COEFFS, return_crossings=True)
        first = engine.push(stream[:3000])
        bad = stream[3000:].copy()
        bad[offset, 5] = code
        with pytest.raises(ValueError, match="range"):
            engine.push(bad)
        second, last = engine.push(stream[3000:]), engine.close()
        events, crossings = hw_detect_multichannel(stream, cfg, HW_COEFFS, return_crossings=True)
        assert [Events.join(parts) for parts in zip(first[0], second[0], last[0])] == events
        assert np.array_equal(np.concatenate([first[1], second[1], last[1]], axis=1), crossings)

    @pytest.mark.parametrize("channels, block_cells, scans", [
        (1, 1 << 17, 131_072),
        (256, 1 << 17, 2 * FRAME_LEN),
        (512, 1 << 17, FRAME_LEN),
        (513, 1 << 17, FRAME_LEN),  # not one frame's cells left: still one frame
        (4096, 1 << 17, FRAME_LEN),
        (5, 3 * FRAME_LEN * 5 + 7, 3 * FRAME_LEN),  # the block size is read when the stream is built
    ])
    def test_chunks_are_the_whole_frames_of_one_kernel_block(self, monkeypatch, channels, block_cells, scans):
        monkeypatch.setattr(transforms, "BLOCK_CELLS", block_cells)
        assert MultichannelStream(HwConfig(channels=channels), HW_COEFFS)._chunk == scans

    def test_one_channel_across_a_chunk_end_equals_the_record_path(self):
        record, _ = generate(SyntheticConfig(duration_s=10.0, noise_level=0.1, seed=1))
        q, _ = chip_input(record)
        cfg = HwConfig(channels=1)
        assert len(q) > MultichannelStream(cfg)._chunk
        events, crossings = hw_detect_multichannel(q.codes[:, None], cfg, return_crossings=True)
        assert events == [finish_dual(prepare_hw_dual(q, cfg), default_hw_coefficients())] and len(events[0]) > 100
        assert np.array_equal(crossings[0], trace_internal(q, cfg).crossing.astype(bool))

    @pytest.mark.parametrize("drops", [(6, 5), (7, 6), (14, 5)])
    @pytest.mark.parametrize("coeffs", [HW_COEFFS, EXTREME_COEFFS], ids=["hw", "extreme"])
    def test_hw_detect_channel_equals_the_record_path_across_chunk_ends(self, drops, coeffs):
        cfg = HwConfig(xteo_drop_lsbs=drops[0], steo_drop_lsbs=drops[1])
        chunk = MultichannelStream(replace(cfg, channels=1))._chunk
        assert chunk == 1 << 17
        gap = EventFormationConfig.for_rate(cfg.rate_hz).refractory_samples
        codes = spiky_stream(np.random.default_rng(41), 2 * chunk + 1, 1)[:, 0]
        # a quiet stretch, then a burst whose event is open when the first chunk ends
        codes[chunk - 40:chunk + 40] = 0
        codes[chunk - 6:chunk + 8:4] = 50
        near_chunk_end = 0
        for n in [WARMUP_SAMPLES + 1, WARMUP_SAMPLES + 256, *(chunk + k for k in (0, 1, 2, 255, 256, 257)),
                  2 * chunk + 1]:
            q = quantized(codes[:n], channel=5)
            events = hw_detect_channel(q, cfg, coeffs)
            assert events == finish_dual(prepare_hw_dual(q, cfg), coeffs), n
            assert np.all(events.channel_id == 5) and (events or n == WARMUP_SAMPLES + 1), n
            near_chunk_end += bool(np.any(abs(events.sample_index - chunk) < gap))
        if coeffs is HW_COEFFS:
            assert near_chunk_end > 0

    def test_closed_stream_takes_nothing(self):
        engine = MultichannelStream(HwConfig(channels=4))
        assert engine.close() == [Events()] * 4
        with pytest.raises(ValueError, match="closed"):
            engine.push(np.zeros((3, 4), dtype=np.int8))
        with pytest.raises(ValueError, match="closed"):
            engine.close()

    @pytest.mark.parametrize("return_crossings", [False, True])
    def test_peak_memory_does_not_grow_with_the_stream(self, return_crossings):
        # int8 scans, silent after the first N - 512, so that N and 4N scans
        # give the same events; neither the input, the events nor the
        # returned crossings are counted
        cfg = HwConfig()
        n_scans = WARMUP_SAMPLES + 3000
        live = spiky_stream(np.random.default_rng(25), n_scans - 512, cfg.channels).astype(np.int8)
        peaks, found = [], []
        for length in (n_scans, 4 * n_scans):
            stream = np.zeros((length, cfg.channels), dtype=np.int8)
            stream[:len(live)] = live
            tracemalloc.start()
            try:
                result = hw_detect_multichannel(stream, cfg, return_crossings=return_crossings)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            events, crossings = result if return_crossings else (result, np.zeros(0, dtype=bool))
            assert crossings.size == (length * cfg.channels if return_crossings else 0)
            found.append(events)
            peaks.append(peak - crossings.nbytes)
        assert found[0] == found[1] and sum(map(len, found[0])) > cfg.channels
        assert peaks[1] < 1.1 * peaks[0], peaks
