import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_clean_spike_record
from loop_oracles import split_events
from dualteo import detector, hw_model, transforms
from dualteo.dataio import SyntheticConfig, generate
from dualteo.detector import (
    DetectorKind,
    EventFormationConfig,
    Events,
    _merge_runs,
    detect,
    detect_at,
    detect_dual,
    detect_dvt,
    detect_each,
    detect_mae,
    detect_teo_single,
    dual_crossing_streams,
    event_indices,
    events_to_csv,
    finish_dual,
    form_events,
    moving_average_energy,
    prepare_dual,
)
from dualteo.hw_model import HwConfig, chip_input, hw_detect_channel, hw_detect_multichannel
from dualteo.signal_model import QuantizedRecord, SignalRecord
from dualteo.threshold import (
    FRAME_LEN,
    WARMUP_SAMPLES,
    ThresholdCoefficients,
    default_coefficient_grid,
    default_float_coefficients,
    sigma_frames,
)

COEFFS = ThresholdCoefficients.make((3, 2), (1, 2), (2, 0))


def cfg16():
    return EventFormationConfig(refractory_samples=16)


def at_crossings(crossings, values):
    """A comparator map's crossing sample indices and the values there, as ``form_events`` takes them."""
    at = np.flatnonzero(crossings)
    return at, np.asarray(values)[at]


class TestFormEvents:
    def test_no_crossings_give_empty(self):
        assert form_events(np.zeros(0, dtype=np.intp), np.zeros(0), cfg16()) == Events()

    def test_single_run_aligns_on_peak(self):
        events = form_events(np.array([10, 11, 12]), np.array([1.0, 5.0, 2.0]), cfg16(), channel_id=3)
        assert events == Events(np.array([3]), np.array([11]))

    def test_runs_past_refractory_stay_separate(self):
        events = form_events(np.array([10, 40]), np.ones(2), cfg16())  # gap 30 > 16
        assert events.sample_index.tolist() == [10, 40]

    def test_runs_within_refractory_merge(self):
        events = form_events(np.array([10, 20]), np.array([0.0, 2.0]), cfg16())  # gap 10 < 16
        assert events.sample_index.tolist() == [20]

    def test_peak_tie_takes_earliest(self):
        events = form_events(np.array([5, 6, 7]), np.full(3, 4.0), cfg16())
        assert events.sample_index[0] == 5

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
    def test_any_integer_indices_give_int64_events(self, dtype):
        events = form_events(np.array([3, 30, 31], dtype=dtype), np.array([1, 0, 2]), cfg16(), channel_id=1)
        assert events == Events(np.array([1, 1]), np.array([3, 31]))
        assert events.sample_index.dtype == events.channel_id.dtype == np.int64

    @pytest.mark.parametrize("crossings, values, message", [
        # a comparator map, the old input: its False and True would read as the indices 0 and 1
        (np.array([False, True, True]), np.zeros(3), "integer"),
        (np.array([1.0, 2.0]), np.zeros(2), "integer"),
        (np.array([[1, 2], [3, 4]]), np.zeros((2, 2)), "1-D"),
        (np.arange(5), np.zeros(4), "one value per crossing"),
        (np.array([-1, 2]), np.zeros(2), ">= 0"),
        (np.array([2, 2, 5]), np.zeros(3), "strictly increase"),
        (np.array([2, 9, 5]), np.zeros(3), "strictly increase"),
        (np.array([7, 3], dtype=np.uint8), np.zeros(2), "strictly increase"),
    ], ids=["bool", "float", "2-D", "length-mismatch", "negative", "repeated", "decreasing", "unsigned-decreasing"])
    def test_anything_but_increasing_indices_rejected(self, crossings, values, message):
        with pytest.raises(ValueError, match=message):
            form_events(crossings, values, cfg16())

    @given(
        st.lists(st.booleans(), min_size=1, max_size=300),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200)
    def test_event_spacing_invariant(self, crossings, refractory, seed):
        rng = np.random.default_rng(seed)
        energy = rng.normal(size=len(crossings))
        cfg = EventFormationConfig(refractory_samples=refractory)
        events = form_events(*at_crossings(crossings, energy), cfg)
        idx = event_indices(events)
        if len(idx) > 1:
            assert np.diff(idx).min() >= refractory

    @given(
        st.lists(st.booleans(), min_size=1, max_size=300),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from([np.int64, np.float64]),
    )
    @settings(max_examples=300)
    def test_equals_split_argmax_oracle(self, crossings, refractory, seed, dtype):
        # few distinct integer values, so peaks tie within a run
        rng = np.random.default_rng(seed)
        values = rng.integers(-2, 3, size=len(crossings)).astype(dtype)
        crossings = np.asarray(crossings)
        cfg = EventFormationConfig(refractory_samples=refractory)
        events = form_events(*at_crossings(crossings, values), cfg, channel_id=2)
        assert events.sample_index.tolist() == split_events(crossings, values, refractory)
        assert events.channel_id.tolist() == [2] * len(events)
        assert events.channel_id.dtype == events.sample_index.dtype == np.int64

    def test_nan_peak_taken_as_argmax_does(self):
        crossings = np.zeros(20, bool)
        crossings[[3, 4, 5, 6]] = True
        values = np.array([0.0] * 3 + [1.0, np.nan, 5.0, np.nan] + [0.0] * 13)
        events = form_events(*at_crossings(crossings, values), cfg16())
        assert events.sample_index.tolist() == split_events(crossings, values, 16) == [4]

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        crossings = rng.random(500) < 0.1
        energy = rng.normal(size=500)
        cfg = cfg16()
        a = form_events(*at_crossings(crossings, energy), cfg)
        b = form_events(*at_crossings(crossings, energy), cfg)
        assert a == b


@st.composite
def run_sets(draw):
    """1-3 rows of crossings over one record, as calibration's two crossing
    maps are, with the values they peak on (few distinct ones, so peaks tie,
    NaN among them), where to cut runs short, and a gap."""
    n = draw(st.integers(min_value=0, max_value=100))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=3))
    values = draw(st.lists(st.sampled_from([-2.0, 0.0, 1.0, 2.0, np.nan]), min_size=n, max_size=n))
    cuts = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    # mostly gaps that split a row of random crossings more than once
    gap = draw(st.integers(min_value=1, max_value=8) | st.integers(min_value=1, max_value=120))
    return rows, values, cuts, gap


def crossing_runs(rows, values, cuts, gap):
    """Each row's crossings cut into runs, sorted by first crossing: first,
    last and earliest peak of each run.  A run ends where the next crossing
    lies a gap away, and also after any crossing where ``cuts`` is set."""
    first, last, peak = [], [], []
    for row in rows:
        idx = np.flatnonzero(row)
        ends = (np.diff(idx) >= gap) | cuts[idx[:-1]]
        for run in np.split(idx, np.flatnonzero(ends) + 1):
            if len(run):
                first.append(run[0])
                last.append(run[-1])
                peak.append(run[np.argmax(values[run])])
    order = np.argsort(np.asarray(first, dtype=np.intp), kind="stable")
    return tuple(np.asarray(x, dtype=np.intp)[order] for x in (first, last, peak))


class TestMergeRuns:
    @given(run_sets(), st.sampled_from([np.float64, np.int16]))
    # the empty input; gap 1, where every crossing is its own event; a gap
    # longer than the record; a tie between two runs, where the run that
    # comes first holds the later peak; NaN peaks in two runs of one event;
    # a long run that reaches past a shorter run after it
    @example(([[]], [], [], 1), np.float64)
    @example(([[1, 1, 0, 1], [0, 1, 1, 0]], [1.0, 1.0, 1.0, 0.0], [0] * 4, 1), np.int16)
    @example(([[1, 0, 0, 1, 0, 1]], [0.0, 2.0, 0.0, 2.0, 0.0, 1.0], [1] * 6, 50), np.float64)
    @example(([[1, 1, 0, 0, 0, 0, 1, 0], [0, 0, 1, 1, 0, 0, 0, 0]], [0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 5.0, 0.0],
              [0] * 8, 8), np.int16)
    @example(([[1, 1, 0, 1]], [1.0, np.nan, 0.0, np.nan], [1, 0, 0, 0], 4), np.float64)
    @example(([[1, 0, 0, 1, 0, 0, 1, 0, 0, 1], [0, 0, 1, 0, 0, 0, 0, 1, 0, 0]], [0.0] * 10, [0] * 10, 4),
             np.float64)
    @settings(max_examples=200)
    def test_equals_split_argmax_oracle_on_the_union(self, drawn, dtype):
        rows, values, cuts, gap = drawn
        rows = np.asarray(rows, dtype=bool).reshape(len(rows), len(values))
        values = np.asarray(values)
        if dtype is np.int16:  # NaN is the maximum, as 3 is here
            values = np.nan_to_num(values, nan=3.0)
        values = values.astype(dtype)
        first, last, peak = crossing_runs(rows, values, np.asarray(cuts, dtype=bool), gap)
        heads, peaks = _merge_runs(first, last, peak, values[peak], gap)
        union = rows.any(axis=0)
        assert peaks.tolist() == split_events(union, values, gap)
        idx = np.flatnonzero(union)
        assert first[heads].tolist() == idx[np.flatnonzero(np.diff(idx, prepend=-gap) >= gap)].tolist()
        # single crossings in the index form, as calibration's crossing maps
        # and the stream's chunks pass them: each peak's index among them
        idx_heads, at = _merge_runs(idx, idx, np.arange(len(idx)), values[idx], gap)
        assert idx[idx_heads].tolist() == first[heads].tolist() and idx[at].tolist() == peaks.tolist()


class TestDetectDual:
    def test_all_zero_record_yields_no_events(self):
        record = SignalRecord(np.zeros(10000), rate_hz=24000.0)
        assert detect_dual(record, COEFFS) == Events()

    def test_short_record_warns_and_returns_empty(self):
        record = SignalRecord(np.zeros(100), rate_hz=24000.0)
        with pytest.warns(UserWarning, match="warm-up"):
            events = detect_dual(record, COEFFS)
        assert events == Events()

    def test_clean_single_spike_detected_once(self):
        record = make_clean_spike_record(spike_index=5000, n=10000)
        events = detect_dual(record, COEFFS)
        assert len(events) == 1
        assert abs(events.sample_index[0] - 5000) <= 24

    def test_crossing_union_property(self, noisy_record):
        record, _ = noisy_record
        prep = prepare_dual(record)
        cross_x, cross_s = dual_crossing_streams(prep, COEFFS)
        events = finish_dual(prep, COEFFS)
        union = cross_x | cross_s
        union[: prep.warmup_samples] = False
        cfg = EventFormationConfig.for_rate(prep.rate_hz)
        expected = form_events(*at_crossings(union, prep.align), cfg, prep.channel_id)
        assert events == expected

    def test_single_path_crossings_are_subset(self, noisy_record):
        record, _ = noisy_record
        prep = prepare_dual(record)
        cross_x, cross_s = dual_crossing_streams(prep, COEFFS)
        union = cross_x | cross_s
        assert np.all(union[cross_x])
        assert np.all(union[cross_s])

    def test_recall_dominance_over_either_path(self, noisy_record):
        from dualteo.metrics import score_events
        record, truth = noisy_record
        tol = round(record.rate_hz / 1000)
        prep = prepare_dual(record)
        dual = finish_dual(prep, COEFFS)
        rep_dual = score_events(dual, truth, tol, skip_before=prep.warmup_samples)
        cross_x, cross_s = dual_crossing_streams(prep, COEFFS)
        for crossings in (cross_x, cross_s):
            gated = crossings.copy()
            gated[: prep.warmup_samples] = False
            cfg = EventFormationConfig.for_rate(prep.rate_hz)
            single = form_events(*at_crossings(gated, prep.align), cfg, prep.channel_id)
            rep_single = score_events(single, truth, tol, skip_before=prep.warmup_samples)
            assert rep_dual.tp >= rep_single.tp

    def test_deterministic(self, noisy_record):
        record, _ = noisy_record
        a = detect_dual(record, COEFFS)
        b = detect_dual(record, COEFFS)
        assert a == b


# samples per chunk of the float detectors' walk: 128 frames, a quarter of a kernel block
WALK_CHUNK = 1 << 15


def raw_path_events(record, coeffs):
    """The raw-path detector by the whole-record path: one prepare, one compare, one formation."""
    prep = prepare_dual(record)
    cross_x, _ = dual_crossing_streams(prep, coeffs)
    cross_x[: prep.warmup_samples] = False
    cfg = EventFormationConfig.for_rate(prep.rate_hz)
    return form_events(*at_crossings(cross_x, prep.x_energy), cfg, prep.channel_id)


def assert_walk_equals_the_record_path(record, coeffs):
    """``detect_dual``, ``detect_teo_single`` and ``detect_each``'s shared pair against the record path."""
    c = coeffs if coeffs is not None else default_float_coefficients()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a record inside the warm-up warns; the warning is tested elsewhere
        dual, single = detect_dual(record, coeffs), detect_teo_single(record, coeffs)
        if coeffs is None:  # detect_each runs the default tuning
            assert detect_each(record, [DetectorKind.DUAL, DetectorKind.TEO_SINGLE]) == [dual, single], len(record)
    assert dual == finish_dual(prepare_dual(record), c), len(record)
    assert single == raw_path_events(record, c), len(record)
    return dual


class TestChunkWalk:
    def test_chunks_are_128_frames_of_the_record(self):
        record = SignalRecord(np.random.default_rng(3).normal(size=2 * WALK_CHUNK + 5), rate_hz=24000.0)
        with mock.patch.object(detector, "sigma_frames", wraps=sigma_frames) as sigma:
            detect_dual(record)
        assert [len(call.args[0]) for call in sigma.call_args_list] == [WALK_CHUNK, WALK_CHUNK, 5]

    @pytest.mark.parametrize("draw", [None, 0, 1, 2], ids=["default", "drawn0", "drawn1", "drawn2"])
    def test_walk_equals_the_record_path_across_chunk_ends(self, draw):
        coeffs = None
        if draw is not None:
            grid = default_coefficient_grid("float")
            coeffs = grid[np.random.default_rng(draw).integers(len(grid))]
        record, _ = generate(SyntheticConfig(duration_s=2.8, noise_level=0.1, seed=41))
        x = record.samples.copy()
        assert len(x) > 2 * WALK_CHUNK + FRAME_LEN + 9
        # a quiet stretch, then a burst whose event is open when the first chunk ends
        x[WALK_CHUNK - 40:WALK_CHUNK + 40] = 0
        x[WALK_CHUNK - 6:WALK_CHUNK + 8:4] = 2.0
        # at the second chunk end, a V of slope 0.2 from 0 down to -10 and back, its vertex 30
        # samples before the end: the slopes' energies (0.04) cross neither level, so only the
        # vertex raises an event, and a window that dropped the second sample before the chunk
        # would smooth the chunk's first energy from a wrong sample and raise another
        end = 2 * WALK_CHUNK
        x[end - 100:end + 40] = 0
        x[end - 80:end + 21] = -10 + 0.2 * np.abs(np.arange(-50, 51))
        gap = EventFormationConfig.for_rate(record.rate_hz).refractory_samples
        near_chunk_end = 0
        for n in [0, 1, 2, 3, FRAME_LEN + 5, WARMUP_SAMPLES + 1, WALK_CHUNK - FRAME_LEN, WALK_CHUNK - 1,
                  *(WALK_CHUNK + k for k in (0, 1, 2, FRAME_LEN - 1, FRAME_LEN, FRAME_LEN + 37)),
                  2 * WALK_CHUNK - 1, 2 * WALK_CHUNK + 1, 2 * WALK_CHUNK + FRAME_LEN + 9]:
            part = SignalRecord(x[:n], rate_hz=record.rate_hz, channel_id=5)
            events = assert_walk_equals_the_record_path(part, coeffs)
            assert np.all(events.channel_id == 5), n
            near_chunk_end += bool(np.any(abs(events.sample_index - WALK_CHUNK) < gap))
        if coeffs is None:
            assert near_chunk_end > 0

    @pytest.mark.parametrize("frames", [1, 3, 17])
    def test_short_chunks_equal_the_record_path(self, monkeypatch, frames):
        # a chunk end at every frame, or every few, inside the warm-up and after it
        monkeypatch.setattr(transforms, "BLOCK_CELLS", 4 * frames * FRAME_LEN)
        record, _ = generate(SyntheticConfig(duration_s=1.0, noise_level=0.1, seed=43))
        for n in (len(record), len(record) - FRAME_LEN // 2):
            part = SignalRecord(record.samples[:n], rate_hz=record.rate_hz)
            events = assert_walk_equals_the_record_path(part, None)
            assert len(events) > 10

    @pytest.mark.parametrize("kinds", [[DetectorKind.DUAL], [DetectorKind.DUAL, DetectorKind.TEO_SINGLE]])
    def test_peak_memory_stays_below_two_and_a_half_records(self, kinds):
        # a 10 s, 24 kHz record; the whole-record path peaked at 4.04 times its bytes
        record, _ = generate(SyntheticConfig(duration_s=10.0, noise_level=0.1, seed=1))
        detect_each(record, kinds)  # the coefficients load once
        tracemalloc.start()
        try:
            detect_each(record, kinds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * record.samples.nbytes

    def test_peak_memory_does_not_grow_with_the_record(self):
        # the walk holds its chunks' crossings alone, no array as long as the record
        kinds, peaks = [DetectorKind.DUAL, DetectorKind.TEO_SINGLE], []
        for seconds in (10.0, 40.0):
            record, _ = generate(SyntheticConfig(duration_s=seconds, noise_level=0.1, seed=1))
            detect_each(record, kinds)  # the coefficients load once
            tracemalloc.start()
            try:
                detect_each(record, kinds)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks


def test_no_chunk_of_either_walk_carries_an_alignment(monkeypatch):
    # both walks keep their crossings' indices and alignment values; only a whole record has align
    record, _ = generate(SyntheticConfig(duration_s=2.8, noise_level=0.1, seed=41))
    codes, _ = chip_input(record)
    assert len(record) > 2 * WALK_CHUNK and prepare_dual(record).align is not None
    chunks = []
    for module, name in ((detector, "_prepare_samples"), (hw_model, "_prepare_codes")):
        prepare = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, prepare=prepare: chunks.append(prepare(*args)) or chunks[-1])
    detect_each(record, [DetectorKind.DUAL, DetectorKind.TEO_SINGLE])
    assert len(chunks) == 3
    hw_detect_channel(codes)
    hw_detect_multichannel(np.repeat(codes.codes[:, None], 3, axis=1), HwConfig(channels=3))
    assert len(chunks) == 6  # one chunk of the channel, two of the three-channel stream
    assert all(prep.align is None for prep in chunks)


class TestBaselines:
    def test_at_empty_on_zero_record(self):
        record = SignalRecord(np.zeros(1000), rate_hz=24000.0)
        assert detect_at(record) == Events()

    def test_at_detects_clean_spike(self):
        record = make_clean_spike_record(spike_index=2000, n=6000)
        events = detect_at(record, threshold_multiple=4.0)
        assert len(events) == 1
        assert abs(events.sample_index[0] - 2000) <= 24

    def test_at_scale_invariance_is_exact(self, noisy_record):
        record, _ = noisy_record
        scaled = SignalRecord(record.samples * 37.5, record.rate_hz, record.channel_id)
        assert detect_at(record) == detect_at(scaled)

    def test_symmetric_dvt_equals_at(self, noisy_record):
        record, _ = noisy_record
        assert detect_dvt(record, 4.0, 4.0) == detect_at(record, 4.0)

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(st.just(0.0) | st.floats(-1e6, 1e6), max_size=300)
        | st.builds(lambda v, n: [v] * n, st.floats(-1e6, 1e6), st.integers(0, 300)),
        pos=st.floats(-3.0, 6.0),
        neg=st.floats(-3.0, 6.0),
    )
    @example(samples=[0.5] * 100, pos=-1.0, neg=-1.0)
    @example(samples=[0.0] * 10 + [1.0] + [0.0] * 10 + [-1.0] + [0.0] * 10, pos=0.0, neg=0.0)
    def test_amplitude_detectors_match_the_split_oracle(self, samples, pos, neg):
        # each crossing is tested sample by sample; events split at the
        # 4-sample refractory gap and sit on the |x| peak; a record with no
        # noise scale has no events
        x = np.asarray(samples, dtype=float)
        record = SignalRecord(x, rate_hz=4000.0)
        sd = float(np.std(x)) if len(x) else 0.0
        mag = np.abs(x)

        def oracle(crossed):
            if sd == 0:
                return []
            return split_events(np.array([crossed(v) for v in x.tolist()], dtype=bool), mag, 4)

        got_at = detect_at(record, pos).sample_index.tolist()
        assert got_at == oracle(lambda v: abs(v) > pos * sd)
        got_dvt = detect_dvt(record, pos, neg).sample_index.tolist()
        assert got_dvt == oracle(lambda v: v > pos * sd or -v > neg * sd)

    def test_dvt_negative_spike_with_negative_threshold_only(self):
        record = make_clean_spike_record(spike_index=2000, n=6000, amplitude=-1.0)
        events = detect_dvt(record, pos_multiple=1e9, neg_multiple=4.0)
        assert len(events) == 1
        assert abs(events.sample_index[0] - 2000) <= 24

    @pytest.mark.parametrize("n", [50, 0], ids=["constant", "empty"])
    def test_mae_energy_constant_record(self, n):
        e = moving_average_energy(np.full(n, 3.0))
        assert e.dtype == np.float64 and e.shape == (n,)
        np.testing.assert_allclose(e, 9.0)

    def test_mae_energy_impulse(self):
        x = np.zeros(100)
        x[40] = 5.0
        e = moving_average_energy(x)
        assert e.max() == pytest.approx(25.0 / 8.0)
        assert np.all(e[40:48] == pytest.approx(25.0 / 8.0))

    def test_mae_empty_on_zero_record(self):
        record = SignalRecord(np.zeros(1000), rate_hz=24000.0)
        assert detect_mae(record) == Events()

    def test_mae_detects_clean_spike(self):
        record = make_clean_spike_record(spike_index=2000, n=6000)
        events = detect_mae(record, threshold_multiple=8.0)
        assert len(events) == 1
        assert abs(events.sample_index[0] - 2000) <= 24

    def test_dispatch_covers_every_kind(self, noisy_record):
        record, _ = noisy_record
        for kind in DetectorKind:
            events = detect(record, kind)
            assert isinstance(events, Events)

    @pytest.mark.parametrize("kinds", [
        list(DetectorKind),
        [DetectorKind.TEO_SINGLE, DetectorKind.AT, DetectorKind.DUAL],
        [DetectorKind.TEO_SINGLE],
        [DetectorKind.MAE, DetectorKind.DUAL],
    ])
    def test_detect_each_equals_detect_per_kind(self, noisy_record, kinds):
        record, _ = noisy_record
        # the shared prepare must not let the raw path's warm-up gate reach the dual's OR
        negative = SignalRecord(samples=-record.samples[:9000], rate_hz=record.rate_hz)
        for rec in (record, negative):
            got = detect_each(rec, kinds)
            assert got == [detect(rec, kind) for kind in kinds]
            assert all(got)

    def test_detect_each_on_a_short_record_warns_and_finds_nothing(self):
        record = SignalRecord(samples=np.ones(100), rate_hz=24000.0)
        with pytest.warns(UserWarning, match="warm-up"):
            assert detect_each(record, [DetectorKind.DUAL, DetectorKind.TEO_SINGLE]) == [Events(), Events()]

    @pytest.mark.parametrize("n", [100, WARMUP_SAMPLES + 1, 10_000],
                             ids=["inside-warmup", "just-past-warmup", "past-warmup"])
    @pytest.mark.parametrize("value", [0.5, 0.0], ids=["half", "zero"])
    def test_constant_record_gives_no_events(self, value, n):
        # std 0 leaves the amplitude baselines no noise scale: no threshold, no events
        record = SignalRecord(samples=np.full(n, value), rate_hz=24000.0)
        kinds = list(DetectorKind)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert [detect(record, kind) for kind in kinds] == [Events()] * len(kinds)
            assert detect_each(record, kinds) == [Events()] * len(kinds)
        # the only warnings are the energy detectors' on a record inside the warm-up
        assert all("warm-up" in str(w.message) for w in caught)
        assert bool(caught) == (n <= WARMUP_SAMPLES)


def short_record(n):
    return SignalRecord(samples=np.ones(n), rate_hz=24000.0)


def short_codes(n):
    return QuantizedRecord(codes=np.ones(n, dtype=np.int64), format=HwConfig.input_format, rate_hz=HwConfig.rate_hz)


@pytest.mark.parametrize("n", [0, 1, 2, 3, FRAME_LEN, WARMUP_SAMPLES])
@pytest.mark.parametrize("call, nothing", [
    (lambda n: detect_dual(short_record(n)), Events()),
    (lambda n: detect_teo_single(short_record(n)), Events()),
    (lambda n: detect(short_record(n), DetectorKind.DUAL), Events()),
    (lambda n: detect_each(short_record(n), list(DetectorKind)), [Events()] * len(DetectorKind)),
    (lambda n: hw_detect_channel(short_codes(n)), Events()),
], ids=["detect_dual", "detect_teo_single", "detect", "detect_each", "hw_detect_channel"])
def test_warmup_warning_names_the_caller(call, nothing, n):
    # a record inside the warm-up runs the usual path, and its gate leaves no events;
    # the default filter shows a warning once per line it names, so it must
    # name the line that called into the package
    with pytest.warns(UserWarning, match="warm-up") as caught:
        assert call(n) == nothing
    assert [w.filename for w in caught] == [__file__]


def events_of(pairs):
    return Events(*np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy())


class TestEvents:
    @pytest.mark.parametrize("a, b, equal", [
        ([(0, 5), (0, 9)], [(0, 5), (0, 9)], True),
        ([(0, 5), (0, 9)], [(0, 5), (0, 8)], False),
        ([(0, 5)], [(1, 5)], False),
        ([], [], True),
        ([], [(0, 5)], False),
        ([(0, 5), (0, 9)], [(0, 5)], False),
    ], ids=["equal", "sample-differs", "channel-differs", "both-empty", "one-empty", "different-length"])
    def test_equality_is_one_bool(self, a, b, equal):
        a, b = events_of(a), events_of(b)
        for got, want in ((a == b, equal), (b == a, equal), (a != b, not equal)):
            assert type(got) is bool and got == want
        # a list of them compares element by element, as the benchmark compares per-channel results
        assert ([a, a] == [b, a]) is equal

    def test_other_types_are_never_equal(self):
        assert Events() != [] and Events() != () and events_of([(0, 5)]) != [(0, 5)]

    def test_length_and_truth_count_events(self):
        assert len(Events()) == 0 and not Events()
        assert len(events_of([(2, 5), (2, 40)])) == 2 and events_of([(2, 5)])

    def test_join_puts_parts_one_after_another(self):
        parts = [events_of([(3, 5)]), Events(), events_of([(3, 40), (3, 90)])]
        assert Events.join(parts) == events_of([(3, 5), (3, 40), (3, 90)])
        joined = Events.join([])
        assert joined == Events() and joined.sample_index.dtype == joined.channel_id.dtype == np.int64

    def test_repr_shows_both_arrays(self):
        assert repr(events_of([(1, 7)])) == "Events(channel_id=array([1]), sample_index=array([7]))"


class TestEventCsv:
    def test_text_is_one_line_per_event(self, tmp_path):
        events = events_of([(0, 17), (0, 4096), (255, 10**7)])
        path = tmp_path / "events.csv"
        events_to_csv(events, path)
        assert path.read_text() == "channel,sample_index\n0,17\n0,4096\n255,10000000\n"
        events_to_csv(Events(), path)
        assert path.read_text() == "channel,sample_index\n"

    def test_roundtrip(self, tmp_path):
        record = make_clean_spike_record()
        events = detect_at(record)
        path = tmp_path / "events.csv"
        events_to_csv(events, path)
        assert path.read_text().splitlines()[0] == "channel,sample_index"
        table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        assert len(events) > 0 and Events(*table.T.copy()) == events
