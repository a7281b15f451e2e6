import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_clean_spike_record
from loop_oracles import split_events
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
from dualteo.hw_model import HwConfig, hw_detect_channel
from dualteo.signal_model import QuantizedRecord, SignalRecord
from dualteo.threshold import WARMUP_SAMPLES, ThresholdCoefficients

COEFFS = ThresholdCoefficients.make((3, 2), (1, 2), (2, 0))


def cfg16():
    return EventFormationConfig(refractory_samples=16)


class TestFormEvents:
    def test_all_false_gives_empty(self):
        assert form_events(np.zeros(100, bool), np.zeros(100), cfg16()) == Events()

    def test_single_run_aligns_on_peak(self):
        crossings = np.zeros(40, bool)
        crossings[[10, 11, 12]] = True
        energy = np.zeros(40)
        energy[10:13] = [1.0, 5.0, 2.0]
        events = form_events(crossings, energy, cfg16(), channel_id=3)
        assert events == Events(np.array([3]), np.array([11]))

    def test_runs_past_refractory_stay_separate(self):
        crossings = np.zeros(60, bool)
        crossings[[10, 40]] = True  # gap 30 > 16
        energy = np.ones(60)
        events = form_events(crossings, energy, cfg16())
        assert events.sample_index.tolist() == [10, 40]

    def test_runs_within_refractory_merge(self):
        crossings = np.zeros(60, bool)
        crossings[[10, 20]] = True  # gap 10 < 16
        energy = np.zeros(60)
        energy[20] = 2.0
        events = form_events(crossings, energy, cfg16())
        assert events.sample_index.tolist() == [20]

    def test_peak_tie_takes_earliest(self):
        crossings = np.zeros(30, bool)
        crossings[[5, 6, 7]] = True
        energy = np.zeros(30)
        energy[[5, 6, 7]] = 4.0
        events = form_events(crossings, energy, cfg16())
        assert events.sample_index[0] == 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            form_events(np.zeros(5, bool), np.zeros(4), cfg16())

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
        events = form_events(np.asarray(crossings), energy, cfg)
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
        events = form_events(crossings, values, EventFormationConfig(refractory_samples=refractory), channel_id=2)
        assert events.sample_index.tolist() == split_events(crossings, values, refractory)
        assert events.channel_id.tolist() == [2] * len(events)
        assert events.channel_id.dtype == events.sample_index.dtype == np.int64

    def test_nan_peak_taken_as_argmax_does(self):
        crossings = np.zeros(20, bool)
        crossings[[3, 4, 5, 6]] = True
        values = np.array([0.0] * 3 + [1.0, np.nan, 5.0, np.nan] + [0.0] * 13)
        events = form_events(crossings, values, cfg16())
        assert events.sample_index.tolist() == split_events(crossings, values, 16) == [4]

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        crossings = rng.random(500) < 0.1
        energy = rng.normal(size=500)
        cfg = cfg16()
        a = form_events(crossings, energy, cfg)
        b = form_events(crossings, energy, cfg)
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
        expected = form_events(union, prep.align, prep.event_cfg, prep.channel_id)
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
            single = form_events(gated, prep.align, prep.event_cfg, prep.channel_id)
            rep_single = score_events(single, truth, tol, skip_before=prep.warmup_samples)
            assert rep_dual.tp >= rep_single.tp

    def test_deterministic(self, noisy_record):
        record, _ = noisy_record
        a = detect_dual(record, COEFFS)
        b = detect_dual(record, COEFFS)
        assert a == b


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

    def test_mae_energy_constant_record(self):
        e = moving_average_energy(np.full(50, 3.0))
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

    @pytest.mark.parametrize("n", [100, 10_000], ids=["inside-warmup", "past-warmup"])
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


SHORT_RECORD = SignalRecord(samples=np.ones(100), rate_hz=24000.0)
SHORT_CODES = QuantizedRecord(codes=np.ones(100, dtype=np.int64), format=HwConfig.input_format,
                              rate_hz=HwConfig.rate_hz)


@pytest.mark.parametrize("call", [
    lambda: detect_dual(SHORT_RECORD),
    lambda: detect_teo_single(SHORT_RECORD),
    lambda: detect(SHORT_RECORD, DetectorKind.DUAL),
    lambda: detect_each(SHORT_RECORD, list(DetectorKind)),
    lambda: hw_detect_channel(SHORT_CODES),
], ids=["detect_dual", "detect_teo_single", "detect", "detect_each", "hw_detect_channel"])
def test_warmup_warning_names_the_caller(call):
    # the default filter shows a warning once per line it names, so it must
    # name the line that called into the package
    with pytest.warns(UserWarning, match="warm-up") as caught:
        call()
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
