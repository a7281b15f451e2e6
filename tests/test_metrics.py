from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualteo.dataio
import dualteo.detector
from dualteo.dataio import GroundTruth, SyntheticConfig, generate
from dualteo.detector import DetectorKind, SpikeEvent
from loop_oracles import greedy_tp
from dualteo.metrics import (
    MatchReport,
    SweepResult,
    SweepSpec,
    accuracy,
    match_events,
    parse_results_csv,
    report,
    score_events,
    sweep,
)
from dualteo.threshold import WARMUP_SAMPLES


def truth_of(indices):
    return GroundTruth(spike_indices=np.asarray(sorted(indices), dtype=np.int64))


def optimal_tp(detected, truths, tol):
    """Brute-force maximum one-to-one matching within the tolerance window."""
    detected = sorted(detected)
    truths = sorted(truths)

    def best(i, used):
        if i == len(truths):
            return 0
        score = best(i + 1, used)  # leave truth i unmatched
        for j, d in enumerate(detected):
            if used >> j & 1:
                continue
            if abs(d - truths[i]) <= tol:
                score = max(score, 1 + best(i + 1, used | (1 << j)))
        return score

    return best(0, 0)


class TestMatchEvents:
    def test_exact_match(self):
        det = [SpikeEvent(0, i) for i in (10, 50, 90)]
        rep = match_events(det, truth_of([10, 50, 90]), tolerance_samples=5)
        assert (rep.tp, rep.fp, rep.fn) == (3, 0, 0)

    def test_detection_without_truth_is_fp(self):
        rep = match_events([SpikeEvent(0, 42)], truth_of([]), 5)
        assert (rep.tp, rep.fp, rep.fn) == (0, 1, 0)

    def test_mixed_example_matches_bruteforce(self):
        det = [102, 350]
        tru = [100, 200]
        rep = match_events(np.asarray(det), truth_of(tru), 24)
        assert (rep.tp, rep.fp, rep.fn) == (1, 1, 1)
        assert rep.tp == optimal_tp(det, tru, 24)

    def test_nearest_detection_wins(self):
        rep = match_events(np.asarray([98, 104]), truth_of([100]), 24)
        assert rep.tp == 1 and rep.fp == 1

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            match_events([], truth_of([]), -1)

    @given(
        det=st.lists(st.integers(min_value=0, max_value=400), max_size=8),
        tru=st.lists(st.integers(min_value=0, max_value=400), max_size=6, unique=True),
        tol=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=300)
    def test_bookkeeping_identities_always_hold(self, det, tru, tol):
        rep = match_events(np.asarray(det, dtype=np.int64), truth_of(tru), tol)
        assert rep.tp + rep.fp == len(det)
        assert rep.tp + rep.fn == len(tru)
        assert rep.tp <= min(len(det), len(tru))
        # greedy never beats the optimal assignment
        assert rep.tp <= optimal_tp(det, tru, tol)

    @given(
        data=st.data(),
        tol=st.integers(min_value=1, max_value=20),
        n=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=200)
    def test_greedy_equals_optimal_when_gaps_exceed_twice_tolerance(self, data, tol, n):
        # construct truths at least 2*tol + 1 apart, detections jittered within tol
        gaps = data.draw(st.lists(
            st.integers(min_value=2 * tol + 1, max_value=5 * tol + 10), min_size=n, max_size=n
        ))
        truths = np.cumsum(gaps).tolist()
        keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        jitter = data.draw(st.lists(
            st.integers(min_value=-tol, max_value=tol), min_size=n, max_size=n
        ))
        det = [t + j for t, j, k in zip(truths, jitter, keep) if k]
        extras = data.draw(st.lists(
            st.integers(min_value=max(truths) + 3 * tol, max_value=max(truths) + 10 * tol),
            max_size=3, unique=True,
        ))
        det = sorted(det + extras)
        rep = match_events(np.asarray(det, dtype=np.int64), truth_of(truths), tol)
        assert rep.tp == optimal_tp(det, truths, tol)

    @given(
        data=st.data(),
        tol=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=400)
    def test_equals_greedy_loop_oracle(self, data, tol):
        # truths in clusters closer than twice the tolerance, detections with repeats
        centers = data.draw(st.lists(st.integers(min_value=0, max_value=300), max_size=6))
        tru = sorted({
            c + d for c in centers
            for d in data.draw(st.lists(st.integers(min_value=0, max_value=2 * tol + 2), min_size=1, max_size=3))
        })
        det = data.draw(st.lists(st.integers(min_value=0, max_value=330), max_size=12))
        det = det + data.draw(st.lists(st.sampled_from(det), max_size=4)) if det else det
        rep = match_events(np.asarray(det, dtype=np.int64), truth_of(tru), tol)
        assert rep.tp == greedy_tp(det, tru, tol)

    def test_event_list_and_array_inputs_agree(self):
        det = [SpikeEvent(0, i) for i in (130, 96, 101, 101)]
        tru = truth_of([100, 104, 130])
        rep = match_events(det, tru, 3)
        assert rep == match_events(np.asarray([96, 101, 101, 130]), tru, 3)
        assert rep.tp == greedy_tp([96, 101, 101, 130], [100, 104, 130], 3) == 3


class TestAccuracy:
    def test_stated_example(self):
        assert accuracy(MatchReport(95, 2, 3)) == 0.95

    def test_perfect(self):
        assert accuracy(MatchReport(7, 0, 0)) == 1.0

    def test_zero(self):
        assert accuracy(MatchReport(0, 1, 1)) == 0.0

    def test_all_zero_report_is_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            accuracy(MatchReport(0, 0, 0))

    @given(
        tp=st.integers(min_value=0, max_value=100),
        fp=st.integers(min_value=0, max_value=100),
        fn=st.integers(min_value=0, max_value=100),
    )
    def test_monotone_in_tp(self, tp, fp, fn):
        if tp + fp + fn == 0:
            return
        a = accuracy(MatchReport(tp, fp, fn))
        b = accuracy(MatchReport(tp + 1, fp, fn))
        assert b >= a

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            MatchReport(-1, 0, 0)


class TestScoreEvents:
    def test_warmup_region_excluded_from_both_sides(self):
        det = [SpikeEvent(0, 10), SpikeEvent(0, 500)]
        rep = score_events(det, truth_of([12, 505, 700]), 10, skip_before=100)
        # spike at 12 and detection at 10 both dropped; 700 unmatched
        assert (rep.tp, rep.fp, rep.fn) == (1, 0, 1)


TINY = SyntheticConfig(duration_s=1.2, noise_level=0.0, seed=2)


class TestSweep:
    def test_single_point_noiseless_cell_is_perfect(self):
        spec = SweepSpec(
            axis="noise_level", points=(0.0,), detectors=(DetectorKind.AT,),
            replicates=1, base_cfg=TINY,
        )
        results = sweep(spec)
        assert len(results) == 1
        assert results[0].mean_accuracy == 1.0
        assert results[0].replicates == 1

    def test_results_reproducible_bitwise(self):
        spec = SweepSpec(
            axis="noise_level", points=(0.05, 0.2), detectors=(DetectorKind.AT, DetectorKind.MAE),
            replicates=2, base_cfg=TINY,
        )
        a = report(sweep(spec), "csv")
        b = report(sweep(spec), "csv")
        assert a == b

    def test_noise_axis_equals_independent_cells(self):
        # 0.6 s at 24 kHz is 14,400 samples, well past the 4,096-sample warm-up
        spec = SweepSpec(
            axis="noise_level", points=(0.0, 0.05, 0.15), detectors=tuple(DetectorKind),
            replicates=2, base_cfg=SyntheticConfig(duration_s=0.6, seed=11),
        )
        expected = []
        for p in spec.points:
            for d in spec.detectors:
                accs = []
                for r in range(spec.replicates):
                    record, truth = generate(replace(spec.base_cfg, noise_level=p, seed=11 + r))
                    rep = score_events(dualteo.detector.detect(record, d), truth,
                                       round(record.rate_hz * spec.tolerance_ms / 1000.0),
                                       skip_before=WARMUP_SAMPLES)
                    accs.append(accuracy(rep) if rep.tp + rep.fp + rep.fn else 1.0)
                expected.append(SweepResult(
                    axis="noise_level", point=p, detector=d, mean_accuracy=float(np.mean(accs)),
                    std_accuracy=float(np.std(accs)), replicates=2))
        assert any(r.mean_accuracy < 1.0 for r in expected)
        assert sweep(spec) == expected

    @pytest.mark.parametrize("axis, points", [
        ("noise_level", (0.0, 0.05, 0.1, 0.2)),
        ("resolution_bits", (4, 8)),
        ("rate_hz", (16000.0, 24000.0)),
    ])
    def test_each_replicate_generated_once(self, monkeypatch, axis, points):
        # the band-limited background is built once per generated seed
        calls = []
        bandlimit = dualteo.dataio._bandlimit

        def counting_bandlimit(*args):
            calls.append(args)
            return bandlimit(*args)

        monkeypatch.setattr(dualteo.dataio, "_bandlimit", counting_bandlimit)
        spec = SweepSpec(axis=axis, points=points, detectors=(DetectorKind.AT,),
                         replicates=3, base_cfg=TINY)
        sweep(spec)
        assert len(calls) == 3

    def test_resolution_axis_fixes_noise_at_mid_level(self):
        spec = SweepSpec(
            axis="resolution_bits", points=(4, 8), detectors=(DetectorKind.AT,),
            replicates=1, base_cfg=TINY,
        )
        results = sweep(spec)
        assert {r.point for r in results} == {4.0, 8.0}

    def test_rate_axis_rescales_truth(self):
        spec = SweepSpec(
            axis="rate_hz", points=(16000.0, 24000.0), detectors=(DetectorKind.AT,),
            replicates=1, base_cfg=TINY,
        )
        results = sweep(spec)
        assert all(r.mean_accuracy > 0.9 for r in results)

    def test_cell_errors_carry_context(self, monkeypatch):
        # the spec rejects every point known to break a cell, so make the detector fail
        def failing_detect(record, kind, **kwargs):
            raise ValueError("detector failed")

        monkeypatch.setattr(dualteo.detector, "detect", failing_detect)
        spec = SweepSpec(
            axis="resolution_bits", points=(2, 8), detectors=(DetectorKind.AT,),
            replicates=1, base_cfg=TINY,
        )
        with pytest.raises(RuntimeError, match="axis=resolution_bits point=2 replicate=0") as info:
            sweep(spec)
        assert isinstance(info.value.__cause__, ValueError)

    def test_unsorted_points_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            SweepSpec(axis="noise_level", points=(0.2, 0.1), detectors=("at",))

    @pytest.mark.parametrize("overrides, message", [
        ({"tolerance_ms": -5.0}, "tolerance_ms"),
        ({"tolerance_ms": float("nan")}, "tolerance_ms"),
        ({"tolerance_ms": float("inf")}, "tolerance_ms"),
        ({"tolerance_ms": "1"}, "tolerance_ms"),
        ({"replicates": True}, "replicates"),
        ({"points": ("0.1",)}, "finite numbers"),
        ({"points": (True,)}, "finite numbers"),
        ({"points": (0.1, float("nan"))}, "finite numbers"),
        ({"points": (None,)}, "finite numbers"),
    ])
    def test_hostile_spec_values_rejected(self, overrides, message):
        kwargs = {"axis": "noise_level", "points": (0.1,), "detectors": ("at",), "replicates": 1, **overrides}
        with pytest.raises(ValueError, match=message):
            SweepSpec(**kwargs)

    def test_zero_tolerance_accepted(self):
        assert SweepSpec(axis="noise_level", points=(0.1,), detectors=("at",), tolerance_ms=0).tolerance_ms == 0

    def test_detector_names_coerced(self):
        spec = SweepSpec(axis="noise_level", points=(0.1, 0.2), detectors=("at", "dual"))
        assert spec.detectors == (DetectorKind.AT, DetectorKind.DUAL)


class TestReport:
    def test_empty_results_is_header_only(self):
        assert report([], "csv") == "axis,point,detector,mean_accuracy,std_accuracy,replicates\n"

    def test_one_cell_is_two_lines(self):
        spec = SweepSpec(
            axis="noise_level", points=(0.0,), detectors=(DetectorKind.AT,),
            replicates=1, base_cfg=TINY,
        )
        text = report(sweep(spec), "csv")
        assert len(text.strip().splitlines()) == 2

    def test_csv_roundtrip_recovers_values(self):
        spec = SweepSpec(
            axis="noise_level", points=(0.05, 0.2), detectors=(DetectorKind.AT,),
            replicates=2, base_cfg=TINY,
        )
        results = sweep(spec)
        parsed = parse_results_csv(report(results, "csv"))
        for a, b in zip(results, parsed):
            assert a.axis == b.axis and a.point == b.point and a.detector == b.detector
            assert abs(a.mean_accuracy - b.mean_accuracy) < 1e-6
            assert a.replicates == b.replicates

    def test_plot_script_references_csv(self, tmp_path):
        text = report([], "plot_script", tmp_path / "plot.py")
        assert "sweep_results.csv" in text
        assert "matplotlib" in text

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            report([], "csv", tmp_path)  # a directory is not writable as a file

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            report([], "xml")
