"""Benchmark-level acceptance suite.

Each test prints one PASS/FAIL line.  The synthetic corpus is the noise grid
{0.05, 0.1, 0.15, 0.2} with ten replicate seeds per level; accuracy targets
are the library's headline claims, so failures here are release blockers.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np
import pytest

import test_register_map as register_map
from serial_oracle import serial_detect_multichannel
from test_metrics import optimal_tp
from dualteo import (
    FixedPointFormat,
    GroundTruth,
    HwConfig,
    SyntheticConfig,
    default_float_coefficients,
    default_hw_coefficients,
    dequantize,
    generate,
    peak_full_scale,
    quantize_mid_tread,
)
from dualteo import detector, hw_model, metrics
from dualteo.cli import main as cli_main
from dualteo.detector import DetectorKind
from dualteo.threshold import FRAME_LEN, WARMUP_SAMPLES, sigma_frames
from dualteo.transforms import smooth2, teo

NOISES = (0.05, 0.1, 0.15, 0.2)
SEEDS = tuple(range(42, 52))
DURATION_S = 10.0
TOL_24K = 24  # 1 ms at the corpus rate
TOL_16K = 16


def check(num, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num} ({name}): {detail}"
    print(line)
    assert ok, line


def mean_accuracy(events_per_record, truths, tol, skip):
    accs = []
    for events, truth in zip(events_per_record, truths):
        rep = metrics.score_events(events, truth, tol, skip_before=skip)
        accs.append(metrics.accuracy(rep))
    return float(np.mean(accs))


@pytest.fixture(scope="module")
def corpus():
    return {
        nv: [generate(SyntheticConfig(duration_s=DURATION_S, noise_level=nv, seed=s)) for s in SEEDS]
        for nv in NOISES
    }


@pytest.fixture(scope="module")
def float_preps(corpus):
    return {
        nv: [(detector.prepare_dual(record), truth) for record, truth in corpus[nv]]
        for nv in NOISES
    }


@pytest.fixture(scope="module")
def accuracy_table(corpus, float_preps):
    """Mean accuracy per (detector, noise level) on the corpus."""
    fc = default_float_coefficients()
    table = {kind: {} for kind in DetectorKind}
    for nv in NOISES:
        truths = [t for _, t in corpus[nv]]
        dual_events, single_events = [], []
        for prep, _ in float_preps[nv]:
            dual_events.append(detector.finish_dual(prep, fc))
            # detect_teo_single's tail, reusing the prepared record
            cross_x, _ = detector.dual_crossing_streams(prep, fc)
            single_events.append(detector._gate_and_form(prep, cross_x, prep.x_energy))
        table[DetectorKind.DUAL][nv] = mean_accuracy(dual_events, truths, TOL_24K, WARMUP_SAMPLES)
        table[DetectorKind.TEO_SINGLE][nv] = mean_accuracy(single_events, truths, TOL_24K, WARMUP_SAMPLES)
        for kind in (DetectorKind.AT, DetectorKind.DVT, DetectorKind.MAE):
            events = [detector.detect(record, kind) for record, _ in corpus[nv]]
            table[kind][nv] = mean_accuracy(events, truths, TOL_24K, WARMUP_SAMPLES)
    return table


@pytest.fixture(scope="module")
def hw_accuracy(corpus):
    cfg = HwConfig()
    hc = default_hw_coefficients()
    per_noise = {}
    for nv in NOISES:
        accs = []
        for record, truth in corpus[nv]:
            q, t16 = hw_model.chip_input(record, truth)
            events = hw_model.hw_detect_channel(q, cfg, hc)
            rep = metrics.score_events(events, t16, TOL_16K, skip_before=WARMUP_SAMPLES)
            accs.append(metrics.accuracy(rep))
        per_noise[nv] = float(np.mean(accs))
    return per_noise


def test_criterion_1_unit_identities():
    t0 = time.time()
    const_ok = bool(np.all(teo(np.full(1000, 2.5)) == 0.0))
    ramp = teo(np.arange(1000, dtype=float))
    ramp_ok = bool(np.all(ramp[1:-1] == 1.0) and ramp[0] == 0.0 and ramp[-1] == 0.0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=2000)
    worst = 0.0
    for a in (0.001, 0.37, 19.0):
        scaled = teo(a * x)[1:-1]
        ref = a * a * teo(x)[1:-1]
        denom = np.maximum(np.abs(ref), 1e-30)
        worst = max(worst, float(np.max(np.abs(scaled - ref) / denom)))
    elapsed = time.time() - t0
    check(
        1, "unit identities",
        const_ok and ramp_ok and worst < 1e-9 and elapsed < 1.0,
        f"constant/ramp exact, scale-covariance rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_estimator_convergence():
    t0 = time.time()
    rng = np.random.default_rng(775)
    s = smooth2(rng.standard_normal(1_000_000))
    traj = sigma_frames(s)
    n_frames = len(s) // FRAME_LEN
    skip = 256  # generous estimator settling window
    counts = [
        int(np.count_nonzero(s[f * FRAME_LEN:(f + 1) * FRAME_LEN] > traj[f]))
        for f in range(skip, n_frames)
    ]
    mean_count = float(np.mean(counts))
    # independent Monte Carlo quantile oracle
    oracle_rng = np.random.default_rng(99175)
    oracle = float(np.quantile(smooth2(oracle_rng.standard_normal(1_000_000)), 1 - 20 / 256))
    sigma_mean = float(np.mean(traj[skip:]))
    rel = abs(sigma_mean - oracle) / oracle
    elapsed = time.time() - t0
    check(
        2, "estimator convergence",
        17.0 <= mean_count <= 23.0 and rel < 0.10 and elapsed < 10.0,
        f"count mean {mean_count:.2f} (target 20 +- 3), sigma {sigma_mean:.4f} vs "
        f"quantile {oracle:.4f} ({100 * rel:.1f}%), {elapsed:.1f}s",
    )


def test_criterion_3_scheduler_transparency():
    t0 = time.time()
    cfg = HwConfig()  # full 256 channels
    hc = default_hw_coefficients()
    rng = np.random.default_rng(31337)
    n_scans = 6000
    stream = rng.integers(-64, 64, size=(n_scans, cfg.channels))
    events, crossings = hw_model.hw_detect_multichannel(
        stream, cfg, hc, return_crossings=True
    )
    # the sample-serial, block-scheduled engine is the bit-exact reference
    serial_events, serial_crossings = serial_detect_multichannel(stream, cfg, hc)
    mismatches = 0
    for ch in range(cfg.channels):
        if events[ch] != serial_events[ch] or not np.array_equal(crossings[ch], serial_crossings[ch]):
            mismatches += 1
        q = hw_model.QuantizedRecord(
            codes=stream[:, ch], format=cfg.input_format, rate_hz=cfg.rate_hz, channel_id=ch
        )
        prep = hw_model.prepare_hw_dual(q, cfg)
        expect = detector.finish_dual(prep, hc)
        cx, cs = detector.dual_crossing_streams(prep, hc)
        if events[ch] != expect or not np.array_equal(crossings[ch], cx | cs):
            mismatches += 1
    elapsed = time.time() - t0
    check(
        3, "scheduler transparency",
        mismatches == 0 and elapsed < 30.0,
        f"{cfg.channels} random channel records bit-identical to the serial "
        f"engine and to per-channel runs (events and comparator streams), {elapsed:.1f}s",
    )


def test_criterion_4_fixed_point_closure():
    # proved from the register map for every input (test_register_map.py), not traced over the corpus
    chip = register_map.CHIP
    bound = register_map.sigma_bound(chip["halfsum"])
    float_bits, hw_bits = (
        register_map.threshold_bits(register_map.COEFFICIENT_SETS[grid], bound - 1)
        for grid in ("float grid", "hw grid")
    )
    overflowing = register_map.faults(chip)
    check(
        4, "fixed-point closure",
        not overflowing,
        f"raw energies {register_map.raw_energy_range(chip['input'])} and smoothed "
        f"{register_map.smoothed_energy_range(chip['input'])} fit at drops {register_map.DROPS}; "
        f"Q.10 sigma < {bound}; thresholds need {float_bits} (float grid) and {hw_bits} (hw grid) "
        f"of {chip['threshold'].total_bits} bits; registers that overflow: {sorted(overflowing)}",
    )


def test_criterion_5_float_accuracy(accuracy_table):
    dual = accuracy_table[DetectorKind.DUAL]
    mean_acc = float(np.mean([dual[nv] for nv in NOISES]))
    ok = mean_acc >= 0.97 and dual[0.2] >= 0.95
    check(
        5, "float-pipeline accuracy",
        ok,
        f"mean {100 * mean_acc:.2f}% (target >= 97%), "
        f"at noise 0.2 {100 * dual[0.2]:.2f}% (target >= 95%)",
    )


def test_criterion_6_hardware_gap(accuracy_table, hw_accuracy):
    dual = accuracy_table[DetectorKind.DUAL]
    float_mean = float(np.mean([dual[nv] for nv in NOISES]))
    hw_mean = float(np.mean([hw_accuracy[nv] for nv in NOISES]))
    gap = float_mean - hw_mean
    mid_gap = dual[0.1] - hw_accuracy[0.1]
    check(
        6, "hardware-model gap",
        gap <= 0.025 and mid_gap <= 0.025,
        f"float {100 * float_mean:.2f}% vs hw (7-bit, 16 kHz) {100 * hw_mean:.2f}%, "
        f"gap {100 * gap:.2f} points (target <= 2.5; at noise 0.1: {100 * mid_gap:.2f})",
    )


def test_criterion_7_ordering(accuracy_table):
    dual = accuracy_table[DetectorKind.DUAL]
    single = accuracy_table[DetectorKind.TEO_SINGLE]
    dominance = all(dual[nv] >= single[nv] for nv in NOISES)
    degraded = {
        kind: accuracy_table[kind][0.05] - accuracy_table[kind][0.2]
        for kind in (DetectorKind.AT, DetectorKind.DVT, DetectorKind.MAE)
    }
    baselines_drop = all(v >= 0.05 for v in degraded.values())
    dual_drop = dual[0.05] - dual[0.2]
    ok = dominance and baselines_drop and dual_drop <= 0.02
    check(
        7, "noise-sweep ordering",
        ok,
        f"dual>=single at every point: {dominance}; baseline drops "
        f"{ {k.value: f'{100 * v:.1f}' for k, v in degraded.items()} } (each >= 5); "
        f"dual drop {100 * dual_drop:.2f} points (<= 2)",
    )


def test_criterion_8_resolution_robustness(corpus):
    fc = default_float_coefficients()
    fmt = FixedPointFormat(total_bits=4)
    accs = []
    for record, truth in corpus[0.1]:
        coarse = dequantize(quantize_mid_tread(record, fmt, peak_full_scale(record)))
        events = detector.detect_dual(coarse, fc)
        rep = metrics.score_events(events, truth, TOL_24K, skip_before=WARMUP_SAMPLES)
        accs.append(metrics.accuracy(rep))
    mean_acc = float(np.mean(accs))
    check(
        8, "4-bit resolution robustness",
        mean_acc >= 0.90,
        f"dual at 4-bit input, noise 0.1: {100 * mean_acc:.2f}% (target >= 90%)",
    )


def test_criterion_9_metric_exactness():
    exact = metrics.accuracy(metrics.MatchReport(95, 2, 3)) == 0.95
    rng = np.random.default_rng(12)
    failures = 0
    for _ in range(300):
        n_tru = rng.integers(0, 7)
        n_det = rng.integers(0, 7)
        tru = np.unique(rng.integers(0, 300, size=n_tru))
        det = rng.integers(0, 300, size=n_det)
        tol = int(rng.integers(0, 30))
        rep = metrics.match_events(det.astype(np.int64), GroundTruth(spike_indices=tru), tol)
        identities = rep.tp + rep.fp == len(det) and rep.tp + rep.fn == len(tru)
        bounded = rep.tp <= optimal_tp(det.tolist(), tru.tolist(), tol)
        if not (identities and bounded):
            failures += 1
    check(
        9, "metric exactness",
        exact and failures == 0,
        f"accuracy(95,2,3)=0.95 exact; bookkeeping + assignment-oracle bound on 300 random matchings",
    )


def test_criterion_10_cli_determinism(tmp_path):
    cfg = {"duration_s": 1.2, "noise_level": 0.05, "seed": 8}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "axis": "noise_level", "points": [0.05, 0.1], "detectors": ["at", "dual"],
        "replicates": 1, "base_cfg": cfg,
    }))

    def run_all(root):
        root.mkdir()
        assert cli_main(["generate", "--config", str(cfg_path), "--out", str(root / "gen"), "--seed", "4"]) == 0
        record = root / "gen" / "noise0.05_seed4.f32"
        truth = root / "gen" / "noise0.05_seed4_truth.csv"
        assert cli_main([
            "detect", "--detector", "dual", "--record", str(record),
            "--truth", str(truth), "--out", str(root / "events.csv"),
        ]) == 0
        assert cli_main(["sweep", "--spec", str(spec_path), "--out", str(root / "sweep"), "--seed", "4"]) == 0
        assert cli_main([
            "calibrate", "--corpus", str(root / "gen"), "--out", str(root / "coeffs.txt"),
        ]) == 0
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    check(
        10, "CLI determinism",
        first == second,
        f"generate/detect/sweep/calibrate byte-identical across runs ({len(first)} files)",
    )
