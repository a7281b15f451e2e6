import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualteo.cli import main
from dualteo.dataio import GroundTruth, SyntheticConfig, generate, load_dataset, save_dataset
from dualteo.hw_model import HwConfig
from dualteo.signal_model import SignalRecord, save_record
from dualteo.threshold import WARMUP_SAMPLES, calibrate_coefficients, load_coefficients

TINY_CFG = {"duration_s": 1.2, "noise_level": 0.05, "seed": 6}


def write_tiny_dataset(tmp_path, name="demo", **overrides):
    cfg = SyntheticConfig(**{**TINY_CFG, **overrides})
    record, truth = generate(cfg)
    save_dataset(record, truth, cfg, tmp_path, name)
    return tmp_path / f"{name}.f32", tmp_path / f"{name}_truth.csv"


def write_empty_dataset(out_dir, name="empty"):
    """A 0-sample record with an empty truth file, as ``generate`` lays a dataset out."""
    cfg = SyntheticConfig(**TINY_CFG)
    record = SignalRecord(samples=np.zeros(0), rate_hz=cfg.rate_hz)
    truth = GroundTruth(spike_indices=np.zeros(0, dtype=np.int64))
    save_dataset(record, truth, cfg, out_dir, name)
    return out_dir / f"{name}.f32", out_dir / f"{name}_truth.csv"


def set_header_rate(record_path, rate: str) -> None:
    hdr = record_path.with_name(record_path.name + ".hdr")
    lines = hdr.read_text().splitlines()
    hdr.write_text("".join(
        (f"rate_hz={rate}" if ln.startswith("rate_hz=") else ln) + "\n" for ln in lines
    ))


def read_tree(root):
    return {
        p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestGenerateCommand:
    def test_writes_record_truth_manifest(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY_CFG))
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "noise0.05_seed6.f32",
            "noise0.05_seed6.f32.hdr",
            "noise0.05_seed6_truth.csv",
            "noise0.05_seed6.manifest.json",
        }

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY_CFG))
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg_path), "--out", str(out), "--seed", "9"])
        manifest = json.loads((out / "noise0.05_seed9.manifest.json").read_text())
        assert manifest["config"]["seed"] == 9

    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"nope": 1}))
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("seed", 1.5), ("n_templates", 2.5)])
    def test_non_integral_config_is_validation_error(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**TINY_CFG, key: value}))
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err

    # json writes and reads inf and nan as Infinity and NaN; 1e12 Hz would
    # ask for 14.9 GiB, 1e-9 s for no samples at all
    @pytest.mark.parametrize("key, value, message", [
        ("duration_s", math.inf, "duration_s must be a finite number"),
        ("noise_level", math.nan, "noise_level must be a finite number"),
        ("rate_hz", 1e12, "samples"),
        ("duration_s", 1e-9, "samples"),
        ("firing_rate_hz", True, "firing_rate_hz must be a finite number"),
    ])
    def test_hostile_config_value_is_validation_error(self, tmp_path, capsys, key, value, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**TINY_CFG, key: value}))
        out = tmp_path / "o"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_refused_by_name_before_any_work(self, tmp_path, capsys):
        # numpy's generator refused it inside generate, with a message naming no field
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY_CFG))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"axis": "noise_level", "points": [0.1], "detectors": ["at"],
                                         "replicates": 1, "base_cfg": {**TINY_CFG, "seed": -1}}))
        out = tmp_path / "o"
        for argv in (["generate", "--config", str(cfg_path), "--out", str(out), "--seed", "-1"],
                     ["sweep", "--spec", str(spec_path), "--out", str(out)]):
            assert main(argv) == 2
            assert "seed must be >= 0, got -1" in one_error_line(capsys)
            assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "x.json"), "--out", str(tmp_path)]) == 2

    def test_undecodable_config_names_its_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"seed": 1\xff}')
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: 'utf-8' codec can't decode")

    def test_non_object_config_is_validation_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("5")
        out = tmp_path / "o"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "must be a JSON object, got 5" in capsys.readouterr().err
        assert not out.exists()


class TestDetectCommand:
    def test_detect_with_truth_reports_accuracy(self, tmp_path, capsys):
        record_path, truth_path = write_tiny_dataset(tmp_path)
        out_csv = tmp_path / "events.csv"
        code = main([
            "detect", "--detector", "at",
            "--record", str(record_path), "--truth", str(truth_path),
            "--out", str(out_csv),
        ])
        assert code == 0
        assert out_csv.exists()
        assert "accuracy=" in capsys.readouterr().out

    def test_detect_prints_events_without_out(self, tmp_path, capsys):
        record_path, _ = write_tiny_dataset(tmp_path)
        assert main(["detect", "--detector", "at", "--record", str(record_path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "channel,sample_index"

    def test_unknown_detector_is_validation_error(self, tmp_path, capsys):
        record_path, _ = write_tiny_dataset(tmp_path)
        assert main(["detect", "--detector", "wavelet", "--record", str(record_path)]) == 2

    def test_missing_record_is_validation_error(self, tmp_path):
        assert main(["detect", "--detector", "at", "--record", str(tmp_path / "x.f32")]) == 2

    @pytest.mark.parametrize("args, named", [
        (["--detector", "wavelet"], "unknown detector 'wavelet'"),
        (["--detector", "at", "--hw"], "--hw supports only the dual detector"),
        (["--detector", "mae", "--coeffs", "missing.txt"], "--coeffs applies to the dual"),
        (["--detector", "teo_single", "--hw"], "--hw supports only the dual detector"),
        (["--detector", "dvt", "--coeffs", "missing.txt"], "--coeffs applies to the dual"),
    ], ids=["detector", "hw", "coeffs", "hw-teo_single", "coeffs-dvt"])
    def test_conflicting_arguments_are_refused_before_any_file_is_read(self, tmp_path, capsys, args, named):
        # neither the record nor the truth exists: the argument at fault is named first
        missing = ["--record", str(tmp_path / "x.f32"), "--truth", str(tmp_path / "t.csv")]
        assert main(["detect", *args, *missing]) == 2
        assert named in capsys.readouterr().err

    def test_hw_requires_dual(self, tmp_path, capsys):
        record_path, _ = write_tiny_dataset(tmp_path)
        assert main(["detect", "--detector", "at", "--record", str(record_path), "--hw"]) == 2

    def test_custom_coefficients_file(self, tmp_path, capsys):
        record_path, truth_path = write_tiny_dataset(tmp_path)
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text("c1 1 0\nc2 1 1\nc3 0 0\n")
        code = main([
            "detect", "--detector", "dual", "--record", str(record_path),
            "--truth", str(truth_path), "--coeffs", str(coeffs),
        ])
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out

    def test_coeffs_rejected_for_baselines(self, tmp_path):
        record_path, _ = write_tiny_dataset(tmp_path)
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text("c1 1 0\nc2 0 0\nc3 0 0\n")
        assert main([
            "detect", "--detector", "at", "--record", str(record_path),
            "--coeffs", str(coeffs),
        ]) == 2

    def test_empty_record_detects_nothing_on_both_pipelines(self, tmp_path, capsys):
        record, truth = write_empty_dataset(tmp_path)
        outputs = []
        for hw in ([], ["--hw"]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the record does not outlast the warm-up
                code = main(["detect", "--detector", "dual", "--record", str(record), "--truth", str(truth), *hw])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1] == (0, "channel,sample_index\ntp=0 fp=0 fn=0 accuracy=1.0000\n")

    def test_hw_dual_runs(self, tmp_path, capsys):
        # long enough to clear the warm-up at 16 kHz
        record_path, truth_path = write_tiny_dataset(tmp_path, duration_s=2.0)
        code = main([
            "detect", "--detector", "dual", "--hw",
            "--record", str(record_path), "--truth", str(truth_path),
        ])
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_non_finite_header_rate_is_validation_error(self, tmp_path, capsys, rate):
        record_path, _ = write_tiny_dataset(tmp_path)
        set_header_rate(record_path, rate)
        for hw in ([], ["--hw"]):
            assert main(["detect", "--detector", "dual", "--record", str(record_path), *hw]) == 2
            assert "rate_hz" in capsys.readouterr().err

    def test_tiny_header_rate(self, tmp_path, capsys):
        # a positive, finite rate is valid, but resampling it to 16 kHz
        # would need an infinite number of samples
        record_path, _ = write_tiny_dataset(tmp_path)
        set_header_rate(record_path, "1e-300")
        assert main(["detect", "--detector", "dual", "--record", str(record_path)]) == 0
        capsys.readouterr()
        assert main(["detect", "--detector", "dual", "--hw", "--record", str(record_path)]) == 2
        assert "non-finite length" in capsys.readouterr().err

    def test_resample_past_max_samples_is_refused_before_allocating(self, tmp_path, capsys, monkeypatch):
        # 24 samples at 0.01 Hz would resample to 38.4 M samples at 16 kHz
        record_path = tmp_path / "slow.f32"
        save_record(SignalRecord(np.linspace(-1.0, 1.0, 24), rate_hz=0.01), record_path)
        arange = np.arange

        def small_arange(*args, **kwargs):
            assert all(abs(a) < 1e6 for a in args), f"np.arange{args} allocates too much"
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", small_arange)
        assert main(["detect", "--detector", "dual", "--hw", "--record", str(record_path)]) == 2
        assert "more than 33554432" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["dual", "at", "dvt", "mae", "teo_single"])
    def test_huge_header_rate_still_scores(self, tmp_path, capsys, kind):
        # the 1 ms window, 1e27 samples long, is clamped to the record length
        record_path, truth_path = write_tiny_dataset(tmp_path)
        set_header_rate(record_path, "1e30")
        assert main([
            "detect", "--detector", kind, "--record", str(record_path), "--truth", str(truth_path),
        ]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("tp=")

    @pytest.mark.parametrize("truth, coeffs, message", [
        (f"{2**70}\n", None, "outside int64"),
        (f"5,{2**70}\n", None, "outside int64"),
        (None, f"c1 {2**100} 0\nc2 0 0\nc3 0 0\n", "overflow the int64"),
        (None, f"c1 1 {2**70}\nc2 0 0\nc3 0 0\n", "0..63"),
        # at sigma_q = 2**14 this wrapped to thr_s = 0 instead of about 9.2e18
        (None, f"c1 1 0\nc2 0 0\nc3 {2**45} 0\n", "overflow the int64"),
        # the last c1 used to win silently
        (None, "c1 1 0\nc2 0 0\nc3 0 0\nc1 3 0\n", "coeffs.txt:4: repeated coefficient 'c1'"),
    ], ids=["truth-index-2**70", "template-id-2**70", "numerator-2**100", "shift-2**70",
            "c3-2**45", "repeated-c1"])
    def test_hostile_truth_or_coefficients_is_validation_error(self, tmp_path, capsys, truth, coeffs,
                                                               message):
        record_path, truth_path = write_tiny_dataset(tmp_path, duration_s=2.0)
        argv = ["detect", "--detector", "dual", "--record", str(record_path), "--truth", str(truth_path)]
        if truth is not None:
            truth_path.write_text(truth)
        if coeffs is not None:
            (tmp_path / "coeffs.txt").write_text(coeffs)
            argv += ["--coeffs", str(tmp_path / "coeffs.txt")]
        for hw in ([], ["--hw"]):
            assert main(argv + hw) == 2
            assert message in capsys.readouterr().err

    def test_truth_beyond_the_record_is_refused_on_both_pipelines(self, tmp_path, capsys):
        # detect scored 2 misses and detect --hw 1: the chip's input stage clipped both onto its last code
        record_path, truth_path = write_tiny_dataset(tmp_path, duration_s=1.0)
        argv = ["detect", "--detector", "dual", "--record", str(record_path), "--truth", str(truth_path)]
        truth_path.write_text("30000\n99999\n")
        for hw in ([], ["--hw"]):
            assert main(argv + hw) == 2
            message = f"error: {truth_path}:1: spike index 30000 lies beyond the record's 24000 samples"
            assert message in one_error_line(capsys)
        truth_path.write_text("23999\n")  # the last sample is inside
        for hw in ([], ["--hw"]):
            assert main(argv + hw) == 0
            assert "fn=1 " in capsys.readouterr().out

    def test_repeated_header_key_is_validation_error(self, tmp_path, capsys):
        # the second rate used to override the first silently
        record_path, _ = write_tiny_dataset(tmp_path)
        hdr = record_path.with_name(record_path.name + ".hdr")
        hdr.write_text(hdr.read_text() + "rate_hz=16000.0\n")
        for hw in ([], ["--hw"]):
            assert main(["detect", "--detector", "dual", "--record", str(record_path), *hw]) == 2
            assert f"{hdr}:5: repeated header key 'rate_hz'" in capsys.readouterr().err


def one_error_line(capsys) -> str:
    """The one ``error:`` line a refused command printed, after checking that it printed nothing else."""
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
    return err


# command, the output path to give it, and the path its error must name;
# "dir" is an existing directory and "file" an existing file
OUTPUT_CASES = {
    "detect-out-directory": ("detect", "dir", "dir"),
    "detect-out-missing-parent": ("detect", "missing/events.csv", "missing"),
    "calibrate-out-directory": ("calibrate", "dir", "dir"),
    "calibrate-out-missing-parent": ("calibrate", "missing/coeffs.txt", "missing"),
    "generate-out-existing-file": ("generate", "file", "file"),
    "generate-out-under-a-file": ("generate", "file/sub", "file"),
    "sweep-out-existing-file": ("sweep", "file", "file"),
}


@pytest.mark.parametrize("command, out, named", OUTPUT_CASES.values(), ids=OUTPUT_CASES.keys())
def test_unusable_output_path_exits_2_naming_it_before_any_work(tmp_path, capsys, command, out, named):
    record_path, _ = write_tiny_dataset(tmp_path / "corpus")
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "cfg.json").write_text(json.dumps(TINY_CFG))
    (tmp_path / "spec.json").write_text(json.dumps(
        {"axis": "noise_level", "points": [0.1], "detectors": ["at"], "replicates": 1, "base_cfg": TINY_CFG}
    ))
    inputs = {
        "detect": ["--detector", "dual", "--record", str(record_path)],
        "calibrate": ["--corpus", str(tmp_path / "corpus")],
        "generate": ["--config", str(tmp_path / "cfg.json")],
        "sweep": ["--spec", str(tmp_path / "spec.json")],
    }
    before = read_tree(tmp_path)
    assert main([command, *inputs[command], "--out", str(tmp_path / out)]) == 2
    assert str(tmp_path / named) in one_error_line(capsys)
    assert read_tree(tmp_path) == before  # nothing written


@pytest.mark.parametrize("payload", [".f32", ".csv"])
def test_bad_header_value_names_its_header_line(tmp_path, capsys, payload):
    record_path = tmp_path / f"rec{payload}"
    save_record(SignalRecord(samples=np.zeros(8), rate_hz=16000.0), record_path)
    set_header_rate(record_path, "inf")
    assert main(["detect", "--detector", "dual", "--record", str(record_path)]) == 2
    assert f"error: {record_path}.hdr:1: rate_hz must be positive and finite, got inf" in one_error_line(capsys)


def test_non_finite_csv_sample_names_its_line(tmp_path, capsys):
    record_path = tmp_path / "rec.csv"
    save_record(SignalRecord(samples=np.zeros(3), rate_hz=16000.0), record_path)
    record_path.write_text("0.0\n# a comment\n0.5\nnan\n")
    assert main(["detect", "--detector", "dual", "--record", str(record_path)]) == 2
    assert f"error: {record_path}:4: samples must all be finite" in one_error_line(capsys)


def test_non_finite_f32_sample_names_its_file(tmp_path, capsys):
    record_path = tmp_path / "rec.f32"
    save_record(SignalRecord(samples=np.zeros(3), rate_hz=16000.0), record_path)
    np.array([0.0, np.inf, 0.0], dtype="<f4").tofile(record_path)
    assert main(["detect", "--detector", "dual", "--record", str(record_path)]) == 2
    assert f"error: {record_path}: samples must all be finite" in one_error_line(capsys)


@pytest.mark.parametrize("text, lineno, message", [
    ("5\n3\n", 2, "spike indices must be strictly increasing"),
    ("# truth\n1\n\n4\n4\n", 5, "spike indices must be strictly increasing"),
    ("-2\n3\n", 1, "spike indices must be non-negative"),
])
def test_bad_truth_names_its_line(tmp_path, capsys, text, lineno, message):
    record_path, truth_path = write_tiny_dataset(tmp_path)
    truth_path.write_text(text)
    assert main(["detect", "--detector", "dual", "--record", str(record_path), "--truth", str(truth_path)]) == 2
    assert f"error: {truth_path}:{lineno}: {message}" in one_error_line(capsys)


class TestSweepCommand:
    def test_writes_csv_and_plot_script(self, tmp_path):
        spec = {
            "axis": "noise_level",
            "points": [0.05, 0.2],
            "detectors": ["at"],
            "replicates": 1,
            "base_cfg": TINY_CFG,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
        text = (out / "sweep_results.csv").read_text()
        assert text.startswith("axis,point,detector,mean_accuracy")
        assert len(text.strip().splitlines()) == 3
        assert (out / "plot_sweep.py").exists()

    def test_bad_axis_is_validation_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"axis": "voltage", "points": [1], "detectors": ["at"]}))
        assert main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("axis, point", [
        ("resolution_bits", 1),
        ("resolution_bits", 40),
        ("resolution_bits", 6.5),
        ("rate_hz", 0),
        ("rate_hz", -1.0),
    ])
    def test_bad_point_is_validation_error(self, tmp_path, capsys, axis, point):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "axis": axis, "points": [point], "detectors": ["at"], "replicates": 1,
            "base_cfg": TINY_CFG,
        }))
        assert main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert f"{axis} points" in capsys.readouterr().err

    # none of these points reaches resample: the spec rejects them first
    @pytest.mark.parametrize("overrides, message", [
        ({"points": [0.1, 0.1]}, "sorted and distinct"),
        ({"detectors": ["at", "at"]}, "detectors must be distinct"),
        ({"replicates": 1.5}, "replicates must be an integer"),
        ({"axis": "rate_hz", "points": [48000.0]}, "rate_hz points must lie in (0, 24000]"),
        ({"axis": "rate_hz", "points": [1e300]}, "rate_hz points must lie in (0, 24000]"),
    ], ids=["duplicate-points", "duplicate-detectors", "fractional-replicates",
            "rate-above-base", "rate-1e300"])
    def test_bad_spec_is_validation_error(self, tmp_path, capsys, overrides, message):
        spec = {
            "axis": "noise_level", "points": [0.1], "detectors": ["at"], "replicates": 1,
            "base_cfg": TINY_CFG, **overrides,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"tolerance_ms": -5}, "tolerance_ms must be a finite number >= 0"),
        ({"tolerance_ms": math.nan}, "tolerance_ms must be a finite number >= 0"),
        ({"replicates": True}, "replicates must be an integer"),
        ({"points": ["0.1"]}, "sweep points must be finite numbers"),
        ({"points": [True]}, "sweep points must be finite numbers"),
        ({"points": [0.1, math.inf]}, "sweep points must be finite numbers"),
        ({"base_cfg": {**TINY_CFG, "duration_s": math.inf}}, "duration_s must be a finite number"),
        ({"base_cfg": {**TINY_CFG, "rate_hz": 1e12}}, "samples"),
    ], ids=["negative-tolerance", "nan-tolerance", "bool-replicates", "string-point",
            "bool-point", "infinite-point", "infinite-duration", "huge-rate"])
    def test_hostile_spec_value_is_validation_error(self, tmp_path, capsys, overrides, message):
        spec = {
            "axis": "noise_level", "points": [0.1], "detectors": ["at"], "replicates": 1,
            "base_cfg": TINY_CFG, **overrides,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "o"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        ([], "must be a JSON object, got []"),
        ({"axis": "noise_level", "points": [0.1], "detectors": ["at"], "base_cfg": 5},
         "synthetic config must be a JSON object, got 5"),
        ({"axis": "noise_level", "points": [0.1], "detectors": ["at"], "base_cfg": [["x"]]},
         'synthetic config must be a JSON object, got [["x"]]'),
    ], ids=["list-spec", "number-base-cfg", "nested-list-base-cfg"])
    def test_non_object_spec_is_validation_error(self, tmp_path, capsys, spec, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "o"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("seed", 1.5), ("n_templates", 2.5)])
    def test_non_integral_base_config_is_validation_error(self, tmp_path, capsys, key, value):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "axis": "noise_level", "points": [0.1], "detectors": ["at"], "replicates": 1,
            "base_cfg": {**TINY_CFG, key: value},
        }))
        assert main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_calibrates_tiny_corpus(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path / "corpus", "a")
        out = tmp_path / "coeffs.txt"
        assert main(["calibrate", "--corpus", str(tmp_path / "corpus"), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("c1 ")

    def test_empty_corpus_is_validation_error(self, tmp_path, capsys):
        (tmp_path / "corpus").mkdir()
        assert main(["calibrate", "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "c.txt")]) == 2

    def test_huge_header_rate_calibrates(self, tmp_path, capsys):
        # a 1 ms gap of 1e297 samples must not size the crossing maps
        record_path, _ = write_tiny_dataset(tmp_path / "corpus", "a")
        set_header_rate(record_path, "1e300")
        out = tmp_path / "coeffs.txt"
        assert main(["calibrate", "--corpus", str(tmp_path / "corpus"), "--out", str(out)]) == 0
        assert out.read_text().startswith("c1 ")

    def test_empty_record_calibrates_on_both_pipelines(self, tmp_path, capsys):
        # every candidate scores the empty record 1.0, so the tie-break picks
        # the same one-term candidate from either grid
        write_empty_dataset(tmp_path / "corpus")
        written = []
        for pipeline in ("float", "hw"):
            out = tmp_path / f"{pipeline}.txt"
            assert main(["calibrate", "--corpus", str(tmp_path / "corpus"), "--out", str(out),
                         "--pipeline", pipeline]) == 0
            written.append(out.read_text())
        assert written[0] == written[1] == "c1 1 0\nc2 0 0\nc3 0 0\n"

    def test_search_drops_prints_every_pair_and_writes_the_best(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path / "corpus", "a")
        out = tmp_path / "c.txt"
        assert main(["calibrate", "--corpus", str(tmp_path / "corpus"), "--out", str(out),
                     "--pipeline", "hw", "--search-drops"]) == 0
        lines = capsys.readouterr().out.splitlines()
        pairs = [f"x>>{x} s>>{s}" for x in (6, 7, 8) for s in (5, 6, 7)]
        assert [ln.partition(": accuracy ")[0] for ln in lines[:9]] == [f"drops {p}" for p in pairs]
        assert all(re.fullmatch(r"drops .*: accuracy [01]\.\d{4}", ln) for ln in lines[:9])
        best = [ln.removeprefix("best drops: ") for ln in lines if ln.startswith("best drops")]
        assert len(best) == 1 and best[0] in pairs
        # the file is the calibration at the printed pair
        xdrop, sdrop = (int(part.split(">>")[1]) for part in best[0].split())
        training = [load_dataset(tmp_path / "corpus", "a")]
        cfg = HwConfig(xteo_drop_lsbs=xdrop, steo_drop_lsbs=sdrop)
        assert load_coefficients(out) == calibrate_coefficients(training, pipeline="hw", hw_cfg=cfg)

    def test_search_drops_requires_hw_pipeline(self, tmp_path):
        write_tiny_dataset(tmp_path / "corpus", "a")
        code = main([
            "calibrate", "--corpus", str(tmp_path / "corpus"),
            "--out", str(tmp_path / "c.txt"), "--search-drops",
        ])
        assert code == 2

    def test_search_drops_conflict_is_refused_before_the_corpus_is_read(self, tmp_path, capsys):
        (tmp_path / "corpus").mkdir()
        code = main([
            "calibrate", "--corpus", str(tmp_path / "corpus"),
            "--out", str(tmp_path / "c.txt"), "--search-drops",
        ])
        assert code == 2
        assert "--search-drops applies to the hw pipeline only" in capsys.readouterr().err

    def test_search_drops_conflict_is_refused_before_the_corpus_directory_is_checked(self, tmp_path, capsys):
        code = main([
            "calibrate", "--corpus", str(tmp_path / "missing"),
            "--out", str(tmp_path / "c.txt"), "--search-drops", "--pipeline", "float",
        ])
        assert code == 2
        assert "--search-drops applies to the hw pipeline only" in capsys.readouterr().err


class TestDeterminism:
    def test_generate_twice_is_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY_CFG))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", str(cfg_path), "--out", str(out_a), "--seed", "3"])
        main(["generate", "--config", str(cfg_path), "--out", str(out_b), "--seed", "3"])
        assert read_tree(out_a) == read_tree(out_b)

    def test_sweep_twice_is_byte_identical(self, tmp_path):
        spec = {
            "axis": "noise_level",
            "points": [0.05, 0.1],
            "detectors": ["at", "mae"],
            "replicates": 2,
            "base_cfg": TINY_CFG,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--spec", str(spec_path), "--out", str(out_a), "--seed", "5"])
        main(["sweep", "--spec", str(spec_path), "--out", str(out_b), "--seed", "5"])
        assert read_tree(out_a) == read_tree(out_b)

# ---------------------------------------------------------------------------
# Fuzzing: drawn JSON configs end in exit 0 or 2, never a traceback
# ---------------------------------------------------------------------------

# wrong types, non-finite values, negatives, huge values, bools and nesting;
# json writes inf and nan as Infinity and NaN and reads them back
HOSTILE = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from([math.inf, -math.inf, math.nan, -1.0, 0.0, -1e300, 1e300, 1e-300, 2**64, -(2**63)]),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(min_value=-3, max_value=3), min_size=1, max_size=1),
)

# valid values are drawn small: a record holds at most 0.05 s * 48 kHz = 2400
# samples, so huge sizes appear only as hostile values, which the MAX_SAMPLES
# cap and the other bounds must reject before anything is allocated
SMALL_CONFIG_FIELDS = {
    "duration_s": st.floats(min_value=1e-4, max_value=0.05),
    "rate_hz": st.floats(min_value=100.0, max_value=48000.0),
    "noise_level": st.floats(min_value=0.0, max_value=2.0),
    "firing_rate_hz": st.floats(min_value=1.0, max_value=200.0),
    "n_templates": st.integers(min_value=2, max_value=5),
    "min_isi_s": st.floats(min_value=0.0, max_value=0.004),
    "seed": st.integers(min_value=0, max_value=2**64),
}


def mostly(valid, hostile=HOSTILE):
    """A value from ``valid`` three times in four, else a hostile one."""
    return st.integers(min_value=0, max_value=3).flatmap(lambda i: hostile if i == 3 else valid)


def config_objects(required=()):
    """Synthetic-config JSON objects: the ``required`` keys always, the others
    optionally, each value valid-and-small or hostile."""
    fields = {k: mostly(v) for k, v in SMALL_CONFIG_FIELDS.items()}
    return st.fixed_dictionaries(
        {k: fields[k] for k in required},
        optional={k: v for k, v in fields.items() if k not in required},
    )


AXIS_POINTS = {
    "noise_level": st.floats(min_value=0.0, max_value=1.0),
    "resolution_bits": st.integers(min_value=2, max_value=32),
    "rate_hz": st.floats(min_value=100.0, max_value=48000.0),
}
DETECTOR_NAMES = st.sampled_from(["dual", "at", "dvt", "mae", "teo_single"])
# a huge replicate count is valid and would only run long
HOSTILE_COUNT = HOSTILE.filter(lambda v: isinstance(v, bool) or not isinstance(v, int) or v < 3)


def sweep_specs(axis):
    """Sweep-spec JSON objects around one axis; the base record holds at most
    2400 samples unless a hostile ``base_cfg`` is rejected."""
    points = AXIS_POINTS[axis]
    return st.fixed_dictionaries(
        {
            "axis": mostly(st.just(axis)),
            "points": mostly(
                st.lists(points, min_size=1, max_size=3, unique=True).map(sorted),
                st.lists(points | HOSTILE, max_size=3) | HOSTILE,
            ),
            "detectors": mostly(
                st.lists(DETECTOR_NAMES, min_size=1, max_size=3, unique=True),
                st.lists(DETECTOR_NAMES | HOSTILE, max_size=3) | HOSTILE,
            ),
            "base_cfg": mostly(config_objects(required=("duration_s",))),
        },
        optional={
            "replicates": mostly(st.integers(min_value=1, max_value=2), HOSTILE_COUNT),
            "tolerance_ms": mostly(st.floats(min_value=0.0, max_value=5.0)),
        },
    )


def run_drawn(command, flag, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return main([command, flag, str(path), "--out", str(Path(tmp) / "out")])


TINY_FUZZ_CFG = {"duration_s": 0.01, "rate_hz": 16000.0}


@given(config_objects())
# each of these hung or passed unchecked before its bound existed
@example({**TINY_FUZZ_CFG, "n_templates": 2**64})
@example({**TINY_FUZZ_CFG, "firing_rate_hz": 1e300, "min_isi_s": 0.0})
@example({"duration_s": 1e300, "rate_hz": 1e-300, "firing_rate_hz": 1e-300})
@example({**TINY_FUZZ_CFG, "min_isi_s": -1e300})
@settings(max_examples=150, deadline=None)
def test_fuzzed_generate_config_exits_0_or_2(data):
    assert run_drawn("generate", "--config", data) in (0, 2)


@given(st.sampled_from(sorted(AXIS_POINTS)).flatmap(sweep_specs))
@example({"axis": "noise_level", "points": [0.1], "detectors": ["at"], "replicates": 1,
          "tolerance_ms": 1e300, "base_cfg": TINY_FUZZ_CFG})
@example({"axis": "rate_hz", "points": [1e-300], "detectors": ["dual", "mae"], "replicates": 1,
          "base_cfg": TINY_FUZZ_CFG})
@settings(max_examples=150, deadline=None)
def test_fuzzed_sweep_spec_exits_0_or_2(data):
    assert run_drawn("sweep", "--spec", data) in (0, 2)


# ---------------------------------------------------------------------------
# Fuzzing: drawn record headers, truth files and coefficient files through
# detect, float and --hw, end in exit 0 or 2
# ---------------------------------------------------------------------------

# a record that outlasts the warm-up at 24 kHz and, resampled, at 16 kHz
FUZZ_RECORD, FUZZ_TRUTH = generate(SyntheticConfig(duration_s=0.3, noise_level=0.1, seed=3))
HOSTILE_RATES = st.sampled_from(["inf", "nan", "-1", "0", "1e-300", "0.01", "1e308", "x", ""])
HOSTILE_INTS = st.sampled_from(["-1", "1.5", "x", "", str(2**70)])


def header_values(hw, n_samples=len(FUZZ_RECORD)):
    """Header values of the fuzzed record, or of its first ``n_samples``.  A
    valid ``--hw`` rate is at least 2304 Hz, so an accepted resample holds at
    most 50,000 samples; the hostile rates that would upsample further are
    refused before allocating."""
    rate = st.floats(min_value=2304.0 if hw else 1.0, max_value=1e30)
    return st.fixed_dictionaries({
        "rate_hz": mostly(rate.map(repr), HOSTILE_RATES),
        "channel_id": mostly(st.integers(min_value=0, max_value=3).map(str), HOSTILE_INTS),
        "n_samples": mostly(st.just(str(n_samples)), HOSTILE_INTS),
    })


TRUTH_LINES = st.integers(min_value=0, max_value=10_000).map(str) | st.sampled_from(
    [str(2**70), f"5,{2**70}", "-1", "x", "1,2,3", "3.5", str(2**63 - 1), str(2**63), "7,-1"])


def own_truth(n_samples, extra=st.just([])):
    """The truth of the record's first ``n_samples``, with or without
    template ids, and ``extra`` lines after it."""
    def text(tids, lines):
        own = [f"{i},{t}" if tids else str(i)
               for i, t in zip(FUZZ_TRUTH.spike_indices.tolist(), FUZZ_TRUTH.template_ids.tolist())
               if i < n_samples]
        return "\n".join(own + lines) + "\n"
    return st.builds(text, st.booleans(), extra)


def truth_texts(n_samples=len(FUZZ_RECORD)):
    """The record's own truth plus drawn lines after it, drawn lines alone, or no file."""
    drawn = st.lists(TRUTH_LINES, max_size=3).map(lambda lines: "\n".join(lines) + "\n")
    return st.none() | mostly(own_truth(n_samples, st.lists(TRUTH_LINES, max_size=2)), drawn)


NUMERATORS = mostly(st.sampled_from([0, 1, 3, -1, -3, 12, (1 << 20) | 1, 1 << 45]),
                    st.sampled_from([2**100, 2**46, -(2**63), 7, "x"]))
SHIFTS = mostly(st.integers(min_value=0, max_value=12), st.sampled_from([2**70, 64, 63, -1, "y"]))


def coefficient_texts():
    """Coefficient files of three drawn lines, the last one sometimes missing."""
    line = st.tuples(NUMERATORS, SHIFTS).map(lambda ns: f"{ns[0]} {ns[1]}")
    lines = st.tuples(line, line, line).map(lambda ls: [f"c{i} {v}\n" for i, v in enumerate(ls, start=1)])
    return st.none() | st.builds(lambda ls, keep: "".join(ls[:keep]), lines, st.sampled_from([3, 3, 3, 2]))


def detect_inputs():
    return st.booleans().flatmap(lambda hw: st.fixed_dictionaries({
        "hw": st.just(hw),
        "header": header_values(hw),
        "truth": truth_texts(),
        "coeffs": coefficient_texts(),
    }))


def run_detect(data):
    with tempfile.TemporaryDirectory() as tmp:
        record_path = Path(tmp) / "rec.f32"
        FUZZ_RECORD.samples.astype("<f4").tofile(record_path)
        record_path.with_name("rec.f32.hdr").write_text(
            "".join(f"{k}={v}\n" for k, v in data["header"].items()))
        argv = ["detect", "--detector", "dual", "--record", str(record_path)]
        for flag, name in (("--truth", "truth"), ("--coeffs", "coeffs")):
            if data[name] is not None:
                (Path(tmp) / name).write_text(data[name])
                argv += [flag, str(Path(tmp) / name)]
        if data["hw"]:
            argv.append("--hw")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return main(argv)


VALID_HEADER = {"rate_hz": "24000.0", "channel_id": "0", "n_samples": str(len(FUZZ_RECORD))}


@given(detect_inputs())
# each of these raised OverflowError, wrapped silently or ran out of memory
@example({"hw": False, "header": {**VALID_HEADER, "rate_hz": "1e30"}, "truth": "5000\n", "coeffs": None})
@example({"hw": False, "header": VALID_HEADER, "truth": f"{2**70}\n", "coeffs": None})
@example({"hw": False, "header": VALID_HEADER, "truth": f"5,{2**70}\n", "coeffs": None})
@example({"hw": True, "header": VALID_HEADER, "truth": None, "coeffs": f"c1 {2**100} 0\nc2 0 0\nc3 0 0\n"})
@example({"hw": True, "header": VALID_HEADER, "truth": None, "coeffs": f"c1 1 {2**70}\nc2 0 0\nc3 0 0\n"})
@example({"hw": True, "header": VALID_HEADER, "truth": None, "coeffs": f"c1 1 0\nc2 0 0\nc3 {2**45} 0\n"})
@example({"hw": True, "header": {**VALID_HEADER, "rate_hz": "0.01"}, "truth": None, "coeffs": None})
@settings(max_examples=150, deadline=None)
def test_fuzzed_detect_inputs_exit_0_or_2(data):
    assert run_detect(data) in (0, 2)


# ---------------------------------------------------------------------------
# Fuzzing: drawn sample lines of a CSV record through detect, float and
# --hw, end in exit 0 or 2
# ---------------------------------------------------------------------------

FUZZ_LINES = [repr(v) for v in FUZZ_RECORD.samples.tolist()]
SAMPLE_LINES = st.floats().map(repr) | st.text(max_size=4) | st.sampled_from(
    ["1_000", "\u0661\u0662\u0663", "nan", "-inf", "0x1p3", "1e308", "-1e308", "1e-320", "1,2", " 7 ", ""])


def csv_record_lines():
    """The fuzz record's sample lines with a few replaced by drawn ones, or drawn lines alone."""
    def replaced(edits):
        lines = list(FUZZ_LINES)
        for i, line in edits:
            lines[i] = line
        return lines
    edits = st.lists(st.tuples(st.integers(0, len(FUZZ_LINES) - 1), SAMPLE_LINES), max_size=4)
    return mostly(edits.map(replaced), st.lists(SAMPLE_LINES, max_size=5))


def csv_detect_inputs():
    """A CSV record's lines, with a header whose ``n_samples`` counts them as the loader does."""
    def inputs(hw, lines):
        n_samples = sum(1 for line in "\n".join(lines).splitlines() if line.strip())
        return st.fixed_dictionaries({
            "hw": st.just(hw),
            "detector": st.just("dual") if hw else DETECTOR_NAMES,
            "header": header_values(hw, n_samples),
            "lines": st.just(lines),
        })
    return st.tuples(st.booleans(), csv_record_lines()).flatmap(lambda drawn: inputs(*drawn))


def run_detect_csv(data):
    with tempfile.TemporaryDirectory() as tmp:
        record_path = Path(tmp) / "rec.csv"
        record_path.write_text("\n".join(data["lines"]) + "\n", encoding="utf-8")
        record_path.with_name("rec.csv.hdr").write_text(
            "".join(f"{k}={v}\n" for k, v in data["header"].items()))
        argv = ["detect", "--detector", data["detector"], "--record", str(record_path)]
        if data["hw"]:
            argv.append("--hw")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return main(argv)


def counted_header(lines):
    return {**VALID_HEADER, "n_samples": str(len(lines))}


@given(csv_detect_inputs())
# ``float`` parses underscores and other scripts' digits (exit 0); a NaN
# sample is refused, and so is hex, which ``float`` does not parse (exit 2)
@example({"hw": False, "detector": "dual", "header": VALID_HEADER, "lines": ["1_000"] + FUZZ_LINES[1:]})
@example({"hw": True, "detector": "dual", "header": VALID_HEADER, "lines": ["\u0661\u0662\u0663"] + FUZZ_LINES[1:]})
@example({"hw": False, "detector": "dual", "header": VALID_HEADER, "lines": ["nan"] + FUZZ_LINES[1:]})
@example({"hw": False, "detector": "dual", "header": VALID_HEADER, "lines": ["0x1p3"] + FUZZ_LINES[1:]})
# finite samples whose resample overflows to inf (exit 2)
@example({"hw": True, "detector": "dual", "header": counted_header(["1e308", "-1e308", "1e308"]),
          "lines": ["1e308", "-1e308", "1e308"]})
@settings(max_examples=150, deadline=None)
def test_fuzzed_csv_record_exits_0_or_2(data):
    assert run_detect_csv(data) in (0, 2)


# ---------------------------------------------------------------------------
# Fuzzing: drawn corpora through calibrate, float and hw, end in exit 0 or 2
# ---------------------------------------------------------------------------

# sample counts: empty, shorter than one frame, exactly the warm-up, the whole record
CORPUS_LENGTHS = st.sampled_from([0, 1, WARMUP_SAMPLES, len(FUZZ_RECORD)]) | st.integers(0, len(FUZZ_RECORD))


def corpus_datasets(hw):
    """One dataset of a calibrate corpus: the first samples of the fuzz
    record with a valid header and its own truth three times in four, else
    with every file drawn: trailing bytes or no record file, and drawn
    header values, truth and manifest text."""
    def dataset(n):
        valid = st.fixed_dictionaries({
            "samples": st.just(n),
            "trailing": st.just(0),
            "record": st.just(True),
            "header": st.fixed_dictionaries({
                "rate_hz": st.floats(min_value=2304.0 if hw else 1.0, max_value=1e30).map(repr),
                "channel_id": st.integers(min_value=0, max_value=3).map(str),
                "n_samples": st.just(str(n)),
            }),
            "truth": own_truth(n),
            "manifest": st.just("{}"),
        })
        drawn = st.fixed_dictionaries({
            "samples": st.just(n),
            "trailing": mostly(st.just(0), st.integers(min_value=1, max_value=3)),
            "record": mostly(st.just(True), st.just(False)),
            "header": header_values(hw, n),
            "truth": truth_texts(n),
            "manifest": mostly(st.just("{}"), st.text(max_size=4)),
        })
        return mostly(valid, drawn)
    return CORPUS_LENGTHS.flatmap(dataset)


def calibrate_inputs():
    return st.booleans().flatmap(lambda hw: st.fixed_dictionaries({
        "pipeline": st.just("hw" if hw else "float"),
        "datasets": st.lists(corpus_datasets(hw), min_size=1, max_size=2),
    }))


def run_calibrate(data):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        corpus.mkdir()
        for name, ds in zip("ab", data["datasets"]):
            (corpus / f"{name}.manifest.json").write_text(ds["manifest"])
            if ds["record"]:
                payload = FUZZ_RECORD.samples[:ds["samples"]].astype("<f4").tobytes() + b"\0" * ds["trailing"]
                (corpus / f"{name}.f32").write_bytes(payload)
                (corpus / f"{name}.f32.hdr").write_text("".join(f"{k}={v}\n" for k, v in ds["header"].items()))
            if ds["truth"] is not None:
                (corpus / f"{name}_truth.csv").write_text(ds["truth"])
        argv = ["calibrate", "--corpus", str(corpus), "--out", str(Path(tmp) / "c.txt"),
                "--pipeline", data["pipeline"]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return main(argv)


EMPTY_DATASET = {"samples": 0, "trailing": 0, "record": True, "truth": "", "manifest": "{}",
                 "header": {**VALID_HEADER, "n_samples": "0"}}


@given(calibrate_inputs())
# an empty record: the hw pipeline refused it, the float one calibrated it
# (both now calibrate it, see TestCalibrateCommand)
@example({"pipeline": "hw", "datasets": [EMPTY_DATASET]})
@example({"pipeline": "float", "datasets": [{**EMPTY_DATASET, "trailing": 3}]})
@settings(max_examples=60, deadline=None)
def test_fuzzed_calibrate_corpus_exits_0_or_2(data):
    assert run_calibrate(data) in (0, 2)


# ---------------------------------------------------------------------------
# Every path argument of every subcommand, drawn as missing, a directory, an
# existing file, under a missing parent or under a file: exit 0 or 2, and an
# exit 2 is one error line that names an unusable path
# ---------------------------------------------------------------------------

PATH_KINDS = ("missing", "directory", "file", "under-missing", "under-file")
FUZZ_CFG = {"duration_s": 0.3, "noise_level": 0.1, "seed": 3}  # FUZZ_RECORD's
# each path argument: the kinds it accepts, and what an existing file or
# directory of it holds when accepted
PATH_ARGS = {
    "generate": {"--config": {"file"}, "--out": {"missing", "directory", "under-missing"}},
    "detect": {"--record": {"file"}, "--truth": {"file"}, "--coeffs": {"file"}, "--out": {"missing", "file"}},
    "sweep": {"--spec": {"file"}, "--out": {"missing", "directory", "under-missing"}},
    "calibrate": {"--corpus": {"directory"}, "--out": {"missing", "file"}},
}


def make_path(base: Path, flag: str, kind: str) -> Path:
    """A path of ``kind`` for ``flag`` under ``base``, laid out as an accepted one would be."""
    base.mkdir()
    target = base / ("rec.f32" if flag == "--record" else "target")
    if kind.startswith("under-"):
        if kind == "under-file":
            (base / "parent").write_text("kept\n")
        return base / "parent" / target.name
    if kind == "directory":
        target.mkdir()
        if flag == "--corpus":
            save_dataset(FUZZ_RECORD, FUZZ_TRUTH, SyntheticConfig(**FUZZ_CFG), target, "a")
    elif kind == "file":
        if flag == "--record":
            save_record(FUZZ_RECORD, target)
        else:
            target.write_text({
                "--config": json.dumps({"duration_s": 0.01, "rate_hz": 16000.0}),
                "--truth": "".join(f"{i}\n" for i in FUZZ_TRUTH.spike_indices.tolist()),
                "--coeffs": "c1 1 0\nc2 0 0\nc3 0 0\n",
                "--spec": json.dumps({"axis": "noise_level", "points": [0.1], "detectors": ["at"],
                                      "replicates": 1, "base_cfg": {"duration_s": 0.01}}),
            }.get(flag, "kept\n"))
    return target


@pytest.mark.parametrize("command", PATH_ARGS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_path_argument_exits_0_or_2_naming_the_path(command, data):
    accepted = PATH_ARGS[command]
    # an accepted kind about half the time, so every path is usable in some runs
    kinds = [data.draw(st.sampled_from(sorted(accepted[flag])) | st.sampled_from(PATH_KINDS), label=flag)
             for flag in accepted]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {flag: make_path(Path(tmp) / flag.strip("-"), flag, kind) for flag, kind in zip(accepted, kinds)}
        argv = [command] + (["--detector", "dual"] if command == "detect" else [])
        for flag, path in paths.items():
            argv += [flag, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    # an unusable path is named as given, or by the parent that makes it unusable
    unusable = [name for (flag, path), kind in zip(paths.items(), kinds) if kind not in accepted[flag]
                for name in (str(path), str(path.parent))[:1 + kind.startswith("under-")]]
    err = err.getvalue()
    assert "Traceback" not in err
    if not unusable:
        assert code == 0, err
    else:
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert any(name in err for name in unusable), err
