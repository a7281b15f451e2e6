"""Smoke tests of the experiment files under ``scripts/``.

The committed sweep specs under ``scripts/sweeps/`` hold the paper's three
accuracy curves: their content is pinned here, and the noise curve runs
unmodified through ``dualteo sweep``.  The baseline calibration of
``calibrate_defaults.py`` runs in process on a two-record corpus.
"""

import csv
import importlib.util
import json
import re
from pathlib import Path

import numpy as np

from dualteo import SyntheticConfig, cli, generate
from dualteo.detector import DetectorKind
from dualteo.metrics import SweepSpec

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_noise_curve_runs_through_dualteo_sweep(tmp_path):
    out_dir = tmp_path / "noise_level"
    assert cli.main(["sweep", "--spec", str(SCRIPTS / "sweeps" / "noise_level.json"), "--out", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["plot_sweep.py", "sweep_results.csv"]
    with open(out_dir / "sweep_results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(float(row["point"]), row["detector"]) for row in rows] == [
        (p, d.value) for p in (0.05, 0.1, 0.15, 0.2) for d in DetectorKind
    ]
    assert all(row["axis"] == "noise_level" and row["replicates"] == "10" for row in rows)
    assert all(0.0 <= float(row["mean_accuracy"]) <= 1.0 for row in rows)


def test_the_committed_curves_are_pinned():
    specs = {}
    for path in sorted((SCRIPTS / "sweeps").glob("*.json")):
        data = json.loads(path.read_text())
        specs[path.stem] = SweepSpec(base_cfg=SyntheticConfig(**data.pop("base_cfg")), **data)
    base = SyntheticConfig(duration_s=10.0, noise_level=0.1, seed=42)
    assert specs == {
        axis: SweepSpec(axis, points, tuple(DetectorKind), replicates=10, base_cfg=base)
        for axis, points in (
            ("noise_level", (0.05, 0.1, 0.15, 0.2)),
            ("rate_hz", (8000.0, 12000.0, 16000.0, 20000.0, 24000.0)),
            ("resolution_bits", (4, 5, 6, 7, 8, 10)),
        )
    }


def test_calibrate_baselines_prints_three_multiples(capsys):
    script = load_script("calibrate_defaults")
    corpus = [generate(SyntheticConfig(duration_s=1.0, noise_level=0.1, seed=seed)) for seed in (1, 2)]
    script.calibrate_baselines(corpus)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3, lines
    # plain numbers, each a point of its script grid, then the accuracy
    number, score = r"(\d+\.\d+)", r" \(accuracy (\d\.\d{4})\)"
    at = re.fullmatch(f"AT multiple: {number}{score}", lines[0])
    dvt = re.fullmatch(f"DVT multiples: \\({number}, {number}\\){score}", lines[1])
    mae = re.fullmatch(f"MAE multiple: {number}{score}", lines[2])
    assert at and dvt and mae, lines
    assert float(at[1]) in np.arange(3.0, 6.01, 0.25)
    assert {float(dvt[1]), float(dvt[2])} <= set(np.arange(3.0, 5.51, 0.5))
    assert float(mae[1]) in np.arange(4.0, 16.01, 1.0)
    for match in (at, dvt, mae):
        assert 0.0 < float(match[match.lastindex]) <= 1.0, match[0]
