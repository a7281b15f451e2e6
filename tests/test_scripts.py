"""Smoke tests of the experiment scripts under ``scripts/``.

Each script runs end to end on a small input: the sweep script in its own
process, as a user starts it, and the baseline calibration of
``calibrate_defaults.py`` in process on a two-record corpus.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from dualteo import SyntheticConfig, generate
from dualteo.detector import DetectorKind
from dualteo.metrics import parse_results_csv

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_sweeps_writes_a_readable_noise_axis(tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, str(SCRIPTS / "run_sweeps.py"),
         "--axis", "noise_level", "--replicates", "1", "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, check=True, timeout=300,
    )
    out_dir = tmp_path / "noise_level"
    results = parse_results_csv((out_dir / "sweep_results.csv").read_text())
    assert [(r.point, r.detector) for r in results] == [
        (p, d) for p in (0.05, 0.1, 0.15, 0.2) for d in DetectorKind
    ]
    assert all(r.axis == "noise_level" and r.replicates == 1 for r in results)
    assert all(0.0 <= r.mean_accuracy <= 1.0 and r.std_accuracy == 0.0 for r in results)
    assert (out_dir / "plot_sweep.py").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["noise_level"]


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
