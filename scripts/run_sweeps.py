#!/usr/bin/env python3
"""Reproduce the three benchmark accuracy curves.

Sweeps mean detection accuracy for all five detectors against
(a) noise level, (b) input resolution, and (c) sampling rate, writing one
results CSV plus a self-contained plot script per axis.  Takes about 3 s
with the default ten replicates on a 2-CPU host.

Usage: python scripts/run_sweeps.py [--out results/] [--replicates N] [--seed S]
"""

import argparse
from pathlib import Path

from dualteo import SyntheticConfig
from dualteo.detector import DetectorKind
from dualteo.metrics import SweepSpec, report, sweep

ALL_DETECTORS = tuple(DetectorKind)

AXES = {
    "noise_level": (0.05, 0.1, 0.15, 0.2),
    "resolution_bits": (4, 5, 6, 7, 8, 10),
    "rate_hz": (8000.0, 12000.0, 16000.0, 20000.0, 24000.0),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--replicates", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--axis", choices=tuple(AXES) + ("all",), default="all",
        help="run one axis only",
    )
    args = parser.parse_args()

    base_cfg = SyntheticConfig(duration_s=10.0, seed=args.seed)
    axes = AXES if args.axis == "all" else {args.axis: AXES[args.axis]}
    for axis, points in axes.items():
        spec = SweepSpec(
            axis=axis,
            points=points,
            detectors=ALL_DETECTORS,
            replicates=args.replicates,
            base_cfg=base_cfg,
        )
        print(f"sweeping {axis} over {points} ...")
        results = sweep(spec)
        out_dir = args.out / axis
        out_dir.mkdir(parents=True, exist_ok=True)
        report(results, "csv", out_dir / "sweep_results.csv")
        report(results, "plot_script", out_dir / "plot_sweep.py")
        for r in results:
            print(
                f"  {r.detector.value:>10} @ {r.point:g}: "
                f"{100 * r.mean_accuracy:6.2f}% +- {100 * r.std_accuracy:.2f}"
            )
        print(f"wrote {out_dir}/sweep_results.csv and plot_sweep.py")


if __name__ == "__main__":
    main()
