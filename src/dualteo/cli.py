"""Benchmark command line: generate, detect, sweep, calibrate.

Every command is deterministic given its inputs and ``--seed``; output files
are byte-identical across repeated runs.  Exit code 0 on success, 2 on any
validation error (bad arguments, malformed files, empty corpus).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import dataio, detector, hw_model, metrics
from .detector import DetectorKind
from .signal_model import _read_text, load_record
from .threshold import calibrate_coefficients, load_coefficients, save_coefficients


def _require_object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {json.dumps(data)}")
    return data


def _load_json(path: Path) -> dict:
    """Parse a JSON file whose top level must be an object."""
    try:
        data = json.loads(_read_text(path))
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    return _require_object(data, str(path))


def _synthetic_config(data: dict, seed: int | None) -> dataio.SyntheticConfig:
    _require_object(data, "synthetic config")
    known = {f.name for f in dataclasses.fields(dataio.SyntheticConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if seed is not None:
        data = {**data, "seed": seed}
    try:
        return dataio.SyntheticConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad synthetic config: {exc}") from None


def cmd_generate(args) -> int:
    cfg = _synthetic_config(_load_json(Path(args.config)), args.seed)
    record, truth = dataio.generate(cfg)
    name = args.name or f"noise{cfg.noise_level:g}_seed{cfg.seed}"
    paths = dataio.save_dataset(record, truth, cfg, args.out, name)
    print(f"wrote {paths['record']}")
    print(f"wrote {paths['truth']}")
    print(f"wrote {paths['manifest']}")
    return 0


def _existing_file(path_str) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise ValueError(f"no such file: {path}")
    return path


def cmd_detect(args) -> int:
    record = load_record(_existing_file(args.record))
    truth = None if args.truth is None else dataio.load_ground_truth(_existing_file(args.truth))
    try:
        kind = DetectorKind(args.detector)
    except ValueError:
        raise ValueError(
            f"unknown detector {args.detector!r}; choose from "
            f"{[k.value for k in DetectorKind]}"
        ) from None
    coeffs = None
    if args.coeffs:
        coeffs_path = _existing_file(args.coeffs)
        if kind not in (DetectorKind.DUAL, DetectorKind.TEO_SINGLE):
            raise ValueError("--coeffs applies to the dual and teo_single detectors")
        coeffs = load_coefficients(coeffs_path)

    if args.hw:
        if kind != DetectorKind.DUAL:
            raise ValueError("--hw supports only the dual detector")
        # from here on the record is the chip's codes, scored at their rate and length
        record, truth = hw_model.chip_input(record, truth)
        events = hw_model.hw_detect_channel(record, coeffs=coeffs)
    else:
        kwargs = {"coeffs": coeffs} if coeffs is not None else {}
        events = detector.detect(record, kind, **kwargs)

    if args.out:
        detector.events_to_csv(events, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(detector._events_text(events))
    if truth is not None:
        rep, acc = metrics.score_record(events, truth, record.rate_hz, len(record))
        print(f"tp={rep.tp} fp={rep.fp} fn={rep.fn} accuracy={acc:.4f}")
    return 0


def cmd_sweep(args) -> int:
    data = _load_json(Path(args.spec))
    base = _synthetic_config(data.pop("base_cfg", {}), args.seed)
    try:
        spec = metrics.SweepSpec(base_cfg=base, **data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad sweep spec: {exc}") from None
    results = metrics.sweep(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep_results.csv"
    metrics.report(results, "csv", csv_path)
    metrics.report(results, "plot_script", out_dir / "plot_sweep.py")
    print(f"wrote {csv_path}")
    print(f"wrote {out_dir / 'plot_sweep.py'}")
    return 0


def _load_corpus(corpus_dir: Path):
    manifests = sorted(corpus_dir.glob("*.manifest.json"))
    names = [m.name[: -len(".manifest.json")] for m in manifests]
    if not names:
        raise ValueError(f"no *.manifest.json datasets under {corpus_dir}")
    return [dataio.load_dataset(corpus_dir, name) for name in names]


def cmd_calibrate(args) -> int:
    corpus_dir = Path(args.corpus)
    if not corpus_dir.is_dir():
        raise ValueError(f"no such directory: {corpus_dir}")
    training = _load_corpus(corpus_dir)
    if args.search_drops:
        if args.pipeline != "hw":
            raise ValueError("--search-drops applies to the hw pipeline only")
        best = None
        for xdrop in (6, 7, 8):
            for sdrop in (5, 6, 7):
                cfg = hw_model.HwConfig(xteo_drop_lsbs=xdrop, steo_drop_lsbs=sdrop)
                cand, score = calibrate_coefficients(
                    training, pipeline="hw", hw_cfg=cfg, return_score=True
                )
                print(f"drops x>>{xdrop} s>>{sdrop}: accuracy {score:.4f}")
                if best is None or score > best[0]:
                    best = (score, cand, xdrop, sdrop)
        _, coeffs, xdrop, sdrop = best
        print(f"best drops: x>>{xdrop} s>>{sdrop}")
    else:
        coeffs = calibrate_coefficients(training, pipeline=args.pipeline)
    save_coefficients(coeffs, args.out)
    print(f"wrote {args.out}")
    print(
        f"c1={coeffs.c1.numerator}*2^-{coeffs.c1.shift} "
        f"c2={coeffs.c2.numerator}*2^-{coeffs.c2.shift} "
        f"c3={coeffs.c3.numerator}*2^-{coeffs.c3.shift}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualteo",
        description="Dual energy-operator spike detection benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a labeled synthetic record")
    p.add_argument("--config", required=True, help="JSON synthetic config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--name", default=None, help="dataset name stem")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("detect", help="run one detector on a record file")
    p.add_argument("--detector", required=True, help="dual|at|dvt|mae|teo_single")
    p.add_argument("--record", required=True, help="record file (.f32 or .csv + .hdr)")
    p.add_argument("--truth", default=None, help="ground-truth CSV for scoring")
    p.add_argument("--hw", action="store_true", help="integer 7-bit/16kHz pipeline")
    p.add_argument("--coeffs", default=None, help="threshold coefficient file (default: bundled)")
    p.add_argument("--out", default=None, help="write events CSV here")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("sweep", help="run an accuracy sweep from a JSON spec")
    p.add_argument("--spec", required=True, help="JSON sweep spec")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override base config seed")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate", help="grid-search threshold coefficients")
    p.add_argument("--corpus", required=True, help="directory of generated datasets")
    p.add_argument("--out", required=True, help="coefficient fixture to write")
    p.add_argument("--pipeline", choices=("float", "hw"), default="float")
    p.add_argument(
        "--search-drops", action="store_true",
        help="also re-derive the energy truncation shift counts (hw pipeline); the file does not record "
        "the printed best pair, so it matches detect --hw only once HwConfig's default drops are that pair",
    )
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
