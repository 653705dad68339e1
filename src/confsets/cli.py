"""Batch command line: synth -> split -> tune -> calibrate -> predict -> evaluate.

Every subcommand reads/writes files only, takes a required --seed, and is
byte-for-byte reproducible.  Dataset files are written as CSV when the
path ends in .csv and in the binary format otherwise; on load the format
is detected from the file itself.

Exit codes: 0 success, 1 validation error (bad flags, schema or
precondition violations), 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import data, engine, maps, metrics, synth, tuning
from .errors import ValidationError
from .scores import ScoreSpec


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValidationError(f"expected a boolean, got {text!r}")


def _parse_parts(text: str) -> dict[str, float]:
    parts: dict[str, float] = {}
    for item in text.split(","):
        if ":" not in item:
            raise ValidationError(
                f"--parts entries must look like name:fraction, got {item!r}"
            )
        name, frac = item.split(":", 1)
        name = name.strip()
        if not name or name in parts:
            raise ValidationError(f"--parts has a missing or duplicate name in {item!r}")
        try:
            parts[name] = float(frac)
        except ValueError as exc:
            raise ValidationError(f"--parts fraction {frac!r} is not a number") from exc
    return parts


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ValidationError(f"{flag} must be a comma-separated float list") from exc
    if not values:
        raise ValidationError(f"{flag} must be non-empty")
    return values


def _dataset_format(path) -> str:
    return "csv" if str(path).endswith(".csv") else "binary"


def _load_dataset(path) -> data.LogitsDataset:
    return data.load_dataset(path, data.sniff_format(path))


def _parse_rank_edges(text: str) -> tuple[int, ...]:
    """'default' or comma-separated upper edges such as '1,3,6,10,100'.

    Only the text is checked here; ``metrics.rank_bins`` checks the edges.
    """
    if text == "default":
        return metrics.DEFAULT_RANK_EDGES
    edges = []
    for v in text.split(","):
        try:
            edges.append(int(v))
        except ValueError as exc:
            raise ValidationError(f"--bins must be 'default' or integer edges, got {v!r}") from exc
    return tuple(edges)


def cmd_synth(args) -> None:
    spec = synth.SynthSpec(n=args.n, k=args.k, seed=args.seed, signal=args.signal,
                           noise=args.noise, overconfidence=args.overconfidence)
    ds = synth.generate(spec)
    data.save_dataset(ds, args.out, _dataset_format(args.out))


def cmd_split(args) -> None:
    ds = _load_dataset(args.input)
    spec = data.SplitSpec(fractions=_parse_parts(args.parts), seed=args.seed,
                          shuffle=args.shuffle)
    parts = data.split_dataset(ds, spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = ".csv" if data.sniff_format(args.input) == "csv" else ".bin"
    for name, part in parts.items():
        path = out_dir / f"{name}{ext}"
        data.save_dataset(part, path, _dataset_format(path))


def cmd_tune(args) -> None:
    ds = _load_dataset(args.input)
    cfg = tuning.TuneConfig(grid_points=args.grid_points, t_min=args.t_min,
                            t_max=args.t_max, seed=args.seed)
    tuned, report = tuning.tune_map(ds, args.alpha, args.map, cfg)
    maps.save_map(tuned, args.out)
    tuning.save_tune_report(report, Path(args.out).with_suffix(".report.json"))


def _score_spec_from_args(args) -> ScoreSpec:
    kind = args.score
    return ScoreSpec(
        kind=kind,
        randomized=args.randomized,
        raps_lambda=args.score_lambda if kind == "raps" else None,
        raps_kreg=args.kreg if kind == "raps" else None,
        saps_lambda=args.score_lambda if kind == "saps" else None,
        rng_seed=args.seed,
    )


def cmd_calibrate(args) -> None:
    ds = _load_dataset(args.input)
    cal_map = maps.load_map(args.params)
    if args.score in ("raps", "saps") and args.score_lambda is None:
        raise ValidationError(f"--score {args.score} requires --lambda")
    if args.score not in ("raps", "saps") and args.score_lambda is not None:
        raise ValidationError(f"--lambda is not valid for --score {args.score}")
    if args.score != "raps" and args.kreg is not None:
        raise ValidationError(f"--kreg is not valid for --score {args.score}")
    threshold = engine.calibrate(ds, cal_map, _score_spec_from_args(args), args.alpha)
    engine.save_threshold(threshold, args.out)


def cmd_predict(args) -> None:
    threshold = engine.load_threshold(args.threshold)
    if args.seed != threshold.score_spec.rng_seed:
        raise ValidationError(
            f"--seed {args.seed} differs from the threshold's calibration seed "
            f"{threshold.score_spec.rng_seed}; predict draws u from the calibration seed"
        )
    ds = _load_dataset(args.input)
    engine.save_prediction_sets(engine.predict(threshold, ds), args.out)


def cmd_evaluate(args) -> None:
    ds = _load_dataset(args.input)
    mask = engine.load_prediction_sets(args.sets, ds.k)
    if mask.shape[0] != ds.n:
        raise ValidationError(
            f"--sets has {mask.shape[0]} entries but --in has {ds.n} rows"
        )
    alpha = None
    score_desc = None
    cal_map = maps.CalibrationMap.identity()
    if args.threshold is not None:
        threshold = engine.load_threshold(args.threshold)
        alpha = threshold.alpha
        score_desc = threshold.score_spec.to_json_dict()
        cal_map = threshold.cal_map
    probs = maps.apply_map_dataset(cal_map, ds)
    report = metrics.build_report(mask, ds, probs, rank_edges=_parse_rank_edges(args.bins),
                                  ece_bins=args.ece_bins, alpha=alpha,
                                  score=score_desc, map_desc=cal_map.to_json_dict())
    metrics.save_report(report, args.out)


def cmd_demo_precision(args) -> None:
    grid = _parse_float_list(args.t_grid, "--t-grid")
    if any(t <= 0 for t in grid):
        raise ValidationError("--t-grid temperatures must be positive")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("--t-grid must be strictly descending")
    ds = _load_dataset(args.input)
    halves = data.split_dataset(
        ds,
        data.SplitSpec(fractions={"cal": 0.5, "test": 0.5}, seed=args.seed,
                       shuffle=True),
    )
    spec = ScoreSpec(kind="aps", randomized=True, rng_seed=args.seed)
    rows = []
    for t in grid:
        cal_map = maps.CalibrationMap.temperature(t)
        result = engine.run_pipeline(halves["cal"], halves["test"], cal_map, spec,
                                     args.alpha, precision=args.precision)
        cov, avg_size = metrics.coverage_and_size(result.mask, halves["test"].labels)
        fraction, _ = metrics.truncation_diagnostic(cal_map, halves["test"],
                                                    precision=args.precision)
        rows.append({"t": t, "coverage": cov, "average_size": avg_size,
                     "truncated_row_fraction": fraction})
    payload = {
        "alpha": args.alpha,
        "precision": args.precision,
        "n_cal": halves["cal"].n,
        "n_test": halves["test"].n,
        "rows": rows,
    }
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="confsets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic logits dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--signal", type=float, required=True)
    p.add_argument("--noise", type=float, required=True)
    p.add_argument("--overconfidence", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="partition a dataset into named parts")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--parts", required=True,
                   help="comma-separated name:fraction pairs")
    p.add_argument("--shuffle", type=_parse_bool, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("tune", help="tune a calibration map on a validation set")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--map", choices=("temperature", "platt", "vector"),
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid-points", dest="grid_points", type=int,
                   default=tuning.TuneConfig.grid_points)
    p.add_argument("--t-min", dest="t_min", type=float, default=tuning.TuneConfig.t_min)
    p.add_argument("--t-max", dest="t_max", type=float, default=tuning.TuneConfig.t_max)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("calibrate", help="compute the conformal threshold")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--score", choices=("aps", "raps", "saps", "lac"), required=True)
    p.add_argument("--randomized", type=_parse_bool, default=False)
    p.add_argument("--lambda", dest="score_lambda", type=float, default=None)
    p.add_argument("--kreg", type=int, default=None)
    p.add_argument("--params", required=True, help="calibration-map JSON file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("predict", help="build prediction sets for a test set")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--threshold", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score prediction sets against labels")
    p.add_argument("--sets", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--bins", default="default",
                   help="'default' or comma-separated rank-bin upper edges")
    p.add_argument("--ece-bins", dest="ece_bins", type=int, default=15)
    p.add_argument("--threshold", default=None,
                   help="optional threshold file supplying alpha/score/map")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("demo-precision",
                       help="temperature sweep showing the low-precision pathology")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t-grid", dest="t_grid", required=True)
    p.add_argument("--precision", choices=("f32", "f64"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_demo_precision)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0
