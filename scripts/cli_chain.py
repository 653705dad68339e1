"""Run the file-based CLI chain and write a sha256 manifest of its outputs.

At K = 10, 50 and 1000 the chain runs:
  * synth, then split into validation/conformal/test parts;
  * tune: temperature and Platt at every K, vector at K <= 50;
  * calibrate: each map (identity included) with aps, raps and saps,
    randomized or not, and lac, at alpha 0.1 and at an alpha below
    1 / (n_cal + 1), whose threshold includes every class.  At K = 1000
    also at alpha 0.01, where non-randomized aps sets hold most classes
    of most rows;
  * predict each threshold and evaluate its sets with --threshold, and
    at alpha 0.1 also without it;
  * demo-precision at f32 and f64.

Under k200flat/, K = 200 rows near chance level (--signal 0.05,
--overconfidence 1), whose exps mostly sum past 2, go through calibrate,
predict and evaluate --threshold under the identity map and a tuned
temperature, with every score, randomized or not, at alpha 0.1.  They
cover the rows the walk kernels score without the s gate of
`scores._rank_one`, beside the sharp rows of the other legs, which pass it.

The K = 10 rows then go through the chain once more as CSV files, under
k10csv/: split, tune temperature, calibrate, predict and evaluate with
randomized aps at alpha 0.1, and demo-precision at f64.  Apart from the
CSV data files, each of its outputs has the name, and should have the
bytes, of the same output under k10/.

Last, under errors/, every command that reads a dataset (split, tune,
calibrate, predict, evaluate and demo-precision) runs on K = 10 binary
files of 7000 rows, two row blocks, that this script writes with a
defect: a non-finite row in the first block (and a later one in the last),
a non-finite row in the last block, a label out of range, both of those,
and a truncated file; and on CSV files of the same rows with a defect in
row 5: a short row, an unparseable value, a label of 1.5, nan and a label
out of range.  Then predict, evaluate and calibrate run with an error of
their own (another class count, a bad sets line, too few sets, a misused
--lambda, a bad --params) on the clean file and on the one with a
non-finite last row.  Last, a map whose scaled logits overflow makes
every softmax row of the clean file NaN: calibrate with lac and with aps,
and predict and evaluate --threshold with a hand-written lac threshold
under that map; and so does demo-precision at f32 with --t-grid 1e-300,
which is 0 as a float32.  Then calibrate runs raps (--kreg 1) and saps at
the largest float --lambda on the clean file, whose penalties overflow to
inf at the conformal level, and evaluate reads sets files in predict's
spelling with one defect each: an index gap, a member equal to K and a
non-ASCII digit.  Each of these commands must fail; its exit
code and stderr go to errors/<file>.<case>.txt.

Every command runs in one child process whose PYTHONPATH is --src, so the
manifests of two source trees show whether their outputs are the same:

    python scripts/cli_chain.py /tmp/new
    python scripts/cli_chain.py /tmp/old --src /path/to/other/checkout/src
    diff /tmp/old/MANIFEST.sha256 /tmp/new/MANIFEST.sha256

OUT_DIR/MANIFEST.sha256 is in ``sha256sum`` format, with paths relative
to OUT_DIR.  Compare manifests made on one machine only: numpy's exp and
sums may differ in the last bit across CPUs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = "MANIFEST.sha256"
SEED = "7"
KS = (10, 50, 1000)
CSV_DIR = "k10csv"
FLAT_DIR = "k200flat"
SCORES = {
    "aps": ["--score", "aps"],
    "raps": ["--score", "raps", "--lambda", "0.001", "--kreg", "5"],
    "saps": ["--score", "saps", "--lambda", "0.05"],
}

ERRORS_DIR = "errors"
ERR_N, ERR_K = 7000, 10

# Runs the commands read from stdin, in order, with confsets from argv[1].
# A command is an argument list that must succeed, or [argument list, log
# path] for one that must fail: its exit code and stderr go to the log.
# numpy's floating-point warnings are off: their text names the source
# file, so a log would differ between checkouts.
_RUN = """
import contextlib, io, json, sys
from pathlib import Path
import numpy
numpy.seterr(all="ignore")
import confsets
from confsets.cli import main
if Path(confsets.__file__).resolve().parents[1] != Path(sys.argv[1]).resolve():
    sys.exit(f"confsets was imported from {confsets.__file__}, not from {sys.argv[1]}")
for command in json.load(sys.stdin):
    if isinstance(command[0], str):
        if main(command) != 0:
            sys.exit("failed: confsets " + " ".join(command))
        continue
    argv, log = command
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        sys.exit("did not fail: confsets " + " ".join(argv))
    Path(log).write_text(f"exit {code}\\n{err.getvalue()}", encoding="utf-8")
"""


def chain(n: int) -> list:
    """The CLI commands, as argument lists with paths relative to OUT_DIR;
    the error leg's carry their logs (see `_RUN`)."""
    include_all = repr(0.5 / (n + 1))
    commands = []
    for k in KS:
        d, parts = f"k{k}", f"k{k}/parts"
        commands += _synth_and_split(n, k, d, "bin")
        tuned = ["temperature", "platt"] + (["vector"] if k <= 50 else [])
        commands += [_tune(parts, kind, d) for kind in tuned]
        alphas = [("0.1", "0.1"), ("all", include_all)] + ([("0.01", "0.01")] if k == 1000 else [])
        for kind in ["identity"] + tuned:
            params = "identity.json" if kind == "identity" else f"{d}/{kind}.json"
            for score, flags in _scores():
                for tag, alpha in alphas:
                    stem = f"{d}/{kind}.{score}.a{tag}"
                    commands += _sets_steps(parts, params, flags, alpha, stem)
                    if tag == "0.1":
                        commands.append(["evaluate", "--sets", f"{stem}.sets.jsonl", "--in",
                                         f"{parts}/test.bin", "--out", f"{stem}.plain.report.json"])
        commands += [["demo-precision", "--in", f"{parts}/test.bin", "--alpha", "0.1",
                      "--t-grid", "1,0.5,0.25,0.1", "--precision", precision, "--seed", SEED,
                      "--out", f"{d}/demo.{precision}.json"] for precision in ("f32", "f64")]
    return commands + _flat_leg(n) + _csv_leg(n) + _error_leg()


def _scores() -> list[tuple[str, list[str]]]:
    """Each score's name and calibrate flags: aps, raps and saps randomized
    or not, and lac."""
    scores = [(f"{name}-{r}", [*flags, "--randomized", r])
              for name, flags in SCORES.items() for r in ("false", "true")]
    return scores + [("lac", ["--score", "lac"])]


def _tune(parts: str, kind: str, d: str) -> list[str]:
    return ["tune", "--in", f"{parts}/validation.bin", "--alpha", "0.1", "--map", kind,
            "--seed", SEED, "--out", f"{d}/{kind}.json"]


def _sets_steps(parts: str, params: str, flags: list[str], alpha: str,
                stem: str) -> list[list[str]]:
    """Calibrate on the conformal part, predict the test part and evaluate
    its sets with the threshold, into files named after ``stem``."""
    return [
        ["calibrate", "--in", f"{parts}/conformal.bin", "--alpha", alpha, *flags,
         "--params", params, "--seed", SEED, "--out", f"{stem}.threshold.json"],
        ["predict", "--in", f"{parts}/test.bin", "--threshold", f"{stem}.threshold.json",
         "--seed", SEED, "--out", f"{stem}.sets.jsonl"],
        ["evaluate", "--sets", f"{stem}.sets.jsonl", "--in", f"{parts}/test.bin",
         "--threshold", f"{stem}.threshold.json", "--out", f"{stem}.report.json"],
    ]


def _synth_and_split(n: int, k: int, d: str, ext: str,
                     model: tuple[str, ...] = ("--signal", "4", "--noise", "1",
                                               "--overconfidence", "3")) -> list[list[str]]:
    return [
        ["synth", "--n", str(n), "--k", str(k), *model, "--seed", SEED,
         "--out", f"{d}/data.{ext}"],
        ["split", "--in", f"{d}/data.{ext}", "--parts",
         "validation:0.5,conformal:0.25,test:0.25", "--shuffle", "true",
         "--seed", SEED, "--out-dir", f"{d}/parts"],
    ]


def _flat_leg(n: int) -> list[list[str]]:
    """K = 200 rows near chance level, under the identity and a tuned
    temperature, with every score at alpha 0.1."""
    d, parts = FLAT_DIR, f"{FLAT_DIR}/parts"
    commands = _synth_and_split(n, 200, d, "bin",
                                ("--signal", "0.05", "--noise", "1", "--overconfidence", "1"))
    commands.append(_tune(parts, "temperature", d))
    for kind, params in (("identity", "identity.json"), ("temperature", f"{d}/temperature.json")):
        for score, flags in _scores():
            commands += _sets_steps(parts, params, flags, "0.1", f"{d}/{kind}.{score}.a0.1")
    return commands


def _csv_leg(n: int) -> list[list[str]]:
    """The K = 10 rows as CSV files, through one map and one score."""
    d, parts = CSV_DIR, f"{CSV_DIR}/parts"
    stem = f"{d}/temperature.aps-true.a0.1"
    return _synth_and_split(n, 10, d, "csv") + [
        ["tune", "--in", f"{parts}/validation.csv", "--alpha", "0.1", "--map", "temperature",
         "--seed", SEED, "--out", f"{d}/temperature.json"],
        ["calibrate", "--in", f"{parts}/conformal.csv", "--alpha", "0.1", *SCORES["aps"],
         "--randomized", "true", "--params", f"{d}/temperature.json", "--seed", SEED,
         "--out", f"{stem}.threshold.json"],
        ["predict", "--in", f"{parts}/test.csv", "--threshold", f"{stem}.threshold.json",
         "--seed", SEED, "--out", f"{stem}.sets.jsonl"],
        ["evaluate", "--sets", f"{stem}.sets.jsonl", "--in", f"{parts}/test.csv",
         "--threshold", f"{stem}.threshold.json", "--out", f"{stem}.report.json"],
        ["demo-precision", "--in", f"{parts}/test.csv", "--alpha", "0.1",
         "--t-grid", "1,0.5,0.25,0.1", "--precision", "f64", "--seed", SEED,
         "--out", f"{d}/demo.f64.json"],
    ]


# The defective inputs of the error leg: (NaN rows, row with a label out of
# range, bytes cut off the end).  At K = 10 a row block of confsets.data
# spans 6553 rows.
DEFECTS = {
    "clean": ((), None, 0),
    "nan-first": ((3, 6998), None, 0),
    "nan-last": ((6999,), None, 0),
    "label": ((), 5, 0),
    "label-nan-last": ((6999,), 5, 0),
    "truncated": ((), None, 8),
}


# The defective CSV inputs of the error leg: the clean rows as text, with
# field (column) of row 5 made text, or dropped when text is None.
CSV_DEFECTS = {
    "csv-short-row": (ERR_K, None),
    "csv-bad-value": (4, "1.0x"),
    "csv-label-1.5": (0, "1.5"),
    "csv-nan": (4, "nan"),
    "csv-label": (0, str(ERR_K)),
}
# Sets files in predict's spelling with one defect at line 3: an index gap,
# a member equal to K, and a non-ASCII (Arabic-Indic) digit.
SETS_DEFECTS = {
    "sets-index-gap": '{"index": 4, "set": [3]}',
    "sets-member-k": f'{{"index": 3, "set": [3, {ERR_K}]}}',
    "sets-non-ascii": '{"index": 3, "set": [\u0663]}',
}


# A Platt map whose a * z overflows to +inf at every row's largest logit
# of the error leg's files, and a lac threshold under it.
OVERFLOW_MAP = {"kind": "platt", "params": {"a": 1e308, "b": 0.0}}
OVERFLOW_THRESHOLD = {"tau": 0.5, "alpha": 0.1, "n_cal": 1000,
                      "score": {"kind": "lac", "randomized": False, "rng_seed": int(SEED)},
                      "map": OVERFLOW_MAP, "k": ERR_K}
# The largest float: a raps or saps penalty of two such steps is inf.
MAX_LAMBDA = "1.7976931348623157e308"


def _write_error_inputs(d: Path) -> None:
    """Write into ``d`` the binary files of `DEFECTS` and the CSV files of
    `CSV_DEFECTS`, a sets file of three records, one with a bad fourth line
    and those of `SETS_DEFECTS`, one of an empty set per row, a map file
    with a bad temperature, and the overflowing map and its threshold."""
    labels = [i % ERR_K for i in range(ERR_N)]
    logits = [((i * 7 + j * 3) % 11) / 4 for i in range(ERR_N) for j in range(ERR_K)]
    for name, (nan_rows, label_row, cut) in DEFECTS.items():
        row_labels, row_logits = list(labels), list(logits)
        for row in nan_rows:
            row_logits[row * ERR_K + 3] = float("nan")
        if label_row is not None:
            row_labels[label_row] = ERR_K
        blob = (b"CPLG\x01" + struct.pack("<QI", ERR_N, ERR_K)
                + struct.pack(f"<{ERR_N}I", *row_labels)
                + struct.pack(f"<{ERR_N * ERR_K}d", *row_logits))
        (d / f"{name}.bin").write_bytes(blob[:len(blob) - cut])
    rows = [[str(labels[i]), *map(repr, logits[i * ERR_K:(i + 1) * ERR_K])] for i in range(ERR_N)]
    header = ["label", *(f"logit_{j}" for j in range(ERR_K))]
    for name, (column, text) in CSV_DEFECTS.items():
        row = list(rows[5])
        row[column:column + 1] = [] if text is None else [text]
        (d / f"{name}.csv").write_text("".join(f"{','.join(fields)}\n" for fields in
                                               [header, *rows[:5], row, *rows[6:]]),
                                       encoding="ascii")
    lines = [f'{{"index": {i}, "set": [{i}]}}' for i in range(3)]
    (d / "three-sets.jsonl").write_text("\n".join(lines) + "\n", encoding="ascii")
    (d / "bad-sets.jsonl").write_text("\n".join([*lines, '{"index": 3, "set": [3, 3]}']) + "\n",
                                      encoding="ascii")
    for name, line in SETS_DEFECTS.items():
        (d / f"{name}.jsonl").write_text("\n".join([*lines, line]) + "\n", encoding="utf-8")
    (d / "bad-map.json").write_text('{"kind": "temperature", "params": {"t": -1.0}}\n',
                                    encoding="ascii")
    (d / "empty-sets.jsonl").write_text("".join(f'{{"index": {i}, "set": []}}\n'
                                                for i in range(ERR_N)), encoding="ascii")
    (d / "overflow-map.json").write_text(json.dumps(OVERFLOW_MAP) + "\n", encoding="ascii")
    (d / "overflow.threshold.json").write_text(json.dumps(OVERFLOW_THRESHOLD) + "\n",
                                               encoding="ascii")


def _error_leg() -> list:
    """The commands of the error leg, each with the log of its failure."""
    d = ERRORS_DIR
    threshold = "k10/identity.aps-true.a0.1"
    reads = {
        "split": ["split", "--parts", "a:0.5,b:0.5", "--shuffle", "true", "--seed", SEED,
                  "--out-dir", f"{d}/out.split"],
        "tune": ["tune", "--alpha", "0.1", "--map", "temperature", "--seed", SEED,
                 "--out", f"{d}/out.tune.json"],
        "calibrate": ["calibrate", "--alpha", "0.1", *SCORES["aps"], "--params", "identity.json",
                      "--seed", SEED, "--out", f"{d}/out.threshold.json"],
        "predict": ["predict", "--threshold", f"{threshold}.threshold.json", "--seed", SEED,
                    "--out", f"{d}/out.sets.jsonl"],
        "evaluate": ["evaluate", "--sets", f"{threshold}.sets.jsonl",
                     "--threshold", f"{threshold}.threshold.json", "--out", f"{d}/out.report.json"],
        "demo-precision": ["demo-precision", "--alpha", "0.1", "--t-grid", "1,0.5",
                           "--precision", "f64", "--seed", SEED, "--out", f"{d}/out.demo.json"],
    }
    # each command's own error, raised after its input is opened
    in_body = {
        "class-count": _replaced(reads["predict"], "--threshold",
                                 "k50/identity.aps-true.a0.1.threshold.json"),
        "bad-sets-line": _replaced(reads["evaluate"], "--sets", f"{d}/bad-sets.jsonl"),
        "sets-count": _replaced(reads["evaluate"], "--sets", f"{d}/three-sets.jsonl"),
        "lambda": [*reads["calibrate"], "--lambda", "0.1"],
        "bad-params": _replaced(reads["calibrate"], "--params", f"{d}/bad-map.json"),
    }
    commands = [[[*argv, "--in", f"{d}/{name}.bin"], f"{d}/{name}.{command}.txt"]
                for name in DEFECTS if name != "clean" for command, argv in reads.items()]
    commands += [[[*argv, "--in", f"{d}/{name}.csv"], f"{d}/{name}.{command}.txt"]
                 for name in CSV_DEFECTS for command, argv in reads.items()]
    commands += [[[*argv, "--in", f"{d}/{name}.bin"], f"{d}/{name}.{case}.txt"]
                 for name in ("clean", "nan-last") for case, argv in in_body.items()]
    overflow = {
        "overflow-calibrate-lac": _replaced(_replaced(reads["calibrate"], "--score", "lac"),
                                            "--params", f"{d}/overflow-map.json"),
        "overflow-calibrate-aps": _replaced(reads["calibrate"], "--params",
                                            f"{d}/overflow-map.json"),
        "overflow-predict": _replaced(reads["predict"], "--threshold",
                                      f"{d}/overflow.threshold.json"),
        "overflow-evaluate": _replaced(_replaced(reads["evaluate"], "--sets",
                                                 f"{d}/empty-sets.jsonl"),
                                       "--threshold", f"{d}/overflow.threshold.json"),
        "overflow-demo-precision-f32": _replaced(_replaced(reads["demo-precision"],
                                                           "--precision", "f32"),
                                                 "--t-grid", "1e-300"),
        "overflow-lambda-raps": [*_replaced(reads["calibrate"], "--score", "raps"),
                                 "--lambda", MAX_LAMBDA, "--kreg", "1"],
        "overflow-lambda-saps": [*_replaced(reads["calibrate"], "--score", "saps"),
                                 "--lambda", MAX_LAMBDA],
    }
    commands += [[[*argv, "--in", f"{d}/clean.bin"], f"{d}/clean.{case}.txt"]
                 for case, argv in overflow.items()]
    commands += [[[*_replaced(reads["evaluate"], "--sets", f"{d}/{name}.jsonl"), "--in",
                   f"{d}/clean.bin"], f"{d}/clean.{name}.txt"] for name in SETS_DEFECTS]
    return commands


def _replaced(argv: list[str], flag: str, value: str) -> list[str]:
    """``argv`` with ``value`` after ``flag`` in place of the one there."""
    at = argv.index(flag) + 1
    return [*argv[:at], value, *argv[at + 1:]]


def write_manifest(out_dir: Path) -> int:
    """Write OUT_DIR/MANIFEST.sha256 over every other file; returns the file count."""
    files = sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*")
                   if p.is_file() and p.name != MANIFEST)
    lines = [f"{hashlib.sha256((out_dir / f).read_bytes()).hexdigest()}  {f}\n" for f in files]
    (out_dir / MANIFEST).write_text("".join(lines), encoding="ascii")
    return len(files)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out_dir", type=Path, help="output directory; must be new or empty")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the confsets package to run (default: this checkout's)")
    ap.add_argument("--n", type=int, default=2000,
                    help="rows per synthetic dataset; alpha 0.01 needs n >= 400 for a finite threshold")
    args = ap.parse_args(argv)
    out_dir = args.out_dir.resolve()
    if out_dir.exists() and any(out_dir.iterdir()):
        ap.error(f"{out_dir} is not empty")
    for d in [f"k{k}" for k in KS] + [FLAT_DIR, CSV_DIR, ERRORS_DIR]:
        (out_dir / d).mkdir(parents=True, exist_ok=True)
    _write_error_inputs(out_dir / ERRORS_DIR)
    (out_dir / "identity.json").write_text('{"kind": "identity", "params": {}}\n', encoding="ascii")
    src = str(args.src.resolve())
    proc = subprocess.run([sys.executable, "-c", _RUN, src], input=json.dumps(chain(args.n)),
                          text=True, cwd=out_dir, env=dict(os.environ, PYTHONPATH=src))
    if proc.returncode != 0:
        return proc.returncode
    count = write_manifest(out_dir)
    print(f"{count} files in {out_dir / MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
