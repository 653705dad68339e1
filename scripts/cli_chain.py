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
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = "MANIFEST.sha256"
SEED = "7"
KS = (10, 50, 1000)
SCORES = {
    "aps": ["--score", "aps"],
    "raps": ["--score", "raps", "--lambda", "0.001", "--kreg", "5"],
    "saps": ["--score", "saps", "--lambda", "0.05"],
}

# Runs the commands read from stdin, in order, with confsets from argv[1].
_RUN = """
import json, sys
from pathlib import Path
import confsets
from confsets.cli import main
if Path(confsets.__file__).resolve().parents[1] != Path(sys.argv[1]).resolve():
    sys.exit(f"confsets was imported from {confsets.__file__}, not from {sys.argv[1]}")
for argv in json.load(sys.stdin):
    if main(argv) != 0:
        sys.exit("failed: confsets " + " ".join(argv))
"""


def chain(n: int) -> list[list[str]]:
    """The CLI commands, as argument lists with paths relative to OUT_DIR."""
    scores = [(f"{name}-{r}", [*flags, "--randomized", r])
              for name, flags in SCORES.items() for r in ("false", "true")]
    scores.append(("lac", ["--score", "lac"]))
    include_all = repr(0.5 / (n + 1))
    commands = []
    for k in KS:
        d, parts = f"k{k}", f"k{k}/parts"
        commands += [
            ["synth", "--n", str(n), "--k", str(k), "--signal", "4", "--noise", "1",
             "--overconfidence", "3", "--seed", SEED, "--out", f"{d}/data.bin"],
            ["split", "--in", f"{d}/data.bin", "--parts",
             "validation:0.5,conformal:0.25,test:0.25", "--shuffle", "true",
             "--seed", SEED, "--out-dir", parts],
        ]
        tuned = ["temperature", "platt"] + (["vector"] if k <= 50 else [])
        commands += [["tune", "--in", f"{parts}/validation.bin", "--alpha", "0.1",
                      "--map", kind, "--seed", SEED, "--out", f"{d}/{kind}.json"]
                     for kind in tuned]
        alphas = [("0.1", "0.1"), ("all", include_all)] + ([("0.01", "0.01")] if k == 1000 else [])
        for kind in ["identity"] + tuned:
            params = "identity.json" if kind == "identity" else f"{d}/{kind}.json"
            for score, flags in scores:
                for tag, alpha in alphas:
                    stem = f"{d}/{kind}.{score}.a{tag}"
                    commands += [
                        ["calibrate", "--in", f"{parts}/conformal.bin", "--alpha", alpha,
                         *flags, "--params", params, "--seed", SEED,
                         "--out", f"{stem}.threshold.json"],
                        ["predict", "--in", f"{parts}/test.bin", "--threshold",
                         f"{stem}.threshold.json", "--seed", SEED, "--out", f"{stem}.sets.jsonl"],
                        ["evaluate", "--sets", f"{stem}.sets.jsonl", "--in", f"{parts}/test.bin",
                         "--threshold", f"{stem}.threshold.json", "--out", f"{stem}.report.json"],
                    ]
                    if tag == "0.1":
                        commands.append(["evaluate", "--sets", f"{stem}.sets.jsonl", "--in",
                                         f"{parts}/test.bin", "--out", f"{stem}.plain.report.json"])
        commands += [["demo-precision", "--in", f"{parts}/test.bin", "--alpha", "0.1",
                      "--t-grid", "1,0.5,0.25,0.1", "--precision", precision, "--seed", SEED,
                      "--out", f"{d}/demo.{precision}.json"] for precision in ("f32", "f64")]
    return commands


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
    for k in KS:
        (out_dir / f"k{k}").mkdir(parents=True, exist_ok=True)
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
