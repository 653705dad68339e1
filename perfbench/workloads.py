"""The benchmark's workloads: the inputs set-up makes and the timed chain of steps.

Each workload is one client in a closed loop: a step starts only when the
previous one has returned.  Set-up makes the inputs with `confsets synth`
and `confsets split` from the workload seed; the timed steps see only the
files.  Every tuned or identity map gets the README's calibrate -> predict
-> evaluate chain with the randomized APS score at alpha 0.1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

ALPHA = "0.1"
# Synthetic logits shared by all workloads: the README walkthrough's model,
# overconfident enough (x3) that tuning has something to fix.
SYNTH_ARGS = ("--signal", "4", "--noise", "1", "--overconfidence", "3")
# `confsets tune` cannot cap gradient-descent iterations, so the vector map is
# tuned through the library with this budget (two accepted steps).
VECTOR_MAX_ITERS = 2
# A short temperature search, enough to load and run every tuning path once.
WARMUP_TUNE_ARGS = ("--grid-points", "3")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                  # rows made by `confsets synth`
    k: int                  # classes
    parts: str              # `--parts` of `confsets split`
    maps: tuple[str, ...]   # maps whose sets are built, in chain order
    why: str

    @property
    def tuned(self) -> tuple[str, ...]:
        return tuple(m for m in self.maps if m != "identity")


WORKLOADS = {w.name: w for w in (
    Workload(
        "protocol-k50", 40_000, 50, "validation:0.25,conformal:0.25,test:0.5",
        ("temperature",),
        "the README's acceptance protocol (tune temperature, calibrate, predict, "
        "evaluate); most of its time is in tuning",
    ),
    Workload(
        "wide-k1000", 12_000, 1000, "conformal:0.375,test:0.625", ("identity",),
        "ImageNet-shaped K=1000 rows on an identity map: load, softmax, sort, "
        "score, sets I/O and metrics on wide rows; no tuning",
    ),
    Workload(
        "tune-k50", 8_000, 50, "validation:0.0625,conformal:0.25,test:0.6875",
        ("platt", "vector"),
        "finite-difference descent (Platt at CLI defaults, vector capped): "
        "thousands of loss evaluations on 250-row halves",
    ),
)}


@dataclass(frozen=True)
class Step:
    stage: str               # "tune", "sets" or "evaluate"
    command: str             # the `confsets` subcommand the step is
    map: str
    argv: tuple[str, ...]    # arguments of `confsets.cli.main`

    @property
    def via_library(self) -> bool:
        """True for `tune --map vector`, which runs through the library."""
        return self.command == "tune" and self.map == "vector"


def parts_dir(root: Path) -> Path:
    return root / "parts"


def identity_map_path(root: Path) -> Path:
    return root / "map_identity.json"


def chain(wl: Workload, seed: int, root: Path, out: Path,
          tune_args: tuple[str, ...] = ()) -> list[Step]:
    """The workload's steps, reading inputs under `root`, writing under `out`."""
    parts = parts_dir(root)
    test = str(parts / "test.bin")
    s = str(seed)
    steps = [
        Step("tune", "tune", m,
             ("tune", "--in", str(parts / "validation.bin"), "--alpha", ALPHA,
              "--map", m, "--seed", s, "--out", str(out / f"map_{m}.json"), *tune_args))
        for m in wl.tuned
    ]
    for m in wl.maps:
        map_file = identity_map_path(root) if m == "identity" else out / f"map_{m}.json"
        threshold, sets, report = (str(out / f"{stem}_{m}{ext}") for stem, ext in
                                   (("threshold", ".json"), ("sets", ".jsonl"),
                                    ("report", ".json")))
        steps += [
            Step("sets", "calibrate", m,
                 ("calibrate", "--in", str(parts / "conformal.bin"), "--alpha", ALPHA,
                  "--score", "aps", "--randomized", "true", "--params", str(map_file),
                  "--seed", s, "--out", threshold)),
            Step("sets", "predict", m,
                 ("predict", "--in", test, "--threshold", threshold, "--seed", s,
                  "--out", sets)),
            Step("evaluate", "evaluate", m,
                 ("evaluate", "--sets", sets, "--in", test, "--bins", "default",
                  "--ece-bins", "15", "--threshold", threshold, "--out", report)),
        ]
    return steps


def warmup_chain(wl: Workload, seed: int, root: Path, out: Path) -> list[Step]:
    """An untimed pass that reads every input and runs every layer once."""
    maps = ("temperature",) if wl.tuned else wl.maps
    return chain(dataclasses.replace(wl, maps=maps), seed, root, out, WARMUP_TUNE_ARGS)


def outputs(wl: Workload, out: Path) -> list[Path]:
    """Every file the timed chain writes."""
    files = []
    for m in wl.tuned:
        files += [out / f"map_{m}.json", out / f"map_{m}.report.json"]
    for m in wl.maps:
        files += [out / f"threshold_{m}.json", out / f"sets_{m}.jsonl",
                  out / f"report_{m}.json"]
    return files
