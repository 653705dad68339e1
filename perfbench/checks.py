"""Output checks, run after the timed process has ended and outside any timing.

Each check is a (name, ok, detail) triple; every failed check counts toward
the run's `failed`, as does every subcommand that exited non-zero.  The
reference for prediction sets and scores is the brute-force code in the
checkout's tests/oracles.py.
"""

from __future__ import annotations

import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from confsets import engine, maps
from confsets.data import load_dataset
from confsets.errors import ValidationError
from confsets.scores import ScoreSpec, draw_u_many, true_label_scores

from workloads import ALPHA, identity_map_path, parts_dir

ORACLE_ROWS = 200
# oracle_set sorts the row once per class: about 0.8 s a row at K=1000.
WIDE_ORACLE_ROWS = 6
CAL_SCORE_ROWS = 200
# Half-width of the coverage band in standard deviations: a false alarm is
# a 1-in-3.5-million event.
BAND_SD = 5.0


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_sets(path: Path) -> list[tuple[int, list[int]]]:
    rows = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            obj = json.loads(line)
            rows.append((obj["index"], obj["set"]))
    return rows


def coverage_band(n_cal: int, n_test: int, alpha: float) -> tuple[float, float]:
    """Where test coverage lands, short of a 5-sd fluke.

    Coverage given the calibration set is Beta(l, n_cal + 1 - l) with
    l = ceil((n_cal + 1)(1 - alpha)), so its mean lies in
    [1 - alpha, 1 - alpha + 1/(n_cal + 1)]; the test rows add binomial noise.
    """
    level = math.ceil((n_cal + 1) * (1 - Fraction(alpha)))
    mean = level / (n_cal + 1)
    sd = math.sqrt(mean * (1 - mean) * (1 / (n_cal + 2) + 1 / n_test))
    return 1 - alpha - BAND_SD * sd, 1 - alpha + 1 / (n_cal + 1) + BAND_SD * sd


def check_map(m: str, seed: int, root: Path, out: Path, oracles) -> tuple[list, dict]:
    """Checks of one map's threshold, sets and report; also its coverage and size."""
    checks = []
    parts = parts_dir(root)
    cal = load_dataset(parts / "conformal.bin", "binary")
    test = load_dataset(parts / "test.bin", "binary")
    map_path = identity_map_path(root) if m == "identity" else out / f"map_{m}.json"
    cal_map = maps.load_map(map_path)
    threshold = json.loads((out / f"threshold_{m}.json").read_text())
    tau, alpha = threshold["tau"], threshold["alpha"]
    spec = ScoreSpec(kind="aps", randomized=True, rng_seed=seed)
    checks.append((f"{m}: threshold records its inputs",
                   threshold["map"] == cal_map.to_json_dict()
                   and threshold["score"] == spec.to_json_dict()
                   and threshold["n_cal"] == cal.n and alpha == float(ALPHA),
                   f"n_cal {threshold['n_cal']}, alpha {alpha}"))

    cal_probs = maps.apply_map_dataset(cal_map, cal)
    u_cal = draw_u_many(seed, np.arange(cal.n))
    cal_scores = true_label_scores(spec, cal_probs, cal.labels, u_cal)
    level = math.ceil((cal.n + 1) * (1 - Fraction(alpha)))
    expected_tau = float(np.sort(cal_scores)[level - 1])
    checks.append((f"{m}: tau is the exact order statistic", tau == expected_tau,
                   f"tau {tau!r}, score #{level} of {cal.n} is {expected_tau!r}"))
    rng = np.random.default_rng(seed)
    rows = rng.choice(cal.n, size=min(CAL_SCORE_ROWS, cal.n), replace=False)
    worst = max(abs(oracles.oracle_score("aps", list(cal_probs[i]), int(cal.labels[i]),
                                         float(u_cal[i])) - cal_scores[i]) for i in rows)
    checks.append((f"{m}: calibration scores match oracle_score", worst <= 1e-12,
                   f"{len(rows)} rows, max |diff| {worst:.1e}"))

    sets = read_sets(out / f"sets_{m}.jsonl")
    checks.append((f"{m}: one set per test row, in order",
                   [i for i, _ in sets] == list(range(test.n)),
                   f"{len(sets)} sets for {test.n} rows"))
    test_probs = maps.apply_map_dataset(cal_map, test)
    n_oracle = min(ORACLE_ROWS if test.k <= 100 else WIDE_ORACLE_ROWS, test.n)
    rows = np.sort(rng.choice(test.n, size=n_oracle, replace=False))
    u_test = draw_u_many(seed, cal.n + rows)
    bad = [int(i) for i, u in zip(rows, u_test)
           if oracles.oracle_set("aps", list(test_probs[i]), float(u), tau) != sets[i][1]]
    checks.append((f"{m}: sets match oracle_set", not bad,
                   f"{len(rows)} sampled rows, mismatched rows {bad[:5]}"))

    covered = sum(int(label) in members for label, (_, members) in zip(test.labels, sets))
    coverage, avg_size = covered / test.n, sum(len(s) for _, s in sets) / test.n
    lo, hi = coverage_band(cal.n, test.n, alpha)
    checks.append((f"{m}: coverage within the finite-sample band", lo <= coverage <= hi,
                   f"coverage {coverage:.5f}, band [{lo:.5f}, {hi:.5f}]"))
    report = json.loads((out / f"report_{m}.json").read_text())
    checks.append((f"{m}: report matches the sets file",
                   report["coverage"] == coverage and report["average_size"] == avg_size
                   and report["n_test"] == test.n,
                   f"report coverage {report['coverage']}, average_size {report['average_size']}"))

    pipeline = engine.run_pipeline(cal, test, cal_map, spec, alpha)
    same = (len(pipeline.sets) == len(sets)
            and all(ps.sample_index == i and ps.members.tolist() == members
                    for ps, (i, members) in zip(pipeline.sets, sets)))
    checks.append((f"{m}: CLI sets equal run_pipeline", same,
                   f"run_pipeline tau {pipeline.threshold.tau!r}"))
    return checks, {"coverage": coverage, "average_size": avg_size}


def run(wl, seed: int, root: Path, out: Path) -> tuple[list, dict]:
    """All output checks of a workload, plus each map's coverage and size."""
    oracles = load_oracles(Path.cwd())
    checks, facts = [], {}
    for m in wl.maps:
        try:
            map_checks, facts[m] = check_map(m, seed, root, out, oracles)
        except (OSError, KeyError, ValueError, ValidationError) as exc:
            map_checks = [(f"{m}: outputs readable", False, f"{type(exc).__name__}: {exc}")]
        checks += [(name, bool(ok), detail) for name, ok, detail in map_checks]
    return checks, facts
