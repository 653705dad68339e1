"""Conformal calibration and prediction-set construction.

The threshold is the ceil((n+1)(1-alpha))-th smallest calibration score,
computed with exact rational arithmetic (naive float evaluation of
(n+1)*(1-alpha) can land on the wrong side of an integer).  When that
level exceeds n the threshold is the INCLUDE_ALL sentinel and every
prediction set is the full label set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import LogitsDataset
from .errors import ValidationError
from .maps import CalibrationMap, apply_map_dataset
from .scores import (
    ScoreSpec,
    draw_u_many,
    score_all_classes,
    score_matrix,
    true_label_scores,
)


class _IncludeAll:
    """Sentinel: calibration size too small for the requested alpha."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INCLUDE_ALL"


INCLUDE_ALL = _IncludeAll()


@dataclass(frozen=True, eq=False)
class ConformalThreshold:
    """Calibrated tau plus everything needed to reproduce it."""

    tau: float | _IncludeAll
    alpha: float
    n_cal: int
    score_spec: ScoreSpec
    cal_map: CalibrationMap

    @property
    def is_include_all(self) -> bool:
        return self.tau is INCLUDE_ALL

    def to_json_dict(self) -> dict:
        return {
            "tau": "include_all" if self.is_include_all else float(self.tau),
            "alpha": self.alpha,
            "n_cal": self.n_cal,
            "score": self.score_spec.to_json_dict(),
            "map": self.cal_map.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ConformalThreshold":
        for key in ("tau", "alpha", "n_cal", "score", "map"):
            if key not in obj:
                raise ValidationError(f"threshold JSON missing field {key!r}")
        tau = INCLUDE_ALL if obj["tau"] == "include_all" else float(obj["tau"])
        return cls(
            tau=tau,
            alpha=float(obj["alpha"]),
            n_cal=int(obj["n_cal"]),
            score_spec=ScoreSpec.from_json_dict(obj["score"]),
            cal_map=CalibrationMap.from_json_dict(obj["map"]),
        )


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Classes whose score fell at or below tau for one test sample."""

    sample_index: int
    members: np.ndarray

    def __contains__(self, label) -> bool:
        return bool(np.isin(label, self.members))

    def __len__(self) -> int:
        return int(self.members.shape[0])


def conformal_level(n: int, alpha: float) -> int:
    """ceil((n+1)(1-alpha)) evaluated exactly on the binary value of alpha."""
    return math.ceil((n + 1) * (1 - Fraction(alpha)))


def calibrate_threshold(cal_scores, alpha: float,
                        score_spec: ScoreSpec | None = None,
                        cal_map: CalibrationMap | None = None) -> ConformalThreshold:
    """Order-statistic threshold over the calibration scores.

    Returns the smallest observed score s such that the fraction of
    scores <= s reaches ceil((n+1)(1-alpha))/n, or INCLUDE_ALL when that
    level exceeds 1.
    """
    scores = np.asarray(cal_scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValidationError("calibration scores must be a non-empty 1-d list")
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    n = scores.shape[0]
    level = conformal_level(n, alpha)
    if level > n:
        tau: float | _IncludeAll = INCLUDE_ALL
    else:
        tau = float(np.partition(scores, level - 1)[level - 1])
    return ConformalThreshold(
        tau=tau,
        alpha=alpha,
        n_cal=n,
        score_spec=score_spec if score_spec is not None else ScoreSpec(kind="aps"),
        cal_map=cal_map if cal_map is not None else CalibrationMap.identity(),
    )


def predict_set(threshold: ConformalThreshold, probs_row: np.ndarray,
                u: float | None = None, sample_index: int = 0) -> PredictionSet:
    """Prediction set for one probability row under a calibrated threshold."""
    p = np.asarray(probs_row, dtype=np.float64)
    if p.ndim != 1:
        raise ValidationError("probs_row must be 1-d")
    if threshold.is_include_all:
        members = np.arange(p.shape[0])
    else:
        row_scores = score_all_classes(threshold.score_spec, p, u)
        members = np.flatnonzero(row_scores <= threshold.tau)
    return PredictionSet(sample_index=sample_index, members=members)


def predict_sets(threshold: ConformalThreshold, probs: np.ndarray,
                 u: np.ndarray | None = None,
                 start_index: int = 0) -> list[PredictionSet]:
    """Vectorized predict_set over a probability matrix."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2:
        raise ValidationError("probs must be an n-by-K matrix")
    n, k = p.shape
    if threshold.is_include_all:
        return [
            PredictionSet(sample_index=start_index + i, members=np.arange(k))
            for i in range(n)
        ]
    matrix = score_matrix(threshold.score_spec, p, u)
    keep = matrix <= threshold.tau
    return [
        PredictionSet(sample_index=start_index + i, members=np.flatnonzero(keep[i]))
        for i in range(n)
    ]


@dataclass(frozen=True, eq=False)
class PipelineResult:
    threshold: ConformalThreshold
    sets: list[PredictionSet]


def run_pipeline(cal: LogitsDataset, test: LogitsDataset,
                 cal_map: CalibrationMap, score_spec: ScoreSpec,
                 alpha: float, precision: str = "f64") -> PipelineResult:
    """Calibrate on ``cal`` (true-label scores) and predict sets on ``test``.

    Uniform draws use sample indices 0..n_cal-1 for calibration and
    n_cal..n_cal+n_test-1 for test rows, under score_spec.rng_seed, so
    the two streams are disjoint and reproducible.
    """
    if cal.k != test.k:
        raise ValidationError(
            f"calibration and test class counts differ ({cal.k} vs {test.k})"
        )
    cal_probs = apply_map_dataset(cal_map, cal, precision=precision)
    u_cal = None
    if score_spec.uses_u:
        u_cal = draw_u_many(score_spec.rng_seed, np.arange(cal.n))
    cal_scores = true_label_scores(score_spec, cal_probs, cal.labels, u_cal)
    threshold = calibrate_threshold(cal_scores, alpha,
                                    score_spec=score_spec, cal_map=cal_map)

    test_probs = apply_map_dataset(cal_map, test, precision=precision)
    u_test = None
    if score_spec.uses_u:
        u_test = draw_u_many(score_spec.rng_seed, cal.n + np.arange(test.n))
    sets = predict_sets(threshold, test_probs, u_test)
    return PipelineResult(threshold=threshold, sets=sets)


# ---------------------------------------------------------------------------
# file formats


def save_threshold(threshold: ConformalThreshold, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(threshold.to_json_dict(), fh, indent=2)
        fh.write("\n")


def load_threshold(path) -> ConformalThreshold:
    with open(path, "r", encoding="ascii") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"threshold file is not valid JSON: {exc}") from exc
    return ConformalThreshold.from_json_dict(obj)


def save_prediction_sets(sets: list[PredictionSet], path) -> None:
    """One JSON object per line: {"index": int, "set": [int, ...]}."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for ps in sets:
            fh.write(json.dumps({"index": ps.sample_index,
                                 "set": [int(m) for m in ps.members]}))
            fh.write("\n")


def load_prediction_sets(path) -> list[PredictionSet]:
    sets: list[PredictionSet] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"prediction-sets line {lineno}: invalid JSON ({exc})"
                ) from exc
            if "index" not in obj or "set" not in obj:
                raise ValidationError(
                    f"prediction-sets line {lineno}: missing 'index' or 'set'"
                )
            sets.append(PredictionSet(
                sample_index=int(obj["index"]),
                members=np.asarray(sorted(int(m) for m in obj["set"]), dtype=np.int64),
            ))
    return sets
