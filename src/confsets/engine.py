"""Conformal calibration and prediction-set construction.

The threshold is the ceil((n+1)(1-alpha))-th smallest calibration score,
computed with exact rational arithmetic (naive float evaluation of
(n+1)*(1-alpha) can land on the wrong side of an integer).  When that
level exceeds n the threshold is tau = +inf and every prediction set is
the full label set; threshold files spell it "include_all".

A batch of prediction sets is one n-by-K boolean mask: entry (i, k) is
True when class k is in row i's set; `scores.set_mask` builds it.  The
JSONL sets file is converted to and from that mask only at the file edge.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import LogitsDataset
from .errors import ValidationError, check_keys, is_int, is_number
from .maps import CalibrationMap, apply_map_dataset
from .scores import ScoreSpec, draw_u_many, set_mask, true_label_scores


@dataclass(frozen=True, eq=False)
class ConformalThreshold:
    """Calibrated tau plus everything needed to reproduce it.

    ``tau`` is +inf when the calibration set is too small for alpha.
    """

    tau: float
    alpha: float
    n_cal: int
    score_spec: ScoreSpec
    cal_map: CalibrationMap

    def to_json_dict(self) -> dict:
        return {
            "tau": "include_all" if self.tau == math.inf else float(self.tau),
            "alpha": self.alpha,
            "n_cal": self.n_cal,
            "score": self.score_spec.to_json_dict(),
            "map": self.cal_map.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ConformalThreshold":
        if not isinstance(obj, dict):
            raise ValidationError("threshold JSON must be an object")
        keys = ("tau", "alpha", "n_cal", "score", "map")
        check_keys(obj, keys, "threshold JSON")
        for key in keys:
            if key not in obj:
                raise ValidationError(f"threshold JSON missing field {key!r}")
        tau, alpha, n_cal = obj["tau"], obj["alpha"], obj["n_cal"]
        if tau == "include_all":
            tau = math.inf
        elif not (is_number(tau) and math.isfinite(tau)):
            raise ValidationError(
                f"threshold tau must be a finite number or 'include_all', got {tau!r}"
            )
        if not (is_number(alpha) and 0.0 < alpha < 1.0):
            raise ValidationError(f"threshold alpha must be in (0, 1), got {alpha!r}")
        if not (is_int(n_cal) and n_cal >= 1):
            raise ValidationError(f"threshold n_cal must be an integer >= 1, got {n_cal!r}")
        if (tau == math.inf) != (conformal_level(n_cal, alpha) > n_cal):
            raise ValidationError(
                f"threshold tau {obj['tau']!r} disagrees with n_cal={n_cal} at "
                f"alpha={alpha}: tau is 'include_all' exactly when "
                "ceil((n_cal+1)(1-alpha)) > n_cal"
            )
        return cls(
            tau=float(tau),
            alpha=float(alpha),
            n_cal=n_cal,
            score_spec=ScoreSpec.from_json_dict(obj["score"]),
            cal_map=CalibrationMap.from_json_dict(obj["map"]),
        )


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """One row of a prediction-set mask: the sample index and its member classes."""

    sample_index: int
    members: np.ndarray


def conformal_level(n: int, alpha: float) -> int:
    """ceil((n+1)(1-alpha)) evaluated exactly on the binary value of alpha."""
    return math.ceil((n + 1) * (1 - Fraction(alpha)))


def calibrate_threshold(cal_scores, alpha: float,
                        score_spec: ScoreSpec | None = None,
                        cal_map: CalibrationMap | None = None) -> ConformalThreshold:
    """Order-statistic threshold over the calibration scores.

    Returns the smallest observed score s such that the fraction of
    scores <= s reaches ceil((n+1)(1-alpha))/n, or tau = +inf when that
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
        tau = math.inf
    else:
        tau = float(np.partition(scores, level - 1)[level - 1])
    return ConformalThreshold(
        tau=tau,
        alpha=alpha,
        n_cal=n,
        score_spec=score_spec if score_spec is not None else ScoreSpec(kind="aps"),
        cal_map=cal_map if cal_map is not None else CalibrationMap.identity(),
    )


def predict_sets(threshold: ConformalThreshold, probs: np.ndarray,
                 u: np.ndarray | None = None) -> np.ndarray:
    """n-by-K boolean mask of the classes whose score is <= tau."""
    return set_mask(threshold.score_spec, probs, threshold.tau, u)


def calibrate(ds: LogitsDataset, cal_map: CalibrationMap, spec: ScoreSpec,
              alpha: float, precision: str = "f64") -> ConformalThreshold:
    """Threshold over the true-label scores of ``ds`` under ``cal_map``.

    Row i draws its u at sample index i under spec.rng_seed.
    """
    probs = apply_map_dataset(cal_map, ds, precision=precision)
    u = draw_u_many(spec.rng_seed, np.arange(ds.n)) if spec.uses_u else None
    scores = true_label_scores(spec, probs, ds.labels, u)
    return calibrate_threshold(scores, alpha, score_spec=spec, cal_map=cal_map)


def predict(threshold: ConformalThreshold, ds: LogitsDataset,
            precision: str = "f64") -> np.ndarray:
    """Prediction-set mask for ``ds`` under a calibrated threshold.

    Row i draws its u at sample index n_cal + i under the threshold's
    seed, so the test stream never overlaps the calibration stream.
    """
    spec = threshold.score_spec
    probs = apply_map_dataset(threshold.cal_map, ds, precision=precision)
    u = None
    if spec.uses_u:
        u = draw_u_many(spec.rng_seed, threshold.n_cal + np.arange(ds.n))
    return predict_sets(threshold, probs, u)


@dataclass(frozen=True, eq=False)
class PipelineResult:
    threshold: ConformalThreshold
    mask: np.ndarray

    @property
    def sets(self) -> list[PredictionSet]:
        """The mask as one PredictionSet per row, in row order."""
        return [PredictionSet(sample_index=i, members=np.flatnonzero(row))
                for i, row in enumerate(self.mask)]


def run_pipeline(cal: LogitsDataset, test: LogitsDataset,
                 cal_map: CalibrationMap, score_spec: ScoreSpec,
                 alpha: float, precision: str = "f64") -> PipelineResult:
    """Calibrate on ``cal`` and predict sets on ``test``."""
    if cal.k != test.k:
        raise ValidationError(
            f"calibration and test class counts differ ({cal.k} vs {test.k})"
        )
    threshold = calibrate(cal, cal_map, score_spec, alpha, precision)
    return PipelineResult(threshold=threshold, mask=predict(threshold, test, precision))


# ---------------------------------------------------------------------------
# file formats

# Mask entries `save_prediction_sets` turns into text at a time.
_WRITE_CELLS = 1 << 18


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


def save_prediction_sets(mask: np.ndarray, path) -> None:
    """One JSON object per mask row: {"index": int, "set": [int, ...]}.

    The lines are the bytes ``json.dumps`` gives each record, formatted
    from one ``np.nonzero`` per chunk of rows; a chunk spans at most
    ``_WRITE_CELLS`` mask entries, so full sets on wide rows stay small.
    """
    n, k = mask.shape
    names = [str(c) for c in range(k)]
    step = max(1, _WRITE_CELLS // max(k, 1))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for start in range(0, n, step):
            chunk = mask[start:start + step]
            rows, cols = np.nonzero(chunk)
            bounds = np.searchsorted(rows, np.arange(chunk.shape[0] + 1)).tolist()
            members = [names[c] for c in cols.tolist()]
            fh.write("".join([
                f'{{"index": {start + i}, "set": [{", ".join(members[a:b])}]}}\n'
                for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
            ]))


def load_prediction_sets(path, k: int) -> np.ndarray:
    """The n-by-k mask of a sets file.

    The i-th set (blank lines skipped) must carry "index": i and distinct
    integer members in [0, k).
    """
    sets: list[list[int]] = []
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
            if not isinstance(obj, dict) or "index" not in obj or "set" not in obj:
                raise ValidationError(
                    f"prediction-sets line {lineno}: missing 'index' or 'set'"
                )
            index, members = obj["index"], obj["set"]
            if not (is_int(index) and index == len(sets)):
                raise ValidationError(
                    f"prediction-sets line {lineno}: index {index!r} is not the "
                    f"row position {len(sets)}"
                )
            if not (isinstance(members, list) and all(is_int(m) for m in members)):
                raise ValidationError(
                    f"prediction-sets line {lineno}: 'set' must be a list of integers"
                )
            if members and (min(members) < 0 or max(members) >= k):
                raise ValidationError(
                    f"prediction-sets line {lineno}: member outside [0, {k})"
                )
            if len(set(members)) != len(members):
                raise ValidationError(f"prediction-sets line {lineno}: duplicated member")
            sets.append(members)
    mask = np.zeros((len(sets), k), dtype=bool)
    for i, members in enumerate(sets):
        mask[i, members] = True
    return mask
