"""Conformal calibration and prediction-set construction.

`calibrate_threshold` gives tau, the ceil((n+1)(1-alpha))-th smallest
calibration score, computed with exact rational arithmetic (naive float
evaluation of (n+1)*(1-alpha) can land on the wrong side of an integer).
When that level exceeds n, tau = +inf and every prediction set is the
full label set; threshold files spell it "include_all".

A batch of prediction sets is one n-by-K boolean mask: entry (i, k) is
True when class k is in row i's set; `scores.set_mask` builds it.  The
JSONL sets file is converted to and from that mask only at the file edge.
`load_prediction_sets` allocates the mask once and fills it one chunk of
lines at a time, with one ``json.loads`` per chunk.  One function holds
the record rules; it checks a whole chunk at once, and each line alone
only in a chunk that fails, so that an error names its line.  A record
holds the keys "index" and "set" once each and no other, so its only
strings are those keys, and one count of the "},\\n{" joins, not a
bracket scan, shows that each line holds one record.

`label_scores` and `predict` take the map's probabilities one row block
of `maps.probability_blocks` at a time: label_scores keeps one true-label
score per row, predict writes each block's rows of the mask.  A row's u
draw is keyed by its sample index, so the outputs do not depend on the
block size.  `tuning.efficiency_gap_loss` and the vector tuner score
both halves with `label_scores` too; the scalar tuner's evaluation gives
its scores bit for bit.

`calibrate` is the one maker of a `ConformalThreshold` (a threshold file
is the other source): it records the tau of `label_scores` with the
score, map, alpha, n_cal and class count that produced it, and `predict`
rejects data with another class count.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn

import numpy as np

from .data import LogitsDataset
from .errors import (ValidationError, check_keys, is_int, is_number, line_chunks, read_json,
                     write_json)
from .maps import CalibrationMap, probability_blocks
from .scores import ScoreSpec, draw_u_many, set_mask, true_label_scores


@dataclass(frozen=True, eq=False)
class ConformalThreshold:
    """Calibrated tau plus everything needed to reproduce it.

    ``tau`` is +inf when the calibration set is too small for alpha.
    ``k`` is the class count of the calibration data, or None when the
    threshold was loaded from a file without it.
    """

    tau: float
    alpha: float
    n_cal: int
    score_spec: ScoreSpec
    cal_map: CalibrationMap
    k: int | None = None

    def to_json_dict(self) -> dict:
        obj = {
            "tau": "include_all" if self.tau == math.inf else float(self.tau),
            "alpha": self.alpha,
            "n_cal": self.n_cal,
            "score": self.score_spec.to_json_dict(),
            "map": self.cal_map.to_json_dict(),
        }
        if self.k is not None:
            obj["k"] = self.k
        return obj

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ConformalThreshold":
        if not isinstance(obj, dict):
            raise ValidationError("threshold JSON must be an object")
        keys = ("tau", "alpha", "n_cal", "score", "map")
        check_keys(obj, (*keys, "k"), "threshold JSON")
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
        # sample indices are int64
        if not (is_int(n_cal) and 1 <= n_cal < 2**63):
            raise ValidationError(
                f"threshold n_cal must be an integer in [1, 2**63), got {n_cal!r}"
            )
        k = obj.get("k")
        if "k" in obj and not (is_int(k) and k >= 2):
            raise ValidationError(f"threshold k must be an integer >= 2, got {k!r}")
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
            k=k,
        )

    def check_classes(self, k: int) -> None:
        """Reject data whose class count differs from the calibration data's."""
        if self.k is not None and self.k != k:
            raise ValidationError(
                f"the threshold was calibrated on {self.k} classes, the data has {k}"
            )


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """One row of a prediction-set mask: the sample index and its member classes."""

    sample_index: int
    members: np.ndarray


def conformal_level(n: int, alpha: float) -> int:
    """ceil((n+1)(1-alpha)) evaluated exactly on the binary value of alpha."""
    return math.ceil((n + 1) * (1 - Fraction(alpha)))


def calibrate_threshold(cal_scores, alpha: float) -> float:
    """Order-statistic tau over the calibration scores.

    Returns the smallest observed score s such that the fraction of
    scores <= s reaches ceil((n+1)(1-alpha))/n, or +inf when that level
    exceeds 1.
    """
    scores = np.asarray(cal_scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValidationError("calibration scores must be a non-empty 1-d list")
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    n = scores.shape[0]
    level = conformal_level(n, alpha)
    if level > n:
        return math.inf
    return float(np.partition(scores, level - 1)[level - 1])


def predict_sets(threshold: ConformalThreshold, probs: np.ndarray,
                 u: np.ndarray | None = None) -> np.ndarray:
    """n-by-K boolean mask of the classes whose score is <= tau."""
    return set_mask(threshold.score_spec, probs, threshold.tau, u)


def label_scores(ds: LogitsDataset, cal_map: CalibrationMap, spec: ScoreSpec,
                 precision: str = "f64") -> np.ndarray:
    """The n-vector of true-label scores of ``ds`` under ``cal_map``.

    Row i draws its u at sample index i under spec.rng_seed.  Rows are
    scored one `probability_blocks` block at a time.
    """
    scores = np.empty(ds.n)
    for rows, probs in probability_blocks(cal_map, ds, precision):
        scores[rows] = true_label_scores(spec, probs, ds.labels[rows], _draws(spec, 0, rows))
    return scores


def calibrate(ds: LogitsDataset, cal_map: CalibrationMap, spec: ScoreSpec,
              alpha: float, precision: str = "f64") -> ConformalThreshold:
    """Threshold over the `label_scores` of ``ds``, recording ``ds.k``."""
    tau = calibrate_threshold(label_scores(ds, cal_map, spec, precision), alpha)
    return ConformalThreshold(tau=tau, alpha=alpha, n_cal=ds.n, score_spec=spec,
                              cal_map=cal_map, k=ds.k)


def predict(threshold: ConformalThreshold, ds: LogitsDataset,
            precision: str = "f64") -> np.ndarray:
    """Prediction-set mask for ``ds`` under a calibrated threshold.

    Row i draws its u at sample index n_cal + i under the threshold's
    seed, so the test stream never overlaps the calibration stream.  The
    mask is filled one `probability_blocks` block at a time.  Data with a
    class count other than the threshold's, or too many rows for the
    int64 sample indices after n_cal, is a ValidationError.
    """
    threshold.check_classes(ds.k)
    if threshold.score_spec.uses_u and threshold.n_cal > 2**63 - ds.n:
        raise ValidationError(
            f"threshold n_cal={threshold.n_cal} puts the u draws of {ds.n} rows past "
            "the last int64 sample index"
        )
    mask = np.empty((ds.n, ds.k), dtype=bool)
    for rows, probs in probability_blocks(threshold.cal_map, ds, precision):
        mask[rows] = predict_sets(threshold, probs,
                                  _draws(threshold.score_spec, threshold.n_cal, rows))
    return mask


def _draws(spec: ScoreSpec, first: int, rows: slice) -> np.ndarray | None:
    """The u draws of ``rows`` at sample indices first + row, or None without u."""
    if not spec.uses_u:
        return None
    return draw_u_many(spec.rng_seed, first + np.arange(rows.start, rows.stop))


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
    threshold = calibrate(cal, cal_map, score_spec, alpha, precision)
    return PipelineResult(threshold=threshold, mask=predict(threshold, test, precision))


# ---------------------------------------------------------------------------
# file formats

# Mask entries `save_prediction_sets` turns into text at a time.
_WRITE_CELLS = 1 << 18


def save_threshold(threshold: ConformalThreshold, path) -> None:
    write_json(threshold.to_json_dict(), path)


def load_threshold(path) -> ConformalThreshold:
    return ConformalThreshold.from_json_dict(read_json(path, "threshold file"))


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

    The i-th record (blank lines skipped) must be {"index": i, "set": [...]},
    with no other key, no key twice, and distinct integer members in
    [0, k).  A first pass counts the rows, so the mask is allocated once.
    The second joins each `line_chunks` chunk's stripped non-blank lines
    with ",\\n", parses them as one JSON array and lets `_fill_rows` check
    the records and write their rows of the mask.  A chunk that fails goes
    to `_reject_chunk`, which names the first bad line as a line-by-line
    reading would.

    No bracket scan is needed to find a line that holds two records or
    part of one.  A record with the two keys, an integer and a list of
    integers has four quotes in its text, and more exactly when a key
    repeats (``json.loads`` keeps the last value), so `_fill_rows` counts
    the quotes.  A record that passes thus has no string but its two keys
    and no brace but its own pair, and the chunk's only newlines are the
    joins.  So once every record passes, each line holds one record
    exactly when there are as many records as lines, the text starts with
    "{" and ends with "}", and every join reads "},\\n{": one ``str.count``.
    """
    n = sum(len(lines) - sum(map(str.isspace, lines)) for _, lines in line_chunks(path))
    mask = np.zeros((n, k), dtype=bool)
    row = 0
    for first, lines in line_chunks(path):
        count = len(lines) - sum(map(str.isspace, lines))
        if not count:
            continue
        body = ",\n".join([line.strip() for line in lines if not line.isspace()])
        values = []
        if body.isascii() and body[0] + body[-1] == "{}" and body.count("},\n{") == count - 1:
            with contextlib.suppress(ValueError, RecursionError):
                values = json.loads(f"[{body}]")
        if len(values) != count or _fill_rows(mask[row:row + count], values, body, row, k):
            _reject_chunk(first, lines, row, k)
        row += count
    return mask


def _fill_rows(block: np.ndarray, values: list, text: str, row: int, k: int) -> str | None:
    """Write the records ``values``, parsed from ``text``, into the
    all-False ``block``, one row each, the first at row ``row`` of the
    file; or return the message of the first rule that a record breaks.

    The rules, in order: a record is an object with the keys "index" and
    "set" and no other; the indices are the row positions; each set is a
    list of integers; no key repeats; the members lie in [0, k) with none
    repeated.  For a single record the message is the one a line-by-line
    reading gives; for more, only whether there is one counts.
    """
    if not set(map(type, values)) <= {dict}:
        return "missing 'index' or 'set'"
    try:
        indices = list(map(operator.itemgetter("index"), values))
        sets = list(map(operator.itemgetter("set"), values))
    except KeyError:
        return "missing 'index' or 'set'"
    if not set(map(len, values)) <= {2}:
        return f"unknown keys {sorted(set().union(*values) - {'index', 'set'})}"
    # json.loads makes no int subclass but bool, so `type` is int exactly where `is_int` holds
    if not (set(map(type, indices)) <= {int} and indices == list(range(row, row + len(values)))):
        return f"index {indices[0]!r} is not the row position {row}"
    if not (set(map(type, sets)) <= {list}
            and set(map(type, members := list(itertools.chain.from_iterable(sets)))) <= {int}):
        return "'set' must be a list of integers"
    # each key's string has two quotes, and the values now hold no string
    if text.count('"') != 4 * len(values):
        return "repeated key"
    if members and (min(members) < 0 or max(members) >= k):
        return f"member outside [0, {k})"
    lengths = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    block[np.repeat(np.arange(len(sets)), lengths),
          np.fromiter(members, dtype=np.intp, count=len(members))] = True
    # one True cell per member unless one repeats
    if np.count_nonzero(block) != len(members):
        return "duplicated member"
    return None


def _reject_chunk(first: int, lines: list[str], row: int, k: int) -> NoReturn:
    """Raise the error of the first bad line of a chunk that
    `load_prediction_sets` rejected.

    ``first`` is the chunk's first line number and ``row`` its first row.
    Each line is read alone and its record checked by `_fill_rows`, so
    every message names the line it is about, counting every line of the
    file from 0.
    """
    for lineno, line in enumerate(lines, first):
        if not line.isascii():
            raise ValidationError(f"prediction-sets line {lineno}: non-ASCII byte")
        line = line.strip()
        if not line:
            continue
        try:
            value = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"prediction-sets line {lineno}: invalid JSON ({exc})") from exc
        message = _fill_rows(np.zeros((1, k), dtype=bool), [value], line, row, k)
        if message:
            raise ValidationError(f"prediction-sets line {lineno}: {message}")
        row += 1
    raise ValidationError(
        f"prediction-sets lines {first}-{first + len(lines) - 1}: "
        "rejected as a chunk but not line by line"
    )
