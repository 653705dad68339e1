"""Conformal calibration and prediction-set construction.

`calibrate_threshold` gives tau, the ceil((n+1)(1-alpha))-th smallest
calibration score, computed with exact rational arithmetic (naive float
evaluation of (n+1)*(1-alpha) can land on the wrong side of an integer).
When that level exceeds n, tau = +inf and every prediction set is the
full label set; threshold files spell it "include_all".

A batch of prediction sets is one n-by-K boolean mask: entry (i, k) is
True when class k is in row i's set; `scores.set_mask` builds it.  The
JSONL sets file is converted to and from that mask only at the file edge,
a whole chunk at a time.  `save_prediction_sets` builds each chunk's text
with one ``"".join``.  `load_prediction_sets` allocates the mask once and
fills it one chunk of lines at a time: a chunk that is exactly the
writer's bytes (`_WRITTEN`) with one C-level parse of its numbers and
three array checks, any other chunk one ``json.loads`` per line, so that
other valid JSON spellings load to the same mask and an error names its
line.  A record holds the keys "index" and "set" once each and no other.

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

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import LogitsDataset, LogitsFile
from .errors import (ValidationError, check_keys, count_nonblank_lines, is_int, is_number,
                     line_chunks, read_json, write_json)
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


def label_scores(ds: LogitsDataset | LogitsFile, cal_map: CalibrationMap, spec: ScoreSpec,
                 precision: str = "f64") -> np.ndarray:
    """The n-vector of true-label scores of ``ds`` under ``cal_map``.

    Row i draws its u at sample index i under spec.rng_seed.  Rows are
    scored one `probability_blocks` block at a time.
    """
    scores = np.empty(ds.n)
    for rows, probs in probability_blocks(cal_map, ds, precision):
        scores[rows] = true_label_scores(spec, probs, ds.labels[rows], _draws(spec, 0, rows))
    return scores


def calibrate(ds: LogitsDataset | LogitsFile, cal_map: CalibrationMap, spec: ScoreSpec,
              alpha: float, precision: str = "f64") -> ConformalThreshold:
    """Threshold over the `label_scores` of ``ds``, recording ``ds.k``."""
    tau = calibrate_threshold(label_scores(ds, cal_map, spec, precision), alpha)
    return ConformalThreshold(tau=tau, alpha=alpha, n_cal=ds.n, score_spec=spec,
                              cal_map=cal_map, k=ds.k)


def predict(threshold: ConformalThreshold, ds: LogitsDataset | LogitsFile,
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

# The sets-file records `save_prediction_sets` writes, one per line: a decimal
# without leading zero of at most 18 digits (so below 2**63) for the index and
# each member, the members ascending, ", " between them and LF after each.
_DECIMAL = "(?:0|[1-9][0-9]{0,17})"
_WRITTEN = re.compile(r'(?:\{"index": %s, "set": \[(?:%s(?:, %s)*)?\]\}\n)*'
                      % (_DECIMAL, _DECIMAL, _DECIMAL))
# `bytes.translate` arguments that turn `_WRITTEN` text into its numbers with
# -1 after each record: "{", "," and "[" become blanks, "]}\n" becomes " -1",
# and the letters, quotes and colons of the keys go.
_NUMBERS = bytes.maketrans(b'{,[]}\n', b'    -1'), b'"indexst:'


def save_threshold(threshold: ConformalThreshold, path) -> None:
    write_json(threshold.to_json_dict(), path)


def load_threshold(path) -> ConformalThreshold:
    return ConformalThreshold.from_json_dict(read_json(path, "threshold file"))


def save_prediction_sets(mask: np.ndarray, path) -> None:
    """One JSON object per mask row: {"index": int, "set": [int, ...]}.

    The lines are the bytes ``json.dumps`` gives each record (`_WRITTEN`
    spells them out).  Each chunk of rows, at most ``_WRITE_CELLS`` mask
    entries, is one ``"".join`` of an object array: a head per row, each
    member's class name with or without the ", " before it, and a tail per
    row, placed by one ``np.flatnonzero`` of the chunk.
    """
    n, k = mask.shape
    # class c's name is words[c] first in a set, words[k + c] after another
    words = np.array([str(c) for c in range(k)] + [f", {c}" for c in range(k)], dtype=object)
    step = max(1, _WRITE_CELLS // max(k, 1))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for start in range(0, n, step):
            chunk = mask[start:start + step]
            r = len(chunk)
            rows, cols = np.divmod(np.flatnonzero(chunk), k)
            # row i's head goes at bounds[i] and its tail just before bounds[i + 1]
            bounds = np.searchsorted(rows, np.arange(r + 1)) + 2 * np.arange(r + 1)
            tokens = np.empty(r + len(cols) + r, dtype=object)
            tokens[bounds[:-1]] = [f'{{"index": {i}, "set": [' for i in range(start, start + r)]
            tokens[bounds[1:] - 1] = "]}\n"
            later = np.zeros(len(cols), dtype=bool)
            later[1:] = rows[1:] == rows[:-1]
            tokens[np.arange(len(cols)) + 2 * rows + 1] = words[cols + k * later]
            fh.write("".join(tokens.tolist()))


def load_prediction_sets(path, k: int) -> np.ndarray:
    """The n-by-k mask of a sets file.

    The i-th record (blank lines skipped) must be {"index": i, "set": [...]},
    with no other key, no key twice, and distinct integer members in
    [0, k).  `count_nonblank_lines` counts the rows off the raw bytes, so
    the mask is allocated once; the file is then read one `line_chunks`
    chunk at a time.  A chunk that is exactly what `save_prediction_sets`
    writes (`_WRITTEN`) is read whole by `_fill_written`; any other chunk,
    and one that breaks a rule, is read by `_read_lines`, one
    ``json.loads`` per line, which fills its rows or names the first bad
    line.
    """
    n = count_nonblank_lines(path)
    mask = np.zeros((n, k), dtype=bool)
    row = 0
    for first, lines in line_chunks(path):
        text = "".join(lines)
        if _WRITTEN.fullmatch(text) and _fill_written(mask[row:row + len(lines)], text, row, k):
            row += len(lines)
        else:
            row = _read_lines(mask, first, lines, row, k)
    return mask


def _fill_written(block: np.ndarray, text: str, row: int, k: int) -> bool:
    """Write the records of ``text``, which matches `_WRITTEN`, into the
    all-False ``block``, the first at row ``row`` of the file; or return
    False, writing nothing, when an index is not its row position or a
    row's members are not strictly ascending and below k.

    `_NUMBERS` makes the text the blank-separated numbers of each record,
    its index then its members, with -1 after each: one C-level parse.
    """
    numbers = np.fromstring(text.encode("ascii").translate(*_NUMBERS), dtype=np.int64, sep=" ")
    ends = np.flatnonzero(numbers < 0)
    starts = np.concatenate(([0], ends[:-1] + 1))
    inside = np.ones(len(numbers), dtype=bool)
    inside[starts] = inside[ends] = False
    members = numbers[inside]
    owners = np.repeat(np.arange(len(ends)), ends - starts - 1)
    if not (np.array_equal(numbers[starts], np.arange(row, row + len(ends)))
            and np.all(members < k)
            and np.all((np.diff(members) > 0) | (np.diff(owners) > 0))):
        return False
    block[owners, members] = True
    return True


def _read_lines(mask: np.ndarray, first: int, lines: list[str], row: int, k: int) -> int:
    """Read each of ``lines`` alone and write its record's row of ``mask``,
    the first at row ``row``; return the row after the last.

    ``first`` is the number of the first line.  Blank lines are skipped,
    and the first bad line is a ValidationError that names it, counting
    every line of the file from 0.
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
        message = _record_error(value, line, row, k)
        if message:
            raise ValidationError(f"prediction-sets line {lineno}: {message}")
        mask[row, value["set"]] = True
        row += 1
    return row


def _record_error(value, text: str, row: int, k: int) -> str | None:
    """The first rule that the record ``value``, parsed from ``text``,
    breaks as row ``row`` of the file, or None.

    The rules, in order: a record is an object with the keys "index" and
    "set" and no other; the index is the row position; the set is a list
    of integers; no key repeats; the members lie in [0, k) with none
    repeated.
    """
    if not (type(value) is dict and "index" in value and "set" in value):
        return "missing 'index' or 'set'"
    if len(value) != 2:
        return f"unknown keys {sorted(set(value) - {'index', 'set'})}"
    index, members = value["index"], value["set"]
    # json.loads makes no int subclass but bool, so `type` is int exactly where `is_int` holds
    if not (type(index) is int and index == row):
        return f"index {index!r} is not the row position {row}"
    if not (type(members) is list and set(map(type, members)) <= {int}):
        return "'set' must be a list of integers"
    # json.loads keeps a repeated key's last value; each key's string has two
    # quotes, and the values now hold no string
    if text.count('"') != 4:
        return "repeated key"
    if members and (min(members) < 0 or max(members) >= k):
        return f"member outside [0, {k})"
    if len(set(members)) != len(members):
        return "duplicated member"
    return None
