"""Conformal calibration and prediction-set construction.

`calibrate_threshold` gives tau, the ceil((n+1)(1-alpha))-th smallest
calibration score, computed with exact rational arithmetic (naive float
evaluation of (n+1)*(1-alpha) can land on the wrong side of an integer).
When that level exceeds n, tau = +inf and every prediction set is the
full label set; threshold files spell it "include_all".

A batch of prediction sets is one n-by-K boolean mask: entry (i, k) is
True when class k is in row i's set; `scores._set_mask` builds it.
`_set_blocks` is the one walk that makes sets: it yields the mask rows
of one `maps.probability_blocks` block at a time.  `predict` fills the
whole mask from it; `predict_to_file`, the CLI's predict, writes each
block's rows before the next, so it never holds the mask.  A row's u
draw is keyed by its sample index, so no output depends on the block
size: each walk draws the u of all its rows at once, one n-vector like
the scores it fills, and hands each block its slice.  At either
precision a block is a float64 one that `probability_blocks` has
checked, so both walks give every block straight to the scores module's
unchecked kernels (its docstring says why such a block needs no check).
A block comes undivided, as ``(e, s, top)``, and the kernels divide only
what they read.  Calibrating, that is each label's p_y and, of the rows
whose label is not provably at rank 1, the top 64 values of a wide row
(the whole row only when the label ranks below them).  Predicting wide
rows, it is the top 64 values per row and the rows they leave open.
Neither walk divides a whole block at K > 64 (lac's sets aside, which
compare every 1 - p).

The JSONL sets file is written from mask rows and read into per-row
values, a whole block or chunk at a time.  `_write_sets`, the writer
of `predict_to_file`, builds each block's text with one ``"".join``
(`_format_sets`), and its file changes the output path only once it is
whole.  The file has one spelling, the writer's bytes: line i is
{"index": i, "set": [...]} with the members ascending, as `_RECORD`
spells it out (`errors.line_chunks` reads text, so CRLF line ends read
as LF).  `_set_records`, the reader of `load_set_sizes`, yields each
chunk of lines as its rows and members, reading a chunk of the writer's
bytes (`_WRITTEN`) with one C-level parse of its numbers and three array
checks; any other chunk is an error that names its first bad line.
`load_set_sizes`, the CLI's evaluate, keeps only each row's set size
and whether it holds the label, in one pass over the file.

`label_scores` keeps one true-label score per row of each block.
`tuning.efficiency_gap_loss` and the vector tuner score both halves
with it too; the scalar tuner's evaluation gives its scores bit for bit.

`calibrate` is the one maker of a `ConformalThreshold` (a threshold file
is the other source): it records the tau of `label_scores` with the
score, map, alpha, n_cal and class count that produced it, and `predict`
rejects data with another class count.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import LogitsDataset, LogitsFile
from .errors import (ValidationError, check_keys, is_int, is_number, line_chunks, read_json,
                     replaced_on_success, write_json)
from .maps import CalibrationMap, probability_blocks
from .scores import ScoreSpec, _set_mask, _true_label_scores, draw_u_many


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
        check_keys(obj, (*keys, "k"), "threshold JSON", keys)
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
    exceeds 1, as a threshold file's n_cal and alpha say.  A score at the
    level that is not finite (a raps or saps penalty that overflows, or
    NaN) is a ValidationError: no threshold file could hold it.
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
    tau = float(np.partition(scores, level - 1)[level - 1])
    if not math.isfinite(tau):
        raise ValidationError(
            f"the calibration score at the conformal level (rank {level} of {n}) is "
            f"{tau!r}, not a finite threshold"
        )
    return tau


def label_scores(ds: LogitsDataset | LogitsFile, cal_map: CalibrationMap, spec: ScoreSpec,
                 precision: str = "f64") -> np.ndarray:
    """The n-vector of true-label scores of ``ds`` under ``cal_map``.

    Row i draws its u at sample index i under spec.rng_seed, and each
    `probability_blocks` block is scored by `scores._true_label_scores`.
    """
    scores = np.empty(ds.n)
    u = _draws(spec, 0, ds.n)
    for rows, e, s, top in probability_blocks(cal_map, ds, precision):
        scores[rows] = _true_label_scores(spec, e, s, top, ds.labels[rows], u[rows])
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
    mask is filled one `_set_blocks` block at a time.  Data with a class
    count other than the threshold's, or too many rows for the int64
    sample indices after n_cal, is a ValidationError.
    """
    _check_predict(threshold, ds)
    mask = np.empty((ds.n, ds.k), dtype=bool)
    for rows, sets in _set_blocks(threshold, ds, precision):
        mask[rows] = sets
    return mask


def predict_to_file(threshold: ConformalThreshold, ds: LogitsDataset | LogitsFile, path) -> None:
    """Write the sets of ``predict(threshold, ds)`` to ``path``, one record
    per row, without holding the mask: `_write_sets` writes each block of
    `_set_blocks` before the next is made.
    """
    _check_predict(threshold, ds)
    _write_sets(_set_blocks(threshold, ds, "f64"), ds.k, path)


def _check_predict(threshold: ConformalThreshold, ds: LogitsDataset | LogitsFile) -> None:
    threshold.check_classes(ds.k)
    if threshold.score_spec.uses_u and threshold.n_cal > 2**63 - ds.n:
        raise ValidationError(
            f"threshold n_cal={threshold.n_cal} puts the u draws of {ds.n} rows past "
            "the last int64 sample index"
        )


def _set_blocks(threshold: ConformalThreshold, ds: LogitsDataset | LogitsFile,
                precision: str):
    """Yield ``(rows, sets)``, the mask rows of ``ds``, one
    `probability_blocks` block at a time, by `scores._set_mask`."""
    spec, tau = threshold.score_spec, threshold.tau
    u = _draws(spec, threshold.n_cal, ds.n)
    for rows, e, s, top in probability_blocks(threshold.cal_map, ds, precision):
        yield rows, _set_mask(spec, e, s, top, tau, u[rows])


def _draws(spec: ScoreSpec, first: int, n: int) -> np.ndarray:
    """The u draws of n rows at sample indices first, ..., first + n - 1, or
    ones without u."""
    if not spec.uses_u:
        return np.ones(n)
    return draw_u_many(spec.rng_seed, first + np.arange(n))


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

def save_threshold(threshold: ConformalThreshold, path) -> None:
    write_json(threshold.to_json_dict(), path)


def load_threshold(path) -> ConformalThreshold:
    return ConformalThreshold.from_json_dict(read_json(path, "threshold file"))


# The one spelling of row i's sets-file record, as `_format_sets` writes it:
# a decimal without leading zero of at most 18 digits (so below 2**63) for
# the index, i, and each member, ascending and below K, ", " between the
# members and LF after the record.  `_WRITTEN` matches a run of them.
_DECIMAL = "(?:0|[1-9][0-9]{0,17})"
_RECORD = re.compile(r'\{"index": %s, "set": \[(?:%s(?:, %s)*)?\]\}\n'
                     % (_DECIMAL, _DECIMAL, _DECIMAL))
_WRITTEN = re.compile(f"(?:{_RECORD.pattern})*")
# `bytes.translate` arguments that turn `_WRITTEN` text into its numbers with
# -1 after each record: "{", "," and "[" become blanks, "]}\n" becomes " -1",
# and the letters, quotes and colons of the keys go.
_NUMBERS = bytes.maketrans(b'{,[]}\n', b'    -1'), b'"indexst:'


def _write_sets(blocks, k: int, path) -> None:
    """Write the sets-file lines of each ``(rows, sets)`` of ``blocks``, mask
    rows of k classes, to ``path`` through `replaced_on_success`: on any
    error ``path`` is left as it was, or absent.

    Each row is one {"index": int, "set": [int, ...]} record, the bytes
    ``json.dumps`` gives it (`_RECORD` spells them out).
    """
    words = _member_words(k)
    with replaced_on_success(path) as fh:
        for rows, sets in blocks:
            fh.write(_format_sets(sets, rows.start, words))


def _member_words(k: int) -> np.ndarray:
    """Class c's name in a set: words[c] first in the set, words[k + c] after another."""
    return np.array([str(c) for c in range(k)] + [f", {c}" for c in range(k)], dtype=object)


def _format_sets(chunk: np.ndarray, start: int, words: np.ndarray) -> str:
    """The sets-file lines of the mask rows ``chunk``, the first row ``start``.

    One ``"".join`` of an object array: a head per row, each member's
    name from `_member_words`, and a tail per row, placed by one
    ``np.flatnonzero`` of the chunk.
    """
    r, k = chunk.shape
    rows, cols = np.divmod(np.flatnonzero(chunk), k)
    # row i's head goes at bounds[i] and its tail just before bounds[i + 1]
    bounds = np.searchsorted(rows, np.arange(r + 1)) + 2 * np.arange(r + 1)
    tokens = np.empty(r + len(cols) + r, dtype=object)
    tokens[bounds[:-1]] = [f'{{"index": {i}, "set": [' for i in range(start, start + r)]
    tokens[bounds[1:] - 1] = "]}\n"
    later = np.zeros(len(cols), dtype=bool)
    later[1:] = rows[1:] == rows[:-1]
    tokens[np.arange(len(cols)) + 2 * rows + 1] = words[cols + k * later]
    return "".join(tokens.tolist())


def load_set_sizes(path, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(sizes, covered)`` of a sets file, read by `_set_records` without
    its mask: each record's member count, and whether it holds the label
    of its row in ``labels``.

    Both have one entry per record; past the last label, covered is False.
    The file is read once, into two vectors of one entry per label; only a
    file with more records than labels grows them.
    """
    sizes = np.zeros(len(labels), dtype=np.int64)
    covered = np.zeros(len(labels), dtype=bool)
    records = 0
    for rows, owners, members in _set_records(path, k):
        records = rows.stop
        if records > sizes.size:
            more = max(records, 2 * sizes.size) - sizes.size
            sizes = np.concatenate([sizes, np.zeros(more, dtype=np.int64)])
            covered = np.concatenate([covered, np.zeros(more, dtype=bool)])
        sizes[rows] = np.bincount(owners - rows.start, minlength=rows.stop - rows.start)
        if records > len(labels):
            fit = owners < len(labels)
            owners, members = owners[fit], members[fit]
        covered[owners[members == labels[owners]]] = True
    return sizes[:records], covered[:records]


def _set_records(path, k: int):
    """Yield ``(rows, owners, members)`` for each `line_chunks` chunk of a
    sets file: its records are the file's rows ``rows``, and row owners[j]
    holds class members[j].

    Line i must be row i's record as `_format_sets` writes it.  A chunk is
    read whole by `_written_members` if it matches `_WRITTEN`; else, or if
    it breaks a rule, `_first_error` names its first bad line.
    """
    row = 0
    for first, lines in line_chunks(path):
        text = "".join(lines)
        found = _WRITTEN.fullmatch(text) and _written_members(text, row, k)
        if not found:
            raise _first_error(first, lines, row, k)
        count, owners, members = found
        yield slice(row, row + count), owners, members
        row += count


def _written_members(text: str, row: int, k: int):
    """``(count, owners, members)`` of the records of ``text``, which matches
    `_WRITTEN`, the first at row ``row`` of the file; or None when an index
    is not its row position or a row's members are not strictly ascending
    and below k.

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
        return None
    return len(ends), owners + row, members


def _first_error(first: int, lines: list[str], row: int, k: int) -> ValidationError:
    """The error of the first line of ``lines`` (line ``first``, row ``row``
    of the file) that is not its row's record as `_format_sets` writes it.

    A line in `_RECORD`'s spelling gets a message for an index that is not
    its row position, a member not below k and a member twice, in that
    order; any other line, unsorted members too, breaks the one spelling.
    """
    for lineno, line in enumerate(lines, first):
        message = 'not {"index": N, "set": [M, ...]} as predict writes it, members ascending'
        if not line.isascii():
            message = "non-ASCII byte"
        elif _RECORD.fullmatch(line):
            index, *members = map(int, re.findall("[0-9]+", line))
            if index != row:
                message = f"index {index} is not the row position {row}"
            elif members and max(members) >= k:
                message = f"member outside [0, {k})"
            elif len(set(members)) < len(members):
                message = "duplicated member"
            elif members == sorted(members):
                row += 1
                continue
        return ValidationError(f"prediction-sets line {lineno}: {message}")
