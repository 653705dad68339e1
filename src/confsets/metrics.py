"""Evaluation of prediction sets and probability calibration.

Prediction sets arrive as two n-vectors, each row's set size and whether
its set holds its label: read off a sets file by `engine.load_set_sizes`,
or off an n-by-K boolean mask (row i holds sample i's set) by
`set_sizes`.  Coverage and average size are exact ratios over the test
set.  ECE uses M equal-width bins over top-1 confidence, bin m =
((m-1)/M, m/M] with a confidence of 0 assigned to the first bin.
Adaptiveness is summarized by binning samples on the rank of their true
label and averaging set sizes within each bin.

`report_from_sizes` is the one report path.  It reads the calibration
map off the threshold that made the sets and `truncation_diagnostic`
takes one; neither takes probabilities: each row block of
`maps.probability_blocks` is reduced to per-row values before the next
is made, and every statistic is computed from n-vectors.  A block comes
undivided, as ``(e, s, top)``, and division and rounding are monotone, so
a row's top-1 confidence is fl(e_top / s) and its smallest probability
fl(min e / s): only the rows whose label is not provably at rank 1, and
rows that hold a zero, are divided whole, never a whole block.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import LogitsDataset, LogitsFile
from .engine import ConformalThreshold
from .errors import ValidationError, is_int, write_json
from .maps import CalibrationMap, probability_blocks
from .scores import _divided_rows, _label_ranks, _row_counts

DEFAULT_ECE_BINS = 15

# Upper edges of the default rank bins, in the style of deep-classifier
# difficulty buckets.
DEFAULT_RANK_EDGES = (1, 3, 6, 10, 100)


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    coverage: float
    average_size: float
    ece: float
    size_by_rank_bin: dict[str, tuple[int, float]]
    truncated_row_fraction: float
    alpha: float | None
    n_test: int
    score: dict | None
    map: dict

    def to_json_dict(self) -> dict:
        return asdict(self)


def set_sizes(mask: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """``(sizes, covered)`` of a set mask: each row's set size, and whether
    its set holds its label."""
    mask = np.asarray(mask, dtype=bool)
    labels = np.asarray(labels, dtype=np.int64)
    if mask.ndim != 2 or mask.shape[0] != labels.shape[0]:
        raise ValidationError(
            f"a set mask of shape {mask.shape} does not fit {labels.shape[0]} labels"
        )
    return np.count_nonzero(mask, axis=1), mask[np.arange(labels.shape[0]), labels]


def coverage_and_size(mask: np.ndarray, labels) -> tuple[float, float]:
    """(fraction of sets containing the true label, mean set size)."""
    return _coverage_and_size(*set_sizes(mask, labels))


def _coverage_and_size(sizes: np.ndarray, covered: np.ndarray) -> tuple[float, float]:
    n = sizes.shape[0]
    if n == 0:
        raise ValidationError("coverage and size need at least one row")
    return int(np.count_nonzero(covered)) / n, int(sizes.sum()) / n


def expected_calibration_error(probs: np.ndarray, labels,
                               n_bins: int = DEFAULT_ECE_BINS) -> float:
    """Bin-weighted |accuracy - confidence| over top-1 confidence bins."""
    p = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if p.ndim != 2 or labels.shape != (p.shape[0],):
        raise ValidationError("probs must be n-by-K with one label per row")
    return _binned_ece(p.max(axis=1), p.argmax(axis=1) == labels, n_bins)


def _binned_ece(conf: np.ndarray, correct: np.ndarray, n_bins: int) -> float:
    """ECE from each row's top-1 confidence and whether its top-1 class is the label."""
    # above 2**53 a float bin index is not exact, and its int64 cast can overflow
    if not 1 <= n_bins <= 2**53:
        raise ValidationError(f"bin count must be in [1, 2**53], got {n_bins}")
    # bin m covers ((m-1)/M, m/M]; exact zeros go to the first bin
    idx = np.clip(np.ceil(conf * n_bins).astype(np.int64) - 1, 0, n_bins - 1)
    # each occupied bin's rows, in row order, as one segment in ascending bin order
    order = np.argsort(idx, kind="stable")
    idx, conf, correct = idx[order], conf[order], correct[order].astype(np.float64)
    bounds = np.flatnonzero(np.diff(idx, prepend=-1, append=n_bins)).tolist()
    n = conf.shape[0]
    ece = 0.0
    for a, b in zip(bounds, bounds[1:]):
        acc = float(correct[a:b].mean())
        avg_conf = float(conf[a:b].mean())
        ece += ((b - a) / n) * abs(acc - avg_conf)
    return ece


def rank_bins(edges, k: int) -> list[tuple[int, int]]:
    """Rank bins [1, e1], [e1+1, e2], ..., then [e_last+1, K], clipped to [1, K].

    ``edges`` must be strictly increasing integers >= 1; the bins then
    partition [1, K] without gaps or overlap.
    """
    edges = tuple(edges)
    # Increasing from 0 also puts every edge at >= 1.
    if not (all(is_int(e) for e in edges)
            and all(lo < hi for lo, hi in zip((0, *edges), edges))):
        raise ValidationError(
            f"rank-bin edges must be strictly increasing integers >= 1, got {list(edges)}"
        )
    bins: list[tuple[int, int]] = []
    lo = 1
    for edge in edges:
        if lo > k:
            break
        bins.append((lo, min(edge, k)))
        lo = edge + 1
    if lo <= k:
        bins.append((lo, k))
    return bins


def _bin_label(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"{lo}-{hi}"


def size_by_rank(mask: np.ndarray, true_ranks,
                 edges=DEFAULT_RANK_EDGES) -> dict[str, tuple[int, float]]:
    """Per-difficulty-bin (count, mean set size), keyed by rank-range label.

    ``true_ranks`` holds the 1-indexed rank of each row's true label; a
    sample lands in the bin of ``rank_bins(edges, K)`` containing it.
    """
    mask = np.asarray(mask, dtype=bool)
    true_ranks = np.asarray(true_ranks, dtype=np.int64)
    if mask.ndim != 2 or true_ranks.shape != (mask.shape[0],):
        raise ValidationError("the set mask and the true ranks must align")
    return _size_by_rank(mask.sum(axis=1), true_ranks, edges, mask.shape[1])


def _size_by_rank(sizes: np.ndarray, true_ranks: np.ndarray, edges,
                  k: int) -> dict[str, tuple[int, float]]:
    sizes = sizes.astype(np.float64)
    out: dict[str, tuple[int, float]] = {}
    for lo, hi in rank_bins(edges, k):
        in_bin = (true_ranks >= lo) & (true_ranks <= hi)
        count = int(in_bin.sum())
        mean = float(sizes[in_bin].mean()) if count else 0.0
        out[_bin_label(lo, hi)] = (count, mean)
    return out


def truncation_diagnostic(cal_map: CalibrationMap, ds: LogitsDataset,
                          precision: str = "f64") -> tuple[float, np.ndarray]:
    """(fraction of rows holding an exact probability 0, each row's count of zeros).

    Only meaningful for temperature maps (the small-t pathology); exact
    zeros are counted, not merely tiny values.
    """
    if cal_map.kind != "temperature":
        raise ValidationError("truncation diagnostic requires a temperature map")
    zero_counts = np.zeros(ds.n, dtype=np.int64)
    for rows, e, s, _ in probability_blocks(cal_map, ds, precision):
        zero = np.flatnonzero(e.min(axis=1) / s == 0.0)
        zero_counts[rows.start + zero] = _row_counts(_divided_rows(e, s, zero) == 0.0)
    return float((zero_counts > 0).mean()), zero_counts


def report_from_sizes(sizes: np.ndarray, covered: np.ndarray,
                      ds: LogitsDataset | LogitsFile,
                      threshold: ConformalThreshold | None = None,
                      rank_edges=DEFAULT_RANK_EDGES,
                      ece_bins: int = DEFAULT_ECE_BINS) -> EvaluationReport:
    """The full evaluation report of the prediction sets of ``ds``, given
    each row's set size and whether its set holds its label.

    ``threshold`` is the one that made the sets, or None.  Its map (else
    the identity) gives the probabilities that ECE, the true-label ranks
    and the truncated-row fraction read; the report's alpha, score and map
    come from it, and data with another class count is a ValidationError.
    Each `probability_blocks` block is reduced to per-row values (top-1
    confidence, the label's rank and whether the row holds an exact zero,
    read off its minimum: softmax output is never negative) before the next
    is made, so no n-by-K matrix is held.  A row's top-1 class is its
    label exactly when the label's rank is 1.
    """
    cal_map = CalibrationMap.identity()
    alpha = score = None
    if threshold is not None:
        threshold.check_classes(ds.k)
        cal_map, alpha = threshold.cal_map, threshold.alpha
        score = threshold.score_spec.to_json_dict()
    if np.shape(sizes) != (ds.n,) or np.shape(covered) != (ds.n,):
        raise ValidationError(
            f"set sizes of shape {np.shape(sizes)} and covered flags of shape "
            f"{np.shape(covered)} do not fit {ds.n} rows"
        )
    cov, avg_size = _coverage_and_size(sizes, covered)
    conf = np.empty(ds.n)
    ranks = np.empty(ds.n, dtype=np.int64)
    truncated = np.empty(ds.n, dtype=bool)
    for rows, e, s, top in probability_blocks(cal_map, ds):
        conf[rows] = e[np.arange(s.size), top] / s
        ranks[rows] = _label_ranks(e, s, top, ds.labels[rows])
        truncated[rows] = e.min(axis=1) / s == 0.0
    return EvaluationReport(
        coverage=cov,
        average_size=avg_size,
        ece=_binned_ece(conf, ranks == 1, ece_bins),
        size_by_rank_bin=_size_by_rank(sizes, ranks, rank_edges, ds.k),
        truncated_row_fraction=float(truncated.mean()),
        alpha=alpha,
        n_test=ds.n,
        score=score,
        map=cal_map.to_json_dict(),
    )


def save_report(report: EvaluationReport, path) -> None:
    write_json(report.to_json_dict(), path)
