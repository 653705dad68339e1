"""Evaluation of prediction sets and probability calibration.

Prediction sets arrive as one n-by-K boolean mask (row i holds sample
i's set).  Coverage and average size are exact ratios over the test set.  ECE uses
M equal-width bins over top-1 confidence, bin m = ((m-1)/M, m/M] with a
confidence of 0 assigned to the first bin.  Adaptiveness is summarized
by binning samples on the rank of their true label and averaging set
sizes within each bin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import LogitsDataset
from .errors import ValidationError
from .maps import CalibrationMap, apply_map_dataset
from .scores import label_ranks

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
    alpha: float | None = None
    n_test: int = 0
    score: dict | None = None
    map: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "coverage": self.coverage,
            "average_size": self.average_size,
            "ece": self.ece,
            "size_by_rank_bin": {
                label: [count, mean] for label, (count, mean) in self.size_by_rank_bin.items()
            },
            "truncated_row_fraction": self.truncated_row_fraction,
            "alpha": self.alpha,
            "n_test": self.n_test,
            "score": self.score,
            "map": self.map,
        }


def coverage_and_size(mask: np.ndarray, labels) -> tuple[float, float]:
    """(fraction of sets containing the true label, mean set size)."""
    mask = np.asarray(mask, dtype=bool)
    labels = np.asarray(labels, dtype=np.int64)
    if mask.ndim != 2 or mask.shape[0] != labels.shape[0]:
        raise ValidationError(
            f"a set mask of shape {mask.shape} does not fit {labels.shape[0]} labels"
        )
    n = labels.shape[0]
    covered = int(np.count_nonzero(mask[np.arange(n), labels]))
    return covered / n, int(np.count_nonzero(mask)) / n


def expected_calibration_error(probs: np.ndarray, labels,
                               n_bins: int = DEFAULT_ECE_BINS) -> float:
    """Bin-weighted |accuracy - confidence| over top-1 confidence bins."""
    p = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if p.ndim != 2 or labels.shape != (p.shape[0],):
        raise ValidationError("probs must be n-by-K with one label per row")
    if n_bins < 1:
        raise ValidationError("bin count must be >= 1")
    conf = p.max(axis=1)
    correct = (p.argmax(axis=1) == labels).astype(np.float64)
    # bin m covers ((m-1)/M, m/M]; exact zeros go to the first bin
    idx = np.ceil(conf * n_bins).astype(np.int64) - 1
    idx = np.clip(idx, 0, n_bins - 1)
    n = p.shape[0]
    ece = 0.0
    for m in range(n_bins):
        in_bin = idx == m
        count = int(in_bin.sum())
        if count == 0:
            continue
        acc = float(correct[in_bin].mean())
        avg_conf = float(conf[in_bin].mean())
        ece += (count / n) * abs(acc - avg_conf)
    return ece


def rank_bins(edges, k: int) -> list[tuple[int, int]]:
    """Rank bins [1, e1], [e1+1, e2], ..., then [e_last+1, K], clipped to [1, K].

    ``edges`` are strictly increasing upper edges >= 1.
    """
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


def _validate_rank_bins(bins, k: int) -> None:
    prev_hi = 0
    for lo, hi in bins:
        if lo != prev_hi + 1:
            raise ValidationError(
                f"rank bins must partition [1, {k}] without gaps or overlap; "
                f"bin ({lo}, {hi}) follows rank {prev_hi}"
            )
        if hi < lo:
            raise ValidationError(f"rank bin ({lo}, {hi}) is empty")
        prev_hi = hi
    if prev_hi != k:
        raise ValidationError(f"rank bins must end at {k}, got {prev_hi}")


def _bin_label(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"{lo}-{hi}"


def size_by_rank(mask: np.ndarray, true_ranks,
                 bins: list[tuple[int, int]] | None = None) -> dict[str, tuple[int, float]]:
    """Per-difficulty-bin (count, mean set size), keyed by rank-range label.

    ``true_ranks`` holds the 1-indexed rank of each row's true label; a
    sample lands in the bin containing it.
    """
    mask = np.asarray(mask, dtype=bool)
    true_ranks = np.asarray(true_ranks, dtype=np.int64)
    if mask.ndim != 2 or true_ranks.shape != (mask.shape[0],):
        raise ValidationError("the set mask and the true ranks must align")
    k = mask.shape[1]
    if bins is None:
        bins = rank_bins(DEFAULT_RANK_EDGES, k)
    _validate_rank_bins(bins, k)
    sizes = mask.sum(axis=1).astype(np.float64)
    out: dict[str, tuple[int, float]] = {}
    for lo, hi in bins:
        in_bin = (true_ranks >= lo) & (true_ranks <= hi)
        count = int(in_bin.sum())
        mean = float(sizes[in_bin].mean()) if count else 0.0
        out[_bin_label(lo, hi)] = (count, mean)
    return out


def truncation_diagnostic(cal_map: CalibrationMap, ds: LogitsDataset,
                          precision: str = "f64") -> tuple[float, np.ndarray]:
    """Fraction of rows where some class underflows to probability 0.

    Only meaningful for temperature maps (the small-t pathology); exact
    zeros are counted, not merely tiny values.
    """
    if cal_map.kind != "temperature":
        raise ValidationError("truncation diagnostic requires a temperature map")
    return _zero_rows(apply_map_dataset(cal_map, ds, precision=precision))


def _zero_rows(probs: np.ndarray) -> tuple[float, np.ndarray]:
    """(fraction of rows holding an exact zero, each row's count of zeros)."""
    zero_counts = (probs == 0.0).sum(axis=1)
    return float((zero_counts > 0).mean()), zero_counts


def build_report(mask: np.ndarray, ds: LogitsDataset, probs: np.ndarray,
                 rank_bins=None, ece_bins: int = DEFAULT_ECE_BINS,
                 alpha: float | None = None, score: dict | None = None,
                 map_desc: dict | None = None) -> EvaluationReport:
    """Assemble the full evaluation report for one prediction-set mask."""
    cov, avg_size = coverage_and_size(mask, ds.labels)
    ece = expected_calibration_error(probs, ds.labels, ece_bins)
    by_rank = size_by_rank(mask, label_ranks(probs, ds.labels), bins=rank_bins)
    return EvaluationReport(
        coverage=cov,
        average_size=avg_size,
        ece=ece,
        size_by_rank_bin=by_rank,
        truncated_row_fraction=_zero_rows(probs)[0],
        alpha=alpha,
        n_test=ds.n,
        score=score,
        map=map_desc,
    )


def save_report(report: EvaluationReport, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
