"""Evaluation of prediction sets and probability calibration.

Coverage and average size are exact ratios over the test set.  ECE uses
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
from .scores import RankedRow, rank_matrix

DEFAULT_ECE_BINS = 15

# Rank-bin template in the style of deep-classifier difficulty buckets;
# clipped to [1, K] for small label spaces.
_DEFAULT_RANK_BIN_TEMPLATE = ((1, 1), (2, 3), (4, 6), (7, 10), (11, 100), (101, None))


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


def coverage_and_size(sets, labels) -> tuple[float, float]:
    """(fraction of sets containing the true label, mean set size)."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(sets) != labels.shape[0]:
        raise ValidationError(
            f"got {len(sets)} sets for {labels.shape[0]} labels"
        )
    n = labels.shape[0]
    members = [ps.members if hasattr(ps, "members") else np.asarray(ps) for ps in sets]
    sizes = np.asarray([m.shape[0] for m in members], dtype=np.int64)
    flat = np.concatenate(members) if members else np.empty(0, dtype=np.int64)
    owner = np.repeat(np.arange(n), sizes)
    hit = np.zeros(n, dtype=bool)
    hit[owner[flat == labels[owner]]] = True
    covered = int(np.count_nonzero(hit))
    total_size = int(sizes.sum())
    return covered / n, total_size / n


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


def default_rank_bins(k: int) -> list[tuple[int, int]]:
    """Difficulty bins clipped to the label space [1, K]."""
    bins: list[tuple[int, int]] = []
    for lo, hi in _DEFAULT_RANK_BIN_TEMPLATE:
        if lo > k:
            break
        top = k if hi is None else min(hi, k)
        bins.append((lo, top))
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


def size_by_rank(sets, ranked: list[RankedRow], labels,
                 bins: list[tuple[int, int]] | None = None) -> dict[str, tuple[int, float]]:
    """Per-difficulty-bin (count, mean set size), keyed by rank-range label.

    ``ranked`` carries each row's rank map; a sample lands in the bin
    containing the 1-indexed rank of its true label.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if not (len(sets) == len(ranked) == labels.shape[0]):
        raise ValidationError("sets, ranked rows, and labels must align")
    k = ranked[0].rank_of.shape[0]
    if bins is None:
        bins = default_rank_bins(k)
    _validate_rank_bins(bins, k)
    true_ranks = np.asarray(
        [int(r.rank_of[label]) for r, label in zip(ranked, labels)]
    )
    sizes = np.asarray([len(ps.members) for ps in sets], dtype=np.float64)
    out: dict[str, tuple[int, float]] = {}
    for lo, hi in bins:
        mask = (true_ranks >= lo) & (true_ranks <= hi)
        count = int(mask.sum())
        mean = float(sizes[mask].mean()) if count else 0.0
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
    probs = apply_map_dataset(cal_map, ds, precision=precision)
    zero_counts = (probs == 0.0).sum(axis=1)
    return float((zero_counts > 0).mean()), zero_counts


def zero_tail_row_fraction(probs: np.ndarray) -> float:
    """Fraction of probability rows containing an exact zero."""
    p = np.asarray(probs)
    return float(((p == 0.0).any(axis=1)).mean())


def build_report(sets, ds: LogitsDataset, probs: np.ndarray,
                 rank_bins=None, ece_bins: int = DEFAULT_ECE_BINS,
                 alpha: float | None = None, score: dict | None = None,
                 map_desc: dict | None = None) -> EvaluationReport:
    """Assemble the full evaluation report for one prediction-set batch."""
    cov, avg_size = coverage_and_size(sets, ds.labels)
    ece = expected_calibration_error(probs, ds.labels, ece_bins)
    sorted_probs, perm, rank_of = rank_matrix(probs)
    ranked = [
        RankedRow(sorted_probs=sorted_probs[i], perm=perm[i], rank_of=rank_of[i])
        for i in range(ds.n)
    ]
    by_rank = size_by_rank(sets, ranked, ds.labels, bins=rank_bins)
    return EvaluationReport(
        coverage=cov,
        average_size=avg_size,
        ece=ece,
        size_by_rank_bin=by_rank,
        truncated_row_fraction=zero_tail_row_fraction(probs),
        alpha=alpha,
        n_test=ds.n,
        score=score,
        map=map_desc,
    )


def save_report(report: EvaluationReport, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
