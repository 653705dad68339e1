"""Non-conformity scores (aps, raps, saps, lac) and label-rank machinery.

Scores follow the "<= tau includes the label" convention: larger score
means less conforming.  For the cumulative scores the rank r of a class
is its 1-indexed position after sorting probabilities in descending
order, ties broken by ascending class index.

* aps, randomized:      sum of the r-1 largest probs + u * prob at rank r
* aps, non-randomized:  sum of the r largest probs (u treated as 1)
* raps:                 aps + lambda * max(0, r - k_reg)
* saps:                 u * p_max if r == 1 else p_max + (r - 2 + u) * lambda
* lac:                  1 - prob of the class (u ignored)

Randomization uses one uniform draw per sample, shared by all K class
scores of that sample.  Draws come from a counter-based generator keyed
by (seed, sample_index), so parallel evaluation cannot change results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SCORE_KINDS = ("aps", "raps", "saps", "lac")

_PROB_SUM_TOL = 1e-6


@dataclass(frozen=True)
class ScoreSpec:
    """Which score to compute, its hyperparameters, and the u-draw seed."""

    kind: str
    randomized: bool = False
    raps_lambda: float | None = None
    raps_kreg: int | None = None
    saps_lambda: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise ValidationError(f"unknown score kind {self.kind!r}")
        if self.kind == "raps":
            if self.raps_lambda is None or self.raps_kreg is None:
                raise ValidationError("raps requires raps_lambda and raps_kreg")
            if self.raps_lambda < 0:
                raise ValidationError("raps_lambda must be >= 0")
            if self.raps_kreg < 1:
                raise ValidationError("raps_kreg must be a positive integer")
        elif self.raps_lambda is not None or self.raps_kreg is not None:
            raise ValidationError("raps parameters are only valid for kind='raps'")
        if self.kind == "saps":
            if self.saps_lambda is None:
                raise ValidationError("saps requires saps_lambda")
            if self.saps_lambda < 0:
                raise ValidationError("saps_lambda must be >= 0")
        elif self.saps_lambda is not None:
            raise ValidationError("saps_lambda is only valid for kind='saps'")
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be a non-negative integer")

    @property
    def uses_u(self) -> bool:
        return self.randomized and self.kind != "lac"

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "randomized": self.randomized,
                     "rng_seed": self.rng_seed}
        if self.kind == "raps":
            out["raps_lambda"] = self.raps_lambda
            out["raps_kreg"] = self.raps_kreg
        if self.kind == "saps":
            out["saps_lambda"] = self.saps_lambda
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ScoreSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError("score JSON must be an object with a 'kind' field")
        return cls(
            kind=obj["kind"],
            randomized=bool(obj.get("randomized", False)),
            raps_lambda=obj.get("raps_lambda"),
            raps_kreg=obj.get("raps_kreg"),
            saps_lambda=obj.get("saps_lambda"),
            rng_seed=int(obj.get("rng_seed", 0)),
        )


@dataclass(frozen=True, eq=False)
class RankedRow:
    """One row's probabilities sorted descending, with both rank maps.

    ``perm[j]`` is the class sitting at sorted position j; ``rank_of[k]``
    is the 1-indexed position of class k.  Ties in probability are ordered
    by ascending class index.
    """

    sorted_probs: np.ndarray
    perm: np.ndarray
    rank_of: np.ndarray


# ---------------------------------------------------------------------------
# counter-based uniform draws


_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def draw_u(seed: int, sample_index: int) -> float:
    """Uniform draw in [0, 1), a pure function of (seed, sample_index).

    SplitMix64-style finalizer on seed + (index+1) * golden gamma; the
    i-th draw never depends on any other index, so any evaluation order
    (or parallel schedule) reproduces the serial stream.
    """
    return float(draw_u_many(seed, np.asarray([sample_index]))[0])


def draw_u_many(seed: int, sample_indices: np.ndarray) -> np.ndarray:
    """Vectorized draw_u over an index array."""
    raw = np.asarray(sample_indices)
    if raw.size and int(raw.min()) < 0:
        raise ValidationError("sample indices must be non-negative")
    idx = raw.astype(np.uint64)
    x = (np.uint64(seed & int(_MASK64)) + (idx + np.uint64(1)) * np.uint64(_GAMMA)) & _MASK64
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)) & _MASK64
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)) & _MASK64
    x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


# ---------------------------------------------------------------------------
# ranking


def rank_row(probs: np.ndarray) -> RankedRow:
    """Sort one probability row descending with the deterministic tie rule."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise ValidationError("probs must be a 1-d vector")
    _check_normalized(p[None, :])
    perm = np.argsort(-p, kind="stable")
    rank_of = np.empty(p.shape[0], dtype=np.int64)
    rank_of[perm] = np.arange(1, p.shape[0] + 1)
    return RankedRow(sorted_probs=p[perm], perm=perm, rank_of=rank_of)


def rank_matrix(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched rank_row: (sorted_probs, perm, rank_of), each n-by-K."""
    sorted_probs, perm = sort_rows(probs)
    rank_of = np.empty_like(perm)
    n, k = perm.shape
    np.put_along_axis(rank_of, perm, np.broadcast_to(np.arange(1, k + 1), (n, k)), axis=1)
    return sorted_probs, perm, rank_of


def sort_rows(probs: np.ndarray,
              hint: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each row of an n-by-K probability matrix sorted descending: (sorted_probs, perm).

    Without a hint, perm is the stable argsort (ties by ascending class
    index).  ``hint`` is a perm from an earlier call on the same rows: the
    rows it still leaves non-increasing keep it, only the others are
    argsorted, and the hint is updated in place and returned as perm.  A
    non-increasing arrangement of a row holds the same values in the same
    order as the sorted row, so sorted_probs never depends on the hint; only
    the order of tied classes within perm may.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2:
        raise ValidationError("probs must be an n-by-K matrix")
    _check_normalized(p)
    if hint is None:
        perm = np.argsort(-p, axis=1, kind="stable")
        return np.take_along_axis(p, perm, axis=1), perm
    sorted_probs = np.take_along_axis(p, hint, axis=1)
    stale = np.flatnonzero((sorted_probs[:, 1:] > sorted_probs[:, :-1]).any(axis=1))
    if stale.size:
        fresh = np.argsort(-p[stale], axis=1, kind="stable")
        hint[stale] = fresh
        sorted_probs[stale] = np.take_along_axis(p[stale], fresh, axis=1)
    return sorted_probs, hint


def label_ranks(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """1-indexed rank of each row's label, without sorting.

    Counts #(p > p_y) + #(p == p_y and class < y), which is the label's
    position in the stable descending argsort, so it equals
    ``rank_matrix(probs)[2][rows, labels]`` ties and exact zeros included.
    """
    rows = np.arange(probs.shape[0])
    p_y = probs[rows, labels][:, None]
    classes = np.arange(probs.shape[1])
    ahead = (probs > p_y) | ((probs == p_y) & (classes < labels[:, None]))
    return np.count_nonzero(ahead, axis=1) + 1


def _check_normalized(probs: np.ndarray) -> None:
    sums = probs.sum(axis=1)
    if not np.all(np.abs(sums - 1.0) <= _PROB_SUM_TOL):
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ValidationError(
            f"probabilities must sum to 1 (row {worst} sums to {sums[worst]!r})"
        )


# ---------------------------------------------------------------------------
# scoring


def _check_u(spec: ScoreSpec, u: float | None) -> float:
    if spec.kind == "lac":
        return 1.0
    if spec.randomized:
        if u is None:
            raise ValidationError("randomized score requires a uniform draw u")
        if not (0.0 <= u <= 1.0):
            raise ValidationError(f"u must be in [0, 1], got {u}")
        return float(u)
    if u is not None:
        raise ValidationError("u must be absent for a non-randomized score")
    return 1.0


def score(spec: ScoreSpec, probs: np.ndarray, class_k: int,
          u: float | None = None) -> float:
    """Non-conformity score of one (row, class) pair."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise ValidationError("probs must be a 1-d vector")
    if not (0 <= class_k < p.shape[0]):
        raise ValidationError(f"class {class_k} not in [0, {p.shape[0]})")
    return float(score_all_classes(spec, p, u)[class_k])


def score_all_classes(spec: ScoreSpec, probs: np.ndarray,
                      u: float | None = None) -> np.ndarray:
    """Scores for every class of one row, sharing the same u draw."""
    u_eff = _check_u(spec, u)
    return _score_matrix_checked(spec, np.asarray(probs, dtype=np.float64)[None, :],
                                 np.asarray([u_eff]))[0]


def score_matrix(spec: ScoreSpec, probs: np.ndarray,
                 u: np.ndarray | None = None) -> np.ndarray:
    """n-by-K score matrix; row i uses draw u[i] for all K classes."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2:
        raise ValidationError("probs must be an n-by-K matrix")
    u_eff = _check_u_array(spec, u, p.shape[0])
    return _score_matrix_checked(spec, p, u_eff)


def true_label_scores(spec: ScoreSpec, probs: np.ndarray, labels: np.ndarray,
                      u: np.ndarray | None = None) -> np.ndarray:
    """Score of each row's true label (the calibration-side quantity)."""
    p = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if p.ndim != 2 or labels.shape != (p.shape[0],):
        raise ValidationError("probs must be n-by-K with one label per row")
    u_eff = _check_u_array(spec, u, p.shape[0])
    if spec.kind == "lac":
        return 1.0 - p[np.arange(p.shape[0]), labels]
    sorted_probs, _ = sort_rows(p)
    return label_scores_from_sorted(spec, p, sorted_probs, labels, u_eff)


def label_scores_from_sorted(spec: ScoreSpec, probs: np.ndarray, sorted_probs: np.ndarray,
                             labels: np.ndarray, u) -> np.ndarray:
    """Cumulative score (aps, raps, saps) of each row's label.

    ``sorted_probs`` is ``probs`` with each row in descending order, from
    any sort; the label's rank comes from ``label_ranks``.  ``u`` holds one
    draw per row, or 1.0 for a non-randomized score.
    """
    ranks = label_ranks(probs, labels)
    rows = np.arange(probs.shape[0])
    at = (rows, ranks - 1)
    return _cumulative_score(spec, np.cumsum(sorted_probs, axis=1)[at], sorted_probs[at],
                             sorted_probs[:, 0], ranks, u)


def _cumulative_score(spec: ScoreSpec, prefix, at_rank, p_max, ranks, u) -> np.ndarray:
    """The aps/raps/saps formula for the class at 1-indexed rank ``ranks``.

    ``prefix`` is the sum of the probabilities ranked at or above that
    class, ``at_rank`` its own probability, ``p_max`` the row's largest one
    and ``u`` the row's draw.  The arguments broadcast, so one call scores
    either one class per row or every rank of every row.
    """
    if spec.kind == "saps":
        return np.where(ranks == 1, u * p_max, p_max + (ranks - 2 + u) * spec.saps_lambda)
    values = prefix - (1.0 - u) * at_rank
    if spec.kind == "raps":
        values = values + spec.raps_lambda * np.maximum(0, ranks - spec.raps_kreg)
    return values


def _check_u_array(spec: ScoreSpec, u: np.ndarray | None, n: int) -> np.ndarray:
    if spec.kind == "lac":
        return np.ones(n)
    if spec.randomized:
        if u is None:
            raise ValidationError("randomized score requires uniform draws u")
        u_arr = np.asarray(u, dtype=np.float64)
        if u_arr.shape != (n,):
            raise ValidationError(f"u must have shape ({n},), got {u_arr.shape}")
        if np.any((u_arr < 0.0) | (u_arr > 1.0)):
            raise ValidationError("u values must be in [0, 1]")
        return u_arr
    if u is not None:
        raise ValidationError("u must be absent for a non-randomized score")
    return np.ones(n)


def _score_matrix_checked(spec: ScoreSpec, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    if spec.kind == "lac":
        return 1.0 - p
    sorted_probs, perm = sort_rows(p)
    by_rank = _cumulative_score(spec, np.cumsum(sorted_probs, axis=1), sorted_probs,
                                sorted_probs[:, :1], np.arange(1, p.shape[1] + 1),
                                u[:, None])
    out = np.empty_like(by_rank)
    np.put_along_axis(out, perm, by_rank, axis=1)
    return out


def score_temperature_curve(logits_row: np.ndarray, class_k: int,
                            t_grid) -> np.ndarray:
    """Non-randomized aps score of one class across a temperature grid.

    The grid must be sorted ascending with positive entries.  Because
    temperature scaling preserves the probability order, the class rank
    is the same at every grid point.
    """
    from .maps import CalibrationMap, apply_map

    grid = np.asarray(t_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValidationError("t_grid must be a non-empty 1-d list")
    if np.any(grid <= 0):
        raise ValidationError("temperatures must be positive")
    if np.any(np.diff(grid) < 0):
        raise ValidationError("t_grid must be sorted ascending")
    spec = ScoreSpec(kind="aps", randomized=False)
    out = np.empty(grid.shape[0])
    for j, t in enumerate(grid):
        probs = apply_map(CalibrationMap.temperature(t), logits_row)
        out[j] = score(spec, probs, class_k)
    return out
