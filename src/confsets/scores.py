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

A row's rank-1 class is its first largest value, which is what
`np.argmax` returns: the stable descending order puts the largest values
first and breaks their ties by ascending class.  So a label equal to its
row's argmax has rank 1 and its prefix sum is p_y alone; `true_label_scores`
ranks only the other rows, and so does `label_ranks` unless most rows are
below rank 1.

`score_matrix`, `true_label_scores` and `set_mask` share one entry check,
`_checked`.  `score_matrix` sorts every row with `_descending`, and stays
the reference `set_mask` is tested against.  `descending_order` is the one
stable sort, which the scalar tuner shares.

Randomization uses one uniform draw per sample, shared by all K class
scores of that sample.  Draws come from a counter-based generator keyed
by (seed, sample_index), so parallel evaluation cannot change results.

`set_mask` builds prediction sets (the classes scoring <= tau).  An
aps/raps/saps set is a prefix of its row's order, so each row is read off
a block of its top classes; one floor, the u = 0 score at the block's
last rank, certifies that no class beyond the block enters the set.  The
block is min(_BLOCK, K) wide, or 2 wide when K <= _BLOCK and most rows
hold a probability above tau (sharp rows, whose set is at most their top
class).  An uncertified row is read again off a block of all K classes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError, check_keys, is_int, is_number

SCORE_KINDS = ("aps", "raps", "saps", "lac")

_PROB_SUM_TOL = 1e-6

# Classes per row that `set_mask` sorts first; rows no wider than this are
# read whole, or off their top 2 classes when most of them are sharp.  On
# 7.5k x 1000 synthetic rows at alpha 0.1 (randomized aps), blocks of 16,
# 32, 64 and 128 left 1697, 518, 8 and 0 rows uncertified; 64 was the
# fastest.
_BLOCK = 64


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
        if not isinstance(self.randomized, bool):
            raise ValidationError(f"randomized must be a boolean, got {self.randomized!r}")
        if self.kind == "raps":
            if self.raps_lambda is None or self.raps_kreg is None:
                raise ValidationError("raps requires raps_lambda and raps_kreg")
            _check_lambda("raps_lambda", self.raps_lambda)
            # The penalty subtracts raps_kreg from int64 ranks.
            if not (is_int(self.raps_kreg) and 1 <= self.raps_kreg < 2**63):
                raise ValidationError(
                    f"raps_kreg must be an integer in [1, 2**63), got {self.raps_kreg!r}"
                )
        elif self.raps_lambda is not None or self.raps_kreg is not None:
            raise ValidationError("raps parameters are only valid for kind='raps'")
        if self.kind == "saps":
            if self.saps_lambda is None:
                raise ValidationError("saps requires saps_lambda")
            _check_lambda("saps_lambda", self.saps_lambda)
        elif self.saps_lambda is not None:
            raise ValidationError("saps_lambda is only valid for kind='saps'")
        if not (is_int(self.rng_seed) and 0 <= self.rng_seed < 2**64):
            raise ValidationError(
                f"rng_seed must be an integer in [0, 2**64), got {self.rng_seed!r}"
            )

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
        check_keys(obj, (f.name for f in fields(cls)), "score JSON")
        return cls(**obj)


def _check_lambda(name: str, value) -> None:
    # The upper bound also rejects inf, NaN and ints too large for a float.
    if not (is_number(value) and 0 <= value <= sys.float_info.max):
        raise ValidationError(f"{name} must be a finite number >= 0, got {value!r}")


# ---------------------------------------------------------------------------
# counter-based uniform draws


_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def draw_u_many(seed: int, sample_indices: np.ndarray) -> np.ndarray:
    """Uniform draws in [0, 1), each a pure function of (seed, sample_index).

    SplitMix64-style finalizer on seed + (index+1) * golden gamma; the
    i-th draw never depends on any other index, so any evaluation order
    (or parallel schedule) reproduces the serial stream.
    """
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


def descending_order(values: np.ndarray) -> np.ndarray:
    """Each row's columns by descending value, ties by ascending column."""
    return np.argsort(-values, axis=1, kind="stable")


def _descending(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row in `descending_order`: (sorted, perm)."""
    perm = descending_order(values)
    return np.take_along_axis(values, perm, axis=1), perm


def label_ranks(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """1-indexed rank of each row's label, without sorting.

    When fewer than half the labels are at their row's argmax, the whole
    block is counted in place, and a rank-1 label counts 1 by itself;
    otherwise only the other rows are copied and counted.
    """
    rest = np.flatnonzero(probs.argmax(axis=1) != labels)
    if 2 * rest.size > len(labels):
        return np.count_nonzero(_at_or_ahead(probs, labels), axis=1)
    ranks = np.ones(len(labels), dtype=np.int64)
    ranks[rest] = np.count_nonzero(_at_or_ahead(probs[rest], labels[rest]), axis=1)
    return ranks


def _at_or_ahead(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """n-by-K mask of each row's label and the classes ahead of it.

    A class is ahead when the stable descending order puts it first: a
    larger value, or an equal value at a smaller class index.  These are
    the classes whose probabilities the label's non-randomized cumulative
    score sums.
    """
    rows = np.arange(probs.shape[0])
    p_y = probs[rows, labels][:, None]
    classes = np.arange(probs.shape[1])
    mask = (probs > p_y) | ((probs == p_y) & (classes < labels[:, None]))
    mask[rows, labels] = True
    return mask


def _check_normalized(probs: np.ndarray) -> None:
    sums = probs.sum(axis=1)
    if not np.all(np.abs(sums - 1.0) <= _PROB_SUM_TOL):
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ValidationError(
            f"probabilities must sum to 1 (row {worst} sums to {sums[worst]!r})"
        )


# ---------------------------------------------------------------------------
# scoring


def _checked(spec: ScoreSpec, probs: np.ndarray,
             u: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The scorers' entry check: ``(p, u_eff)``.

    ``p`` is float64 n-by-K, with rows that sum to 1 unless the kind is
    lac; ``u_eff`` is one draw per row, ones when the score takes no u.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2:
        raise ValidationError("probs must be an n-by-K matrix")
    u_eff = _check_u_array(spec, u, p.shape[0])
    if spec.kind != "lac":
        _check_normalized(p)
    return p, u_eff


def score_matrix(spec: ScoreSpec, probs: np.ndarray,
                 u: np.ndarray | None = None) -> np.ndarray:
    """n-by-K score matrix; row i uses draw u[i] for all K classes."""
    p, u_eff = _checked(spec, probs, u)
    if spec.kind == "lac":
        return 1.0 - p
    sorted_probs, perm = _descending(p)
    by_rank = _cumulative_score(spec, np.cumsum(sorted_probs, axis=1), sorted_probs,
                                sorted_probs[:, :1], np.arange(1, p.shape[1] + 1),
                                u_eff[:, None])
    out = np.empty_like(by_rank)
    np.put_along_axis(out, perm, by_rank, axis=1)
    return out


def true_label_scores(spec: ScoreSpec, probs: np.ndarray, labels: np.ndarray,
                      u: np.ndarray | None = None) -> np.ndarray:
    """Score of each row's true label (the calibration-side quantity).

    A label at its row's argmax has rank 1: ``np.argmax`` returns the
    first largest value, and the stable descending order puts the largest
    values first with ties by ascending class.  Such a label's prefix sum,
    its own probability and the row's maximum are then all p_y, the same
    floats the sort and cumsum give.  Only the other rows are ranked,
    sorted and summed.
    """
    p, u_eff = _checked(spec, probs, u)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (p.shape[0],):
        raise ValidationError("probs must be n-by-K with one label per row")
    p_y = p[np.arange(p.shape[0]), labels]
    if spec.kind == "lac":
        return 1.0 - p_y
    scores = _cumulative_score(spec, p_y, p_y, p_y, 1, u_eff)
    rest = np.flatnonzero(p.argmax(axis=1) != labels)
    q = p[rest]
    ranks = np.count_nonzero(_at_or_ahead(q, labels[rest]), axis=1)
    # A label's prefix sum needs the row's values in descending order, not
    # the classes that hold them: tied classes hold equal values, so this
    # sums the same numbers in the same order as the stable argsort.  ``q``
    # is a copy, so it is sorted in place.
    q.sort(axis=1)
    sorted_probs = q[:, ::-1]
    at = (np.arange(rest.size), ranks - 1)
    scores[rest] = _cumulative_score(spec, np.cumsum(sorted_probs, axis=1)[at],
                                     sorted_probs[at], sorted_probs[:, 0], ranks, u_eff[rest])
    return scores


def aps_score_dz(probs: np.ndarray, labels: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Gradient of each row's non-randomized aps true-label score in its logits.

    ``probs`` is the softmax of the logits z and ``scores`` the scores
    ``true_label_scores`` gave.  The score is the sum of p_j over A, the
    label and the classes ahead of it, so ds/dz_k = p_k (1[k in A] - s).
    Where ties decide A, A follows the stable order, as the score does.
    """
    return probs * (_at_or_ahead(probs, labels) - scores[:, None])


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
    # 1 - u rounds to 1 when 0 < u <= 2**-54, which would drop u's term (no
    # `draw_u_many` draw is that small: its smallest above 0 is 2**-53)
    tiny = (u > 0.0) & (u <= 2.0**-54)
    if np.any(tiny):
        values = np.where(tiny, prefix - at_rank + u * at_rank, values)
    if spec.kind == "raps":
        values = values + spec.raps_lambda * np.maximum(0, ranks - spec.raps_kreg)
    return values


def set_mask(spec: ScoreSpec, probs: np.ndarray, tau: float,
             u: np.ndarray | None = None) -> np.ndarray:
    """n-by-K mask of the classes whose score is <= tau.

    Equals ``score_matrix(spec, probs, u) <= tau`` bit for bit.  lac
    compares 1 - p directly and tau = +inf is the full set.  Every other
    row is read off its top min(``_BLOCK``, K) classes (`_top_block`), and
    the rows that block cannot certify are read again off all K.

    When K <= ``_BLOCK`` and more than half the block's values are above
    tau, the first read takes each row's top 2 classes instead of sorting
    the whole row.  The count routes and decides nothing: each block's
    certificate is exact, so the mask is the same on either route.  It is
    one flat pass, cheaper than a row maximum.  At tau >= 1/2 a row holds
    at most one value above tau, so the count is then the number of rows
    whose top class is above tau.  Such a row's 2-class floor is at least
    p_1 > tau, so the 2-class block certifies it unless its second value
    recurs beyond the block or it holds a negative value.  Wider rows skip
    the 2-class block: their first read sorts only ``_BLOCK`` classes, and
    there the count and the copied rows cost about what it would save.
    """
    p, u_eff = _checked(spec, probs, u)
    if spec.kind == "lac":
        return 1.0 - p <= tau
    if tau == math.inf:
        return np.ones(p.shape, dtype=bool)
    n, k = p.shape
    sharp = k <= _BLOCK and 2 * np.count_nonzero(p > tau) > n
    mask, rest = _top_block(spec, p, tau, u_eff, 2 if sharp else min(_BLOCK, k))
    if rest.size:
        mask[rest] = _top_block(spec, p[rest], tau, u_eff[rest], k)[0]
    return mask


def _top_block(spec: ScoreSpec, p: np.ndarray, tau: float, u: np.ndarray,
               m: int) -> tuple[np.ndarray, np.ndarray]:
    """``score <= tau`` for aps/raps/saps read off each row's m largest classes.

    ``p`` is a checked, normalized matrix, ``u`` one draw per row (ones when
    not randomized) and 1 <= m <= K.  Returns ``(mask, rest)``: every row of
    ``mask`` not listed in ``rest`` equals the full comparison bit for bit;
    the rows in ``rest`` are all False and need m = K.

    The set is a prefix of the row's stable order, so only the m largest
    classes are ranked (`_top_classes`).  When m = K that is the whole row,
    and ``rest`` is empty.  The block's cumsum adds the same values in the
    same order as the full row's, so ranks 1..m get the same floats from
    ``_cumulative_score``.  A row wider than the block is accepted only
    when every rank r > m provably scores above tau:

    * the m-th value appears nowhere outside the block, so the block is
      exactly the first m classes of the stable order;
    * the row has no negative value, so its prefix sums c_r never fall;
    * the score at rank r is at least its u = 0 value: fl((1 - u) p_r)
      <= p_r, and on the float values c_r - p_r >= c_{r-1} - p_r >= c_m -
      p_m, so rounding, the raps penalty and the saps rank term, all
      monotone, keep it at or above the u = 0 score at rank m.  That floor
      above tau certifies the row.
    """
    n, k = p.shape
    vals, cols = _top_classes(p, m)
    prefix = np.cumsum(vals, axis=1)
    inside = _cumulative_score(spec, prefix, vals, vals[:, :1], np.arange(1, m + 1),
                               u[:, None]) <= tau
    certified = np.ones(n, dtype=bool)
    if m < k:
        floor = _cumulative_score(spec, prefix[:, -1], vals[:, -1], vals[:, 0], m, 0.0)
        certified = ((floor > tau) & (np.count_nonzero(p >= vals[:, -1:], axis=1) == m)
                     & (p.min(axis=1) >= 0.0))
        inside &= certified[:, None]
    mask = np.zeros((n, k), dtype=bool)
    np.put_along_axis(mask, cols, inside, axis=1)
    return mask, np.flatnonzero(~certified)


def _top_classes(p: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``(vals, cols)``: the first m columns of each row of a checked matrix
    in `descending_order`, and their values.

    At m = K that is `_descending`.  At m = 2 it is two argmax passes, the
    second with the first column masked: argmax takes the first of equal
    values, as the stable order does, and -inf is below every value of a
    checked row.  Otherwise argpartition picks the m largest, any of the
    classes tied at the m-th value among them, and the stable sort, run on
    them in ascending class order, gives them the full row's order.
    """
    n, k = p.shape
    if m == k:
        return _descending(p)
    if m == 2:
        top = p.argmax(axis=1)
        others = p.copy()
        others[np.arange(n), top] = -np.inf
        cols = np.stack([top, others.argmax(axis=1)], axis=1)
        return np.take_along_axis(p, cols, axis=1), cols
    cols = np.sort(np.argpartition(p, k - m, axis=1)[:, k - m:], axis=1)
    vals, order = _descending(np.take_along_axis(p, cols, axis=1))
    return vals, np.take_along_axis(cols, order, axis=1)


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
