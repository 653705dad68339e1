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
ranks only the other rows, and so does `label_ranks`.  Both count each such
row's values at or above p_y (`_at_or_above`, with `_row_counts`), which
is the label's rank unless another class holds p_y too; only such tied
rows are ranked again by `_at_or_ahead`.

`score_matrix`, `true_label_scores`, `set_mask` and `label_ranks` are the
public entries.  Each checks its input with `_checked` (a float64 n-by-K
matrix whose rows sum to 1 within _PROB_SUM_TOL unless the kind is lac,
and one u in [0, 1] per row when the score takes u) and then calls a
kernel that checks nothing: `_full_read`, `_true_label_scores`,
`_set_mask` or `_label_ranks`.  The last three share one contract.  A
kernel reads a block ``(e, s, top)``, the shape `maps.probability_blocks`
yields: p = e / s, divided only where a value is read, and ``top`` a
column of each row's largest e (the first argmax of the mapped logits).
The block holds no value below 0 (`_set_mask`'s certificate needs that;
the other two rank any values), and the kernel owns it: `_set_mask`
divides and masks it in place, the other two write nothing.  A score
kernel takes one u per row, ones when the score takes none.  The public
entries are the only adapters: each passes its matrix with s = 1 and its
first argmax (`_as_block`); `set_mask` passes a copy, and reads a matrix
that holds a value below 0 whole (`_full_read`) instead.  Three facts
keep every read bit for bit the division softmax makes:

* division and rounding are monotone, so p never ranks two classes the
  other way round from e, the top m values of e divided are p's top m
  values, and fl(min e / s) and fl(e_top / s) are p's minimum and maximum;
* a label at ``top`` has rank 1 in p when its row sum is below _S_GATE,
  or no other e reaches _E_TIE (`_rank_one`): no other class can then
  divide onto p's maximum;
* the walk shifts each row by ``z[row, top]``, which has the value of the
  row's maximum (`maps._shifted_exp`), so e[row, top] = 1.

`engine` calls the kernels itself on every block of
`maps.probability_blocks`, with u from `draw_u_many`, which lies in
[0, 1), and `tuning` calls `_true_label_scores` on the rows it cannot
score alone: such a block passes `_checked` by construction.  An f32
block has passed `_check_normalized`; an f64 block holds no NaN row, and
its rows are e_j = exp(z_j - max z) in [0, 1] with e_j = 1 at the
maximum, so S >= 1, no p is negative and none exceeds 1.  S is a pairwise
float64 sum and each division rounds once, so a row of p sums to 1 within
about (log2 K + 1) * 2**-53, far inside _PROB_SUM_TOL for any K.
`score_matrix` sorts every row with `_descending`, and stays the reference
`set_mask` is tested against.
`descending_order` is the one stable sort, which the scalar tuner shares.

Randomization uses one uniform draw per sample, shared by all K class
scores of that sample.  Draws come from a counter-based generator keyed
by (seed, sample_index), so parallel evaluation cannot change results.

`set_mask` builds prediction sets (the classes scoring <= tau).  An
aps/raps/saps set is a prefix of its row's order.  A row no wider than
_BLOCK is scored whole and its mask put back in class order.  A wider row
is read off a block of its top _BLOCK values, with no class indices: one
floor, the u = 0 score at the block's last rank, certifies that no class
beyond the block enters the set, and the set is then the classes at or
above one boundary value per row, the value at its last rank, compared
undivided (a tie at that value is split by ascending class).  The block is 2 wide instead
when K <= _BLOCK and most rows hold a probability above tau (sharp rows,
whose set is at most their top class).  An uncertified row is read again
whole.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError, check_keys, is_int, is_number

SCORE_KINDS = ("aps", "raps", "saps", "lac")

_PROB_SUM_TOL = 1e-6

# A walk block's row sum below _S_GATE lets `_rank_one` read a label at
# ``top`` as rank 1 without a look at the row; at or above it, a look for
# another e at or above _E_TIE.
_S_GATE = 2.0 - 2.0**-30
_E_TIE = 1.0 - 2.0**-50

# Values per row that `set_mask` sorts first; rows no wider than this are
# read whole, or off their top 2 values when most of them are sharp.  On
# 7.5k x 1000 synthetic rows at alpha 0.1 (randomized aps), blocks of 16,
# 32, 64 and 128 left 1697, 518, 8 and 0 rows uncertified, and `set_mask`
# took 183, 93, 47 and 50 ms on 2 Xeon cores; 64 was the fastest.
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
        # `__post_init__` requires the kind's lambda and kreg, the other keys `to_json_dict` writes
        check_keys(obj, (f.name for f in fields(cls)), "score JSON", ("randomized", "rng_seed"))
        return cls(**obj)


def _check_lambda(name: str, value) -> None:
    # The upper bound also rejects inf, NaN and ints too large for a float.
    if not (is_number(value) and 0 <= value <= sys.float_info.max):
        raise ValidationError(f"{name} must be a finite number >= 0, got {value!r}")


# ---------------------------------------------------------------------------
# counter-based uniform draws


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def draw_u_many(seed: int, sample_indices: np.ndarray) -> np.ndarray:
    """Uniform draws in [0, 1), each a pure function of (seed, sample_index).

    SplitMix64-style finalizer on seed + (index+1) * golden gamma; the
    i-th draw never depends on any other index, so any evaluation order
    (or parallel schedule) reproduces the serial stream.
    """
    raw = np.asarray(sample_indices)
    if raw.size and int(raw.min()) < 0:
        raise ValidationError("sample indices must be non-negative")
    x = raw.astype(np.uint64)
    x += np.uint64(1)
    x *= _GAMMA
    x += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        x ^= x >> np.uint64(shift)
        x *= mix
    x ^= x >> np.uint64(31)
    x >>= np.uint64(11)
    u = x.astype(np.float64)
    return np.multiply(u, 2.0**-53, out=u)


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
    """1-indexed rank of each row's label, without sorting: `_label_ranks`
    of the matrix as a block with row sums 1."""
    return _label_ranks(*_as_block(probs), labels)


def _label_ranks(e: np.ndarray, s: np.ndarray, top: np.ndarray,
                 labels: np.ndarray) -> np.ndarray:
    """`label_ranks` of the probabilities ``e / s[:, None]`` of a block
    whose largest values sit at ``top`` (`maps.probability_blocks`).

    A `_rank_one` label has rank 1; only the other rows are copied,
    divided and counted (`_at_or_above`).  A row where another class holds
    the label's value too is counted again by `_at_or_ahead`.
    """
    rest = np.flatnonzero(~_rank_one(e, s, top, labels))
    ranks = np.ones(len(labels), dtype=np.int64)
    q, y = _divided_rows(e, s, rest), labels[rest]
    p_y = q[np.arange(rest.size), y]
    level = _at_or_above(q, p_y)
    tied = np.flatnonzero(_row_counts(q == p_y[:, None]) > 1)
    level[tied] = _row_counts(_at_or_ahead(q[tied], y[tied]))
    ranks[rest] = level
    return ranks


def _at_or_above(q: np.ndarray, p_y: np.ndarray) -> np.ndarray:
    """Each row's count of values at or above its label's value p_y.

    That is the label's 1-indexed rank when no other class of the row
    holds p_y; otherwise the tied classes of smaller index are ahead of the
    label and the others behind it, which `_at_or_ahead` tells apart.
    """
    return _row_counts(q >= p_y[:, None])


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """Each row's count of True values of a boolean matrix, as int64.

    One ``np.add.reduce`` in the narrowest unsigned type that holds K, which
    is exact, since no count exceeds K; the int64 result lets ``count - 1``
    fall below 0 without wrapping.
    """
    counts = np.add.reduce(mask, axis=1, dtype=np.min_scalar_type(mask.shape[1]))
    return counts.astype(np.int64)


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
    """The public entries' check: ``(p, u_eff)``.

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
    return _full_read(spec, p, u_eff)


def true_label_scores(spec: ScoreSpec, probs: np.ndarray, labels: np.ndarray,
                      u: np.ndarray | None = None) -> np.ndarray:
    """Score of each row's true label (the calibration-side quantity):
    `_checked`, then `_true_label_scores` of the matrix as a block with row
    sums 1."""
    p, u_eff = _checked(spec, probs, u)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (p.shape[0],):
        raise ValidationError("probs must be n-by-K with one label per row")
    return _true_label_scores(spec, *_as_block(p), labels, u_eff)


def _as_block(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A probability matrix as the kernels' ``(e, s, top)``: itself, row
    sums of 1 (a division by 1 is exact) and its first argmax."""
    return p, np.ones(p.shape[0]), p.argmax(axis=1)


def _rank_one(e: np.ndarray, s: np.ndarray, top: np.ndarray,
              labels: np.ndarray) -> np.ndarray:
    """The rows whose label provably has rank 1: the label is ``top``, and
    no other class divides onto p's maximum.

    ``top`` holds the row's largest e, so p_top = fl(e_top / s) is p's
    largest value too, since division and rounding are monotone; on a
    probability matrix, and at f32, ``top`` is p's own first argmax, with
    s = 1.  Only another class j < top with fl(e_j / s) = p_top could rank
    ahead of it.  Where s >= _S_GATE, which happens only in an f64 walk
    block, where e_top = 1 and s >= 1, such a j has e_j >= _E_TIE (an e_j
    that rounded to 1 included): short of that, e_j / s lies 2**-50 of its
    value below 1 / s, and two roundings of 2**-53 cannot close the gap.
    Such a row counts its values at or above _E_TIE.  Below _S_GATE it need
    not: there e_j <= s - 1 up to the sum's rounding, which is far below
    2**-30, so e_j < 1 - 2**-31.
    """
    one = top == labels
    gated = np.flatnonzero(one & (s >= _S_GATE))
    if gated.size:
        # one boolean block, not a copy of the gated rows' floats
        one[gated] = _row_counts((e >= _E_TIE)[gated]) == 1
    return one


def _divided_rows(e: np.ndarray, s: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A new array of the probabilities of ``rows`` of a block: the bits of
    softmax's ``e / s``."""
    q = e[rows]
    q /= s[rows, None]
    return q


def _true_label_scores(spec: ScoreSpec, e: np.ndarray, s: np.ndarray, top: np.ndarray,
                       labels: np.ndarray, u: np.ndarray) -> np.ndarray:
    """`true_label_scores` of the probabilities ``e / s[:, None]`` of a
    block whose largest values sit at ``top``, with one int64 label and one
    draw per row.

    Each label's p_y is divided alone, fl(e_y / s), which is softmax's p_y
    and lac's whole read.  A `_rank_one` label has rank 1: it holds its
    row's largest value and no earlier class ties it, and the stable
    descending order puts the largest values first with ties by ascending
    class.  Such a label's prefix sum, its own probability and the row's
    maximum are then all p_y, the same floats the sort and cumsum give.
    Only the other rows are copied.  A label's prefix sum needs the row's
    values in descending order, not the classes that hold them: tied
    classes hold equal values, so any descending copy sums the same numbers
    in the same order as the stable argsort; and since division is
    monotone, e's values sorted and then divided are p's values sorted.
    When K > _BLOCK, one ``np.partition`` of the copied rows, in place, and
    a sort of the top _BLOCK values give each row's top block, which is
    divided.  A row whose block ends below p_y holds every value at or
    above p_y in it, and its label is read off the block; every other row
    is sorted and divided whole.  A row's level is its count of values at
    or above p_y; a row the gate of `_rank_one` sent here whose label is
    its unique largest value counts 1 and scores as at rank 1.
    `_label_at_level` reads each label's score off its row's values.
    """
    n, k = e.shape
    p_y = e[np.arange(n), labels] / s
    if spec.kind == "lac":
        return 1.0 - p_y
    scores = _cumulative_score(spec, p_y, p_y, p_y, 1, u)
    rest = np.flatnonzero(~_rank_one(e, s, top, labels))
    q, s_rest, p_rest = e[rest], s[rest, None], p_y[rest]
    deep = np.arange(rest.size)
    if k > _BLOCK:
        q.partition(k - _BLOCK, axis=1)
        block = np.sort(q[:, k - _BLOCK:], axis=1)[:, ::-1] / s_rest
        near = block[:, -1] < p_rest
        level = _row_counts(block[near] >= p_rest[near, None])
        scores[rest[near]] = _label_at_level(spec, e, s, labels, u, rest[near], block[near],
                                             level)
        deep = np.flatnonzero(~near)
        q = q[deep]
    q.sort(axis=1)
    q /= s_rest[deep]
    level = _row_counts(q >= p_rest[deep, None])
    scores[rest[deep]] = _label_at_level(spec, e, s, labels, u, rest[deep], q[:, ::-1], level)
    return scores


def _label_at_level(spec: ScoreSpec, e: np.ndarray, s: np.ndarray, labels: np.ndarray,
                    u: np.ndarray, rows: np.ndarray, ordered: np.ndarray,
                    level: np.ndarray) -> np.ndarray:
    """The scores of the labels of ``rows`` of the block ``(e, s)``.

    ``ordered`` holds each row's largest probabilities in descending order,
    at least ``level`` of them, the count of its values at or above p_y.  So
    p_y sits at rank ``level`` (1-indexed), and at rank level - 1 too when
    another class ties it: only then is the rank not ``level``, and
    `_at_or_ahead` counts it, which leaves it at most ``level``.  At level 1
    the label is its row's unique largest value, and the test reads the
    row's last value, which lies below it.  The score is
    `_cumulative_score` of the values' cumsum at that rank.
    """
    at = (np.arange(rows.size), level - 1)
    ranks = level
    tied = np.flatnonzero(ordered[at[0], level - 2] == ordered[at])
    if tied.size:
        ranks = level.copy()
        ranks[tied] = _row_counts(_at_or_ahead(_divided_rows(e, s, rows[tied]),
                                               labels[rows[tied]]))
        at = (at[0], ranks - 1)
    return _cumulative_score(spec, np.cumsum(ordered, axis=1)[at], ordered[at], ordered[:, 0],
                             ranks, u[rows])


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
    compares 1 - p directly and tau = +inf is the full set.  Rows no wider
    than ``_BLOCK`` are read whole (`_full_read`).  Wider rows are read off
    their top ``_BLOCK`` values (`_top_block`), and the rows that block
    cannot certify are read again whole.

    When K <= ``_BLOCK`` and the matrix holds more values above tau than
    half its rows, the first read takes each row's top 2 values instead of
    sorting the whole row.  The count routes and decides nothing: each block's
    certificate is exact, so the mask is the same on either route.  It is
    one flat pass, cheaper than a row maximum.  At tau >= 1/2 a row holds
    at most one value above tau, so the count is then the number of rows
    whose top class is above tau.  Such a row's 2-value floor is p_1 > tau
    up to rounding, so the 2-value block certifies it.  Wider rows skip the
    2-value block: their first read takes only ``_BLOCK`` values, and there
    the count and the copied rows cost about what it would save.

    ``probs`` is never written: `_set_mask` gets a copy.  A matrix that
    holds a value below 0 breaks the kernels' contract, so it is read
    whole instead (its lac and tau = +inf sets need no order).
    """
    p, u_eff = _checked(spec, probs, u)
    if spec.kind != "lac" and tau != math.inf and (p < 0.0).any():
        return _full_read(spec, p, u_eff, tau)
    return _set_mask(spec, *_as_block(p.copy()), tau, u_eff)


def _set_mask(spec: ScoreSpec, e: np.ndarray, s: np.ndarray, top: np.ndarray, tau: float,
              u: np.ndarray) -> np.ndarray:
    """`set_mask` of the probabilities ``e / s[:, None]`` of a block whose
    largest values sit at ``top``, with one draw per row.

    lac and K <= _BLOCK divide the block in place, and the 2-value read
    masks it in place.  K > _BLOCK divides only each row's top _BLOCK
    values, and the rows that block cannot certify or whose boundary splits
    a tie.
    """
    n, k = e.shape
    if spec.kind == "lac":
        return 1.0 - np.divide(e, s[:, None], out=e) <= tau
    if tau == math.inf:
        return np.ones(e.shape, dtype=bool)
    m = _BLOCK
    if k <= _BLOCK:
        e, s = np.divide(e, s[:, None], out=e), np.ones(n)
        m = 2 if 2 * np.count_nonzero(e > tau) > n else k
    if m == k:
        return _full_read(spec, e, u, tau)
    mask, rest = _top_block(spec, e, s, top, tau, u, m)
    if rest.size:
        mask[rest] = _full_read(spec, _divided_rows(e, s, rest), u[rest], tau)
    return mask


def _full_read(spec: ScoreSpec, p: np.ndarray, u: np.ndarray,
               tau: float | None = None) -> np.ndarray:
    """Every aps/raps/saps score of a checked matrix, or with ``tau`` the
    mask ``score <= tau``: each row is scored in its `descending_order`
    and put back in class order.
    """
    sorted_probs, perm = _descending(p)
    by_rank = _cumulative_score(spec, np.cumsum(sorted_probs, axis=1), sorted_probs,
                                sorted_probs[:, :1], np.arange(1, p.shape[1] + 1),
                                u[:, None])
    if tau is not None:
        by_rank = by_rank <= tau
    out = np.empty_like(by_rank)
    np.put_along_axis(out, perm, by_rank, axis=1)
    return out


def _top_block(spec: ScoreSpec, e: np.ndarray, s: np.ndarray, top: np.ndarray, tau: float,
               u: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``score <= tau`` for aps/raps/saps read off each row's m largest values.

    ``(e, s, top)`` is a kernel's block, ``u`` one draw per row and
    2 <= m < K.  Returns ``(mask, rest)``:
    every row of ``mask`` not listed in ``rest`` equals the full comparison
    bit for bit; the rows in ``rest`` are all False and need `_full_read`.

    The block is the first m values of the row's stable order
    (`_top_values`), taken from e and divided: division and rounding are
    monotone, so they are p's m largest values in order.  Tied classes hold
    equal values, so the block's cumsum adds the same values in the same
    order as the full row's, and ranks 1..m get the same floats from
    ``_cumulative_score`` whichever tied classes hold them.  A row is
    accepted when every rank r > m provably scores above tau and its ranks
    1..m read as a set size s:

    * the block holds no negative value, so its prefix sums c_r never fall;
    * the score at rank r is at least its u = 0 value: fl((1 - u) p_r)
      <= p_r, and on the float values c_r - p_r >= c_{r-1} - p_r >= c_m -
      p_m, so rounding, the raps penalty and the saps rank term, all
      monotone, keep it at or above the u = 0 score at rank m.  That floor
      above tau certifies the row, and since rank m scores at least the
      floor, s < m;
    * on a row with no negative value the scores never fall with rank,
      on either branch of ``_cumulative_score`` (`tests/test_engine.py`
      gives the float argument, in
      ``test_scores_never_fall_with_rank_on_rows_without_a_negative_value``),
      so ranks 1..s score <= tau and ranks s+1..m above it, with s the
      count of ranks 1..m that score <= tau.

    The set is then ranks 1..s.  With b the value at rank s (b = +inf when
    s = 0), it holds every class of value above b and the first
    s - #(p > b) classes of value b, by ascending class.  That is all the
    classes at b unless rank s + 1 holds b too.  Then the set is the
    classes whose e is at least e_b, the e at rank s: a class past rank s
    with that e would divide to b at rank s + 1.  So the mask is one
    comparison e >= e_b, and only rows whose boundary splits a tie of p
    (two e that divide to b included) are divided whole and count their
    tied classes one by one.
    """
    n = e.shape[0]
    block = _top_values(e, m, top)
    vals = block / s[:, None]
    prefix = np.cumsum(vals, axis=1)
    inside = _cumulative_score(spec, prefix, vals, vals[:, :1], np.arange(1, m + 1),
                               u[:, None]) <= tau
    floor = _cumulative_score(spec, prefix[:, -1], vals[:, -1], vals[:, 0], m, 0.0)
    certified = floor > tau
    size = _row_counts(inside)
    rows = np.arange(n)
    read = certified & (size > 0)
    mask = e >= np.where(read, block[rows, size - 1], np.inf)[:, None]
    # a certified row has s < m; every other row's bound is +inf
    bound = np.where(read, vals[rows, size - 1], np.inf)
    split = np.flatnonzero(vals[rows, np.minimum(size, m - 1)] == bound)
    if split.size:
        q, b = _divided_rows(e, s, split), bound[split, None]
        tied = q == b
        take = size[split] - _row_counts(vals[split] > b)
        mask[split] = (q > b) | (tied & (np.cumsum(tied, axis=1) <= take[:, None]))
    return mask, np.flatnonzero(~certified)


def _top_values(e: np.ndarray, m: int, top: np.ndarray) -> np.ndarray:
    """The m largest values of each row of a block, in descending order
    (1 < m < K): the first m values of its `descending_order`.

    At m = 2 that is the value at ``top``, a largest value, and the row's
    largest value once that column is masked, in place: -inf is below every
    value of a block.  The masked values are then written back.  Otherwise
    one ``np.partition`` leaves the m largest values at the top of each
    row, and only they are sorted.
    """
    n, k = e.shape
    if m == 2:
        rows = np.arange(n)
        first = e[rows, top]
        e[rows, top] = -np.inf
        second = e.max(axis=1)
        e[rows, top] = first
        return np.stack([first, second], axis=1)
    return np.sort(np.partition(e, k - m, axis=1)[:, k - m:], axis=1)[:, ::-1]


def _check_u_array(spec: ScoreSpec, u: np.ndarray | None, n: int) -> np.ndarray:
    if spec.kind == "lac":
        return np.ones(n)
    if spec.randomized and u is not None:
        u_arr = np.asarray(u, dtype=np.float64)
        if u_arr.shape != (n,):
            raise ValidationError(f"u must have shape ({n},), got {u_arr.shape}")
        if np.any((u_arr < 0.0) | (u_arr > 1.0)):
            raise ValidationError("u values must be in [0, 1]")
        return u_arr
    if spec.randomized:
        raise ValidationError("randomized score requires uniform draws u")
    if u is not None:
        raise ValidationError("u must be absent for a non-randomized score")
    return np.ones(n)
