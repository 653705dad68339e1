import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from confsets import (CalibrationMap, LogitsDataset, ScoreSpec, SynthSpec, ValidationError,
                      apply_map_dataset, draw_u_many, generate)
from confsets.maps import probability_blocks
from confsets.scores import (
    _BLOCK,
    _E_TIE,
    _S_GATE,
    _at_or_ahead,
    _descending,
    _label_ranks,
    _rank_one,
    _row_counts,
    _set_mask,
    _true_label_scores,
    label_ranks,
    score_matrix,
    set_mask,
    true_label_scores,
)

from oracles import oracle_draw_u, oracle_order, oracle_score

prob_rows = st.lists(st.integers(1, 50), min_size=2, max_size=10).map(
    lambda ws: (np.asarray(ws, dtype=float) / sum(ws))
)


def spec_strategy():
    return st.sampled_from([
        ScoreSpec(kind="aps"),
        ScoreSpec(kind="aps", randomized=True),
        ScoreSpec(kind="raps", raps_lambda=0.1, raps_kreg=2),
        ScoreSpec(kind="raps", raps_lambda=0.05, raps_kreg=1, randomized=True),
        ScoreSpec(kind="saps", saps_lambda=0.02),
        ScoreSpec(kind="saps", saps_lambda=0.1, randomized=True),
        ScoreSpec(kind="lac"),
    ])


def _row_scores(spec, probs, u=None):
    """Scores of every class of one probability row, through score_matrix."""
    u_arr = None if u is None else np.asarray([u])
    return score_matrix(spec, np.asarray([probs], dtype=float), u_arr)[0]


def _rank_one_row(probs):
    """(sorted_probs, perm, rank_of) of one row from _descending and label_ranks."""
    p = np.asarray([probs], dtype=float)
    sorted_probs, perm = _descending(p)
    k = p.shape[1]
    rank_of = np.asarray([label_ranks(p, np.asarray([c]))[0] for c in range(k)])
    return sorted_probs[0], perm[0], rank_of


# ---------------------------------------------------------------------------
# ranking


def test_rank_row_basic():
    sorted_probs, perm, rank_of = _rank_one_row([0.1, 0.6, 0.3])
    np.testing.assert_array_equal(sorted_probs, [0.6, 0.3, 0.1])
    np.testing.assert_array_equal(perm, [1, 2, 0])
    assert rank_of[1] == 1


def test_rank_row_tie_goes_to_lower_class():
    _, perm, rank_of = _rank_one_row([0.5, 0.5])
    np.testing.assert_array_equal(perm, [0, 1])
    np.testing.assert_array_equal(rank_of, [1, 2])


def test_rank_row_uniform():
    _, perm, rank_of = _rank_one_row([0.25] * 4)
    np.testing.assert_array_equal(perm, [0, 1, 2, 3])
    np.testing.assert_array_equal(rank_of, [1, 2, 3, 4])


@given(prob_rows)
def test_rank_row_invariants(probs):
    sorted_probs, perm, rank_of = _rank_one_row(probs)
    assert (np.diff(sorted_probs) <= 0).all()
    assert sorted(perm) == list(range(len(probs)))
    for k in range(len(probs)):
        assert perm[rank_of[k] - 1] == k


@st.composite
def tied_prob_matrices(draw):
    """Small probability matrices with many ties and exact zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(1, 8)), draw(st.integers(2, 7))
    weights = rng.integers(0, 4, size=(n, k)).astype(float)
    weights[:, 0] += 1.0
    return weights / weights.sum(axis=1, keepdims=True)


def _oracle_rank_of(probs):
    """(perm, rank_of) of every row from oracles.oracle_order."""
    perm = np.asarray([oracle_order(list(row)) for row in probs])
    rank_of = np.empty_like(perm)
    for i, order in enumerate(perm):
        rank_of[i, order] = np.arange(1, probs.shape[1] + 1)
    return perm, rank_of


@given(tied_prob_matrices())
def test_label_ranks_match_oracle_order(probs):
    perm, rank_of = _oracle_rank_of(probs)
    n, k = probs.shape
    for y in range(k):
        np.testing.assert_array_equal(label_ranks(probs, np.full(n, y)), rank_of[:, y])
    np.testing.assert_array_equal(_descending(probs)[1], perm)


def test_label_ranks_at_chance_level_match_oracle_order():
    # fewer than half the labels are at rank 1: the rows below it, nearly
    # the whole block, are copied and counted, and the others rank 1
    ds = generate(SynthSpec(n=300, k=30, seed=4, signal=1e-9))
    probs = apply_map_dataset(CalibrationMap.identity(), ds)
    labels = ds.labels.copy()
    # classes 0 and 1 tie in the first rows: the label is the tied class
    # ranked second, or the one ranked first
    probs[:6, 1] = probs[:6, 0]
    probs[:6] /= probs[:6].sum(axis=1, keepdims=True)
    labels[:6] = [1, 1, 1, 0, 0, 0]
    _, rank_of = _oracle_rank_of(probs)
    at_top = np.count_nonzero(probs.argmax(axis=1) == labels)
    assert 0 < 2 * at_top < ds.n
    np.testing.assert_array_equal(label_ranks(probs, labels),
                                  rank_of[np.arange(ds.n), labels])


def _label_scores_via_rank_of(spec, probs, labels, u):
    # the rank_of formulation: rank_of gather into the sorted cumsum
    perm, rank_of = _oracle_rank_of(probs)
    sorted_probs = np.take_along_axis(probs, perm, axis=1)
    rows = np.arange(probs.shape[0])
    ranks = rank_of[rows, labels]
    p_max = sorted_probs[:, 0]
    if spec.kind == "saps":
        return np.where(ranks == 1, u * p_max, p_max + (ranks - 2 + u) * spec.saps_lambda)
    at_rank = sorted_probs[rows, ranks - 1]
    values = np.cumsum(sorted_probs, axis=1)[rows, ranks - 1] - (1.0 - u) * at_rank
    if spec.kind == "raps":
        values = values + spec.raps_lambda * np.maximum(0, ranks - spec.raps_kreg)
    return values


@st.composite
def rank_one_boundaries(draw):
    """Probability matrices whose rows sit on the rank-1 boundary.

    Rows are drawn as: random small weights (ties and exact zeros), all
    equal, two classes tied at the maximum, or a maximum one ulp above a
    copy at a smaller class.  The last kind separates the first maximum
    from any coarser reading of the order, such as float32 rounding.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(1, 8)), draw(st.integers(2, 7))
    shapes = draw(st.lists(st.sampled_from(["random", "flat", "tied top", "split top"]),
                           min_size=n, max_size=n))
    weights = rng.integers(0, 4, size=(n, k)).astype(float)
    weights[:, 0] += 1.0
    for i, shape in enumerate(shapes):
        if shape == "flat":
            weights[i] = 1.0
        elif shape != "random":
            weights[i, rng.choice(k, size=2, replace=False)] = weights[i].max() + 1.0
    probs = weights / weights.sum(axis=1, keepdims=True)
    for i in np.flatnonzero(np.asarray(shapes) == "split top"):
        a, b = np.flatnonzero(probs[i] == probs[i].max())[:2]
        probs[i, b] = np.nextafter(probs[i, a], 2.0)
    return probs


@given(rank_one_boundaries(),
       st.sampled_from([
           ScoreSpec(kind="aps"),
           ScoreSpec(kind="aps", randomized=True),
           ScoreSpec(kind="raps", raps_lambda=sys.float_info.max, raps_kreg=1),
           ScoreSpec(kind="raps", raps_lambda=0.1, raps_kreg=2**63 - 1, randomized=True),
           ScoreSpec(kind="saps", saps_lambda=0.02),
           ScoreSpec(kind="saps", saps_lambda=0.1, randomized=True),
           ScoreSpec(kind="lac"),
       ]),
       st.integers(0, 2**32 - 1))
def test_rank_one_rows_match_the_full_order(probs, spec, seed):
    """Labels at and around rank 1 score and rank as in the full stable order."""
    rng = np.random.default_rng(seed)
    n, k = probs.shape
    rows = np.arange(n)
    u = rng.random(n) if spec.uses_u else None
    # a huge raps lambda overflows the penalty of deep ranks to inf, in
    # every path alike
    with np.errstate(over="ignore"):
        full = score_matrix(spec, probs, u)
    _, rank_of = _oracle_rank_of(probs)
    shift = rng.integers(0, k, size=n)
    for y in range(k):
        # every (row, class) pair once, rank-1 labels mixed with the others
        labels = (shift + y) % k
        with np.errstate(over="ignore"):
            got = true_label_scores(spec, probs, labels, u)
        np.testing.assert_array_equal(got, full[rows, labels])
        np.testing.assert_array_equal(label_ranks(probs, labels), rank_of[rows, labels])
        for i in rows:
            expected = oracle_score(
                spec.kind, list(probs[i]), labels[i], u[i] if u is not None else 1.0,
                raps_lam=spec.raps_lambda or 0.0, raps_kreg=spec.raps_kreg or 1,
                saps_lam=spec.saps_lambda or 0.0,
            )
            assert got[i] == pytest.approx(expected, abs=1e-12)


def test_rank_one_follows_probabilities_not_logits():
    """Softmax can merge distinct logits: the tie then goes to the smaller class."""
    ds = LogitsDataset(np.asarray([[0.0, 1e-17, -1.0]]), [1])
    probs = apply_map_dataset(CalibrationMap.identity(), ds)
    assert probs[0, 0] == probs[0, 1] and ds.logits.argmax() == 1
    np.testing.assert_array_equal(label_ranks(probs, ds.labels), [2])
    spec = ScoreSpec(kind="aps")
    np.testing.assert_array_equal(true_label_scores(spec, probs, ds.labels),
                                  score_matrix(spec, probs)[:, 1])


@given(tied_prob_matrices(), spec_strategy(), st.integers(0, 2**32 - 1))
def test_true_label_scores_match_rank_of_formulation(probs, spec, seed):
    if spec.kind == "lac":
        return
    rng = np.random.default_rng(seed)
    n, k = probs.shape
    labels = rng.integers(0, k, size=n)
    u = rng.random(n) if spec.uses_u else None
    expected = _label_scores_via_rank_of(spec, probs, labels, u if u is not None else np.ones(n))
    got = true_label_scores(spec, probs, labels, u)
    np.testing.assert_array_equal(got, expected)
    # calibration and prediction score a label identically, ties and zeros included
    np.testing.assert_array_equal(got, score_matrix(spec, probs, u)[np.arange(n), labels])


def _tied_logits(rng, n, k):
    """Normal logits, half the rows rounded to integers (tied classes) and
    some entries 800 below the rest (probability exactly 0)."""
    logits = rng.standard_normal((n, k))
    logits[::2] = np.round(logits[::2])
    logits[rng.random((n, k)) < 0.2] = -800.0
    return logits


@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 7, _BLOCK, _BLOCK + 1, 200]),
       spec_strategy(), st.booleans())
def test_kernels_equal_the_public_functions_block_for_block(seed, k, spec, randomized):
    """The unchecked kernels the engine calls on float64 softmax blocks give
    the public functions' results bit for bit: every kind, randomized or
    not, at tau 0, a calibrated tau, 1 and +inf, on rows with ties and
    exact zeros."""
    if spec.kind != "lac":
        spec = ScoreSpec(kind=spec.kind, randomized=randomized, raps_lambda=spec.raps_lambda,
                         raps_kreg=spec.raps_kreg, saps_lambda=spec.saps_lambda)
    rng = np.random.default_rng(seed)
    n = 40
    ds = LogitsDataset(_tied_logits(rng, n, k), rng.integers(0, k, n))
    u = draw_u_many(seed, np.arange(n)) if spec.uses_u else None
    tau = None
    for rows, e, s, top in probability_blocks(CalibrationMap.temperature(0.7), ds):
        assert e.dtype == np.float64
        probs = e / s[:, None]
        labels, u_rows = ds.labels[rows], None if u is None else u[rows]
        # a kernel takes ones where the score takes no u
        u_kernel = np.ones(len(labels)) if u is None else u_rows
        expected = true_label_scores(spec, probs, labels, u_rows)
        np.testing.assert_array_equal(_true_label_scores(spec, e, s, top, labels, u_kernel),
                                      expected)
        tau = float(np.quantile(expected, 0.8, method="inverted_cdf")) if tau is None else tau
        for t in (0.0, tau, 1.0, math.inf):
            np.testing.assert_array_equal(_set_mask(spec, e.copy(), s, top, t, u_kernel),
                                          set_mask(spec, probs, t, u_rows))


@pytest.mark.parametrize("k", [2, 255, 256, 1000, 65535, 65536])
@given(seed=st.integers(0, 2**32 - 1))
def test_row_counts_are_count_nonzero(k, seed):
    # each count in the narrowest unsigned type that holds K, as int64:
    # all-True rows reach K itself, and count - 1 of an empty row is -1
    rng = np.random.default_rng(seed)
    n = max(1, 2**18 // k)
    mask = rng.random((n, k)) < rng.random((n, 1))
    mask[0], mask[-1] = True, False
    counts = _row_counts(mask)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, np.count_nonzero(mask, axis=1))
    assert counts[0] == k and counts[-1] - 1 == -1


# Walk-block values whose division by S can land on one float: e = 1 next
# to the values _rank_one's tie look reads around _E_TIE, e runs one ulp
# apart, and exact and underflowing zeros.
NEAR_ONE = (1.0 - 2.0**-53, 1.0 - 2.0**-52, 1.0 - 2.0**-50, 1.0 - 2.0**-49, 1.0 - 2.0**-30)
COLLAPSE_KS = (3, 50, _BLOCK, _BLOCK + 1, 1000)


def _collapsing_block(rng, n, k):
    """``(e, s, top, labels)`` of a float64 walk block, e = 1 at each row's
    first argmax ``top``, whose values collapse when divided.

    Rows are flat (S far above 2) or sharp (S below _S_GATE).  A third of
    them hold a value of `NEAR_ONE` beside ``top``, on either side; a third
    hold runs of values one ulp apart; some hold 0 and the least subnormal,
    which divides to 0 once S >= 2.  Each label is ``top``, the class beside
    it, a class of a run, one within an ulp of another class, or any class.
    """
    e = rng.random((n, k)) ** rng.choice([1.0, 8.0, 60.0], size=(n, 1))
    top = rng.integers(0, k, size=n)
    labels = rng.integers(0, k, size=n)
    for i in range(n):
        other = (top[i] + rng.choice([-1, 1])) % k if k > 1 else top[i]
        kind = i % 3
        if kind == 0 and other != top[i]:
            e[i, other] = rng.choice(NEAR_ONE)
        elif kind == 1:
            run = rng.choice(k, size=min(k, 6), replace=False)
            v = rng.choice([e[i, run[0]], 0.25, 1e-3])
            e[i, run] = v + np.arange(run.size) * np.spacing(v)
        zeros = rng.choice(k, size=max(1, k // 8))
        e[i, zeros] = rng.choice([0.0, 5e-324])
        e[i, top[i]] = 1.0
        pick = rng.integers(5)
        if pick == 0:
            labels[i] = top[i]
        elif pick == 1:
            labels[i] = other
        elif pick == 2 and kind == 1:
            labels[i] = rng.choice(run)
        elif pick == 3:
            j = rng.integers(k)
            if j != top[i]:
                e[i, j] = np.nextafter(e[i, labels[i]], rng.choice([0.0, 2.0]))
    # no value above e_top = 1, and none equal to it ahead of top
    np.minimum(e, 1.0, out=e)
    e[(e == 1.0) & (np.arange(k) < top[:, None])] = 1.0 - 2.0**-53
    assert (e.argmax(axis=1) == top).all()
    return e, np.sum(e, axis=1), top, labels


@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from(COLLAPSE_KS),
       precision=st.sampled_from(["f64", "f32"]), spec=spec_strategy(),
       randomized=st.booleans())
def test_walk_kernels_equal_the_public_entries_on_collapsing_rows(seed, k, precision, spec,
                                                                  randomized):
    """Each kernel that reads a walk block ``(e, s, top)`` gives, bit for
    bit, what its public entry gives on the block's probabilities e / s:
    true-label scores, label ranks, sets at taus on score values and one
    ulp off them, and the report's confidence and truncation flag."""
    if spec.kind != "lac":
        spec = ScoreSpec(kind=spec.kind, randomized=randomized, raps_lambda=spec.raps_lambda,
                         raps_kreg=spec.raps_kreg, saps_lambda=spec.saps_lambda)
    rng = np.random.default_rng(seed)
    e, s, top, labels = _collapsing_block(rng, 30, k)
    probs = e / s[:, None]
    if precision == "f32":
        # an f32 walk block comes divided: its widened float32 values, s = 1
        probs = probs.astype(np.float32).astype(np.float64)
        e, s, top = probs.copy(), np.ones(len(s)), probs.argmax(axis=1)
    n = len(labels)
    rows = np.arange(n)
    u = draw_u_many(seed, rows) if spec.uses_u else None
    expected = true_label_scores(spec, probs, labels, u)
    # a kernel takes ones where the score takes no u
    u_kernel = np.ones(n) if u is None else u
    np.testing.assert_array_equal(_true_label_scores(spec, e, s, top, labels, u_kernel), expected)
    np.testing.assert_array_equal(_label_ranks(e, s, top, labels), label_ranks(probs, labels))
    np.testing.assert_array_equal(e[rows, top] / s, probs.max(axis=1))
    np.testing.assert_array_equal(e.min(axis=1) / s == 0.0, probs.min(axis=1) == 0.0)
    full = score_matrix(spec, probs, u)
    for tau in (*expected[:3], *full[rng.integers(n, size=3), rng.integers(k, size=3)], 0.0):
        for t in (float(np.nextafter(tau, -math.inf)), float(tau)):
            np.testing.assert_array_equal(
                _set_mask(spec, e.copy(), s, top, t, u_kernel),
                set_mask(spec, probs, t, u))


def test_rank_one_looks_only_past_the_gate():
    """Below _S_GATE a label at ``top`` is rank 1 without a look; at or
    above it, a class at or above _E_TIE beside ``top`` sends the row to be
    divided, and one just below _E_TIE does not, as the division agrees."""
    k = 4
    rows = []
    for near in (_E_TIE, np.nextafter(_E_TIE, 0.0)):
        for j in (0, 2):
            row = np.full(k, 0.25)
            row[1], row[j] = 1.0, near
            rows.append(row)
    e = np.array(rows)
    s = np.sum(e, axis=1)
    assert (s >= _S_GATE).all()
    top, labels = e.argmax(axis=1), np.ones(len(e), dtype=np.int64)
    np.testing.assert_array_equal(_rank_one(e, s, top, labels), [False, False, True, True])
    probs = e / s[:, None]
    # where the look sends a row on, the ranks still come out right
    np.testing.assert_array_equal(_label_ranks(e, s, top, labels), label_ranks(probs, labels))
    # a sharp row passes the gate without a look
    sharp = np.array([[1.0, 1.0 - 2.0**-29, 0.0, 0.0]])
    s = np.sum(sharp, axis=1)
    assert s[0] < _S_GATE
    with mock.patch("confsets.scores._row_counts") as counts:
        assert _rank_one(sharp, s, np.array([0]), np.array([0]))[0]
    counts.assert_not_called()


def _straddling_tie_row(rng, k):
    """Softmax row of k normal logits whose ranks 62-67 (those up to k) hold
    one value, and its stable order."""
    e = np.exp(rng.normal(0.0, 2.0, k))
    order = np.argsort(-e, kind="stable")
    e[order[_BLOCK - 3:_BLOCK + 3]] = e[order[_BLOCK - 3]]
    probs = e / e.sum()
    return probs, np.argsort(-probs, kind="stable")


@pytest.mark.parametrize("kind", ["aps", "raps", "saps"])
@pytest.mark.parametrize("randomized", [False, True])
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([_BLOCK + 1, 200, 1000]))
def test_wide_true_label_scores_read_the_top_block(kind, randomized, seed, k):
    """K > _BLOCK: a label ranked within the first _BLOCK is scored off the
    row's top block, others off the whole sorted row.  Labels at ranks 1,
    2, _BLOCK, _BLOCK + 1 and K, and at each rank of a tie that straddles
    rank _BLOCK, score as in `score_matrix` and rank as in the stable
    order."""
    rng = np.random.default_rng(seed)
    spec = ScoreSpec(kind=kind, randomized=randomized,
                     raps_lambda=0.01 if kind == "raps" else None,
                     raps_kreg=5 if kind == "raps" else None,
                     saps_lambda=0.05 if kind == "saps" else None)
    probs, order = _straddling_tie_row(rng, k)
    ranks = np.asarray(sorted({1, 2, _BLOCK, _BLOCK + 1, k,
                               *range(_BLOCK - 2, min(k, _BLOCK + 3) + 1)}))
    matrix = np.tile(probs, (ranks.size, 1))
    labels = order[ranks - 1]
    u = rng.random(ranks.size) if randomized else None
    rows = np.arange(ranks.size)
    np.testing.assert_array_equal(true_label_scores(spec, matrix, labels, u),
                                  score_matrix(spec, matrix, u)[rows, labels])
    np.testing.assert_array_equal(label_ranks(matrix, labels), ranks)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 5, _BLOCK + 1, 200]))
def test_label_ranks_on_tied_rows_are_the_at_or_ahead_count(seed, k):
    rng = np.random.default_rng(seed)
    n = 30
    probs = apply_map_dataset(CalibrationMap.identity(),
                              LogitsDataset(_tied_logits(rng, n, k), np.zeros(n, dtype=int)))
    labels = rng.integers(0, k, n)
    tied = np.count_nonzero(probs == probs[np.arange(n), labels][:, None], axis=1) > 1
    assert tied.any()
    np.testing.assert_array_equal(label_ranks(probs, labels),
                                  np.count_nonzero(_at_or_ahead(probs, labels), axis=1))


# ---------------------------------------------------------------------------
# score values


def test_aps_nonrandomized_examples():
    spec = ScoreSpec(kind="aps")
    probs = [0.6, 0.3, 0.1]
    np.testing.assert_allclose(_row_scores(spec, probs), [0.6, 0.9, 1.0], atol=1e-15)


def test_raps_penalty_example():
    spec = ScoreSpec(kind="raps", raps_lambda=0.1, raps_kreg=1, randomized=True)
    assert _row_scores(spec, [0.6, 0.3, 0.1], u=1.0)[2] == pytest.approx(1.2, abs=1e-15)


def test_saps_examples():
    spec = ScoreSpec(kind="saps", saps_lambda=0.02, randomized=True)
    got = _row_scores(spec, [0.6, 0.3, 0.1], u=0.5)
    assert got[0] == pytest.approx(0.30, abs=1e-15)
    assert got[2] == pytest.approx(0.63, abs=1e-15)


def test_lac_examples():
    spec = ScoreSpec(kind="lac")
    np.testing.assert_allclose(_row_scores(spec, [0.6, 0.3, 0.1]), [0.4, 0.7, 0.9],
                               atol=1e-15)


def test_u_validation():
    rand = ScoreSpec(kind="aps", randomized=True)
    plain = ScoreSpec(kind="aps")
    with pytest.raises(ValidationError):
        _row_scores(rand, [0.5, 0.5])  # missing u
    with pytest.raises(ValidationError):
        _row_scores(rand, [0.5, 0.5], u=1.5)
    with pytest.raises(ValidationError):
        _row_scores(plain, [0.5, 0.5], u=0.3)  # u forbidden
    with pytest.raises(ValidationError):
        score_matrix(rand, np.full((2, 2), 0.5), np.asarray([0.5]))  # one u per row


def test_missing_hyperparameters_rejected():
    with pytest.raises(ValidationError):
        ScoreSpec(kind="raps", raps_lambda=0.1)
    with pytest.raises(ValidationError):
        ScoreSpec(kind="saps")
    with pytest.raises(ValidationError):
        ScoreSpec(kind="aps", saps_lambda=0.1)


@given(prob_rows, spec_strategy(), st.floats(0.0, 1.0))
def test_scores_match_oracle(probs, spec, u):
    u_arg = u if spec.uses_u else None
    got = _row_scores(spec, probs, u_arg)
    for k in range(len(probs)):
        expected = oracle_score(
            spec.kind, list(probs), k,
            u if spec.uses_u else 1.0,
            raps_lam=spec.raps_lambda or 0.0,
            raps_kreg=spec.raps_kreg or 1,
            saps_lam=spec.saps_lambda or 0.0,
        )
        assert got[k] == pytest.approx(expected, abs=1e-12)


@given(prob_rows, spec_strategy())
def test_u_equal_one_matches_nonrandomized(probs, spec):
    if not spec.uses_u:
        return
    with_u = _row_scores(spec, probs, 1.0)
    plain = _row_scores(
        ScoreSpec(kind=spec.kind, randomized=False,
                  raps_lambda=spec.raps_lambda, raps_kreg=spec.raps_kreg,
                  saps_lambda=spec.saps_lambda),
        probs,
    )
    np.testing.assert_array_equal(with_u, plain)


@given(prob_rows)
def test_raps_zero_penalty_equals_aps(probs):
    raps = ScoreSpec(kind="raps", raps_lambda=0.0, raps_kreg=1)
    aps = ScoreSpec(kind="aps")
    np.testing.assert_array_equal(_row_scores(raps, probs), _row_scores(aps, probs))


@given(prob_rows)
def test_aps_sorted_scores_cumulative(probs):
    spec = ScoreSpec(kind="aps")
    _, perm, _ = _rank_one_row(probs)
    values = _row_scores(spec, probs)[perm]
    assert (np.diff(values) >= -1e-15).all()
    assert values[-1] == pytest.approx(1.0, abs=1e-12)


@given(prob_rows, spec_strategy(), st.floats(0.0, 1.0))
def test_batched_paths_match_scalar(probs, spec, u):
    n = 3
    matrix = np.tile(probs, (n, 1))
    u_arr = np.full(n, u) if spec.uses_u else None
    u_arg = u if spec.uses_u else None
    per_row = _row_scores(spec, probs, u_arg)
    batch = score_matrix(spec, matrix, u_arr)
    for i in range(n):
        np.testing.assert_array_equal(batch[i], per_row)
    labels = np.arange(n) % len(probs)
    tls = true_label_scores(spec, matrix, labels, u_arr)
    for i, lab in enumerate(labels):
        assert tls[i] == per_row[lab]


# ---------------------------------------------------------------------------
# uniform draws


def test_draw_u_deterministic():
    def draw_u(seed, index):
        return draw_u_many(seed, np.asarray([index]))[0]

    assert draw_u(7, 13) == draw_u(7, 13)
    assert draw_u(7, 13) != draw_u(7, 14)
    assert draw_u(8, 13) != draw_u(7, 13)


def test_draw_u_mean_near_half():
    us = draw_u_many(123, np.arange(100000))
    assert abs(us.mean() - 0.5) < 0.01
    assert us.min() >= 0.0 and us.max() < 1.0


def test_draw_u_order_independent():
    idx = np.array([5, 0, 99, 17])
    scattered = draw_u_many(11, idx)
    serial = draw_u_many(11, np.arange(100))
    np.testing.assert_array_equal(scattered, serial[idx])


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_draw_u_matches_the_python_int_reference(seed):
    # the extremes of the index range, where (index + 1) * gamma wraps
    rng = np.random.default_rng(seed % 1000)
    idx = np.concatenate([[0, 2**53, 2**63 - 1], rng.integers(0, 2**63 - 1, 200)])
    got = draw_u_many(seed, idx)
    expected = np.array([oracle_draw_u(seed, int(i)) for i in idx])
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_draw_u_holds_about_two_arrays_of_its_result():
    idx = np.arange(7500)
    tracemalloc.start()
    try:
        u = draw_u_many(3, idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * u.nbytes, f"draw_u_many peaked at {peak / u.nbytes:.2f} results"


# ---------------------------------------------------------------------------
# temperature curve


def _temperature_curve(logits, class_k, grid):
    """Non-randomized aps score of one class across a temperature grid."""
    spec = ScoreSpec(kind="aps")
    ds = LogitsDataset(np.asarray([logits], dtype=np.float64), [0])
    return np.asarray([
        _row_scores(spec, apply_map_dataset(CalibrationMap.temperature(t), ds)[0])[class_k]
        for t in grid
    ])


def test_temperature_curve_example():
    got = _temperature_curve([2.0, 1.0, 0.0], 0, [0.5, 1.0])
    np.testing.assert_allclose(got, [0.866813, 0.665241], atol=5e-7)
    assert got[0] >= got[1]


def test_temperature_curve_last_rank_is_one():
    got = _temperature_curve([2.0, 1.0, 0.0], 2, [0.5, 1.0, 2.0])
    np.testing.assert_allclose(got, 1.0, atol=1e-12)


def test_temperature_curve_uniform_logits():
    got = _temperature_curve([1.0, 1.0, 1.0], 1, [0.25, 1.0, 4.0])
    np.testing.assert_allclose(got, got[0], atol=1e-12)
