import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from confsets import (CalibrationMap, LogitsDataset, ScoreSpec, SynthSpec, ValidationError,
                      apply_map_dataset, draw_u_many, generate)
from confsets.scores import (
    _descending,
    label_ranks,
    score_matrix,
    true_label_scores,
)

from oracles import oracle_order, oracle_score

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
    # fewer than half the labels are at rank 1, so the whole block is
    # counted in place; the rank-1 labels among them count 1 by themselves
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
