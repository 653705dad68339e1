import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confsets import (
    CalibrationMap,
    ConformalThreshold,
    ScoreSpec,
    SynthSpec,
    ValidationError,
    apply_map_dataset,
    calibrate,
    calibrate_threshold,
    coverage_and_size,
    generate,
    predict,
    run_pipeline,
)
from confsets.data import row_blocks
from confsets.engine import conformal_level, load_set_sizes, load_threshold, save_threshold
from confsets import engine, errors, maps
from confsets.scores import (_BLOCK, _cumulative_score, _descending, _full_read, _top_block,
                             _top_values, score_matrix, set_mask)

from oracles import NOT_WRITTEN, oracle_load_sets, oracle_quantile, oracle_score, oracle_set

score_vectors = st.lists(
    st.floats(0.0, 2.0, allow_nan=False).map(lambda v: round(v, 6)),
    min_size=1, max_size=60,
)
alphas = st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.25, 0.5, 0.9])


# ---------------------------------------------------------------------------
# threshold


def test_threshold_examples():
    assert calibrate_threshold([0.1 * i for i in range(1, 10)], 0.1) == pytest.approx(0.9)
    assert calibrate_threshold([0.01 * i for i in range(1, 20)], 0.1) == pytest.approx(0.18)
    assert calibrate_threshold([0.1, 0.2, 0.3, 0.4, 0.5], 0.1) == math.inf


def test_threshold_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        calibrate_threshold([], 0.1)
    with pytest.raises(ValidationError):
        calibrate_threshold([0.5], 0.0)
    with pytest.raises(ValidationError):
        calibrate_threshold([0.5], 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_threshold_rejects_a_score_at_the_level_that_is_not_finite(value):
    # no threshold file can hold such a tau: "include_all" means level > n
    with pytest.raises(ValidationError, match="not a finite threshold"):
        calibrate_threshold(np.full(10, value), 0.1)
    # past the level the score is never read, and a level past n is +inf
    scores = np.r_[np.linspace(0.0, 1.0, 99), value]
    assert calibrate_threshold(scores, 0.1) == np.linspace(0.0, 1.0, 99)[90]
    assert calibrate_threshold(np.full(5, value), 0.1) == math.inf


def test_conformal_level_avoids_float_ceiling_error():
    # naive float evaluation of (n+1)*(1-alpha) overshoots the integer
    assert conformal_level(19, 0.1) == 18
    assert conformal_level(9, 0.1) == 9
    assert conformal_level(5, 0.1) == 6


@given(score_vectors, alphas)
def test_threshold_matches_scan_oracle(scores, alpha):
    expected = oracle_quantile(scores, alpha)
    got = calibrate_threshold(scores, alpha)
    if expected is None:
        assert got == math.inf
    else:
        assert got == expected


# ---------------------------------------------------------------------------
# set construction


def _members(th, probs, u=None):
    """The set of one probability row, built through the batched mask."""
    u_arr = None if u is None else np.asarray([u])
    mask = set_mask(th.score_spec, np.asarray([probs], dtype=float), th.tau, u_arr)
    return np.flatnonzero(mask[0]).tolist()


def test_predict_set_example():
    th = _threshold(ScoreSpec(kind="aps"), calibrate_threshold([0.9], 0.5))
    assert _members(th, [0.6, 0.3, 0.1]) == [0, 1]


def test_include_all_returns_full_label_set():
    th = _threshold(ScoreSpec(kind="aps"), calibrate_threshold([0.5] * 3, 0.1))
    assert th.tau == math.inf
    assert _members(th, [0.6, 0.3, 0.1]) == [0, 1, 2]


def test_zero_tau_gives_empty_set():
    th = _threshold(ScoreSpec(kind="aps"), calibrate_threshold([0.0], 0.5))
    assert th.tau == 0.0
    assert _members(th, [0.6, 0.3, 0.1]) == []


def test_raps_score_upper_bound_gives_full_set():
    lam, k = 0.1, 4
    spec = ScoreSpec(kind="raps", raps_lambda=lam, raps_kreg=1)
    th = _threshold(spec, calibrate_threshold([1.0 + lam * k], 0.5))
    assert _members(th, [0.4, 0.3, 0.2, 0.1]) == [0, 1, 2, 3]


def test_include_all_coverage_is_one():
    cal = generate(SynthSpec(n=4, k=6, seed=0))
    test = generate(SynthSpec(n=100, k=6, seed=1))
    result = run_pipeline(cal, test, CalibrationMap.identity(),
                          ScoreSpec(kind="aps"), alpha=0.1)
    assert result.threshold.tau == math.inf
    cov, size = coverage_and_size(result.mask, test.labels)
    assert cov == 1.0 and size == 6.0


@st.composite
def prob_matrices(draw):
    # some matrices are wider than the top block, so both set paths run
    n = draw(st.integers(1, 4))
    k = draw(st.one_of(st.integers(2, 12), st.integers(_BLOCK + 1, 2 * _BLOCK)))
    row = st.lists(st.integers(1, draw(st.sampled_from([50, 10**6]))), min_size=k, max_size=k)
    weights = np.asarray(draw(st.lists(row, min_size=n, max_size=n)), dtype=float)
    return weights / weights.sum(axis=1, keepdims=True)


@given(
    prob_matrices(),
    st.sampled_from(["aps", "raps", "saps", "lac"]),
    st.booleans(),
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    st.one_of(st.floats(0.0, 1.5), st.just(math.inf)),
)
# a u so small that 1 - u rounds to 1: its rank-1 score u * p is still above 0
@example(np.full((4, 2), 0.5), "aps", True, [0.0, 0.0, 0.0, 2.8084671836810916e-223], 0.0)
def test_predict_matches_bruteforce_oracle(probs, kind, randomized, us, tau):
    # every row of the mask is oracle_set of that row; tau = inf fills every row
    spec = ScoreSpec(
        kind=kind,
        randomized=randomized and kind != "lac",
        raps_lambda=0.07 if kind == "raps" else None,
        raps_kreg=2 if kind == "raps" else None,
        saps_lambda=0.05 if kind == "saps" else None,
    )
    th = ConformalThreshold(tau=tau, alpha=0.5, n_cal=1, score_spec=spec,
                            cal_map=CalibrationMap.identity())
    u = np.asarray(us[:probs.shape[0]]) if spec.uses_u else np.ones(probs.shape[0])
    mask = set_mask(th.score_spec, probs, th.tau, u if spec.uses_u else None)
    assert mask.shape == probs.shape and mask.dtype == bool
    for row, u_i, got in zip(probs, u, mask):
        expected = oracle_set(kind, list(row), float(u_i), tau,
                              raps_lam=0.07, raps_kreg=2, saps_lam=0.05)
        assert np.flatnonzero(got).tolist() == expected
    if tau == math.inf:
        assert mask.all()


def _spec(kind, randomized):
    return ScoreSpec(
        kind=kind,
        randomized=randomized and kind != "lac",
        raps_lambda=0.002 if kind == "raps" else None,
        raps_kreg=3 if kind == "raps" else None,
        saps_lambda=0.01 if kind == "saps" else None,
    )


def _threshold(spec, tau):
    return ConformalThreshold(tau=tau, alpha=0.5, n_cal=1, score_spec=spec,
                              cal_map=CalibrationMap.identity())


def _assert_mask_is_full_path(spec, probs, u, tau):
    th = _threshold(spec, tau)
    got = set_mask(th.score_spec, probs, th.tau, u)
    np.testing.assert_array_equal(got, score_matrix(spec, probs, u) <= tau)


def _sharp_case(draw):
    """A block where most rows hold a probability above tau, with hard rows.

    Plain rows put 0.5-1 on one class and spread the rest on a coarse grid
    (ties and exact zeros).  Fewer hard rows mix in: a tie at the top two
    values, a tie at the second and third, or a plain row with one value
    pushed below 0.  tau is below every plain row's largest value, or one
    ulp around (or at) one plain row's largest value.
    """
    n_plain = draw(st.integers(2, 6))
    kinds = ["plain"] * n_plain + draw(st.lists(
        st.sampled_from(["top tie", "second tie", "negative"]), max_size=n_plain - 1))
    k = draw(st.sampled_from([2, 3, 50, _BLOCK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        if kind == "top tie":
            head = np.full(2, 0.5 if k == 2 else rng.uniform(0.34, 0.5))
        else:
            head = np.asarray([rng.uniform(0.5, 1.0)])
        w = rng.integers(0, 4, size=k - head.size).astype(float)
        if w.size:
            w[0] += 1.0
            w *= (1.0 - head.sum()) / w.sum()
        w = np.concatenate([head, w])
        if kind == "second tie" and k > 2:
            second, third = np.argsort(w)[-2:-4:-1]
            w[third] = w[second]
            w /= w.sum()
        elif kind == "negative":
            # still sums to 1: the smallest value moves to another class, 1e-3 past 0
            low, other = np.argsort(w)[:2]
            shift = w[low] + 1e-3
            w[[low, other]] += [-shift, shift]
        rows.append(w[rng.permutation(k)])
    order = rng.permutation(len(kinds))
    probs = np.stack(rows)[order]
    plain = (np.asarray(kinds) == "plain")[order]
    if draw(st.booleans()):
        probs = probs.astype(np.float32)
    tops = probs.astype(float).max(axis=1)[plain]
    if draw(st.booleans()):
        tau = float(rng.uniform(0.0, 1.0) * tops.min())
    else:
        tau = float(tops[rng.integers(tops.size)])
        tau = float(np.nextafter(tau, draw(st.sampled_from([-math.inf, tau, math.inf]))))
    spec = _spec(draw(st.sampled_from(["aps", "raps", "saps"])), draw(st.booleans()))
    u = rng.random(len(kinds)) if spec.uses_u else None
    if u is not None and draw(st.booleans()):
        u[rng.integers(len(kinds))] = draw(st.sampled_from([0.0, 1.0]))
    return spec, probs, u, tau


@st.composite
def wide_cases(draw):
    """Probability rows on both sides of the top block's width, and a tau.

    Logits on a coarse grid make ties (also across the block boundary);
    small temperatures round most of a row to exact zeros.  Some matrices
    are cast to float32, and in some one value of one row is pushed below
    0.  tau is 0, +inf, a random value, one of the row's prefix sums or
    scores nudged by at most one ulp, or (for non-randomized aps, so that
    most rows wider than the block are read again) a few ulps below 1.0.
    Half the draws are sharp blocks instead (`_sharp_case`).
    """
    if draw(st.booleans()):
        return _sharp_case(draw)
    n = draw(st.integers(1, 5))
    k = draw(st.sampled_from([2, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 3 * _BLOCK]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([3, 12, 10**6]))
    t = draw(st.sampled_from([0.002, 0.05, 0.3, 1.0, 5.0]))
    logits = np.round(rng.normal(0.0, 3.0, size=(n, k)) * levels / 9) * 9 / levels
    z = logits / t
    e = np.exp(z - z.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        # still sums to 1: the smallest value moves to another class, 1e-3 past 0
        row = rng.integers(n)
        low, other = np.argsort(probs[row])[:2]
        shift = probs[row, low] + 1e-3
        probs[row, [low, other]] += [-shift, shift]
    if draw(st.booleans()):
        probs = probs.astype(np.float32)
    how = draw(st.sampled_from(["zero", "inf", "random", "prefix", "score", "below_one"]))
    if how == "below_one":
        spec = _spec("aps", False)
    else:
        spec = _spec(draw(st.sampled_from(["aps", "raps", "saps", "lac"])), draw(st.booleans()))
    u = rng.random(n) if spec.uses_u else None
    if u is not None and draw(st.booleans()):
        u[rng.integers(n)] = draw(st.sampled_from([0.0, 1.0]))
    if how == "zero":
        tau = 0.0
    elif how == "inf":
        tau = math.inf
    elif how == "random":
        tau = float(rng.uniform(0.0, 1.5))
    elif how == "below_one":
        tau = 1.0 - draw(st.integers(1, 4)) * 2.0**-53
    else:
        if how == "prefix":
            values = np.cumsum(np.sort(probs.astype(float), axis=1)[:, ::-1], axis=1)
        else:
            values = score_matrix(spec, probs, u)
        tau = float(values[rng.integers(n), rng.integers(k)])
        tau = float(np.nextafter(tau, draw(st.sampled_from([-math.inf, tau, math.inf]))))
    return spec, probs, u, tau


@settings(max_examples=300)
@given(wide_cases())
def test_top_block_matches_score_matrix(case):
    _assert_mask_is_full_path(*case)


def _wide_row(head, k=3 * _BLOCK):
    """``k`` probabilities: ``head``, then the remaining mass in distinct falling values."""
    head = np.asarray(head, dtype=float)
    w = np.linspace(2.0, 1.0, k - head.size)
    return np.concatenate([head, (1.0 - head.sum()) * w / w.sum()])


STEEP = _wide_row([0.5, 0.25, 0.12])


def _block(spec, probs, tau, m, u=None):
    """The private m-wide block's ``(mask, rest)``; u defaults to ones, as for a plain score."""
    n = probs.shape[0]
    return _top_block(spec, probs, np.ones(n), probs.argmax(axis=1), tau,
                      np.ones(n) if u is None else u, m)


def _bf16(x):
    """``x`` rounded to bfloat16 precision (8 significant bits), ties to even."""
    bits = np.asarray(x, dtype=np.float32).view(np.uint32)
    bits = (bits + 0x7FFF + ((bits >> 16) & 1)) & 0xFFFF0000
    return bits.view(np.float32).astype(float)


@st.composite
def boundary_cases(draw):
    """Rows wider than the block, with tau where their sets end in a tie.

    Softmax rows of normal logits, which half the draws round to bfloat16
    precision so that equal values are common.  A row may also tie a run of
    ranks inside the block, or a run across its last rank, and one row may
    hold a value below 0 (by 1e-3, or by 0.5, so that prefix sums past the
    block fall below the block's).  tau is one row's score at a chosen
    rank, nudged by at most one ulp: the middle of a tie, rank 1 (an empty
    set), rank ``_BLOCK`` (a set of the whole block), the last rank or any
    rank; that row is the one with a value below 0, if there is one.  A
    randomized row may draw u = 2**-60, where 1 - u rounds to 1.
    """
    n = draw(st.integers(1, 4))
    k = draw(st.sampled_from([_BLOCK + 1, 200, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(0.0, draw(st.sampled_from([0.5, 2.0, 4.0])), size=(n, k))
    if draw(st.booleans()):
        logits = _bf16(logits)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    for row, tie in enumerate(draw(st.lists(st.sampled_from(["none", "inside", "across"]),
                                            min_size=n, max_size=n))):
        if tie == "inside":
            start = int(rng.integers(0, _BLOCK - 5))
            length = int(rng.integers(2, 5))
        elif tie == "across":
            start = _BLOCK - int(rng.integers(1, 4))
            length = _BLOCK - start + int(rng.integers(1, 4))
        else:
            continue
        cols = np.argsort(-probs[row], kind="stable")[start:start + length]
        probs[row, cols] = probs[row, cols[0]]
    probs /= probs.sum(axis=1, keepdims=True)
    row = int(rng.integers(n))
    if draw(st.booleans()):
        # still sums to 1: the smallest value moves to another class, past 0
        low, other = np.argsort(probs[row])[:2]
        shift = probs[row, low] + draw(st.sampled_from([1e-3, 0.5]))
        probs[row, [low, other]] += [-shift, shift]
    spec = _spec(draw(st.sampled_from(["aps", "raps", "saps"])), draw(st.booleans()))
    u = rng.random(n) if spec.uses_u else None
    if u is not None and draw(st.booleans()):
        u[rng.integers(n)] = draw(st.sampled_from([0.0, 2.0**-60, 1.0]))
    ordered, order = _descending(probs[row:row + 1])
    by_rank = score_matrix(spec, probs, u)[row, order[0]]
    where = draw(st.sampled_from(["tie", "empty", "block", "last", "any"]))
    if where == "tie":
        ties = np.flatnonzero(ordered[0, :_BLOCK] == ordered[0, 1:_BLOCK + 1])
        rank = int(ties[rng.integers(ties.size)]) if ties.size else 0
    else:
        rank = {"empty": 0, "block": _BLOCK - 1, "last": k - 1,
                "any": int(rng.integers(k))}[where]
    tau = float(by_rank[rank])
    if where == "empty":
        tau = float(np.nextafter(tau, -math.inf))
    else:
        tau = float(np.nextafter(tau, draw(st.sampled_from([-math.inf, tau, math.inf]))))
    return spec, probs, u, tau


def _negative_tail_case():
    """One row of ``_BLOCK + 1`` values whose smallest is pushed 0.5 below 0,
    and tau at its last rank's score: the prefix sums past the block fall
    back to 1, below the block's floor, so only the row's negative value
    keeps the block from certifying it."""
    probs = _wide_row([], k=_BLOCK + 1)
    probs[-2:] += [probs[-1] + 0.5, -probs[-1] - 0.5]
    probs = probs[None, :]
    spec = _spec("aps", False)
    return spec, probs, None, float(score_matrix(spec, probs)[0, -1])


@settings(max_examples=200)
@given(boundary_cases())
@example(_negative_tail_case())
def test_set_mask_reads_wide_rows_off_their_boundary_value(case):
    spec, probs, u, tau = case
    mask = set_mask(spec, probs, tau, u)
    np.testing.assert_array_equal(mask, score_matrix(spec, probs, u) <= tau)
    if probs.shape[1] <= 200:
        # the oracle adds in another order, so classes whose oracle score is
        # within rounding of tau may fall either way
        u_0 = 1.0 if u is None else float(u[0])
        oracle = np.asarray([oracle_score(spec.kind, probs[0].tolist(), c, u_0, 0.002, 3, 0.01)
                             for c in range(probs.shape[1])])
        clear = np.abs(oracle - tau) > 1e-9
        np.testing.assert_array_equal(mask[0, clear], (oracle <= tau)[clear])


def test_top_block_certifies_plain_wide_rows():
    # the top block holds most of each row's mass and no tie crosses it
    probs = np.stack([STEEP] * 3)
    for kind in ("aps", "raps", "saps"):
        spec = _spec(kind, False)
        mask, rest = _block(spec, probs, 0.7, _BLOCK)
        assert rest.size == 0
        np.testing.assert_array_equal(mask, score_matrix(spec, probs) <= 0.7)


def test_top_block_reads_boundary_ties_off_values():
    # row 1's m-th and (m+1)-th largest values are equal, and row 2 ties
    # classes 1, 2 and 100 at ranks 2-4, where tau ends its set at rank 3,
    # so the set takes the first two of them by class: the block holds
    # values, so neither tie sends a row to the whole-row read
    tied = STEEP.copy()
    tied[_BLOCK] = tied[_BLOCK - 1]
    split = STEEP.copy()
    split[[1, 2, 100]] = 0.2
    probs = np.stack([STEEP, tied / tied.sum(), split / split.sum()])
    u = np.asarray([0.3, 0.6, 1.0])
    for kind in ("aps", "raps", "saps"):
        spec = _spec(kind, True)
        order = np.argsort(-probs[2], kind="stable")
        tau = float(score_matrix(spec, probs, u)[2, order[2]])
        for t in (0.7, tau):
            mask, rest = _block(spec, probs, t, _BLOCK, u)
            assert rest.size == 0
            np.testing.assert_array_equal(mask, score_matrix(spec, probs, u) <= t)
        assert np.flatnonzero(mask[2]).tolist() == [0, 1, 2]


@pytest.mark.parametrize("crossing", [0.5, 1.0])
def test_top_block_sends_tau_one_ulp_below_the_block_sum_to_full_path(crossing):
    # the block's prefix sums reach a binade (0.5 or 1.0) exactly at rank
    # m and tau sits one ulp below: no margin is left to certify the row
    probs = _wide_row(np.full(_BLOCK, crossing / _BLOCK))[None, :]
    prefix = np.cumsum(np.sort(probs[0])[::-1])
    assert prefix[_BLOCK - 2] < crossing == prefix[_BLOCK - 1]
    tau = float(np.nextafter(crossing, -math.inf))
    for randomized in (False, True):
        spec = _spec("aps", randomized)
        u = np.asarray([0.0]) if randomized else None
        _, rest = _block(spec, probs, tau, _BLOCK, u)
        assert rest.tolist() == [0]
        _assert_mask_is_full_path(spec, probs, u, tau)


@pytest.mark.parametrize("k, signal, route", [(50, 9.0, [2]), (50, 0.05, []), (1000, 4.0, [_BLOCK])],
                         ids=["sharp-k50", "flat-k50", "k1000"])
@pytest.mark.parametrize("push", [1e-3, 0.5])
def test_set_mask_reads_a_matrix_with_a_negative_value_whole(k, signal, route, push):
    # the kernels' certificates hold only on blocks with no value below 0,
    # so the public entry reads a matrix that holds one whole, on each route
    # the matrix takes without it: the 2-value read of sharp K = 50 rows,
    # the whole read of flat ones and the top-64 block at K = 1000.  A push
    # of 0.5 makes prefix sums past the block fall below the block's
    ds = generate(SynthSpec(n=200, k=k, seed=k, signal=signal))
    probs = apply_map_dataset(CalibrationMap.identity(), ds)
    tau = 0.9 if k > _BLOCK else 0.5
    assert (2 * np.count_nonzero(probs > tau) > probs.shape[0]) == (route == [2])
    negative = probs.copy()
    for row in range(0, probs.shape[0], 7):
        # still sums to 1: the smallest value moves to another class, past 0
        low, other = np.argsort(negative[row])[:2]
        shift = negative[row, low] + push
        negative[row, [low, other]] += [-shift, shift]
    for kind in ("aps", "raps", "saps", "lac"):
        for randomized in (False, True):
            spec = _spec(kind, randomized)
            u = np.random.default_rng(k).random(probs.shape[0]) if spec.uses_u else None
            for matrix in (probs, negative):
                with (mock.patch("confsets.scores._top_block", wraps=_top_block) as block,
                      mock.patch("confsets.scores._full_read", wraps=_full_read) as whole):
                    mask = set_mask(spec, matrix, tau, u)
                np.testing.assert_array_equal(mask, score_matrix(spec, matrix, u) <= tau)
                if kind == "lac":
                    continue
                if matrix is negative:
                    assert block.call_count == 0 and whole.call_count == 1
                else:
                    assert [c.args[6] for c in block.call_args_list] == route


@st.composite
def ordered_rows(draw):
    """Rows with no negative value, in descending order, and one u per row.

    Softmax rows of normal logits, half of them rounded to bfloat16
    precision so that values tie; or one large value over tails of at most
    2**-50, some of them exact zeros or subnormal.  Each row's u comes from
    one branch of `_cumulative_score`: [0, 1] (0 and 1 included), or
    (0, 2**-54], where 1 - u rounds to 1.
    """
    n = draw(st.integers(1, 4))
    k = draw(st.sampled_from([2, 3, 8, _BLOCK + 1, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        logits = rng.normal(0.0, draw(st.sampled_from([0.5, 2.0, 8.0, 40.0])), size=(n, k))
        if draw(st.booleans()):
            logits = _bf16(logits)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
    else:
        tails = rng.choice([0.0, 5e-324, 2.0**-1060, 2.0**-60, 2.0**-52], size=(n, k))
        tails *= rng.integers(1, 5, size=(n, k))
        tails[:, 0] = 1.0 - tails[:, 1:].sum(axis=1)
        probs = tails
    u = draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(5e-324, 2.0**-54),
                                st.sampled_from([0.0, 2.0**-54, 1.0])),
                      min_size=n, max_size=n))
    return _descending(probs)[0], np.asarray(u)


@settings(max_examples=300)
@given(ordered_rows(),
       st.sampled_from([_spec("aps", True),
                        ScoreSpec(kind="raps", raps_lambda=0.1, raps_kreg=1, randomized=True),
                        ScoreSpec(kind="raps", raps_lambda=1.7976931348623157e308, raps_kreg=3,
                                  randomized=True),
                        _spec("saps", True),
                        ScoreSpec(kind="saps", saps_lambda=0.5, randomized=True)]))
def test_scores_never_fall_with_rank_on_rows_without_a_negative_value(case, spec):
    """`_top_block` reads the ranks that score <= tau as a prefix, 1..s,
    with s their count; this is why it needs no check.

    Let v_1 >= v_2 >= ... >= 0 be a row's values in order and c_r =
    fl(c_{r-1} + v_r) its prefix sums, which never fall.

    * u = 0, or u > 2**-54: the score is fl(c_r - fl(fl(1 - u) v_r)).
      fl(1 - u) <= 1 and rounding is monotone, so the subtracted term never
      rises with r, the exact difference never falls and nor does its
      rounding.
    * 0 < u <= 2**-54: the score is fl(d_r + fl(u v_r)) with d_r =
      fl(c_r - v_r).  Exactly, c_{r+1} - v_{r+1} = c_r - e, where e is the
      rounding error of c_{r+1}; c_{r+1} >= c_r gives e <= v_{r+1} <= v_r,
      so d_r never falls.  From rank 2 on d_r is at least about v_r, so
      fl(u v_r) <= 2**-54 v_r is below half an ulp of d_r and the score is
      d_r; at rank 1 it is fl(u v_1) <= d_2.
    * The raps penalty and the saps rank term never fall with r, and saps's
      rank-1 score fl(u p_max) is at most p_max.
    """
    ordered, u = case
    ranks = np.arange(1, ordered.shape[1] + 1)
    with np.errstate(over="ignore"):  # a huge raps lambda overflows deep ranks to inf
        by_rank = _cumulative_score(spec, np.cumsum(ordered, axis=1), ordered,
                                    ordered[:, :1], ranks, u[:, None])
    assert np.all(by_rank[:, 1:] >= by_rank[:, :-1])


def test_full_read_needs_no_certificate():
    # the whole-row read ranks every class, so it is exact on every row,
    # even one with a negative value or tau above every score; K <= _BLOCK
    # rows take it first unless the 2-value block comes first, wider rows
    # on their second read
    wide = np.stack([STEEP] * 2)
    narrow = wide[:, :_BLOCK] / wide[:, :_BLOCK].sum(axis=1, keepdims=True)
    narrow[1, -2:] += [-narrow[1, -2] - 1e-3, narrow[1, -2] + 1e-3]
    tied = STEEP.copy()
    tied[_BLOCK] = tied[_BLOCK - 1]
    negative = STEEP.copy()
    negative[-2:] += [-1e-3, 1e-3]
    crossing = _wide_row(np.full(_BLOCK, 1.0 / _BLOCK))
    hard = np.stack([tied / tied.sum(), negative, crossing])
    below_binade = float(np.nextafter(1.0, -math.inf))
    u = np.asarray([0.25, 0.0, 0.6])
    for kind in ("aps", "raps", "saps"):
        for randomized in (False, True):
            spec = _spec(kind, randomized)
            for probs, taus in ((narrow, (0.0, 0.5, 0.99, 1.5)),
                                (hard, (0.0, 0.5, 0.7, below_binade, 1.5))):
                u_spec = u[:probs.shape[0]] if randomized else None
                for tau in taus:
                    u_eff = np.ones(probs.shape[0]) if u_spec is None else u_spec
                    np.testing.assert_array_equal(_full_read(spec, probs, u_eff, tau),
                                                  score_matrix(spec, probs, u_spec) <= tau)


@given(st.integers(0, 2**32 - 1))
def test_top_values_follow_the_stable_order_through_ties(seed):
    # rows of a few distinct values: repeated maxima, ties at second place
    # and -0.0 next to 0.0.  Both the 2-value argmax read and the
    # partitioned block give the first m values of the stable order, also
    # where the m-th value recurs past the block.  -0.0 and 0.0 compare
    # equal, so the block may hold either where the order holds the other;
    # no score or comparison can tell them apart, since every prefix sum is
    # above 0
    rng = np.random.default_rng(seed)
    n, k = 30, int(rng.integers(3, 2 * _BLOCK))
    weights = rng.choice([-0.0, 0.0, 1.0, 2.0, 3.0], size=(n, k))
    weights[np.arange(n), rng.integers(k, size=n)] = 3.0
    p = weights / weights.sum(axis=1, keepdims=True)
    ordered = _descending(p)[0]
    for m in sorted({2, min(3, k - 1), min(_BLOCK, k - 1)}):
        np.testing.assert_array_equal(_top_values(p, m, p.argmax(axis=1)), ordered[:, :m])


def test_set_mask_reads_sharp_blocks_off_two_classes_first():
    # the 2-value block comes first exactly when K <= _BLOCK and more
    # values are above tau than half the rows; other rows no wider than
    # _BLOCK are read whole at once, and wider rows always take the
    # _BLOCK-value block first.  The mask never depends on the read that
    # came first
    routes = set()
    for k in (3, 50, _BLOCK + 1, 3 * _BLOCK):
        ds = generate(SynthSpec(n=40, k=k, seed=k, signal=4.0, overconfidence=3.0))
        probs = apply_map_dataset(CalibrationMap.identity(), ds)
        tops = np.sort(probs.max(axis=1))
        half = tops[probs.shape[0] // 2 - 1]
        taus = (0.0, tops[0], float(np.nextafter(half, -math.inf)), half, tops[-1], 0.999)
        for kind in ("aps", "raps", "saps"):
            spec = _spec(kind, True)
            u = np.random.default_rng(k).random(probs.shape[0])
            for tau in taus:
                with (mock.patch("confsets.scores._top_block", wraps=_top_block) as block,
                      mock.patch("confsets.scores._full_read", wraps=_full_read) as whole):
                    mask = set_mask(spec, probs, tau, u)
                widths = [c.args[6] for c in block.call_args_list]
                routed = 2 * np.count_nonzero(probs > tau) > probs.shape[0]
                assert widths == (([2] if routed else []) if k <= _BLOCK else [_BLOCK])
                assert whole.call_count == 1 if not widths else whole.call_count in (0, 1)
                routes.add((routed, k <= _BLOCK))
                np.testing.assert_array_equal(mask, score_matrix(spec, probs, u) <= tau)
    assert routes == {(False, False), (False, True), (True, False), (True, True)}


def test_the_two_value_read_of_a_walk_block_copies_nothing():
    # sharp K = 50 rows take the 2-value read; the walk owns its block, so
    # the read masks each row's top value in place and writes it back
    # instead of copying the block.  What it holds is the mask, a boolean
    # temporary and numpy's 8192-value iterator buffers, about half a
    # block; a copy of the block made it 1.12 blocks
    ds = generate(SynthSpec(n=1310, k=50, seed=3, signal=9.0))
    (_, e, s, top), = maps.probability_blocks(CalibrationMap.identity(), ds)
    spec = _spec("aps", True)
    u = np.random.default_rng(3).random(ds.n)
    probs = e / s[:, None]
    tau = 0.5
    assert 2 * np.count_nonzero(probs > tau) > ds.n
    expected = set_mask(spec, probs, tau, u)
    block = e.copy()
    tracemalloc.start()
    try:
        with mock.patch("confsets.scores._top_block", wraps=_top_block) as read:
            mask = engine._set_mask(spec, block, s, top, tau, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [c.args[6] for c in read.call_args_list] == [2]
    np.testing.assert_array_equal(mask, expected)
    # the block is left divided, with every top value back in place
    assert block.tobytes() == probs.tobytes()
    assert peak < 0.75 * block.nbytes, (
        f"the 2-value read peaked at {peak / block.nbytes:.2f} blocks")


@pytest.mark.parametrize("k, tau", [(50, 0.5), (50, 0.99), (1000, 0.9), (1000, 0.0)])
@pytest.mark.parametrize("kind", ["aps", "lac"])
def test_public_set_mask_never_writes_its_input(k, tau, kind):
    # the 2-value read, the whole read and the top-64 block on a read-only
    # matrix, at a tau that sends rows to be read again whole
    ds = generate(SynthSpec(n=200, k=k, seed=k, signal=4.0, overconfidence=3.0))
    probs = apply_map_dataset(CalibrationMap.identity(), ds)
    before = probs.copy()
    probs.flags.writeable = False
    spec = _spec(kind, False)
    mask = set_mask(spec, probs, tau)
    np.testing.assert_array_equal(mask, score_matrix(spec, before) <= tau)
    assert probs.tobytes() == before.tobytes()


def test_set_mask_compares_lac_and_include_all_directly():
    probs = np.stack([STEEP] * 2)
    cases = [(_spec("lac", False), 0.5), (_spec("aps", False), math.inf),
             (_spec("saps", False), math.inf)]
    for spec, tau in cases:
        np.testing.assert_array_equal(set_mask(spec, probs, tau),
                                      score_matrix(spec, probs) <= tau)


@given(st.lists(st.integers(1, 30), min_size=3, max_size=8), st.floats(0.0, 1.0))
def test_monotone_growth_in_tau(weights, u):
    probs = np.asarray(weights, dtype=float) / sum(weights)
    spec = ScoreSpec(kind="aps", randomized=True)
    taus = [0.2, 0.5, 0.8, 1.1]
    previous: set = set()
    for tau in taus:
        th = _threshold(spec, calibrate_threshold([tau], 0.5))
        members = set(_members(th, probs, u))
        assert previous <= members
        previous = members


def test_nesting_in_alpha():
    cal = generate(SynthSpec(n=500, k=8, seed=4))
    test = generate(SynthSpec(n=300, k=8, seed=5))
    spec = ScoreSpec(kind="aps", randomized=True, rng_seed=3)
    strict = run_pipeline(cal, test, CalibrationMap.identity(), spec, alpha=0.05)
    loose = run_pipeline(cal, test, CalibrationMap.identity(), spec, alpha=0.2)
    assert strict.threshold.tau >= loose.threshold.tau
    assert not (loose.mask & ~strict.mask).any()


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_identity_equals_temperature_one():
    cal = generate(SynthSpec(n=400, k=5, seed=1))
    test = generate(SynthSpec(n=200, k=5, seed=2))
    spec = ScoreSpec(kind="aps", randomized=True, rng_seed=9)
    a = run_pipeline(cal, test, CalibrationMap.identity(), spec, 0.1)
    b = run_pipeline(cal, test, CalibrationMap.temperature(1.0), spec, 0.1)
    assert a.threshold.tau == b.threshold.tau
    np.testing.assert_array_equal(a.mask, b.mask)


def test_pipeline_k_mismatch():
    cal = generate(SynthSpec(n=50, k=5, seed=1))
    test = generate(SynthSpec(n=50, k=6, seed=2))
    with pytest.raises(ValidationError):
        run_pipeline(cal, test, CalibrationMap.identity(), ScoreSpec(kind="aps"), 0.1)


def test_self_calibration_coverage_nonrandomized():
    # scoring the calibration data itself: coverage >= 1 - alpha by construction
    ds = generate(SynthSpec(n=1000, k=10, seed=8))
    spec = ScoreSpec(kind="aps")
    result = run_pipeline(ds, ds, CalibrationMap.identity(), spec, alpha=0.1)
    cov, _ = coverage_and_size(result.mask, ds.labels)
    assert cov >= 0.9


def test_pipeline_coverage_monte_carlo():
    covs = []
    for seed in range(20):
        cal = generate(SynthSpec(n=2000, k=20, seed=2 * seed, signal=2, noise=1))
        test = generate(SynthSpec(n=10000, k=20, seed=2 * seed + 1, signal=2, noise=1))
        spec = ScoreSpec(kind="aps", randomized=True, rng_seed=seed)
        result = run_pipeline(cal, test, CalibrationMap.identity(), spec, 0.1)
        cov, _ = coverage_and_size(result.mask, test.labels)
        covs.append(cov)
    assert 0.90 <= np.mean(covs) <= 0.92


# ---------------------------------------------------------------------------
# file formats


def test_threshold_file_round_trip(tmp_path):
    spec = ScoreSpec(kind="raps", raps_lambda=0.01, raps_kreg=1,
                     randomized=True, rng_seed=5)
    th = ConformalThreshold(tau=calibrate_threshold(np.linspace(0, 1, 100), 0.1), alpha=0.1,
                            n_cal=100, score_spec=spec, cal_map=CalibrationMap.temperature(0.7))
    path = tmp_path / "threshold.json"
    save_threshold(th, path)
    back = load_threshold(path)
    assert back.tau == th.tau
    assert back.alpha == th.alpha
    assert back.n_cal == th.n_cal
    assert back.score_spec == spec
    assert back.cal_map == th.cal_map


def test_threshold_records_its_class_count(tmp_path):
    th = calibrate(generate(SynthSpec(n=100, k=6, seed=1)), CalibrationMap.identity(),
                   ScoreSpec(kind="aps"), 0.1)
    path = tmp_path / "threshold.json"
    save_threshold(th, path)
    obj = json.loads(path.read_text())
    # appended after the other keys, so their bytes keep their order
    assert list(obj) == ["tau", "alpha", "n_cal", "score", "map", "k"]
    assert obj["k"] == load_threshold(path).k == 6
    wider = generate(SynthSpec(n=5, k=8, seed=2))
    with pytest.raises(ValidationError, match="classes"):
        predict(th, wider)
    # a file without k loads, and its threshold predicts at any class count
    del obj["k"]
    path.write_text(json.dumps(obj))
    assert load_threshold(path).k is None
    assert predict(load_threshold(path), wider).shape == (5, 8)


def test_include_all_serializes_as_string(tmp_path):
    th = ConformalThreshold(tau=calibrate_threshold([0.5], 0.1), alpha=0.1, n_cal=1,
                            score_spec=ScoreSpec(kind="aps"), cal_map=CalibrationMap.identity())
    path = tmp_path / "threshold.json"
    save_threshold(th, path)
    assert '"include_all"' in path.read_text()
    assert load_threshold(path).tau == math.inf


def _write_mask(mask, path):
    """Write the sets file of a mask with `engine._write_sets`, one
    `data.row_blocks` block of rows at a time."""
    n, k = mask.shape
    engine._write_sets(((rows, mask[rows]) for rows in row_blocks(n, k)), k, path)


def _records_mask(path, k):
    """The n-by-k mask of a sets file, filled from `engine._set_records`."""
    chunks = list(engine._set_records(path, k))
    mask = np.zeros((chunks[-1][0].stop if chunks else 0, k), dtype=bool)
    for _, owners, members in chunks:
        mask[owners, members] = True
    return mask


def _assert_sizes_are_the_reference(path, k, expected, rng):
    """`load_set_sizes` gives the sizes and covered flags of the member lists
    ``expected`` under random labels, one fewer than the rows when there
    are rows (past the last label, covered is False)."""
    labels = rng.integers(0, k, max(len(expected) - 1, 0))
    sizes, covered = load_set_sizes(path, labels, k)
    assert sizes.dtype == np.int64 and covered.dtype == bool
    assert sizes.tolist() == [len(members) for members in expected]
    assert covered.tolist() == [i < len(labels) and int(labels[i]) in members
                                for i, members in enumerate(expected)]


@pytest.mark.parametrize("labels_per_record", [0.0, 0.5, 1.0, 3.0])
def test_set_sizes_fit_any_number_of_labels(tmp_path, labels_per_record):
    # the vectors start at one entry per label; a file with more records
    # (several chunks of them) grows them, and one with fewer gives only
    # its own records' entries
    rng = np.random.default_rng(5)
    mask = rng.random((3000, 7)) < 0.3
    path = tmp_path / "sets.jsonl"
    _write_mask(mask, path)
    labels = rng.integers(0, 7, int(labels_per_record * 3000))
    sizes, covered = load_set_sizes(path, labels, 7)
    assert sizes.tolist() == np.count_nonzero(mask, axis=1).tolist()
    assert covered.tolist() == [i < len(labels) and bool(mask[i, labels[i]])
                                for i in range(3000)]


def _assert_loaders_raise(path, k, exc):
    """`engine._set_records` and `load_set_sizes` both reject a sets file
    with the reference's message ``exc``."""
    with pytest.raises(ValidationError) as got:
        _records_mask(path, k)
    with pytest.raises(ValidationError) as sized:
        load_set_sizes(path, np.zeros(0, dtype=np.int64), k)
    assert str(got.value) == str(sized.value) == str(exc)


def test_prediction_sets_file_round_trip(tmp_path):
    cal = generate(SynthSpec(n=100, k=6, seed=1))
    test = generate(SynthSpec(n=50, k=6, seed=2))
    result = run_pipeline(cal, test, CalibrationMap.identity(),
                          ScoreSpec(kind="aps", randomized=True), 0.1)
    path = tmp_path / "sets.jsonl"
    _write_mask(result.mask, path)
    np.testing.assert_array_equal(_records_mask(path, test.k), result.mask)
    # the per-row records are the mask rows, in order
    records = result.sets
    assert len(records) == test.n
    for i, (ps, row) in enumerate(zip(records, result.mask)):
        assert ps.sample_index == i
        assert ps.members.dtype.kind == "i"
        np.testing.assert_array_equal(ps.members, np.flatnonzero(row))


@pytest.mark.parametrize("n, k, density", [(7, 3, 0.5), (600, 1000, 0.01), (300, 1000, 1.0)])
def test_prediction_sets_file_is_per_row_json_dumps(tmp_path, n, k, density):
    # empty rows, full rows, K = 1000 and several write chunks
    mask = np.random.default_rng(n).random((n, k)) < density
    mask[0] = False
    mask[-1] = True
    path = tmp_path / "sets.jsonl"
    _write_mask(mask, path)
    expected = "".join(json.dumps({"index": i, "set": np.flatnonzero(row).tolist()}) + "\n"
                       for i, row in enumerate(mask))
    assert path.read_bytes() == expected.encode("ascii")
    np.testing.assert_array_equal(_records_mask(path, k), mask)


@given(st.integers(0, 2**32 - 1))
def test_loaded_sets_match_per_row_fill(tmp_path_factory, seed):
    # members ascending, the one order a sets file has; empty and full rows
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(0, 20)), int(rng.integers(1, 12))
    member_lists = [sorted(rng.permutation(k)[:rng.integers(0, k + 1)].tolist())
                    for _ in range(n)]
    if n >= 2:
        member_lists[0], member_lists[-1] = [], list(range(k))
    path = tmp_path_factory.mktemp("sets") / "sets.jsonl"
    path.write_text("".join(json.dumps({"index": i, "set": m}) + "\n"
                            for i, m in enumerate(member_lists)))
    expected = np.zeros((n, k), dtype=bool)
    for i, members in enumerate(member_lists):
        expected[i, members] = True
    got = _records_mask(path, k)
    assert got.shape == (n, k)
    np.testing.assert_array_equal(got, expected)
    _assert_sizes_are_the_reference(path, k, oracle_load_sets(path, k), rng)
    # the same records with one row's members in another order: that row's
    # line is named
    wide = [i for i, members in enumerate(member_lists) if len(members) > 1]
    if wide:
        j = int(rng.choice(wide))
        member_lists[j] = rng.permutation(member_lists[j][::-1]).tolist()
        if member_lists[j] == sorted(member_lists[j]):
            member_lists[j].reverse()
        path.write_text("".join(json.dumps({"index": i, "set": m}) + "\n"
                                for i, m in enumerate(member_lists)))
        _assert_loaders_raise(path, k, f"prediction-sets line {j}: {NOT_WRITTEN}")


# Spellings of a record other than the writer's: key order, escaped key
# names, spacing, and whitespace around a record.
_INDEX_KEYS = ['"index"', r'"\u0069ndex"', r'"inde\u0078"']
_SET_KEYS = ['"set"', r'"\u0073et"', r'"s\u0065t"']
_PADS = ["", " ", "\t", "\x0c", "\x1c "]
_BLANKS = ["", "  ", "\t", "\x0b"]
# Keys the writer never writes, whose strings hold brackets, quotes and
# escapes, with nested values and null.
_EXTRA_KEYS = {"extra-brackets": '"note": "]["', "extra-escapes": r'"note": "a\\\"[{,"',
               "extra-nested": '"meta": {"a": [1, {"b": []}]}', "extra-null": '"x": null'}


def _record_text(rng, index, members, written) -> str:
    """Row ``index``'s record with ``members`` spelt otherwise than the
    writer's line ``written``."""
    while True:
        colon = rng.choice([": ", ":", " : "])
        items = [f'{rng.choice(_INDEX_KEYS)}{colon}{index}',
                 f'{rng.choice(_SET_KEYS)}{colon}[{rng.choice([", ", ","]).join(members)}]']
        rng.shuffle(items)
        text = rng.choice(_PADS) + "{" + rng.choice([", ", ",", " ,\t"]).join(items) + "}" \
            + rng.choice(_PADS)
        if text != written:
            return text


def _other_lines(kind, j, lines, rng):
    """Row j's line (and for some kinds row j + 1's) spelt otherwise than
    the writer's, in one way."""
    members = [str(c) for c in json.loads(lines[j])["set"]]
    unsorted = [int(m) for m in members[::-1]] if len(members) > 1 else [1, 0]
    other = {
        "respelt": [_record_text(rng, j, members, lines[j])],
        "blank-line": [rng.choice(_BLANKS), lines[j]],
        "members-unsorted": [json.dumps({"index": j, "set": unsorted})],
        "leading-zero": [f'{{"index": {j}, "set": [0{", ".join(members) or "1"}]}}'],
        "member-19-digits": [f'{{"index": {j}, "set": [{10**18}]}}'],
        "invalid-json": [f'{{"index": {j}, "set": [1,]}}'],
        "two-records": [lines[j] + ", " + lines[j + 1]],
        "split-record": [f'{{"index": {j},', '"set": [1]}'],
        "split-across-rows": [lines[j] + f', {{"index": {j + 1}, "set": [0', "1]}"],
        "missing-key": [f'{{"index": {j}}}'],
        "index-true": ['{"index": true, "set": []}'],
        "index-float": [f'{{"index": {j}.0, "set": []}}'],
        "member-true": [f'{{"index": {j}, "set": [true]}}'],
        "member-float": [f'{{"index": {j}, "set": [1.0]}}'],
        "member-negative": [f'{{"index": {j}, "set": [-1]}}'],
        "member-huge": [f'{{"index": {j}, "set": [{2**70}]}}'],
        "deep-nesting": [f'{{"index": {j}, "set": {"[" * 5000}{"]" * 5000}}}'],
        "member-5000-digits": [f'{{"index": {j}, "set": [{"9" * 5000}]}}'],
        "repeated-key": [f'{{"index": {j}, "set": [0], "set": [1]}}'],
        # json.loads keeps a repeated key's last value, so the braces of the
        # first one hide the split
        "duplicate-key-split": ['{"set": [{}', f'{{}}], "index": {j}, "set": [0]}}',
                                f'{{"index": {j + 1}, "set": []}}, {{"index": {j + 2}, "set": []}}'],
        **{name: [f'{{"index": {j}, {extra}, "set": [1]}}'] for name, extra in _EXTRA_KEYS.items()},
    }[kind]
    return other, {"two-records": 2, "split-across-rows": 2, "duplicate-key-split": 3}.get(kind, 1)


OTHER_SPELLINGS = ["respelt", "blank-line", "no-final-newline", "members-unsorted",
                   "leading-zero", "member-19-digits", "invalid-json", "two-records",
                   "split-record", "split-across-rows", "missing-key", "index-true",
                   "index-float", "member-true", "member-float", "member-negative",
                   "member-huge", "deep-nesting", "member-5000-digits", "repeated-key",
                   "duplicate-key-split", *_EXTRA_KEYS]


@pytest.mark.parametrize("k, max_rows", [(2, 300), (50, 200), (1000, 30)])
@given(seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from([1, 100, 2000, errors._CHUNK_CHARS]),
       other=st.none() | st.sampled_from(OTHER_SPELLINGS))
@example(seed=0, chunk=errors._CHUNK_CHARS, other="duplicate-key-split")
def test_sets_loader_matches_line_by_line_reference(tmp_path_factory, k, max_rows, seed,
                                                     chunk, other):
    # the writer's lines, LF or CRLF ended, with one line (or a few) spelt
    # otherwise and maybe later ones too: the chunked loader names the first
    # such line with the reference's message, or gives the reference's mask
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_rows + 1))
    mask = rng.random((n, k)) < rng.random((n, 1)) ** 2
    mask[rng.integers(n)] = True
    path = tmp_path_factory.mktemp("sets") / "sets.jsonl"
    _write_mask(mask, path)
    lines = path.read_text().splitlines()
    ends = [rng.choice(["\n", "\r\n"]) for _ in range(n + 3)]
    at = n - 1 if other == "no-final-newline" else int(rng.integers(n - 1))
    if other == "no-final-newline":
        ends[n - 1] = ""
    elif other is not None:
        replacement, rows = _other_lines(other, at, lines, rng)
        lines[at:at + rows] = replacement
        for i in range(at + len(replacement), len(lines)):
            if rng.random() < 0.05:
                lines[i] = _record_text(rng, i, re.findall("[0-9]+", lines[i])[1:], lines[i])
    path.write_bytes("".join(map(str.__add__, lines, ends)).encode("latin-1"))
    try:
        expected = oracle_load_sets(path, k)
    except ValueError as exc:
        assert str(exc) == f"prediction-sets line {at}: {NOT_WRITTEN}"
        with mock.patch.object(errors, "_CHUNK_CHARS", chunk):
            _assert_loaders_raise(path, k, exc)
        return
    assert other is None
    with mock.patch.object(errors, "_CHUNK_CHARS", chunk):
        got = _records_mask(path, k)
        _assert_sizes_are_the_reference(path, k, expected, rng)
    np.testing.assert_array_equal(got, mask)


def _written_defect(kind, line, j, k, rng):
    """Row j's written ``line`` with one defect that keeps it in the
    writer's spelling, and the message that names it; or, for "crlf", the
    line with a CRLF end, which loads."""
    members = re.fullmatch(r'\{"index": \d+, "set": \[(.*)\]\}\n', line)[1]
    members = members.split(", ") if members else []
    index = j
    if kind == "index-off-by-one":
        index = j + 1 if j == 0 else j + int(rng.choice([-1, 1]))
    members = {
        "member-k": members + [str(k)],
        "member-repeated": (members or ["0"]) + (members or ["0"])[-1:],
    }.get(kind, members)
    line = f'{{"index": {index}, "set": [{", ".join(members)}]}}\n'
    if kind == "non-ascii":
        # Arabic-Indic digits, which int() and a \d pattern would take
        arabic_indic = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66a))))
        line = line.replace(str(j), str(j).translate(arabic_indic), 1)
    return {"crlf": line[:-1] + "\r\n"}.get(kind, line), {
        "index-off-by-one": f"index {index} is not the row position {j}",
        "member-k": f"member outside [0, {k})",
        "member-repeated": "duplicated member",
        "non-ascii": "non-ASCII byte",
    }.get(kind)


WRITTEN_DEFECTS = ["index-off-by-one", "member-k", "member-repeated", "non-ascii", "crlf",
                   "crlf-file", "record-past-a-chunk"]


@pytest.mark.parametrize("k, max_rows", [(2, 300), (50, 200), (1000, 30)])
@given(seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from([1, 100, 2000, errors._CHUNK_CHARS]),
       defect=st.sampled_from([None, *WRITTEN_DEFECTS]))
def test_sets_loader_reads_written_files_as_the_reference(tmp_path_factory, k, max_rows, seed,
                                                         chunk, defect):
    # the writer's own bytes, in chunks of any size, CRLF ended or not, load
    # to the mask without the per-line diagnosis; one defect that keeps the
    # writer's spelling gets its own message at its line, as the reference's
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_rows + 1))
    mask = rng.random((n, k)) < rng.random((n, 1)) ** 2
    empty, full = rng.permutation(n)[:2]
    mask[empty], mask[full] = False, True
    path = tmp_path_factory.mktemp("sets") / "sets.jsonl"
    _write_mask(mask, path)
    lines = path.read_text().splitlines(keepends=True)
    j = int(full if defect == "record-past-a-chunk" else rng.integers(n))
    message = None
    if defect == "record-past-a-chunk":
        chunk = min(chunk, len(lines[j]) - 1)
    elif defect == "crlf-file":
        lines = [line[:-1] + "\r\n" for line in lines]
    elif defect is not None:
        lines[j], message = _written_defect(defect, lines[j], j, k, rng)
    path.write_text("".join(lines), encoding="utf-8", newline="")
    with mock.patch.object(errors, "_CHUNK_CHARS", chunk):
        if message is not None:
            with pytest.raises(ValueError) as expected:
                oracle_load_sets(path, k)
            assert str(expected.value) == f"prediction-sets line {j}: {message}"
            _assert_loaders_raise(path, k, expected.value)
            return
        expected = oracle_load_sets(path, k)
        with mock.patch.object(engine, "_first_error", wraps=engine._first_error) as diagnosis:
            got = _records_mask(path, k)
            _assert_sizes_are_the_reference(path, k, expected, rng)
    diagnosis.assert_not_called()
    np.testing.assert_array_equal(got, mask)
    assert expected == [np.flatnonzero(row).tolist() for row in mask]
