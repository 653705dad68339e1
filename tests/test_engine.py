import json
import math
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
    predict_sets,
    run_pipeline,
)
from confsets.engine import (
    conformal_level,
    load_prediction_sets,
    load_threshold,
    save_prediction_sets,
    save_threshold,
)
from confsets import errors
from confsets.scores import _BLOCK, _top_block, score_matrix, set_mask

from oracles import oracle_load_sets, oracle_quantile, oracle_set

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
    return np.flatnonzero(predict_sets(th, np.asarray([probs], dtype=float), u_arr)[0]).tolist()


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
    mask = predict_sets(th, probs, u if spec.uses_u else None)
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
    got = predict_sets(_threshold(spec, tau), probs, u)
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
    return _top_block(spec, probs, tau, np.ones(probs.shape[0]) if u is None else u, m)


def test_top_block_certifies_plain_wide_rows():
    # the top block holds most of each row's mass and no tie crosses it
    probs = np.stack([STEEP] * 3)
    for kind in ("aps", "raps", "saps"):
        spec = _spec(kind, False)
        mask, rest = _block(spec, probs, 0.7, _BLOCK)
        assert rest.size == 0
        np.testing.assert_array_equal(mask, score_matrix(spec, probs) <= 0.7)


def test_top_block_sends_boundary_ties_to_full_path():
    # row 1's m-th and (m+1)-th largest values are equal: the block cannot
    # know which of the tied classes the stable order ranks m-th
    tied = STEEP.copy()
    tied[_BLOCK] = tied[_BLOCK - 1]
    probs = np.stack([STEEP, tied / tied.sum()])
    u = np.asarray([0.3, 0.6])
    for kind in ("aps", "raps", "saps"):
        spec = _spec(kind, True)
        _, rest = _block(spec, probs, 0.7, _BLOCK, u)
        assert rest.tolist() == [1]
        _assert_mask_is_full_path(spec, probs, u, 0.7)


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


def test_top_block_sends_negative_rows_to_full_path():
    negative = np.stack([STEEP] * 2)
    negative[1, -2:] += [-1e-3, 1e-3]   # still sums to 1, one value below 0
    spec = _spec("aps", False)
    _, rest = _block(spec, negative, 0.5, _BLOCK)
    assert rest.tolist() == [1]
    _assert_mask_is_full_path(spec, negative, None, 0.5)


def test_top_block_certifies_narrow_rows_in_one_pass():
    # with m = K the block is the whole row, so no row is left over, even
    # one with a negative value or tau above every score; K <= _BLOCK rows
    # take this block first unless the 2-class block comes first, wider rows
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
                    mask, rest = _block(spec, probs, tau, probs.shape[1], u_spec)
                    assert rest.size == 0
                    np.testing.assert_array_equal(
                        mask, score_matrix(spec, probs, u_spec) <= tau)


def test_set_mask_reads_sharp_blocks_off_two_classes_first():
    # the 2-class block comes first exactly when K <= _BLOCK and more than
    # half the block's values are above tau; the mask never depends on the
    # block that came first
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
                with mock.patch("confsets.scores._top_block", wraps=_top_block) as spy:
                    mask = set_mask(spec, probs, tau, u)
                widths = [c.args[4] for c in spy.call_args_list]
                routed = 2 * np.count_nonzero(probs > tau) > probs.shape[0]
                assert widths[0] == (2 if routed and k <= _BLOCK else min(_BLOCK, k))
                assert widths[1:] in ([], [k])
                routes.add((routed, k <= _BLOCK))
                np.testing.assert_array_equal(mask, score_matrix(spec, probs, u) <= tau)
    assert routes == {(False, False), (False, True), (True, False), (True, True)}


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


def test_prediction_sets_file_round_trip(tmp_path):
    cal = generate(SynthSpec(n=100, k=6, seed=1))
    test = generate(SynthSpec(n=50, k=6, seed=2))
    result = run_pipeline(cal, test, CalibrationMap.identity(),
                          ScoreSpec(kind="aps", randomized=True), 0.1)
    path = tmp_path / "sets.jsonl"
    save_prediction_sets(result.mask, path)
    np.testing.assert_array_equal(load_prediction_sets(path, test.k), result.mask)
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
    save_prediction_sets(mask, path)
    expected = "".join(json.dumps({"index": i, "set": np.flatnonzero(row).tolist()}) + "\n"
                       for i, row in enumerate(mask))
    assert path.read_bytes() == expected.encode("ascii")
    np.testing.assert_array_equal(load_prediction_sets(path, k), mask)


@given(st.integers(0, 2**32 - 1))
def test_loaded_sets_match_per_row_fill(tmp_path_factory, seed):
    # members in any order; empty and full rows
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(0, 20)), int(rng.integers(1, 12))
    member_lists = [rng.permutation(k)[:rng.integers(0, k + 1)].tolist() for _ in range(n)]
    if n >= 2:
        member_lists[0], member_lists[-1] = [], rng.permutation(k).tolist()
    path = tmp_path_factory.mktemp("sets") / "sets.jsonl"
    path.write_text("".join(json.dumps({"index": i, "set": m}) + "\n"
                            for i, m in enumerate(member_lists)))
    expected = np.zeros((n, k), dtype=bool)
    for i, members in enumerate(member_lists):
        expected[i, members] = True
    got = load_prediction_sets(path, k)
    assert got.shape == (n, k)
    np.testing.assert_array_equal(got, expected)


# Sets-file text the writer never makes but the loader accepts: key order,
# escaped key names, spacing, whitespace that `str.strip` removes around a
# record, and blank lines.
_INDEX_KEYS = ['"index"', r'"\u0069ndex"', r'"inde\u0078"']
_SET_KEYS = ['"set"', r'"\u0073et"', r'"s\u0065t"']
_PADS = ["", " ", "\t", "\x0c", "\x1c "]
_BLANKS = ["", "  ", "\t", "\x0b"]
# Keys the writer never writes, whose strings hold brackets, quotes and
# escapes, with nested values and null: each makes a record bad.
_EXTRA_KEYS = {"extra-brackets": '"note": "]["', "extra-escapes": r'"note": "a\\\"[{,"',
               "extra-nested": '"meta": {"a": [1, {"b": []}]}', "extra-null": '"x": null'}


def _record_text(rng, index, members) -> str:
    colon = rng.choice([": ", ":", " : "])
    items = [f'{rng.choice(_INDEX_KEYS)}{colon}{index}',
             f'{rng.choice(_SET_KEYS)}{colon}[{rng.choice([", ", ","]).join(members)}]']
    rng.shuffle(items)
    return rng.choice(_PADS) + "{" + rng.choice([", ", ",", " ,\t"]).join(items) + "}" \
        + rng.choice(_PADS)


def _bad_lines(kind, j, k, records):
    """Row j's line (and for some kinds row j + 1's) made bad in one way."""
    bad = {
        "invalid-json": [f'{{"index": {j}, "set": [1,]}}'],
        "two-records": [records[j] + ", " + records[j + 1]],
        "split-record": [f'{{"index": {j},', '"set": [1]}'],
        # as one array the two lines parse as rows j and j + 1, with the right indices
        "split-across-rows": [records[j] + f', {{"index": {j + 1}, "set": [0', "1]}"],
        "missing-key": [f'{{"index": {j}}}'],
        "index-wrong": [f'{{"index": {j + 1}, "set": []}}'],
        "index-true": ['{"index": true, "set": []}'],
        "index-float": [f'{{"index": {j}.0, "set": []}}'],
        "member-true": [f'{{"index": {j}, "set": [true]}}'],
        "member-float": [f'{{"index": {j}, "set": [1.0]}}'],
        "member-negative": [f'{{"index": {j}, "set": [-1]}}'],
        "member-k": [f'{{"index": {j}, "set": [{k}]}}'],
        "member-huge": [f'{{"index": {j}, "set": [{2**70}]}}'],
        "member-twice": [f'{{"index": {j}, "set": [1, 1]}}'],
        "non-ascii": [f'{{"index": {j}, "set": [], "note": "\xff"}}'],
        "deep-nesting": [f'{{"index": {j}, "set": {"[" * 5000}{"]" * 5000}}}'],
        "member-5000-digits": [f'{{"index": {j}, "set": [{"9" * 5000}]}}'],
        "repeated-key": [f'{{"set": [1], "index": {j}, "set": [0]}}'],
        # json.loads keeps a repeated key's last value, so the braces of the first
        # one hide the split: as one array the lines parse as rows j to j + 2
        "duplicate-key-split": ['{"set": [{}', f'{{}}], "index": {j}, "set": [0]}}',
                                f'{{"index": {j + 1}, "set": []}}, {{"index": {j + 2}, "set": []}}'],
        **{name: [f'{{"index": {j}, {extra}, "set": [1]}}'] for name, extra in _EXTRA_KEYS.items()},
    }[kind]
    return bad, {"two-records": 2, "split-across-rows": 2, "duplicate-key-split": 3}.get(kind, 1)


BAD_KINDS = ["invalid-json", "two-records", "split-record", "split-across-rows", "missing-key",
             "index-wrong", "index-true", "index-float", "member-true", "member-float",
             "member-negative", "member-k", "member-huge", "member-twice", "non-ascii",
             "deep-nesting", "member-5000-digits", "repeated-key", "duplicate-key-split",
             *_EXTRA_KEYS]


@pytest.mark.parametrize("k, max_rows", [(2, 300), (50, 200), (1000, 30)])
@given(seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from([1, 100, 2000, errors._CHUNK_CHARS]),
       bad=st.none() | st.sampled_from(BAD_KINDS))
@example(seed=0, chunk=errors._CHUNK_CHARS, bad="duplicate-key-split")
def test_sets_loader_matches_line_by_line_reference(tmp_path_factory, k, max_rows, seed,
                                                     chunk, bad):
    # the chunked loader gives the reference's mask, or its error message
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_rows + 1))
    mask = rng.random((n, k)) < rng.random((n, 1)) ** 2
    mask[rng.integers(n)] = True
    records = [_record_text(rng, i, [str(c) for c in rng.permutation(np.flatnonzero(row))])
               for i, row in enumerate(mask)]
    lines = list(records)
    if bad is not None:
        j = int(rng.integers(n - 1))
        replacement, rows = _bad_lines(bad, j, k, records)
        lines[j:j + rows] = replacement
    for at in sorted(rng.integers(0, len(lines) + 1, size=rng.integers(0, 4)), reverse=True):
        lines.insert(at, rng.choice(_BLANKS))
    path = tmp_path_factory.mktemp("sets") / "sets.jsonl"
    path.write_bytes("".join(line + rng.choice(["\n", "\r\n"]) for line in lines)
                     .encode("latin-1"))
    try:
        expected = oracle_load_sets(path, k)
    except ValueError as exc:
        assert bad is not None
        with mock.patch.object(errors, "_CHUNK_CHARS", chunk):
            with pytest.raises(ValidationError) as got:
                load_prediction_sets(path, k)
        assert str(got.value) == str(exc)
        return
    assert bad is None
    with mock.patch.object(errors, "_CHUNK_CHARS", chunk):
        got = load_prediction_sets(path, k)
    reference = np.zeros((len(expected), k), dtype=bool)
    for i, members in enumerate(expected):
        reference[i, members] = True
    np.testing.assert_array_equal(got, reference)
    np.testing.assert_array_equal(got, mask)
