import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsets import (
    CalibrationMap,
    ConformalThreshold,
    ScoreSpec,
    SynthSpec,
    ValidationError,
    calibrate_threshold,
    coverage_and_size,
    generate,
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
from confsets.scores import _BLOCK, _top_block, score_matrix, set_mask

from oracles import oracle_quantile, oracle_set

score_vectors = st.lists(
    st.floats(0.0, 2.0, allow_nan=False).map(lambda v: round(v, 6)),
    min_size=1, max_size=60,
)
alphas = st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.25, 0.5, 0.9])


# ---------------------------------------------------------------------------
# threshold


def test_threshold_examples():
    assert calibrate_threshold([0.1 * i for i in range(1, 10)], 0.1).tau == pytest.approx(0.9)
    assert calibrate_threshold([0.01 * i for i in range(1, 20)], 0.1).tau == pytest.approx(0.18)
    assert calibrate_threshold([0.1, 0.2, 0.3, 0.4, 0.5], 0.1).tau == math.inf


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
        assert got.tau == math.inf
    else:
        assert got.tau == expected


# ---------------------------------------------------------------------------
# set construction


def _members(th, probs, u=None):
    """The set of one probability row, built through the batched mask."""
    u_arr = None if u is None else np.asarray([u])
    return np.flatnonzero(predict_sets(th, np.asarray([probs], dtype=float), u_arr)[0]).tolist()


def test_predict_set_example():
    th = calibrate_threshold([0.9], 0.5, score_spec=ScoreSpec(kind="aps"))
    assert _members(th, [0.6, 0.3, 0.1]) == [0, 1]


def test_include_all_returns_full_label_set():
    th = calibrate_threshold([0.5] * 3, 0.1, score_spec=ScoreSpec(kind="aps"))
    assert th.tau == math.inf
    assert _members(th, [0.6, 0.3, 0.1]) == [0, 1, 2]


def test_zero_tau_gives_empty_set():
    th = calibrate_threshold([0.0], 0.5, score_spec=ScoreSpec(kind="aps"))
    assert th.tau == 0.0
    assert _members(th, [0.6, 0.3, 0.1]) == []


def test_raps_score_upper_bound_gives_full_set():
    lam, k = 0.1, 4
    spec = ScoreSpec(kind="raps", raps_lambda=lam, raps_kreg=1)
    th = calibrate_threshold([1.0 + lam * k], 0.5, score_spec=spec)
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


@st.composite
def wide_cases(draw):
    """Probability rows on both sides of the top block's width, and a tau.

    Logits on a coarse grid make ties (also across the block boundary);
    small temperatures round most of a row to exact zeros.  tau is 0,
    +inf, a random value, or one of the row's prefix sums or scores
    nudged by at most one ulp.
    """
    n = draw(st.integers(1, 5))
    k = draw(st.sampled_from([2, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 3 * _BLOCK]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([3, 12, 10**6]))
    t = draw(st.sampled_from([0.002, 0.05, 0.3, 1.0, 5.0]))
    logits = np.round(rng.normal(0.0, 3.0, size=(n, k)) * levels / 9) * 9 / levels
    z = logits / t
    e = np.exp(z - z.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    spec = _spec(draw(st.sampled_from(["aps", "raps", "saps", "lac"])), draw(st.booleans()))
    u = rng.random(n) if spec.uses_u else None
    if u is not None and draw(st.booleans()):
        u[rng.integers(n)] = draw(st.sampled_from([0.0, 1.0]))
    how = draw(st.sampled_from(["zero", "inf", "random", "prefix", "score"]))
    if how == "zero":
        tau = 0.0
    elif how == "inf":
        tau = math.inf
    elif how == "random":
        tau = float(rng.uniform(0.0, 1.5))
    else:
        if how == "prefix":
            values = np.cumsum(np.sort(probs, axis=1)[:, ::-1], axis=1)
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


def _block(spec, probs, tau, u=None):
    """The private block's ``(mask, rest)``; u defaults to ones, as for a plain score."""
    return _top_block(spec, probs, tau, np.ones(probs.shape[0]) if u is None else u)


def test_top_block_certifies_plain_wide_rows():
    # the top block holds most of each row's mass and no tie crosses it
    probs = np.stack([STEEP] * 3)
    for kind in ("aps", "raps", "saps"):
        spec = _spec(kind, False)
        mask, rest = _block(spec, probs, 0.7)
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
        _, rest = _block(spec, probs, 0.7, u)
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
        _, rest = _block(spec, probs, tau, u)
        assert rest.tolist() == [0]
        _assert_mask_is_full_path(spec, probs, u, tau)


def test_top_block_sends_negative_rows_to_full_path():
    negative = np.stack([STEEP] * 2)
    negative[1, -2:] += [-1e-3, 1e-3]   # still sums to 1, one value below 0
    spec = _spec("aps", False)
    _, rest = _block(spec, negative, 0.5)
    assert rest.tolist() == [1]
    _assert_mask_is_full_path(spec, negative, None, 0.5)


def test_top_block_certifies_narrow_rows_in_one_pass():
    # with K <= _BLOCK the block is the whole row, so no row is left over,
    # even one with a negative value or tau above every score
    wide = np.stack([STEEP] * 2)
    narrow = wide[:, :_BLOCK] / wide[:, :_BLOCK].sum(axis=1, keepdims=True)
    narrow[1, -2:] += [-narrow[1, -2] - 1e-3, narrow[1, -2] + 1e-3]
    u = np.asarray([0.25, 0.0])
    for kind in ("aps", "raps", "saps"):
        for randomized in (False, True):
            spec = _spec(kind, randomized)
            u_spec = u if randomized else None
            for tau in (0.0, 0.5, 0.99, 1.5):
                mask, rest = _block(spec, narrow, tau, u_spec)
                assert rest.size == 0
                np.testing.assert_array_equal(mask, score_matrix(spec, narrow, u_spec) <= tau)


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
        th = calibrate_threshold([tau], 0.5, score_spec=spec)
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
    th = calibrate_threshold(np.linspace(0, 1, 100), 0.1, score_spec=spec,
                             cal_map=CalibrationMap.temperature(0.7))
    path = tmp_path / "threshold.json"
    save_threshold(th, path)
    back = load_threshold(path)
    assert back.tau == th.tau
    assert back.alpha == th.alpha
    assert back.n_cal == th.n_cal
    assert back.score_spec == spec
    assert back.cal_map == th.cal_map


def test_include_all_serializes_as_string(tmp_path):
    th = calibrate_threshold([0.5], 0.1)
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
