import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import confsets.engine
import confsets.scores
from confsets import (
    CalibrationMap,
    LogitsDataset,
    ScoreSpec,
    SynthSpec,
    TuneConfig,
    ValidationError,
    calibrate_threshold,
    efficiency_gap_loss,
    generate,
    predict_sets,
    tune_map,
)
from confsets.scores import score_matrix
from confsets.tuning import split_validation


def test_efficiency_gap_examples():
    # on a one-row loss half the loss is the squared gap tau - s of that row
    from confsets.maps import apply_map_dataset
    from confsets.scores import true_label_scores

    d_tau, d_loss = _halves(seed=0)
    cal_map = CalibrationMap.temperature(0.9)
    spec = ScoreSpec(kind="aps")
    tau = calibrate_threshold(true_label_scores(spec, apply_map_dataset(cal_map, d_tau),
                                                d_tau.labels), 0.1).tau
    signs = set()
    for i in range(20):
        row = d_loss.take(np.asarray([i]))
        s = true_label_scores(spec, apply_map_dataset(cal_map, row), row.labels)[0]
        signs.add(bool(tau - s >= 0))
        assert efficiency_gap_loss(cal_map, d_tau, row, 0.1) == pytest.approx((tau - s) ** 2,
                                                                               rel=1e-12)
    assert signs == {True, False}


@given(
    st.lists(st.integers(1, 40), min_size=3, max_size=10),
    st.floats(0.05, 1.4),
)
def test_gap_sign_law(weights, tau):
    # non-randomized scoring: gap >= 0 iff the true label enters the set
    probs = np.asarray(weights, dtype=float) / sum(weights)
    spec = ScoreSpec(kind="aps")
    label = len(probs) // 2
    gap = tau - score_matrix(spec, probs[None, :])[0, label]
    threshold = calibrate_threshold([tau], 0.5, score_spec=spec)
    covered = predict_sets(threshold, probs[None, :])[0, label]
    assert (gap >= 0) == covered


# ---------------------------------------------------------------------------
# the loss


def _halves(seed=0, **kwargs):
    defaults = dict(n=2000, k=10, seed=seed, signal=2.0, noise=1.0)
    defaults.update(kwargs)
    ds = generate(SynthSpec(**defaults))
    cfg = TuneConfig(seed=seed)
    return split_validation(ds, cfg)


def test_loss_zero_when_every_score_equals_tau():
    d_tau, _ = _halves(seed=1)
    cal_map = CalibrationMap.temperature(0.8)
    from confsets.maps import apply_map_dataset
    from confsets.scores import true_label_scores

    spec = ScoreSpec(kind="aps")
    scores = true_label_scores(spec, apply_map_dataset(cal_map, d_tau), d_tau.labels)
    threshold = calibrate_threshold(scores, 0.1)
    hit = int(np.flatnonzero(scores == threshold.tau)[0])
    row = np.tile(d_tau.logits[hit], (8, 1))
    labels = np.full(8, d_tau.labels[hit])
    d_loss = LogitsDataset(row, labels)
    assert efficiency_gap_loss(cal_map, d_tau, d_loss, 0.1) == 0.0


def test_loss_is_a_mean_over_d_loss():
    d_tau, d_loss = _halves(seed=2)
    cal_map = CalibrationMap.temperature(1.3)
    base = efficiency_gap_loss(cal_map, d_tau, d_loss, 0.1)
    doubled = LogitsDataset(
        np.vstack([d_loss.logits, d_loss.logits]),
        np.concatenate([d_loss.labels, d_loss.labels]),
    )
    assert efficiency_gap_loss(cal_map, d_tau, doubled, 0.1) == pytest.approx(base, rel=1e-12)
    half_a = LogitsDataset(d_loss.logits[:500], d_loss.labels[:500])
    half_b = LogitsDataset(d_loss.logits[500:], d_loss.labels[500:])
    la = efficiency_gap_loss(cal_map, d_tau, half_a, 0.1)
    lb = efficiency_gap_loss(cal_map, d_tau, half_b, 0.1)
    na, nb = half_a.n, half_b.n
    assert base == pytest.approx((na * la + nb * lb) / (na + nb), rel=1e-12)


def test_loss_requires_workable_tau_split():
    tiny = generate(SynthSpec(n=5, k=4, seed=3))
    with pytest.raises(ValidationError, match="larger"):
        efficiency_gap_loss(CalibrationMap.identity(), tiny, tiny, 0.1)


def test_loss_never_draws_u(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the efficiency-gap loss must not draw u")

    monkeypatch.setattr(confsets.scores, "draw_u_many", boom)
    monkeypatch.setattr(confsets.engine, "draw_u_many", boom)
    d_tau, d_loss = _halves(seed=4)
    value = efficiency_gap_loss(CalibrationMap.temperature(0.9), d_tau, d_loss, 0.1)
    assert np.isfinite(value)


def test_grid_minimizer_beats_t_equal_one():
    # overconfident regime: sharper maps give a smaller squared gap
    validation = generate(SynthSpec(n=4000, k=20, seed=5, signal=3.0, noise=1.0,
                                    overconfidence=3.0))
    cfg = TuneConfig(seed=5)
    tuned, report = tune_map(validation, 0.1, "temperature", cfg)
    d_tau, d_loss = split_validation(validation, cfg)
    at_one = efficiency_gap_loss(CalibrationMap.temperature(1.0), d_tau, d_loss, 0.1)
    assert report.final_loss <= at_one
    assert tuned.t < 1.0


# ---------------------------------------------------------------------------
# temperature and platt: one log-grid search over t


def test_tune_temperature_deterministic():
    validation = generate(SynthSpec(n=3000, k=10, seed=6, signal=0.04, noise=0.02))
    cfg = TuneConfig(seed=6)
    first, rep1 = tune_map(validation, 0.1, "temperature", cfg)
    second, rep2 = tune_map(validation, 0.1, "temperature", cfg)
    assert first.t == second.t
    assert rep1.final_loss == rep2.final_loss


def test_tune_threads_alpha_through():
    validation = generate(SynthSpec(n=6000, k=10, seed=11, signal=0.04, noise=0.02))
    cfg = TuneConfig(seed=3)
    at_10, _ = tune_map(validation, 0.10, "temperature", cfg)
    at_05, _ = tune_map(validation, 0.05, "temperature", cfg)
    assert at_10.t != at_05.t


def test_tuned_temperature_improves_heldout_size():
    # calibrated-at-1 synthetic logits: tuned map must not grow the sets
    from confsets import SplitSpec, coverage_and_size, run_pipeline, split_dataset

    ds = generate(SynthSpec(n=12000, k=20, seed=7, signal=1.0, noise=0.5))
    parts = split_dataset(ds, SplitSpec({"validation": 0.25, "conformal": 0.25,
                                         "test": 0.5}, seed=7))
    tuned, _ = tune_map(parts["validation"], 0.1, "temperature", TuneConfig(seed=7))
    spec = ScoreSpec(kind="aps", randomized=True, rng_seed=7)
    sizes = {}
    for name, cal_map in (("identity", CalibrationMap.identity()), ("tuned", tuned)):
        result = run_pipeline(parts["conformal"], parts["test"], cal_map, spec, 0.1)
        _, sizes[name] = coverage_and_size(result.mask, parts["test"].labels)
    assert sizes["tuned"] <= sizes["identity"]


def test_platt_tunes_the_temperature_family():
    # softmax ignores a shift shared by all classes, so b has no effect and
    # Platt at a = 1/t is the temperature map t: the same grid finds it
    validation = generate(SynthSpec(n=3000, k=10, seed=12, signal=2.4, noise=1.2))
    cfg = TuneConfig(seed=12, t_min=0.4, t_max=5.0, grid_points=32)
    temp_map, temp_report = tune_map(validation, 0.1, "temperature", cfg)
    platt_map, platt_report = tune_map(validation, 0.1, "platt", cfg)
    d_tau, d_loss = split_validation(validation, cfg)
    shifted = CalibrationMap.platt(1.0 / temp_map.t, 3.7)
    reproduced = efficiency_gap_loss(shifted, d_tau, d_loss, 0.1)
    assert reproduced == pytest.approx(temp_report.final_loss, rel=1e-12)
    assert platt_map.b == 0.0
    assert platt_map.a == 1.0 / temp_map.t
    assert platt_report.final_loss == pytest.approx(temp_report.final_loss, rel=1e-12)
    assert platt_report.iterations == temp_report.iterations


# ---------------------------------------------------------------------------
# vector: finite-difference descent


def _mirrored_two_class(n_pairs, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n_pairs) * 0.8 + 1.0
    b = rng.standard_normal(n_pairs) * 0.8
    logits = np.empty((2 * n_pairs, 2))
    labels = np.empty(2 * n_pairs, dtype=np.int64)
    logits[0::2, 0], logits[0::2, 1], labels[0::2] = a, b, 0
    logits[1::2, 0], logits[1::2, 1], labels[1::2] = b, a, 1
    return LogitsDataset(logits, labels)


def test_vector_tuning_preserves_class_symmetry():
    cfg = TuneConfig(seed=8, gd_max_iters=40)
    halves = [_mirrored_two_class(400, seed=8), _mirrored_two_class(400, seed=9)]
    # put each mirrored half at the rows split_validation assigns to it
    order = np.random.default_rng(cfg.seed).permutation(1600)
    logits = np.empty((1600, 2))
    labels = np.empty(1600, dtype=np.int64)
    for rows, half in zip((order[:800], order[800:]), halves):
        logits[rows], labels[rows] = half.logits, half.labels
    validation = LogitsDataset(logits, labels)
    for got, half in zip(split_validation(validation, cfg), halves):
        np.testing.assert_array_equal(got.logits, half.logits)
        np.testing.assert_array_equal(got.labels, half.labels)
    tuned, report = tune_map(validation, 0.1, "vector", cfg)
    assert abs(tuned.w[0] - tuned.w[1]) < 1e-3
    assert abs(tuned.c[0] - tuned.c[1]) < 1e-3
    assert np.isfinite(report.final_loss)


def test_line_search_never_increases_loss():
    validation = generate(SynthSpec(n=1000, k=5, seed=13, signal=1.0, noise=0.5))
    cfg = TuneConfig(seed=13, gd_max_iters=1)
    d_tau, d_loss = split_validation(validation, cfg)
    start = CalibrationMap.vector(np.ones(5), np.zeros(5))
    initial = efficiency_gap_loss(start, d_tau, d_loss, 0.1)
    _, report = tune_map(validation, 0.1, "vector", cfg)
    assert report.final_loss <= initial


def test_tune_map_rejects_unknown_kind():
    validation = generate(SynthSpec(n=200, k=4, seed=14))
    for kind in ("identity", "bogus"):
        with pytest.raises(ValidationError, match=kind):
            tune_map(validation, 0.1, kind)


@pytest.mark.parametrize("field, value", [
    ("t_min", 0.0),
    ("t_max", TuneConfig.t_min),
    ("t_max", float("nan")),
    ("grid_points", 0),
    ("gd_max_iters", 0),
])
def test_tune_config_rejects_values_that_break_the_optimizer(field, value):
    with pytest.raises(ValidationError, match=field):
        TuneConfig(**{field: value})


def test_tune_report_round_trip(tmp_path):
    import json

    from confsets.tuning import TuneReport, save_tune_report

    report = TuneReport(alpha=0.1, final_loss=0.025, iterations=12, stalled=False)
    path = tmp_path / "tune.report.json"
    save_tune_report(report, path)
    obj = json.loads(path.read_text())
    assert obj == {"alpha": 0.1, "final_loss": 0.025, "iterations": 12,
                   "stalled": False}
