"""The efficiency-gap loss equals a from-scratch reference, bit for bit.

The library scores true labels from each row's sorted values alone.  The
reference below recomputes the loss with a stable argsort and a full sort
for the order statistic, over sequences of maps that reorder classes,
tie them or underflow them to zero; results are compared with ``==``, not
``approx``.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import confsets.tuning
from confsets import (
    CalibrationMap,
    LogitsDataset,
    SynthSpec,
    TuneConfig,
    ValidationError,
    efficiency_gap_loss,
    generate,
    tune_map,
)
from confsets.engine import conformal_level
from confsets.maps import apply_map_dataset
from confsets.tuning import (_SCALAR_MAPS, _evaluate, _evaluate_scalar, _Half,
                             split_validation)

ALPHA = 0.1


def _reference_true_label_scores(cal_map, ds):
    probs = apply_map_dataset(cal_map, ds)
    perm = np.argsort(-probs, axis=1, kind="stable")
    sorted_probs = np.take_along_axis(probs, perm, axis=1)
    pos = np.argmax(perm == ds.labels[:, None], axis=1)
    return np.cumsum(sorted_probs, axis=1)[np.arange(ds.n), pos]


def reference_loss(cal_map, d_tau, d_loss, alpha):
    """Efficiency-gap loss from a stable argsort of every row."""
    tau_scores = _reference_true_label_scores(cal_map, d_tau)
    tau = float(np.sort(tau_scores)[conformal_level(d_tau.n, alpha) - 1])
    gaps = tau - _reference_true_label_scores(cal_map, d_loss)
    return float(np.mean(gaps * gaps))


def _halves(n=600, k=12, seed=0):
    ds = generate(SynthSpec(n=n, k=k, seed=seed, signal=3.0, noise=1.0,
                            overconfidence=2.0))
    return split_validation(ds, TuneConfig(seed=seed))


def _class_order(cal_map, ds):
    return np.argsort(-apply_map_dataset(cal_map, ds), axis=1, kind="stable")


def _assert_sequence_matches(maps, d_tau, d_loss):
    for cal_map in maps:
        got = efficiency_gap_loss(cal_map, d_tau, d_loss, ALPHA)
        assert got == reference_loss(cal_map, d_tau, d_loss, ALPHA), cal_map


def test_temperatures_including_underflow():
    d_tau, d_loss = _halves(seed=1)
    cfg = TuneConfig()
    grid = np.geomspace(cfg.t_min, cfg.t_max, 17)
    temps = [*grid, 0.01, 0.004, 0.001, 1.0, 0.002]
    # the smallest temperatures underflow most probabilities to exact zeros,
    # which tie with one another
    assert (apply_map_dataset(CalibrationMap.temperature(0.001), d_tau) == 0.0).any()
    _assert_sequence_matches([CalibrationMap.temperature(t) for t in temps], d_tau, d_loss)


def test_platt_negative_scale_reverses_every_row():
    d_tau, d_loss = _halves(seed=2)
    straight = CalibrationMap.platt(1.0, 0.0)
    flipped = CalibrationMap.platt(-0.7, 0.2)
    assert (_class_order(flipped, d_tau) != _class_order(straight, d_tau)).any(axis=1).all()
    _assert_sequence_matches([straight, flipped], d_tau, d_loss)


def test_platt_zero_scale_ties_every_class():
    d_tau, d_loss = _halves(seed=3)
    flat = CalibrationMap.platt(0.0, 0.4)
    assert (np.ptp(apply_map_dataset(flat, d_tau), axis=1) == 0.0).all()
    _assert_sequence_matches(
        [CalibrationMap.platt(1.0, 0.0), flat, CalibrationMap.platt(-1.0, 0.0), flat],
        d_tau, d_loss,
    )


def test_vector_map_reorders_only_some_rows():
    d_tau, d_loss = _halves(seed=4)
    k = d_tau.k
    c = np.zeros(k)
    c[0] = 1.5
    bumped = CalibrationMap.vector(np.ones(k), c)
    identity = CalibrationMap.identity()
    changed = (_class_order(bumped, d_tau) != _class_order(identity, d_tau)).any(axis=1)
    assert 0 < changed.sum() < d_tau.n
    _assert_sequence_matches([identity, bumped, bumped], d_tau, d_loss)


def test_rows_with_equal_logits():
    rng = np.random.default_rng(5)
    n, k = 300, 6
    logits = rng.integers(-2, 3, size=(n, k)).astype(np.float64)
    logits[::7] = 1.0  # fully tied rows
    logits[1::5, 1] = logits[1::5, 3]  # one tied pair
    labels = rng.integers(0, k, size=n)
    d_tau = LogitsDataset(logits[: n // 2], labels[: n // 2])
    d_loss = LogitsDataset(logits[n // 2:], labels[n // 2:])
    _assert_sequence_matches(
        [CalibrationMap.identity(), CalibrationMap.temperature(0.3),
         CalibrationMap.vector(np.linspace(0.5, 1.5, k), np.zeros(k)),
         CalibrationMap.platt(-2.0, 1.0), CalibrationMap.temperature(0.002)],
        d_tau, d_loss,
    )


def test_alternating_class_orders_match_reference():
    # alternately break and restore the class order
    d_tau, d_loss = _halves(seed=6)
    k = d_tau.k
    reverse_some = CalibrationMap.vector(np.r_[np.full(k // 2, -1.0), np.ones(k - k // 2)],
                                         np.zeros(k))
    maps = [CalibrationMap.temperature(0.8), CalibrationMap.platt(-1.0, 0.0),
            CalibrationMap.temperature(0.8), reverse_some, CalibrationMap.identity(),
            CalibrationMap.platt(0.0, 0.0), CalibrationMap.temperature(0.005),
            reverse_some, CalibrationMap.platt(-1.0, 0.0), CalibrationMap.identity()]
    _assert_sequence_matches(maps, d_tau, d_loss)


_map_strategy = st.one_of(
    st.floats(0.001, 10.0).map(CalibrationMap.temperature),
    st.tuples(st.floats(-5.0, 5.0), st.floats(-3.0, 3.0)).map(
        lambda ab: CalibrationMap.platt(*ab)),
    st.tuples(st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
              st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5)).map(
        lambda wc: CalibrationMap.vector(*wc)),
)


@given(st.integers(0, 2**32 - 1), st.integers(1, 2),
       st.lists(_map_strategy, min_size=1, max_size=4))
def test_loss_matches_reference_property(seed, scale, maps):
    rng = np.random.default_rng(seed)
    n, k = 40, 5
    # integer-valued logits make ties common
    logits = rng.integers(-3, 4, size=(n, k)) * float(scale)
    labels = rng.integers(0, k, size=n)
    d_tau = LogitsDataset(logits[: n // 2], labels[: n // 2])
    d_loss = LogitsDataset(logits[n // 2:], labels[n // 2:])
    _assert_sequence_matches(maps, d_tau, d_loss)


# ---------------------------------------------------------------------------
# the scalar tuner's evaluation


def _assert_scalar_matches(cal_map, tau_half, loss_half):
    want = _evaluate(cal_map, tau_half.ds, loss_half.ds, ALPHA)
    got = _evaluate_scalar(cal_map, tau_half, loss_half, ALPHA)
    assert (got.loss, got.tau, got.row) == (want.loss, want.tau, want.row), cal_map
    np.testing.assert_array_equal(got.scores, want.scores)


def _assert_scalar_search_matches(kind, ts, d_tau, d_loss, t_max):
    tau_half, loss_half = _Half(d_tau, t_max), _Half(d_loss, t_max)
    for t in ts:
        _assert_scalar_matches(_SCALAR_MAPS[kind](t), tau_half, loss_half)


def _planted_logits(rng, n, k, scale):
    """Gaussian logits with, on about half the rows, a class tied with the
    label or within a relative 1e-17 to 1e-6 of it, and on a fifth of the
    rows the row maximum duplicated."""
    logits = rng.standard_normal((n, k)) * scale
    labels = rng.integers(0, k, n)
    rows = np.flatnonzero(rng.random(n) < 0.5)
    other = (labels[rows] + rng.integers(1, max(k, 2), rows.size)) % k
    rel = np.where(rng.random(rows.size) < 0.2, 0.0, 10.0 ** rng.uniform(-17, -6, rows.size))
    z_y = logits[rows, labels[rows]]
    logits[rows, other] = z_y + rng.choice([-1.0, 1.0], rows.size) * rel * np.maximum(
        np.abs(logits[rows]).max(axis=1), 1.0)
    dup = np.flatnonzero(rng.random(n) < 0.2)
    logits[dup, rng.integers(0, k, dup.size)] = logits[dup].max(axis=1)
    return logits, labels


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 7, 1000]),
       st.sampled_from([1.0, 1e3]), st.sampled_from([5.0, 1e4, 1e8]),
       st.sampled_from(sorted(_SCALAR_MAPS)),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_scalar_evaluation_matches_evaluate_property(seed, k, scale, t_max, kind, spots):
    rng = np.random.default_rng(seed)
    n = 24 if k == 1000 else 60
    logits, labels = _planted_logits(rng, n, k, scale)
    d_tau = LogitsDataset(logits[: n // 2], labels[: n // 2])
    d_loss = LogitsDataset(logits[n // 2:], labels[n // 2:])
    # t from 1e-3 up to t_max, log-uniformly, with both ends
    ts = [1e-3 * (t_max / 1e-3) ** u for u in spots] + [1e-3, t_max]
    _assert_scalar_search_matches(kind, ts, d_tau, d_loss, t_max)


@pytest.mark.parametrize("kind", sorted(_SCALAR_MAPS))
def test_scalar_evaluation_matches_evaluate_on_protocol_data(kind):
    d_tau, d_loss = _halves(n=2000, k=50, seed=8)
    cfg = TuneConfig()
    ts = [*np.geomspace(cfg.t_min, cfg.t_max, 16), 0.001, 0.003]
    _assert_scalar_search_matches(kind, ts, d_tau, d_loss, cfg.t_max)


def test_scalar_evaluation_scores_rising_ahead_values_exactly():
    # values that rise along a row's ahead classes (which a monotone exp
    # never gives) send the row to the exact path: swap the classes at
    # positions 1 and 2 of each row's order, so a smaller value comes first
    d_tau, d_loss = _halves(n=2000, k=50, seed=10)
    tau_half, loss_half = _Half(d_tau, 5.0), _Half(d_loss, 5.0)
    for half in (tau_half, loss_half):
        for block in half.blocks:
            assert block.order.shape[1] >= 3
            block.order[:, 1:3] = block.order[:, 2:0:-1].copy()
    _assert_scalar_matches(CalibrationMap.temperature(0.7), tau_half, loss_half)


@pytest.mark.parametrize("kind", sorted(_SCALAR_MAPS))
def test_scalar_evaluation_raises_like_evaluate_when_scaling_overflows(kind):
    rng = np.random.default_rng(9)
    logits = rng.standard_normal((40, 5))
    logits[25, 2] = 1e306  # a loss-half row: the tau half scores first
    labels = rng.integers(0, 5, 40)
    d_tau = LogitsDataset(logits[:20], labels[:20])
    d_loss = LogitsDataset(logits[20:], labels[20:])
    cal_map = _SCALAR_MAPS[kind](1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValidationError) as want:
            _evaluate(cal_map, d_tau, d_loss, ALPHA)
        with pytest.raises(ValidationError) as got:
            _evaluate_scalar(cal_map, _Half(d_tau, 5.0), _Half(d_loss, 5.0), ALPHA)
    assert str(got.value) == str(want.value)
    assert "sum to 1" in str(want.value)


# ---------------------------------------------------------------------------
# whole tuner runs


def _counting(fn, counter):
    def wrapped(*args, **kwargs):
        counter.append(1)
        return fn(*args, **kwargs)
    return wrapped


@pytest.mark.parametrize("kind", ["temperature", "platt", "vector"])
def test_tuner_results_match_reference(monkeypatch, kind):
    ds = generate(SynthSpec(n=400, k=6, seed=7, signal=3.0, noise=1.0, overconfidence=3.0))
    cfg = TuneConfig(seed=7, gd_max_iters=2 if kind == "vector" else 25)

    if kind == "vector":
        # the descent evaluates through `_evaluate`, whose tau row and scores
        # also feed the gradient; every loss it returns equals the reference
        losses: list = []

        def checked(cal_map, d_tau, d_loss, alpha):
            evaluation = _evaluate(cal_map, d_tau, d_loss, alpha)
            assert evaluation.loss == reference_loss(cal_map, d_tau, d_loss, alpha), cal_map
            losses.append(evaluation.loss)
            return evaluation

        monkeypatch.setattr(confsets.tuning, "_evaluate", checked)
        _, report = tune_map(ds, ALPHA, kind, cfg)
        assert len(losses) > 0
        assert report.final_loss in losses
        return

    # the scalar search evaluates through `_evaluate_scalar` and reads only
    # each evaluation's loss; every loss it returns equals the reference
    library_calls: list = []
    fast = confsets.tuning._evaluate_scalar

    def checked(cal_map, tau_half, loss_half, alpha):
        evaluation = fast(cal_map, tau_half, loss_half, alpha)
        assert evaluation.loss == reference_loss(cal_map, tau_half.ds, loss_half.ds,
                                                 alpha), cal_map
        library_calls.append(1)
        return evaluation

    monkeypatch.setattr(confsets.tuning, "_evaluate_scalar", checked)
    library_map, library_report = tune_map(ds, ALPHA, kind, cfg)

    reference_calls: list = []

    def reference(cal_map, tau_half, loss_half, alpha):
        return SimpleNamespace(loss=reference_loss(cal_map, tau_half.ds, loss_half.ds, alpha))

    monkeypatch.setattr(confsets.tuning, "_evaluate_scalar", _counting(reference, reference_calls))
    reference_map, reference_report = tune_map(ds, ALPHA, kind, cfg)

    assert library_map.to_json_dict() == reference_map.to_json_dict()
    assert library_report.to_json_dict() == reference_report.to_json_dict()
    assert len(library_calls) == len(reference_calls) > 0
