"""The tuner's cached class order never changes a loss, a tuned map or a report.

Every loss evaluation inside one tuner call reuses each half's class order
from the previous evaluation and re-sorts only the rows that order no
longer sorts.  The reference below recomputes the loss from scratch with a
stable argsort and a full sort for the order statistic; results are
compared with ``==``, not ``approx``.
"""

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
    efficiency_gap_loss,
    generate,
    tune_map,
    tune_temperature,
)
from confsets.engine import conformal_level
from confsets.maps import apply_map_dataset
from confsets.tuning import split_validation

ALPHA = 0.1


def _reference_true_label_scores(cal_map, ds):
    probs = apply_map_dataset(cal_map, ds)
    perm = np.argsort(-probs, axis=1, kind="stable")
    sorted_probs = np.take_along_axis(probs, perm, axis=1)
    pos = np.argmax(perm == ds.labels[:, None], axis=1)
    return np.cumsum(sorted_probs, axis=1)[np.arange(ds.n), pos]


def reference_loss(cal_map, d_tau, d_loss, alpha, order_hints=None):
    """Uncached efficiency-gap loss; ignores ``order_hints``."""
    tau_scores = _reference_true_label_scores(cal_map, d_tau)
    tau = float(np.sort(tau_scores)[conformal_level(d_tau.n, alpha) - 1])
    gaps = tau - _reference_true_label_scores(cal_map, d_loss)
    return float(np.mean(gaps * gaps))


def _halves(n=600, k=12, seed=0):
    ds = generate(SynthSpec(n=n, k=k, seed=seed, signal=3.0, noise=1.0,
                            overconfidence=2.0))
    return split_validation(ds, TuneConfig(seed=seed))


def _assert_sequence_matches(maps, d_tau, d_loss):
    hints = [None, None]
    for cal_map in maps:
        cached = efficiency_gap_loss(cal_map, d_tau, d_loss, ALPHA, order_hints=hints)
        assert cached == reference_loss(cal_map, d_tau, d_loss, ALPHA), cal_map
    return hints


def test_temperatures_including_underflow():
    d_tau, d_loss = _halves(seed=1)
    cfg = TuneConfig()
    grid = np.geomspace(cfg.t_min, cfg.t_max, 17)
    temps = [*grid, 0.01, 0.004, 0.001, 1.0, 0.002]
    # the smallest temperatures underflow most probabilities to exact zeros,
    # which tie with one another
    assert (apply_map_dataset(CalibrationMap.temperature(0.001), d_tau) == 0.0).any()
    _assert_sequence_matches([CalibrationMap.temperature(t) for t in temps], d_tau, d_loss)


def test_platt_negative_scale_resorts_every_row():
    d_tau, d_loss = _halves(seed=2)
    hints = _assert_sequence_matches([CalibrationMap.platt(1.0, 0.0)], d_tau, d_loss)
    before = hints[0].copy()
    flipped = CalibrationMap.platt(-0.7, 0.2)
    assert efficiency_gap_loss(flipped, d_tau, d_loss, ALPHA, order_hints=hints) == \
        reference_loss(flipped, d_tau, d_loss, ALPHA)
    assert (hints[0] != before).any(axis=1).all()


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
    hints = _assert_sequence_matches([CalibrationMap.identity()], d_tau, d_loss)
    before = hints[0].copy()
    w = np.ones(k)
    c = np.zeros(k)
    c[0] = 1.5
    bumped = CalibrationMap.vector(w, c)
    efficiency_gap_loss(bumped, d_tau, d_loss, ALPHA, order_hints=hints)
    changed = int((hints[0] != before).any(axis=1).sum())
    assert 0 < changed < d_tau.n
    assert efficiency_gap_loss(bumped, d_tau, d_loss, ALPHA, order_hints=hints) == \
        reference_loss(bumped, d_tau, d_loss, ALPHA)


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


def test_stale_hint_never_changes_a_score():
    # alternately break and restore the class order through one hint
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
def test_cached_loss_matches_reference_property(seed, scale, maps):
    rng = np.random.default_rng(seed)
    n, k = 40, 5
    # integer-valued logits make ties common
    logits = rng.integers(-3, 4, size=(n, k)) * float(scale)
    labels = rng.integers(0, k, size=n)
    d_tau = LogitsDataset(logits[: n // 2], labels[: n // 2])
    d_loss = LogitsDataset(logits[n // 2:], labels[n // 2:])
    _assert_sequence_matches(maps, d_tau, d_loss)


# ---------------------------------------------------------------------------
# whole tuner runs


def _counting(fn, counter):
    def wrapped(*args, **kwargs):
        counter.append(1)
        return fn(*args, **kwargs)
    return wrapped


@pytest.mark.parametrize("run", [
    lambda ds, cfg: tune_temperature(ds, ALPHA, cfg),
    lambda ds, cfg: tune_map(ds, ALPHA, "platt", cfg),
    lambda ds, cfg: tune_map(ds, ALPHA, "vector", TuneConfig(seed=cfg.seed, gd_max_iters=2)),
], ids=["temperature", "platt", "vector"])
def test_tuner_results_match_uncached_reference(monkeypatch, run):
    ds = generate(SynthSpec(n=400, k=6, seed=7, signal=3.0, noise=1.0, overconfidence=3.0))
    cfg = TuneConfig(seed=7, gd_max_iters=25)

    cached_calls: list = []
    monkeypatch.setattr(confsets.tuning, "efficiency_gap_loss",
                        _counting(efficiency_gap_loss, cached_calls))
    cached_map, cached_report = run(ds, cfg)

    reference_calls: list = []
    monkeypatch.setattr(confsets.tuning, "efficiency_gap_loss",
                        _counting(reference_loss, reference_calls))
    reference_map, reference_report = run(ds, cfg)

    assert cached_map.to_json_dict() == reference_map.to_json_dict()
    assert cached_report.to_json_dict() == reference_report.to_json_dict()
    assert len(cached_calls) == len(reference_calls) > 0
