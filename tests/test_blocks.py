"""Row-block streaming: outputs do not depend on the block size, and the
n-by-K stages hold about one block of floats at a time."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from confsets import (
    CalibrationMap,
    LogitsDataset,
    ScoreSpec,
    SynthSpec,
    TuneConfig,
    build_report,
    calibrate,
    efficiency_gap_loss,
    generate,
    predict,
    truncation_diagnostic,
)
from confsets import maps
from confsets.cli import main
from confsets.data import save_dataset
from confsets.engine import load_prediction_sets, save_prediction_sets
from confsets.tuning import _evaluate_scalar, _Half, split_validation

N_CAL, N_TEST = 23, 17
# Rows per block: one, counts that divide neither N_CAL nor N_TEST, and all rows.
BLOCK_ROWS = (1, 3, 5, max(N_CAL, N_TEST))


def _dataset(n: int, k: int, seed: int) -> LogitsDataset:
    """Gaussian logits with a bump on the label; half the rows rounded to
    integers (tied classes) and some other entries 800 below the rest
    (probability exactly 0)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, n)
    logits = rng.standard_normal((n, k))
    logits[np.arange(n), labels] += 4.0
    logits[::2] = np.round(logits[::2])
    drop = rng.random((n, k)) < 0.2
    drop[np.arange(n), labels] = False
    logits[drop] = -800.0
    return LogitsDataset(logits, labels)


def _vector(k: int) -> CalibrationMap:
    rng = np.random.default_rng(k)
    return CalibrationMap.vector(rng.uniform(0.5, 1.5, k), rng.normal(0.0, 0.3, k))


CASES = {
    "aps-identity": (ScoreSpec(kind="aps"), lambda k: CalibrationMap.identity(), "f64", 0.1),
    "aps-randomized-temperature": (ScoreSpec(kind="aps", randomized=True, rng_seed=7),
                                   lambda k: CalibrationMap.temperature(0.5), "f64", 0.1),
    "raps-vector": (ScoreSpec(kind="raps", randomized=True, raps_lambda=0.01,
                              raps_kreg=2, rng_seed=3), _vector, "f64", 0.2),
    "saps-identity-f32": (ScoreSpec(kind="saps", randomized=True, saps_lambda=0.1,
                                    rng_seed=5), lambda k: CalibrationMap.identity(), "f32", 0.1),
    "lac-temperature-f32": (ScoreSpec(kind="lac"), lambda k: CalibrationMap.temperature(2.0),
                            "f32", 0.1),
    # ceil(24 * 0.98) = 24 > N_CAL: tau = +inf
    "include-all-vector": (ScoreSpec(kind="aps", randomized=True), _vector, "f64", 0.02),
}


def _outputs(cal, test, cal_map, spec, alpha, precision):
    threshold = calibrate(cal, cal_map, spec, alpha, precision)
    mask = predict(threshold, test, precision)
    report = build_report(mask, test, threshold)
    fraction, zeros = truncation_diagnostic(CalibrationMap.temperature(0.05), test, precision)
    loss = efficiency_gap_loss(cal_map, cal, test, 0.1)
    return (json.dumps(threshold.to_json_dict()), mask, json.dumps(report.to_json_dict()),
            fraction, zeros, loss)


@pytest.mark.parametrize("k", [6, 90])
@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_do_not_depend_on_block_size(monkeypatch, case, k):
    spec, make_map, precision, alpha = CASES[case]
    cal, test = _dataset(N_CAL, k, 1), _dataset(N_TEST, k, 2)
    cal_map = make_map(k)
    results = []
    for rows in BLOCK_ROWS:
        monkeypatch.setattr(maps, "_BLOCK_CELLS", rows * k)
        spans = [r.stop - r.start for r, _ in maps.probability_blocks(cal_map, cal)]
        assert spans == [rows] * (N_CAL // rows) + ([N_CAL % rows] if N_CAL % rows else [])
        results.append(_outputs(cal, test, cal_map, spec, alpha, precision))
    if case == "include-all-vector":
        assert json.loads(results[0][0])["tau"] == "include_all"
    else:
        assert 0 < results[0][1].sum() < results[0][1].size
    reference = results[-1]
    for got in results[:-1]:
        assert got[0] == reference[0]
        np.testing.assert_array_equal(got[1], reference[1])
        assert got[2] == reference[2]
        assert got[3] == reference[3]
        np.testing.assert_array_equal(got[4], reference[4])
        assert got[5] == reference[5]


def _traced_peak(fn, *args):
    """(fn(*args), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_wide_stages_stay_below_half_a_probability_matrix():
    n, k = 4000, 1000
    ds = generate(SynthSpec(n=n, k=k, seed=0, signal=4.0))
    budget = n * k * 8 / 2  # half of one n-by-K float64 matrix
    cal_map = CalibrationMap.temperature(0.8)
    spec = ScoreSpec(kind="aps", randomized=True, rng_seed=1)
    threshold, peak = _traced_peak(calibrate, ds, cal_map, spec, 0.1)
    assert math.isfinite(threshold.tau)
    assert peak < budget, f"calibrate peaked at {peak / 2**20:.1f} MiB"
    mask, peak = _traced_peak(predict, threshold, ds)
    assert peak < budget, f"predict peaked at {peak / 2**20:.1f} MiB"
    _, peak = _traced_peak(build_report, mask, ds, threshold)
    assert peak < budget, f"build_report peaked at {peak / 2**20:.1f} MiB"
    d_tau, d_loss = split_validation(ds, TuneConfig())
    loss, peak = _traced_peak(efficiency_gap_loss, cal_map, d_tau, d_loss, 0.1)
    assert math.isfinite(loss)
    assert peak < budget, f"efficiency_gap_loss peaked at {peak / 2**20:.1f} MiB"
    _assert_scalar_tuner_stays_below(budget, d_tau, d_loss)


def test_cli_steps_on_a_wide_binary_file_stay_below_a_quarter_of_its_logits(tmp_path):
    # calibrate, predict and evaluate read a binary file a row block at a
    # time: the one n-by-K array they hold is the boolean set mask
    n, k = 4000, 1000
    wide = tmp_path / "wide.bin"
    save_dataset(generate(SynthSpec(n=n, k=k, seed=0, signal=4.0)), wide)
    params = tmp_path / "map.json"
    maps.save_map(CalibrationMap.temperature(0.8), params)
    threshold, sets = tmp_path / "threshold.json", tmp_path / "sets.jsonl"
    steps = (
        ["calibrate", "--in", str(wide), "--alpha", "0.1", "--score", "aps",
         "--randomized", "true", "--params", str(params), "--seed", "1",
         "--out", str(threshold)],
        ["predict", "--in", str(wide), "--threshold", str(threshold), "--seed", "1",
         "--out", str(sets)],
        ["evaluate", "--sets", str(sets), "--in", str(wide), "--threshold", str(threshold),
         "--out", str(tmp_path / "report.json")],
    )
    budget = n * k * 8 / 4  # a quarter of the n-by-K float64 logits
    for argv in steps:
        code, peak = _traced_peak(main, argv)
        assert code == 0
        assert peak < budget, f"confsets {argv[0]} peaked at {peak / 2**20:.1f} MiB"


def _scalar_tuner_facts_and_one_evaluation(d_tau, d_loss):
    cfg = TuneConfig()
    tau_half, loss_half = _Half(d_tau, cfg.t_max), _Half(d_loss, cfg.t_max)
    return _evaluate_scalar(CalibrationMap.temperature(0.8), tau_half, loss_half, 0.1)


def _assert_scalar_tuner_stays_below(budget, d_tau, d_loss):
    evaluation, peak = _traced_peak(_scalar_tuner_facts_and_one_evaluation, d_tau, d_loss)
    assert math.isfinite(evaluation.loss)
    assert peak < budget, (
        f"the scalar tuner's facts and one evaluation peaked at {peak / 2**20:.1f} MiB")


def test_scalar_tuner_stays_below_half_a_probability_matrix_at_chance_level():
    # nearly every label ranks below 1, so nearly every row keeps its
    # ahead classes; uint16 indices bound them by a quarter of the budget
    n, k = 4000, 1000
    ds = generate(SynthSpec(n=n, k=k, seed=0, signal=1e-3))
    d_tau, d_loss = split_validation(ds, TuneConfig())
    assert np.mean(d_tau.logits.argmax(axis=1) != d_tau.labels) > 0.99
    _assert_scalar_tuner_stays_below(n * k * 8 / 2, d_tau, d_loss)


def test_include_all_sets_file_loads_within_twice_its_mask(tmp_path):
    # every row holds all K members; a loader that keeps each member as a
    # Python int until the end peaks at about 45 times the mask
    n, k = 2000, 1000
    path = tmp_path / "sets.jsonl"
    save_prediction_sets(np.ones((n, k), dtype=bool), path)
    mask, peak = _traced_peak(load_prediction_sets, path, k)
    assert mask.shape == (n, k) and mask.all()
    assert peak < 2 * mask.nbytes, f"load_prediction_sets peaked at {peak / 2**20:.1f} MiB"
