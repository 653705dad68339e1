"""Row-block streaming: outputs do not depend on the block size, and the
n-by-K stages hold about one block of floats at a time."""

import contextlib
import json
import math
import tracemalloc
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsets import (
    CalibrationMap,
    LogitsDataset,
    ScoreSpec,
    SynthSpec,
    TuneConfig,
    ValidationError,
    apply_map_dataset,
    calibrate,
    efficiency_gap_loss,
    generate,
    predict,
    truncation_diagnostic,
)
from confsets import data, engine, errors, maps, metrics, scores
from confsets.cli import main
from confsets.data import LogitsFile, save_dataset
from confsets.engine import ConformalThreshold, load_set_sizes, predict_to_file, save_threshold
from confsets.tuning import _evaluate_scalar, _Half, split_validation

from oracles import NOT_WRITTEN, oracle_load_sets

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
    "aps-randomized-temperature-f32": (ScoreSpec(kind="aps", randomized=True, rng_seed=7),
                                       lambda k: CalibrationMap.temperature(0.5), "f32", 0.1),
    "raps-vector-f32": (ScoreSpec(kind="raps", randomized=True, raps_lambda=0.01,
                                  raps_kreg=2, rng_seed=3), _vector, "f32", 0.2),
    "saps-identity-f32": (ScoreSpec(kind="saps", randomized=True, saps_lambda=0.1,
                                    rng_seed=5), lambda k: CalibrationMap.identity(), "f32", 0.1),
    "lac-temperature-f32": (ScoreSpec(kind="lac"), lambda k: CalibrationMap.temperature(2.0),
                            "f32", 0.1),
    # ceil(24 * 0.98) = 24 > N_CAL: tau = +inf
    "include-all-vector": (ScoreSpec(kind="aps", randomized=True), _vector, "f64", 0.02),
}


def _report(mask, ds, threshold):
    """The evaluation report of a prediction-set mask."""
    return metrics.report_from_sizes(*metrics.set_sizes(mask, ds.labels), ds, threshold)


def _outputs(cal, test, cal_map, spec, alpha, precision):
    threshold = calibrate(cal, cal_map, spec, alpha, precision)
    mask = predict(threshold, test, precision)
    report = _report(mask, test, threshold)
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
        monkeypatch.setattr(data, "_BLOCK_CELLS", rows * k)
        spans = [r.stop - r.start for r, *_ in maps.probability_blocks(cal_map, cal)]
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


@pytest.mark.parametrize("source", ["dataset", "file"])
def test_f32_blocks_are_float64_views_of_one_buffer(tmp_path, monkeypatch, source):
    monkeypatch.setattr(data, "_BLOCK_CELLS", 5 * 90)
    ds, cal_map = _dataset(N_CAL, 90, 1), _vector(90)
    expected = maps.apply_map_dataset(cal_map, ds, "f32").astype(np.float64)
    path = tmp_path / "data.bin"
    save_dataset(ds, path)
    with LogitsFile(path) if source == "file" else contextlib.nullcontext(ds) as src:
        bases = []
        for rows, probs, s, top in maps.probability_blocks(cal_map, src, "f32"):
            assert probs.dtype == np.float64
            bases.append(probs.base)
            np.testing.assert_array_equal(probs.view(np.uint64), expected[rows].view(np.uint64))
            # an f32 block comes divided: row sums 1 and its own argmax
            assert (s == 1.0).all()
            np.testing.assert_array_equal(top, probs.argmax(axis=1))
    assert len(bases) == 5 and all(base is bases[0] for base in bases)


def _collapsing_logits(rng, n, k):
    """``(logits, labels)`` whose walk blocks collapse when divided.

    Rows take turns: a class 2**-53 below the largest logit, so its e is
    1 - 2**-53, on either side of the first argmax; a run of logits one ulp
    apart; the largest logit held as -0.0 and +0.0, in either order; and
    plain rows.  Every row also holds logits 744.4 and 800 below its
    largest, whose e is the least subnormal (0 once divided by S >= 2) and
    0.  Labels are the first argmax, the class beside it, a class of the
    run, or any class.
    """
    z = rng.standard_normal((n, k))
    z -= z.max(axis=1, keepdims=True) + 1.0
    labels = rng.integers(0, k, size=n)
    for i in range(n):
        top, other = rng.choice(k, size=2, replace=k > 1)
        run = rng.choice(k, size=min(k, 5), replace=False)
        kind = i % 4
        if kind == 0:
            z[i, top], z[i, other] = 0.5, 0.5 - 2.0**-53
        elif kind == 1:
            c = rng.choice([-1.0, -3.0])
            z[i, run] = c + np.arange(run.size) * np.spacing(-c)
        elif kind == 2:
            z[i, top], z[i, other] = -0.0, 0.0
        z[i, rng.choice(k, size=max(1, k // 10))] = z[i].max() - rng.choice([744.4, 800.0])
        labels[i] = rng.choice([top, other, run[0], labels[i]])
    return z, labels


COLLAPSE_KS = (3, 50, scores._BLOCK, scores._BLOCK + 1, 1000)
# t = 1 keeps the least subnormal e of `_collapsing_logits` for the
# temperature-only truncation counts
COLLAPSE_MAPS = (CalibrationMap.identity(), CalibrationMap.temperature(1.0),
                 CalibrationMap.temperature(0.7), CalibrationMap.temperature(2.0))


@pytest.mark.parametrize("k", COLLAPSE_KS)
@pytest.mark.parametrize("precision", ["f64", "f32"])
@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), map_index=st.integers(0, len(COLLAPSE_MAPS) - 1),
       kind=st.sampled_from(["aps", "raps", "saps", "lac"]), randomized=st.booleans())
def test_walks_equal_the_public_entries_on_collapsing_logits(k, precision, seed, map_index,
                                                             kind, randomized):
    """calibrate's scores, predict's sets, the report's confidence, ranks
    and truncation, and the truncation counts equal, bit for bit, the
    public entries on `apply_map_dataset`'s probabilities."""
    rng = np.random.default_rng(seed)
    ds = LogitsDataset(*_collapsing_logits(rng, 40, k))
    cal_map = COLLAPSE_MAPS[map_index]
    spec = ScoreSpec(kind=kind, randomized=randomized and kind != "lac", rng_seed=seed,
                     raps_lambda=0.01 if kind == "raps" else None,
                     raps_kreg=3 if kind == "raps" else None,
                     saps_lambda=0.05 if kind == "saps" else None)
    probs = apply_map_dataset(cal_map, ds, precision).astype(np.float64)
    n = ds.n
    u = scores.draw_u_many(seed, np.arange(n)) if spec.uses_u else None
    expected = scores.true_label_scores(spec, probs, ds.labels, u)
    np.testing.assert_array_equal(engine.label_scores(ds, cal_map, spec, precision), expected)
    for tau in (float(np.sort(expected)[n // 2]), float(np.nextafter(expected.max(), 0.0))):
        threshold = ConformalThreshold(tau=tau, alpha=0.1, n_cal=n, score_spec=spec,
                                       cal_map=cal_map, k=k)
        u_test = scores.draw_u_many(seed, n + np.arange(n)) if spec.uses_u else None
        mask = predict(threshold, ds, precision)
        np.testing.assert_array_equal(mask, scores.set_mask(spec, probs, tau, u_test))
    if precision == "f64":
        with mock.patch.object(metrics, "_binned_ece", wraps=metrics._binned_ece) as ece, \
                mock.patch.object(metrics, "_size_by_rank", wraps=metrics._size_by_rank) as bins:
            report = _report(mask, ds, threshold)
        np.testing.assert_array_equal(ece.call_args.args[0], probs.max(axis=1))
        np.testing.assert_array_equal(bins.call_args.args[1], scores.label_ranks(probs, ds.labels))
        assert report.truncated_row_fraction == float(np.mean(probs.min(axis=1) == 0.0))
    if cal_map.kind == "temperature":
        _, zeros = truncation_diagnostic(cal_map, ds, precision)
        np.testing.assert_array_equal(zeros, np.count_nonzero(probs == 0.0, axis=1))


def test_a_zero_shift_of_either_sign_gives_softmax_exps():
    # a row's largest logit held as -0.0 and +0.0: the walk shifts by the
    # one at its first argmax, np.max by either, to the same e and S
    z = np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, -2.0], [-3.0, -0.0, -0.0], [-1.0, -0.0, 0.0]])
    e, s, top = maps._shifted_exp(z)
    reference = np.exp(z - np.max(z, axis=1, keepdims=True))
    assert e.tobytes() == reference.tobytes()
    assert s.tobytes() == np.sum(reference, axis=1, keepdims=True).tobytes()
    np.testing.assert_array_equal(top, [0, 0, 1, 1])
    assert maps.softmax(z).tobytes() == (reference / reference.sum(axis=1, keepdims=True)).tobytes()


# A Platt scale whose a * z overflows at z = 2 but not at z = 0, at each precision.
@pytest.mark.parametrize("precision, a", [("f64", 1e308), ("f32", 2e38)])
def test_walks_name_the_first_nan_row_of_a_block_as_the_public_entries_do(monkeypatch,
                                                                        precision, a):
    # the map's a * z overflows to +inf on rows holding a logit of 2, whose
    # softmax row is NaN; the first such row of the second block is its row 3
    monkeypatch.setattr(data, "_BLOCK_CELLS", 5 * 6)
    logits = np.zeros((10, 6))
    logits[[8, 9], 1] = 2.0
    ds = LogitsDataset(logits, np.zeros(10, dtype=int))
    cal_map = CalibrationMap.platt(a, 0.0)
    spec = ScoreSpec(kind="aps")
    with np.errstate(all="ignore"):
        block = apply_map_dataset(cal_map, ds, precision, slice(5, 10)).astype(np.float64)
        with pytest.raises(ValidationError, match=r"^probabilities must sum to 1 \(row 3 ") as public:
            scores.set_mask(spec, block, 0.5)
        for walk in (lambda: engine.label_scores(ds, cal_map, spec, precision),
                     lambda: deque(maps.probability_blocks(cal_map, ds, precision), 0)):
            with pytest.raises(ValidationError) as walked:
                walk()
            assert str(walked.value) == str(public.value)


@pytest.mark.parametrize("walk", ["calibrate", "predict"])
def test_f32_walks_check_each_block_as_the_public_entries_do(monkeypatch, walk):
    # with no tolerance a float32 block's rounding fails the sum check, in
    # the first block, with the message of the public entries' check
    monkeypatch.setattr(data, "_BLOCK_CELLS", 5 * 90)
    ds, cal_map = _dataset(N_CAL, 90, 1), CalibrationMap.temperature(0.5)
    spec = ScoreSpec(kind="aps", randomized=True, rng_seed=7)
    threshold = calibrate(ds, cal_map, spec, 0.1)
    monkeypatch.setattr(scores, "_PROB_SUM_TOL", 0.0)
    first = maps.apply_map_dataset(cal_map, ds, "f32", slice(0, 5))
    with pytest.raises(ValidationError, match="^probabilities must sum to 1") as public:
        scores.set_mask(spec, first, threshold.tau, np.zeros(5))
    with pytest.raises(ValidationError) as walked:
        if walk == "calibrate":
            calibrate(ds, cal_map, spec, 0.1, "f32")
        else:
            predict(threshold, ds, "f32")
    assert str(walked.value) == str(public.value)


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_walks_hold_as_many_blocks_at_either_precision(precision):
    # an f32 block is made in one float32 copy and widened into the f64
    # walks' buffer, so both precisions hold the same blocks
    n, k = 4000, 1000
    ds = generate(SynthSpec(n=n, k=k, seed=0, signal=4.0))
    cal_map = CalibrationMap.temperature(0.8)
    spec = ScoreSpec(kind="aps", randomized=True, rng_seed=1)
    block = 8 * data._BLOCK_CELLS  # the bytes of one float64 row block
    _, peak = _traced_peak(engine.label_scores, ds, cal_map, spec, precision)
    assert peak < 2 * block, f"label_scores peaked at {peak / block:.2f} blocks"
    threshold = calibrate(ds, cal_map, spec, 0.1)
    _, peak = _traced_peak(lambda: deque(engine._set_blocks(threshold, ds, precision), 0))
    assert peak < 2.5 * block, f"_set_blocks peaked at {peak / block:.2f} blocks"


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
    _, peak = _traced_peak(_report, mask, ds, threshold)
    assert peak < budget, f"the report peaked at {peak / 2**20:.1f} MiB"
    d_tau, d_loss = split_validation(ds, TuneConfig())
    loss, peak = _traced_peak(efficiency_gap_loss, cal_map, d_tau, d_loss, 0.1)
    assert math.isfinite(loss)
    assert peak < budget, f"efficiency_gap_loss peaked at {peak / 2**20:.1f} MiB"
    _assert_scalar_tuner_stays_below(budget, d_tau, d_loss)


def test_cli_steps_on_a_wide_binary_file_stay_below_three_blocks(tmp_path):
    # calibrate, predict and evaluate read a binary file a row block at a
    # time into one reused buffer, and map and softmax it there: a step
    # holds that block and the temporaries of its scores
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
    block = 8 * data._BLOCK_CELLS  # the bytes of one float64 row block
    assert n * k * 8 >= 32 * block  # so 3 blocks are a small part of the file
    for argv in steps:
        code, peak = _traced_peak(main, argv)
        assert code == 0
        assert peak < 3 * block, f"confsets {argv[0]} peaked at {peak / block:.2f} blocks"


def _scalar_tuner_facts_and_one_evaluation(d_tau, d_loss):
    tau_half, loss_half = _Half.pair(d_tau, d_loss, TuneConfig().t_max)
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


def test_include_all_sets_file_sizes_load_below_its_mask(tmp_path):
    # every row holds all K members; a loader that keeps each member as a
    # Python int until the end peaks at about 45 times the mask
    n, k = 2000, 1000
    path = tmp_path / "sets.jsonl"
    engine._write_sets(((rows, np.ones((rows.stop - rows.start, k), dtype=bool))
                        for rows in data.row_blocks(n, k)), k, path)
    labels = np.arange(n) % k
    (sizes, covered), peak = _traced_peak(load_set_sizes, path, labels, k)
    assert (sizes == k).all() and covered.all() and sizes.shape == (n,)
    assert peak < n * k, f"load_set_sizes peaked at {peak / 2**20:.2f} MiB"


def test_dataset_checks_its_logits_a_block_at_a_time():
    # the finiteness check of the constructor holds one block of flags at a
    # time, not an n-by-K boolean matrix
    n, k = 4000, 1000
    rng = np.random.default_rng(0)
    logits, labels = rng.standard_normal((n, k)), rng.integers(0, k, n)
    block = 8 * data._BLOCK_CELLS  # the bytes of one float64 row block
    ds, peak = _traced_peak(LogitsDataset, logits, labels)
    assert ds.n == n
    assert peak < block, f"LogitsDataset peaked at {peak / block:.2f} blocks"


# Thresholds whose sets the streamed writer must write as json.dumps does.
SET_CASES = {
    # saps with a tiny lambda at tau 0.6: the uniform rows hold every class,
    # and a sharp row whose u is above 0.6 holds none
    "saps-empty-and-full": lambda cal, k: ConformalThreshold(
        tau=0.6, alpha=0.1, n_cal=100, cal_map=CalibrationMap.identity(), k=k,
        score_spec=ScoreSpec(kind="saps", randomized=True, saps_lambda=1e-6, rng_seed=3)),
    "aps-randomized": lambda cal, k: calibrate(
        cal, CalibrationMap.temperature(0.7), ScoreSpec(kind="aps", randomized=True,
                                                        rng_seed=5), 0.1),
    "lac": lambda cal, k: calibrate(cal, CalibrationMap.identity(), ScoreSpec(kind="lac"), 0.1),
    # ceil(24 * 0.98) = 24 > N_CAL: tau = +inf
    "include-all": lambda cal, k: calibrate(cal, CalibrationMap.identity(),
                                            ScoreSpec(kind="aps", randomized=True), 0.02),
}


def _sets_data(n, k, seed):
    """Sharp rows (label bump of 9), every third row uniform (all logits 0)."""
    ds = generate(SynthSpec(n=n, k=k, seed=seed, signal=9.0))
    logits = np.array(ds.logits)
    logits[::3] = 0.0
    return LogitsDataset(logits, ds.labels)


@pytest.mark.parametrize("k", [2, 50, 1000])
@pytest.mark.parametrize("case", sorted(SET_CASES))
# rows per block of the streamed writer and hundreds of characters per
# chunk of evaluate's reader: blocks and chunks that straddle each other,
# and the defaults
@pytest.mark.parametrize("block, chunk", [(3, 7), (5, 2), (None, None)])
def test_streamed_sets_file_and_report_are_the_masks(tmp_path, monkeypatch, capsys, k, case,
                                                     block, chunk):
    if block is not None:
        monkeypatch.setattr(data, "_BLOCK_CELLS", block * k)
    cal, test = _sets_data(N_CAL, k, 1), _sets_data(N_TEST, k, 2)
    threshold = SET_CASES[case](cal, k)
    mask = predict(threshold, test)
    sizes = mask.sum(axis=1)
    if case == "saps-empty-and-full":
        assert (sizes == 0).any() and (sizes == k).any()
    streamed = tmp_path / "streamed.jsonl"
    test_file = tmp_path / "test.bin"
    save_dataset(test, test_file)
    with LogitsFile(test_file) as ds:
        predict_to_file(threshold, ds, streamed)
    assert streamed.read_bytes() == "".join(
        json.dumps({"index": i, "set": np.flatnonzero(row).tolist()}) + "\n"
        for i, row in enumerate(mask)).encode("ascii")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["streamed.jsonl", "test.bin"]

    # evaluate reads the writer's bytes, without the per-line diagnosis, to
    # the report of the mask; the same records spelt otherwise exit 1, naming
    # the first line, and write no report
    th_path, report = tmp_path / "threshold.json", tmp_path / "report.json"
    save_threshold(threshold, th_path)
    expected = tmp_path / "expected.json"
    metrics.save_report(_report(mask, test, threshold), expected)
    respelt = tmp_path / "respelt.jsonl"
    respelt.write_text("".join(
        json.dumps({"set": np.flatnonzero(row)[::-1].tolist(), "index": i},
                   separators=(",", ":")) + "\n" for i, row in enumerate(mask)))
    chars = 100 * chunk if chunk else errors._CHUNK_CHARS
    for sets, code in ((respelt, 1), (streamed, 0)):
        with mock.patch.object(errors, "_CHUNK_CHARS", chars), \
                mock.patch.object(engine, "_first_error", wraps=engine._first_error) as diagnosis:
            assert main(["evaluate", "--sets", str(sets), "--in", str(test_file),
                         "--threshold", str(th_path), "--out", str(report)]) == code
        assert diagnosis.called == (code == 1)
        assert report.exists() == (code == 0)
    assert capsys.readouterr().err == f"error: prediction-sets line 0: {NOT_WRITTEN}\n"
    assert report.read_bytes() == expected.read_bytes()
    assert oracle_load_sets(streamed, k) == [np.flatnonzero(row).tolist() for row in mask]


def _wide_calibrated(tmp_path):
    """A 4000 x 1000 binary file and a threshold calibrated on it."""
    wide = tmp_path / "wide.bin"
    save_dataset(generate(SynthSpec(n=4000, k=1000, seed=0, signal=4.0)), wide)
    params, threshold = tmp_path / "map.json", tmp_path / "threshold.json"
    maps.save_map(CalibrationMap.temperature(0.8), params)
    assert main(["calibrate", "--in", str(wide), "--alpha", "0.1", "--score", "aps",
                 "--randomized", "true", "--params", str(params), "--seed", "1",
                 "--out", str(threshold)]) == 0
    return wide, threshold


def test_cli_predict_and_evaluate_stay_below_the_set_mask(tmp_path):
    # predict writes its sets a block at a time and evaluate reads them into
    # per-row sizes: neither holds the n-by-K boolean mask
    wide, threshold = _wide_calibrated(tmp_path)
    sets = tmp_path / "sets.jsonl"
    steps = (
        ["predict", "--in", str(wide), "--threshold", str(threshold), "--seed", "1",
         "--out", str(sets)],
        ["evaluate", "--sets", str(sets), "--in", str(wide), "--threshold", str(threshold),
         "--out", str(tmp_path / "report.json")],
    )
    budget = 4000 * 1000  # the bytes of the n-by-K boolean mask
    for argv in steps:
        code, peak = _traced_peak(main, argv)
        assert code == 0
        assert peak < budget, f"confsets {argv[0]} peaked at {peak / 2**20:.2f} MiB"


def test_cli_split_holds_its_parts_but_not_a_second_matrix(tmp_path):
    n, k = 4000, 1000
    wide = tmp_path / "wide.bin"
    save_dataset(generate(SynthSpec(n=n, k=k, seed=0, signal=4.0)), wide)
    budget = 1.25 * n * k * 8  # the parts are one n-by-K float64 matrix
    code, peak = _traced_peak(main, ["split", "--in", str(wide), "--parts", "a:0.3,b:0.7",
                                     "--shuffle", "true", "--seed", "1",
                                     "--out-dir", str(tmp_path / "parts")])
    assert code == 0
    assert peak < budget, f"confsets split peaked at {peak / (n * k * 8):.2f} times its logits"


def test_cli_tune_holds_its_halves_but_not_the_whole_matrix(tmp_path):
    n, k = 10000, 50
    validation = tmp_path / "validation.bin"
    save_dataset(generate(SynthSpec(n=n, k=k, seed=0, signal=4.0)), validation)
    budget = 1.45 * n * k * 8  # the halves are one n-by-K float64 matrix
    code, peak = _traced_peak(main, ["tune", "--in", str(validation), "--alpha", "0.1",
                                     "--map", "temperature", "--seed", "1",
                                     "--out", str(tmp_path / "map.json")])
    assert code == 0
    assert peak < budget, f"confsets tune peaked at {peak / (n * k * 8):.2f} times its logits"
