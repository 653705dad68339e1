import json
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

from confsets import errors
from confsets.cli import main

from oracles import oracle_load_sets


def run_cli(*argv):
    return main(list(argv))


def synth_file(tmp_path, name="data.bin", n=3000, k=8, signal=2.0, noise=1.0,
               overconfidence=1.0, seed=0):
    path = tmp_path / name
    code = run_cli("synth", "--n", str(n), "--k", str(k), "--signal", str(signal),
                   "--noise", str(noise), "--overconfidence", str(overconfidence),
                   "--seed", str(seed), "--out", str(path))
    assert code == 0
    return path


def run_chain(tmp_path, seed=1, n=6000, k=8, score="aps"):
    """synth -> split -> tune -> calibrate -> predict -> evaluate.

    High-signal data keeps the tuned (sharp) map out of the score-collapse
    regime, so coverage stays near 1 - alpha end to end.
    """
    raw = synth_file(tmp_path, n=n, k=k, signal=4.0, seed=seed)
    assert run_cli("split", "--in", str(raw), "--parts",
                   "validation:0.25,conformal:0.25,test:0.5",
                   "--shuffle", "true", "--seed", str(seed),
                   "--out-dir", str(tmp_path / "parts")) == 0
    params = tmp_path / "map.json"
    assert run_cli("tune", "--in", str(tmp_path / "parts" / "validation.bin"),
                   "--alpha", "0.1", "--map", "temperature",
                   "--seed", str(seed), "--out", str(params)) == 0
    threshold = tmp_path / "threshold.json"
    assert run_cli("calibrate", "--in", str(tmp_path / "parts" / "conformal.bin"),
                   "--alpha", "0.1", "--score", score, "--randomized", "true",
                   "--params", str(params), "--seed", str(seed),
                   "--out", str(threshold)) == 0
    sets = tmp_path / "sets.jsonl"
    assert run_cli("predict", "--in", str(tmp_path / "parts" / "test.bin"),
                   "--threshold", str(threshold), "--seed", str(seed),
                   "--out", str(sets)) == 0
    report = tmp_path / "report.json"
    assert run_cli("evaluate", "--sets", str(sets),
                   "--in", str(tmp_path / "parts" / "test.bin"),
                   "--bins", "default", "--ece-bins", "15",
                   "--threshold", str(threshold), "--out", str(report)) == 0
    return raw, params, threshold, sets, report


def test_full_pipeline_coverage(tmp_path):
    *_, report = run_chain(tmp_path, seed=1)
    obj = json.loads(report.read_text())
    assert 0.87 <= obj["coverage"] <= 0.93
    assert obj["alpha"] == 0.1
    assert obj["n_test"] == 3000
    assert obj["average_size"] > 0


def test_threshold_embeds_map_json_verbatim(tmp_path):
    _, params, threshold, _, _ = run_chain(tmp_path, seed=2)
    map_obj = json.loads(params.read_text())
    th_obj = json.loads(threshold.read_text())
    assert th_obj["map"] == map_obj


def test_tune_writes_report_sibling(tmp_path):
    run_chain(tmp_path, seed=3)
    report = json.loads((tmp_path / "map.report.json").read_text())
    assert set(report) == {"alpha", "final_loss", "iterations", "stalled"}
    assert report["alpha"] == 0.1
    assert report["stalled"] is False


def test_tune_platt_is_the_reciprocal_temperature(tmp_path):
    # same flags, same grid over t: Platt's a is 1/t and its b stays 0
    raw = synth_file(tmp_path, n=1200, k=8, signal=3.0, seed=12)
    tuned = {}
    for m in ("temperature", "platt"):
        out = tmp_path / f"{m}.json"
        assert run_cli("tune", "--in", str(raw), "--alpha", "0.1", "--map", m,
                       "--seed", "12", "--out", str(out), "--t-min", "0.2",
                       "--t-max", "3", "--grid-points", "16") == 0
        tuned[m] = (json.loads(out.read_text())["params"],
                    json.loads(out.with_suffix(".report.json").read_text()))
    (temp, temp_report), (platt, platt_report) = tuned["temperature"], tuned["platt"]
    assert platt == {"a": 1.0 / temp["t"], "b": 0.0}
    assert platt_report["iterations"] == temp_report["iterations"]
    assert platt_report["final_loss"] == pytest.approx(temp_report["final_loss"], rel=1e-12)


def test_split_writes_named_parts(tmp_path):
    raw = synth_file(tmp_path, n=1000, k=4, seed=4)
    assert run_cli("split", "--in", str(raw), "--parts", "a:0.5,b:0.5",
                   "--shuffle", "false", "--seed", "0",
                   "--out-dir", str(tmp_path / "out")) == 0
    from confsets import load_dataset

    a = load_dataset(tmp_path / "out" / "a.bin", "binary")
    b = load_dataset(tmp_path / "out" / "b.bin", "binary")
    assert a.n == 500 and b.n == 500


def test_csv_output_format(tmp_path):
    path = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "50", "--k", "3", "--signal", "2", "--noise", "1",
                   "--overconfidence", "1", "--seed", "0", "--out", str(path)) == 0
    first = path.read_text().splitlines()[0]
    assert first == "label,logit_0,logit_1,logit_2"


def test_evaluate_length_mismatch_exits_1(tmp_path, capsys):
    *_, sets, _ = run_chain(tmp_path, seed=5)
    small = synth_file(tmp_path, name="small.bin", n=100, k=8, seed=6)
    code = run_cli("evaluate", "--sets", str(sets), "--in", str(small),
                   "--bins", "default", "--ece-bins", "15",
                   "--out", str(tmp_path / "r.json"))
    assert code == 1
    assert "rows" in capsys.readouterr().err


def test_unknown_flag_exits_1(tmp_path, capsys):
    code = run_cli("synth", "--n", "10", "--k", "3", "--signal", "1",
                   "--noise", "1", "--overconfidence", "1", "--seed", "0",
                   "--out", str(tmp_path / "x.bin"), "--bogus", "1")
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    code = run_cli("split", "--in", str(tmp_path / "absent.bin"),
                   "--parts", "a:0.5,b:0.5", "--shuffle", "true",
                   "--seed", "0", "--out-dir", str(tmp_path))
    assert code == 2
    assert "absent.bin" in capsys.readouterr().err


def test_invalid_alpha_exits_1(tmp_path):
    raw = synth_file(tmp_path, n=200, k=4, seed=7)
    params = tmp_path / "map.json"
    params.write_text('{"kind": "identity", "params": {}}\n')
    code = run_cli("calibrate", "--in", str(raw), "--alpha", "1.5",
                   "--score", "aps", "--params", str(params),
                   "--seed", "0", "--out", str(tmp_path / "t.json"))
    assert code == 1


def test_calibrate_rejects_seed_beyond_64_bits(tmp_path, capsys):
    # the u draws keep 64 bits of the seed, so 2**64 + 3 would draw as seed 3
    raw = synth_file(tmp_path, n=200, k=4, seed=7)
    params = tmp_path / "map.json"
    params.write_text('{"kind": "identity", "params": {}}\n')
    code = run_cli("calibrate", "--in", str(raw), "--alpha", "0.1",
                   "--score", "aps", "--randomized", "true", "--params", str(params),
                   "--seed", str(2**64 + 3), "--out", str(tmp_path / "t.json"))
    assert code == 1
    assert "rng_seed" in capsys.readouterr().err


def test_calibrate_rejects_kreg_beyond_int64(tmp_path, capsys):
    # the raps penalty subtracts kreg from int64 ranks
    raw = synth_file(tmp_path, n=200, k=4, seed=7)
    params = tmp_path / "map.json"
    params.write_text('{"kind": "identity", "params": {}}\n')
    code = run_cli("calibrate", "--in", str(raw), "--alpha", "0.1",
                   "--score", "raps", "--lambda", "0.1", "--kreg", str(2**63),
                   "--params", str(params), "--seed", "0", "--out", str(tmp_path / "t.json"))
    assert code == 1
    assert "error: raps_kreg" in capsys.readouterr().err


def test_raps_requires_lambda(tmp_path):
    raw = synth_file(tmp_path, n=200, k=4, seed=8)
    params = tmp_path / "map.json"
    params.write_text('{"kind": "identity", "params": {}}\n')
    code = run_cli("calibrate", "--in", str(raw), "--alpha", "0.1",
                   "--score", "raps", "--params", str(params),
                   "--seed", "0", "--out", str(tmp_path / "t.json"))
    assert code == 1


def test_demo_precision_single_point(tmp_path):
    raw = synth_file(tmp_path, n=2000, k=6, seed=9)
    out = tmp_path / "demo.json"
    assert run_cli("demo-precision", "--in", str(raw), "--alpha", "0.1",
                   "--t-grid", "1.0", "--precision", "f64",
                   "--seed", "9", "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert len(obj["rows"]) == 1
    assert obj["rows"][0]["t"] == 1.0
    assert obj["rows"][0]["truncated_row_fraction"] == 0.0


@pytest.mark.parametrize("precision, data, grid", [
    ("f32", {"signal": 8.0, "noise": 8.0}, [0.5, 0.2, 0.1]),
    ("f64", {"signal": 1.0, "noise": 0.5}, [1.3, 0.7, 0.4]),
], ids=["f32", "f64"])
def test_demo_precision_rows_equal_the_library(tmp_path, precision, data, grid):
    import confsets as cs

    raw = synth_file(tmp_path, n=1200, k=20, seed=5, **data)
    out = tmp_path / "demo.json"
    assert run_cli("demo-precision", "--in", str(raw), "--alpha", "0.1",
                   "--t-grid", ",".join(map(str, grid)), "--precision", precision,
                   "--seed", "5", "--out", str(out)) == 0
    halves = cs.split_dataset(cs.load_dataset(raw),
                              cs.SplitSpec({"cal": 0.5, "test": 0.5}, seed=5))
    spec = cs.ScoreSpec(kind="aps", randomized=True, rng_seed=5)
    rows = []
    for t in grid:
        cal_map = cs.CalibrationMap.temperature(t)
        result = cs.run_pipeline(halves["cal"], halves["test"], cal_map, spec, 0.1,
                                 precision=precision)
        cov, size = cs.coverage_and_size(result.mask, halves["test"].labels)
        fraction, _ = cs.truncation_diagnostic(cal_map, halves["test"], precision=precision)
        rows.append({"t": t, "coverage": cov, "average_size": size,
                     "truncated_row_fraction": fraction})
    assert json.loads(out.read_text()) == {"alpha": 0.1, "precision": precision,
                                           "n_cal": 600, "n_test": 600, "rows": rows}
    if precision == "f32":
        assert rows[-1]["truncated_row_fraction"] > 0


def test_demo_precision_requires_descending_grid(tmp_path, capsys):
    raw = synth_file(tmp_path, n=500, k=6, seed=10)
    code = run_cli("demo-precision", "--in", str(raw), "--alpha", "0.1",
                   "--t-grid", "0.5,1.0", "--precision", "f64",
                   "--seed", "0", "--out", str(tmp_path / "d.json"))
    assert code == 1
    assert "descending" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    out = tmp_path / "tiny.bin"
    # the child finds confsets where this process does, installed or not
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "confsets", "synth", "--n", "20", "--k", "3",
         "--signal", "1", "--noise", "1", "--overconfidence", "1",
         "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_repeat_runs_byte_identical(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    d1.mkdir(), d2.mkdir()
    files1 = run_chain(d1, seed=11, n=3000)
    files2 = run_chain(d2, seed=11, n=3000)
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes()


def test_a_flag_does_not_carry_over_to_the_next_call(tmp_path):
    # one parser serves every call in a process; each call starts from the defaults
    cal = synth_file(tmp_path, n=300, k=5)
    params = tmp_path / "map.json"
    params.write_text('{"kind": "identity", "params": {}}\n')
    randomized = []
    for flags in (["--randomized", "true"], []):
        out = tmp_path / "threshold.json"
        assert run_cli("calibrate", "--in", str(cal), "--alpha", "0.1", "--score", "aps",
                       *flags, "--params", str(params), "--seed", "3", "--out", str(out)) == 0
        randomized.append(json.loads(out.read_text())["score"]["randomized"])
    assert randomized == [True, False]


# ---------------------------------------------------------------------------
# artifacts that could void the coverage guarantee exit 1


@pytest.fixture
def predicted(tmp_path):
    """Seed-7 randomized aps threshold on K=10 data and the sets it predicts."""
    cal = synth_file(tmp_path, name="cal.bin", n=300, k=10, seed=7)
    test = synth_file(tmp_path, name="test.bin", n=50, k=10, seed=8)
    params = tmp_path / "map.json"
    params.write_text('{"kind": "identity", "params": {}}\n')
    threshold = tmp_path / "threshold.json"
    assert run_cli("calibrate", "--in", str(cal), "--alpha", "0.1", "--score", "aps",
                   "--randomized", "true", "--params", str(params), "--seed", "7",
                   "--out", str(threshold)) == 0
    sets = tmp_path / "sets.jsonl"
    assert run_cli("predict", "--in", str(test), "--threshold", str(threshold),
                   "--seed", "7", "--out", str(sets)) == 0
    return cal, test, threshold, sets


def test_predict_seed_must_be_the_calibration_seed(tmp_path, predicted, capsys):
    from confsets import CalibrationMap, ScoreSpec, load_dataset, run_pipeline
    from confsets.engine import load_prediction_sets

    cal, test, threshold, sets = predicted
    expected = run_pipeline(load_dataset(cal, "binary"), load_dataset(test, "binary"),
                            CalibrationMap.identity(),
                            ScoreSpec(kind="aps", randomized=True, rng_seed=7), 0.1)
    np.testing.assert_array_equal(load_prediction_sets(sets, 10), expected.mask)
    code = run_cli("predict", "--in", str(test), "--threshold", str(threshold),
                   "--seed", "8", "--out", str(tmp_path / "other.jsonl"))
    assert code == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("tau", float("nan")), ("tau", float("inf")), ("tau", float("-inf")), ("tau", "all"),
    ("alpha", 0.0), ("alpha", 1.0), ("alpha", 7), ("alpha", float("nan")),
    ("n_cal", 0), ("n_cal", 2.5), ("n_cal", "300"), ("n_cal", True),
    # the u draws start at sample index n_cal, an int64
    ("n_cal", 2**63), ("n_cal", 10**30),
    # a finite tau with n_cal 5 (level 6 > 5), and include_all with n_cal 300
    ("n_cal", 5), ("tau", "include_all"),
    # an unknown key
    ("note", True),
    # a class count other than the data's (10), or not an integer >= 2
    ("k", 20), ("k", 1), ("k", 2.5), ("k", True),
])
def test_predict_rejects_unsafe_threshold(tmp_path, predicted, field, value):
    _, test, threshold, _ = predicted
    obj = json.loads(threshold.read_text())
    obj[field] = value
    bad = tmp_path / "bad_threshold.json"
    bad.write_text(json.dumps(obj))
    code = run_cli("predict", "--in", str(test), "--threshold", str(bad),
                   "--seed", "7", "--out", str(tmp_path / "out.jsonl"))
    assert code == 1


def test_predict_rejects_n_cal_whose_draws_pass_int64(tmp_path, predicted, capsys):
    # the last test row draws its u at sample index n_cal + n_test - 1
    _, test, threshold, _ = predicted
    obj = json.loads(threshold.read_text())
    obj["n_cal"] = 2**63 - 1
    bad = tmp_path / "bad_threshold.json"
    bad.write_text(json.dumps(obj))
    code = run_cli("predict", "--in", str(test), "--threshold", str(bad),
                   "--seed", "7", "--out", str(tmp_path / "out.jsonl"))
    assert code == 1
    assert f"threshold n_cal={2**63 - 1}" in capsys.readouterr().err


def test_threshold_rejects_data_with_another_class_count(tmp_path, predicted, capsys):
    _, _, threshold, sets = predicted
    assert json.loads(threshold.read_text())["k"] == 10
    wide = synth_file(tmp_path, name="wide.bin", n=50, k=20, seed=9)
    code = run_cli("predict", "--in", str(wide), "--threshold", str(threshold),
                   "--seed", "7", "--out", str(tmp_path / "wide.jsonl"))
    assert code == 1
    assert "20" in capsys.readouterr().err
    # the K=10 sets load as K=20 sets, so only the threshold can object
    code = run_cli("evaluate", "--sets", str(sets), "--in", str(wide),
                   "--threshold", str(threshold), "--out", str(tmp_path / "r.json"))
    assert code == 1
    assert "20" in capsys.readouterr().err
    assert run_cli("evaluate", "--sets", str(sets), "--in", str(wide),
                   "--out", str(tmp_path / "r.json")) == 0


def test_predict_names_a_non_finite_input_before_a_wrong_class_count(tmp_path, predicted,
                                                                   capsys):
    # the whole dataset is checked as it is opened, before the threshold reads its K
    _, _, threshold, _ = predicted
    wide = synth_file(tmp_path, name="wide.bin", n=50, k=20, seed=9)
    blob = bytearray(wide.read_bytes())
    blob[-8:] = np.array([np.nan]).tobytes()
    wide.write_bytes(bytes(blob))
    code = run_cli("predict", "--in", str(wide), "--threshold", str(threshold),
                   "--seed", "7", "--out", str(tmp_path / "wide.jsonl"))
    assert code == 1
    assert capsys.readouterr().err == "error: non-finite logit in row 49\n"


@pytest.mark.parametrize("change, message", [
    ("truncate", "truncated file: data shorter than its header says"),
    ("nan", "non-finite logit in row 49"),
])
def test_predict_exits_1_when_its_input_changes_after_it_was_opened(
        tmp_path, predicted, monkeypatch, change, message, capsys):
    from confsets import engine

    _, test, threshold, _ = predicted
    real_predict = engine.predict

    def change_then_predict(*args):
        if change == "truncate":
            os.truncate(test, test.stat().st_size - 8)
        else:
            with open(test, "r+b") as fh:
                fh.seek(-8, os.SEEK_END)
                fh.write(np.array([np.nan]).tobytes())
        return real_predict(*args)

    monkeypatch.setattr(engine, "predict", change_then_predict)
    out = tmp_path / "out.jsonl"
    code = run_cli("predict", "--in", str(test), "--threshold", str(threshold),
                   "--seed", "7", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# Repeats calibrate, predict and evaluate in a fresh process, as a batch
# driver calling `main` would, and prints each step's minor page faults.
_REPEAT_STEPS = """
import json, resource, sys
from confsets.cli import main
steps = json.loads(sys.argv[1])
faults = {argv[0]: [] for argv in steps}
for _ in range(4):
    for argv in steps:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        faults[argv[0]].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_repeated_block_steps_reuse_freed_heap(tmp_path):
    # Row blocks of a K = 50 file are 512 KiB each; under glibc's dynamic
    # thresholds the heap they used was trimmed as each step ended, and every
    # repeat of calibrate, predict or evaluate faulted in 190-640 fresh pages.
    cal = synth_file(tmp_path, name="cal.bin", n=2000, k=50, seed=7)
    test = synth_file(tmp_path, name="test.bin", n=5500, k=50, seed=8)
    params = tmp_path / "map.json"
    params.write_text('{"kind": "platt", "params": {"a": 0.5, "b": 0.1}}\n')
    threshold, sets = tmp_path / "threshold.json", tmp_path / "sets.jsonl"
    steps = [
        ["calibrate", "--in", str(cal), "--alpha", "0.1", "--score", "aps",
         "--randomized", "true", "--params", str(params), "--seed", "7",
         "--out", str(threshold)],
        ["predict", "--in", str(test), "--threshold", str(threshold), "--seed", "7",
         "--out", str(sets)],
        ["evaluate", "--sets", str(sets), "--in", str(test), "--bins", "default",
         "--threshold", str(threshold), "--out", str(tmp_path / "report.json")],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run([sys.executable, "-c", _REPEAT_STEPS, json.dumps(steps)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    # the first pass maps the pages; a repeat should need next to none
    assert all(min(counts[1:]) <= 32 for counts in faults.values()), faults


def test_predict_accepts_include_all_from_too_few_rows(tmp_path):
    cal = synth_file(tmp_path, name="cal.bin", n=5, k=10, seed=7)
    test = synth_file(tmp_path, name="test.bin", n=20, k=10, seed=8)
    params = tmp_path / "map.json"
    params.write_text('{"kind": "identity", "params": {}}\n')
    threshold = tmp_path / "threshold.json"
    assert run_cli("calibrate", "--in", str(cal), "--alpha", "0.1", "--score", "aps",
                   "--params", str(params), "--seed", "7", "--out", str(threshold)) == 0
    assert json.loads(threshold.read_text())["tau"] == "include_all"
    sets = tmp_path / "sets.jsonl"
    assert run_cli("predict", "--in", str(test), "--threshold", str(threshold),
                   "--seed", "7", "--out", str(sets)) == 0
    assert [json.loads(line)["set"] for line in sets.read_text().splitlines()] \
        == [list(range(10))] * 20


@pytest.mark.parametrize("bins, message", [
    ("3,1", "strictly increasing"), ("0,5", "strictly increasing"), ("x", "--bins"),
])
def test_evaluate_rejects_bad_bins(tmp_path, predicted, bins, message, capsys):
    _, test, threshold, sets = predicted
    code = run_cli("evaluate", "--sets", str(sets), "--in", str(test), "--bins", bins,
                   "--ece-bins", "15", "--threshold", str(threshold),
                   "--out", str(tmp_path / "report.json"))
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("ece_bins", ["0", str(2**53 + 1), str(10**30)])
def test_evaluate_rejects_bad_ece_bin_count(tmp_path, predicted, ece_bins, capsys):
    _, test, threshold, sets = predicted
    code = run_cli("evaluate", "--sets", str(sets), "--in", str(test), "--bins", "default",
                   "--ece-bins", ece_bins, "--threshold", str(threshold),
                   "--out", str(tmp_path / "report.json"))
    assert code == 1
    assert capsys.readouterr().err == f"error: bin count must be in [1, 2**53], got {ece_bins}\n"


@pytest.mark.parametrize("score", [
    {"randomized": "false"},
    {"randomized": 1},
    {"rng_seed": 7.9},
    {"rng_seed": True},
    {"rng_seed": "7"},
    {"kind": "raps", "raps_lambda": 0.01, "raps_kreg": 2.5},
    {"kind": "raps", "raps_lambda": 0.01, "raps_kreg": True},
    {"kind": "raps", "raps_lambda": "0.01", "raps_kreg": 2},
    {"kind": "raps", "raps_lambda": float("nan"), "raps_kreg": 2},
    {"kind": "raps", "raps_lambda": 10**400, "raps_kreg": 2},
    {"kind": "raps", "raps_lambda": 0.01, "raps_kreg": 10**400},
    {"kind": "saps", "saps_lambda": "0.1"},
    {"kind": "saps", "saps_lambda": float("inf")},
    {"kind": "saps", "saps_lambda": 10**400},
    {"randomised": False},
], ids=["randomized-str", "randomized-int", "seed-float", "seed-bool", "seed-str",
        "kreg-float", "kreg-bool", "raps-lambda-str", "raps-lambda-nan",
        "raps-lambda-huge-int", "kreg-huge-int", "saps-lambda-str", "saps-lambda-inf",
        "saps-lambda-huge-int", "unknown-key"])
def test_predict_rejects_loose_score_json(tmp_path, predicted, score, capsys):
    _, test, threshold, _ = predicted
    obj = json.loads(threshold.read_text())
    obj["score"].update(score)
    bad = tmp_path / "bad_threshold.json"
    bad.write_text(json.dumps(obj))
    code = run_cli("predict", "--in", str(test), "--threshold", str(bad),
                   "--seed", "7", "--out", str(tmp_path / "out.jsonl"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def _renumbered(line: str, shift: int) -> str:
    """A sets-file line with each "index": N made "index": N + shift."""
    return re.sub(r'"index": (\d+)', lambda m: f'"index": {int(m[1]) + shift}', line)


def _rows_past_first_chunk(lines: list[str]) -> list[str]:
    """Valid sets-file lines, the rows of ``lines`` over again, that fill
    more than the loader's first chunk."""
    rows: list[str] = []
    while sum(map(len, rows)) <= errors._CHUNK_CHARS:
        i = len(rows)
        rows.append(_renumbered(lines[i % len(lines)], i - i % len(lines)))
    return rows


@pytest.mark.parametrize("first_line", [
    '{"index": 0, "set": [1.7]}',
    '{"index": 0, "set": [true]}',
    '{"index": 0, "set": [10]}',
    '{"index": 0, "set": [99]}',
    '{"index": 0, "set": [-1]}',
    '{"index": 0, "set": [3, 3]}',
    '{"index": 5, "set": [0]}',
    '{"index": 0, "set": [1,]}',
    '{"index": 0, "set": []}, {"index": 1, "set": []}',
    '{"index": 0,\n"set": [1]}',
    '{"index": 0}',
    '{"index": true, "set": [0]}',
    '{"index": 0.0, "set": [0]}',
    '{"index": 0, "set": [1.0]}',
    f'{{"index": 0, "set": [{2**70}]}}',
    # a record holds exactly "index" and "set"; none of these escapes as a traceback
    pytest.param('{"index": 0, "note": "x", "set": [1]}', id="extra-key"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),
    pytest.param(f'{{"index": 0, "set": [{"9" * 5000}]}}', id="member-5000-digits"),
    # json.loads keeps a repeated key's last value
    pytest.param('{"index": 0, "set": [5], "set": [1]}', id="repeated-key"),
])
def test_evaluate_rejects_malformed_sets_file(tmp_path, predicted, first_line, capsys):
    _, test, threshold, sets = predicted
    lines = sets.read_text().splitlines()
    rows = _rows_past_first_chunk(lines)
    # the record as row 0, as row 1 after a blank line (line numbers count every
    # line), and after a blank line past the first chunk; the message is the
    # line-by-line reader's
    for row, where in [(0, "line 0:"), (1, "line 2:"), (len(rows), f"line {len(rows) + 1}:")]:
        body = rows[:row] + [""] * (row > 0) + [_renumbered(first_line, row)] \
            + [_renumbered(line, row) for line in lines[1:3]]
        bad = tmp_path / "bad_sets.jsonl"
        bad.write_text("\n".join(body) + "\n")
        with pytest.raises(ValueError) as expected:
            oracle_load_sets(bad, 10)
        code = run_cli("evaluate", "--sets", str(bad), "--in", str(test), "--bins", "default",
                       "--ece-bins", "15", "--threshold", str(threshold),
                       "--out", str(tmp_path / "report.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert where in err
        assert err == f"error: {expected.value}\n"


@pytest.mark.parametrize("case", ["threshold-nested", "threshold-n_cal-5000-digits",
                                  "map-t-5000-digits"])
def test_json_that_python_cannot_decode_exits_1(tmp_path, predicted, case, capsys):
    # json.loads raises RecursionError or a plain ValueError on these, not JSONDecodeError
    cal, test, threshold, _ = predicted
    bad = tmp_path / "bad.json"
    out = str(tmp_path / "out")
    if case == "map-t-5000-digits":
        bad.write_text('{"kind": "temperature", "params": {"t": %s}}\n' % ("9" * 5000))
        argv = ["calibrate", "--in", str(cal), "--alpha", "0.1", "--score", "aps",
                "--params", str(bad), "--seed", "7", "--out", out]
        what = "map file"
    else:
        if case == "threshold-nested":
            bad.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        else:
            obj = json.loads(threshold.read_text())
            bad.write_text(json.dumps(obj).replace(f'"n_cal": {obj["n_cal"]}',
                                                   f'"n_cal": {"9" * 5000}'))
        argv = ["predict", "--in", str(test), "--threshold", str(bad), "--seed", "7",
                "--out", out]
        what = "threshold file"
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} is not valid JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("case", ["map", "threshold", "sets", "sets-past-first-chunk", "csv"])
def test_non_ascii_input_exits_1(tmp_path, predicted, case, capsys):
    # every text artifact is ASCII: a non-ASCII byte is a load error naming its line
    cal, test, threshold, sets = predicted
    bad = tmp_path / "bad"
    out = str(tmp_path / "out")
    if case == "map":
        bad.write_bytes('{"kind": "identity", "params": {}, "note": "\u00e9"}\n'.encode())
        argv = ["calibrate", "--in", str(cal), "--alpha", "0.1", "--score", "aps",
                "--params", str(bad), "--seed", "7", "--out", out]
        where = "map file line 0:"
    elif case == "threshold":
        text = threshold.read_bytes()
        bad.write_bytes(text + b"\xff")
        argv = ["predict", "--in", str(test), "--threshold", str(bad), "--seed", "7",
                "--out", out]
        where = f"threshold file line {len(text.splitlines())}:"
    elif case.startswith("sets"):
        lines = sets.read_text().splitlines()
        if case == "sets-past-first-chunk":
            lines = _rows_past_first_chunk(lines) + [""]
        row = len(lines) - 1 if case == "sets-past-first-chunk" else 3
        lines[row] = f'{{"index": {row}, "set": [0], "note": "\u00e9"}}'
        bad.write_bytes(("\n".join(lines) + "\n").encode())
        argv = ["evaluate", "--sets", str(bad), "--in", str(test), "--out", out]
        where = f"prediction-sets line {row}:"
    else:
        csv = synth_file(tmp_path, name="data.csv", n=20, k=3)
        lines = csv.read_text().splitlines()
        lines[2] += "\u00e9"
        bad.write_bytes(("\n".join(lines) + "\n").encode())
        argv = ["split", "--in", str(bad), "--parts", "a:0.5,b:0.5", "--shuffle", "false",
                "--seed", "0", "--out-dir", out]
        where = "CSV dataset line 2:"
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and where in err


@pytest.mark.parametrize("map_obj", [
    {"kind": "temperature", "params": {"t": 0.5, "b": 0.0}},
    {"kind": "platt", "params": {"a": 2.0, "b": 0.0, "t": 0.5}},
    {"kind": "identity", "params": {}, "comment": "x"},
    {"kind": "identity", "params": []},
], ids=["temperature-extra", "platt-extra", "top-extra", "params-not-object"])
def test_calibrate_rejects_unknown_map_keys(tmp_path, map_obj, capsys):
    # the same loader reads the "map" object of a threshold file
    cal = synth_file(tmp_path, name="cal.bin", n=200, k=5, seed=3)
    params = tmp_path / "map.json"
    params.write_text(json.dumps(map_obj))
    code = run_cli("calibrate", "--in", str(cal), "--alpha", "0.1", "--score", "aps",
                   "--params", str(params), "--seed", "3",
                   "--out", str(tmp_path / "threshold.json"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


BAD_PARAMS = [
    {"kind": "temperature", "params": {"t": True}},
    {"kind": "platt", "params": {"a": "2", "b": 0.0}},
    {"kind": "temperature", "params": {"t": "abc"}},
    {"kind": "vector", "params": {"w": 5, "c": [0.0] * 10}},
    {"kind": "vector", "params": {"w": [1.0] * 9 + [None], "c": [0.0] * 10}},
    {"kind": "temperature", "params": {"t": 10**400}},
]
BAD_PARAMS_IDS = ["t-bool", "a-str", "t-str", "w-scalar", "w-null-entry", "t-huge-int"]


@pytest.mark.parametrize("map_obj", BAD_PARAMS, ids=BAD_PARAMS_IDS)
def test_calibrate_rejects_mistyped_map_params(tmp_path, map_obj, capsys):
    cal = synth_file(tmp_path, name="cal.bin", n=200, k=10, seed=3)
    params = tmp_path / "map.json"
    params.write_text(json.dumps(map_obj))
    code = run_cli("calibrate", "--in", str(cal), "--alpha", "0.1", "--score", "aps",
                   "--params", str(params), "--seed", "3",
                   "--out", str(tmp_path / "threshold.json"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("map_obj", BAD_PARAMS, ids=BAD_PARAMS_IDS)
def test_predict_rejects_mistyped_threshold_map(tmp_path, predicted, map_obj, capsys):
    _, test, threshold, _ = predicted
    obj = json.loads(threshold.read_text())
    obj["map"] = map_obj
    bad = tmp_path / "bad_threshold.json"
    bad.write_text(json.dumps(obj))
    code = run_cli("predict", "--in", str(test), "--threshold", str(bad),
                   "--seed", "7", "--out", str(tmp_path / "out.jsonl"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_every_written_map_and_threshold_loads(tmp_path):
    # what tune and calibrate write must pass the strict loaders
    raw = synth_file(tmp_path, n=600, k=4, signal=3.0, seed=5)
    params = tmp_path / "identity.json"
    params.write_text('{"kind": "identity", "params": {}}\n')
    maps_written = [params]
    for m in ("temperature", "platt", "vector"):
        out = tmp_path / f"{m}.json"
        assert run_cli("tune", "--in", str(raw), "--alpha", "0.1", "--map", m,
                       "--seed", "5", "--out", str(out), "--grid-points", "8") == 0
        maps_written.append(out)
    scores = [("aps", "false"), ("aps", "true"), ("raps", "true"), ("saps", "false"),
              ("lac", "false")]
    for params in maps_written:
        for score, randomized in scores:
            extra = {"raps": ["--lambda", "0.01", "--kreg", "2"],
                     "saps": ["--lambda", "0.1"]}.get(score, [])
            threshold = tmp_path / f"{params.stem}-{score}-{randomized}.json"
            assert run_cli("calibrate", "--in", str(raw), "--alpha", "0.1",
                           "--score", score, "--randomized", randomized, *extra,
                           "--params", str(params), "--seed", "5",
                           "--out", str(threshold)) == 0
            assert run_cli("predict", "--in", str(raw), "--threshold", str(threshold),
                           "--seed", "5", "--out", str(tmp_path / "sets.jsonl")) == 0
