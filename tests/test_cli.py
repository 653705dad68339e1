import json
import os
import subprocess
import sys

import numpy as np
import pytest

from confsets.cli import main


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
    # a finite tau with n_cal 5 (level 6 > 5), and include_all with n_cal 300
    ("n_cal", 5), ("tau", "include_all"),
    # an unknown key
    ("note", True),
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
    {"kind": "saps", "saps_lambda": "0.1"},
    {"kind": "saps", "saps_lambda": float("inf")},
    {"kind": "saps", "saps_lambda": 10**400},
    {"randomised": False},
], ids=["randomized-str", "randomized-int", "seed-float", "seed-bool", "seed-str",
        "kreg-float", "kreg-bool", "raps-lambda-str", "raps-lambda-nan",
        "raps-lambda-huge-int", "saps-lambda-str", "saps-lambda-inf",
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


@pytest.mark.parametrize("first_line", [
    '{"index": 0, "set": [1.7]}',
    '{"index": 0, "set": [true]}',
    '{"index": 0, "set": [10]}',
    '{"index": 0, "set": [99]}',
    '{"index": 0, "set": [-1]}',
    '{"index": 0, "set": [3, 3]}',
    '{"index": 5, "set": [0]}',
])
def test_evaluate_rejects_malformed_sets_file(tmp_path, predicted, first_line, capsys):
    _, test, threshold, sets = predicted
    lines = sets.read_text().splitlines()
    bad = tmp_path / "bad_sets.jsonl"
    bad.write_text("\n".join([first_line] + lines[1:]) + "\n")
    code = run_cli("evaluate", "--sets", str(bad), "--in", str(test), "--bins", "default",
                   "--ece-bins", "15", "--threshold", str(threshold),
                   "--out", str(tmp_path / "report.json"))
    assert code == 1
    assert "line 0" in capsys.readouterr().err


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
