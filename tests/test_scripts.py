"""Smoke test: the experiment scripts run end to end on small inputs, and
the README names only symbols that exist."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import confsets

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("run_coverage_study.py", ["--seeds", "1", "--n-cal", "200", "--n-test", "500",
                               "--k", "5"]),
    ("run_efficiency_experiment.py", ["--seeds", "1", "--n", "4000", "--k", "10"]),
])
def test_script_runs(script, args):
    src = str(Path(confsets.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_cli_chain_writes_the_same_manifest_twice(tmp_path):
    # two runs side by side at tiny n; no stored manifest, since exp and
    # sums may differ in the last bit across CPUs
    src = str(Path(confsets.__file__).resolve().parents[1])
    runs = [subprocess.Popen([sys.executable, str(ROOT / "scripts" / "cli_chain.py"),
                              str(tmp_path / name), "--n", "48", "--src", src],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for name in ("a", "b")]
    for proc in runs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    first, second = ((tmp_path / name / "MANIFEST.sha256").read_text() for name in ("a", "b"))
    assert first == second
    assert "  k1000/identity.aps-false.a0.01.sets.jsonl\n" in first
    assert "  k200flat/temperature.saps-true.a0.1.report.json\n" in first
    # the K = 10 rows read from CSV files give the bytes they give from binary ones
    digests = dict(line.split("  ")[::-1] for line in first.splitlines())
    from_csv = {name.removeprefix("k10csv/"): digest for name, digest in digests.items()
                if name.startswith("k10csv/") and not name.endswith(".csv")}
    assert len(from_csv) == 6
    assert from_csv == {name: digests[f"k10/{name}"] for name in from_csv}
    # the error leg logs each failure: 5 defective binary files and 5 CSV
    # ones x 6 commands, 5 in-body errors on a clean file and on one with a
    # bad last row, 5 commands under a map that makes every softmax row NaN,
    # 2 calibrations whose penalties overflow, and 3 bad sets files
    errors = tmp_path / "a" / "errors"
    assert sum(name.startswith("errors/") and name.endswith(".txt") for name in digests) == 80
    assert (errors / "nan-first.split.txt").read_text() == \
        "exit 1\nerror: non-finite logit in row 3\n"
    assert (errors / "nan-last.class-count.txt").read_text() == \
        "exit 1\nerror: non-finite logit in row 6999\n"
    nan_rows = "exit 1\nerror: probabilities must sum to 1 (row 0 sums to np.float64(nan))\n"
    assert (errors / "clean.overflow-calibrate-lac.txt").read_text() == nan_rows
    assert (errors / "clean.overflow-demo-precision-f32.txt").read_text() == nan_rows


def _readme_section(title):
    """The text of the README section headed ``## title``, up to the next one."""
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_names_only_existing_symbols():
    # a backticked name with an underscore or a capital letter in a module's
    # row of "What's inside" is an attribute of that module
    rows = re.findall(r"^\| `(confsets\.\w+)` \| (.*) \|$", _readme_section("What's inside"),
                      re.MULTILINE)
    assert len(rows) >= 9
    checked = 0
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([^`]+)`", contents):
            if re.fullmatch(r"[A-Za-z_]\w*", name) and (name != name.lower() or "_" in name):
                assert hasattr(module, name), f"README names {module_name}.{name}"
                checked += 1
    assert checked >= 10
    # each cs.X of the quickstart is an attribute of the package
    names = set(re.findall(r"\bcs\.(\w+)", _readme_section("Library quickstart")))
    assert {"run_pipeline", "calibrate", "predict", "tune_map"} <= names
    for name in sorted(names):
        assert hasattr(confsets, name), f"README's quickstart names cs.{name}"
