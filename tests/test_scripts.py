"""Smoke test: the experiment scripts run end to end on small inputs."""

import os
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
