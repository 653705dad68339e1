"""The confsets benchmark: run workloads through the file-based CLI, check and report.

Run from the repository root:

  python3 perfbench/run.py --workload protocol-k50 --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1

Set-up (`confsets synth` and `confsets split`) runs SETUPS times, each in a
fresh process, and its median is `setup_s`.  The timed chain then runs in
one more fresh process that does only that work (work.py).  The outputs are
checked here afterwards, outside any timing (checks.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list.  The lines before it show every metric, with units, in a table.  The
full record of a run (environment, every iteration, output digests, tuned
parameters, every check) is written to
.perfbench/results/<workload>-seed<seed>-trace<trace>.json; compare.py
compares two sets of such records.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, outputs

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUPS = 5
# End-to-end metrics shown and recorded, but not in BENCHMARK.json (see README).
PRINTED_ONLY = {"tune_s": "s", "sets_s": "s", "evaluate_s": "s", "failed_frac": "1"}
STAGES = ("tune", "sets", "evaluate")
# A run must end within 180 s; leave room for the checks after the work.
WORK_DEADLINE_S = 150.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(args: list, deadline: float) -> None:
    """Run work.py in a fresh process and wait for it; its stderr is passed on."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start `work.py {args[0]}`")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "work.py"), *map(str, args)],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"`work.py {args[0]}` was stopped at the time limit") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"`work.py {args[0]}` exited with {proc.returncode}")


def flush(directory: Path) -> None:
    """Write the inputs to disk now, so that write-back does not overlap the timing."""
    for path in directory.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def source_digest(src: Path) -> str:
    """sha256 over the package sources: the identity of the code under test."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import numpy

    sha = None
    if (root / ".git").exists():  # an exported checkout has no history to name
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            sha = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "source_sha256": source_digest(root / "src"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "seed": seed}


def stage_times(steps: list[dict], key: str = "seconds") -> dict:
    """Per-stage sums and the total of `key` over a list of step records."""
    times = {f"{stage}_s": sum(s[key] for s in steps if s["stage"] == stage)
             for stage in STAGES}
    times["wall_s"] = sum(s[key] for s in steps)
    return times


def pass_times(iterations: list[dict]) -> dict:
    """The typical pass: each step's median over the iterations, summed by stage.

    A burst of host noise then costs one sample of one step, not a whole pass.
    """
    typical = [{"stage": step["stage"],
                **{key: statistics.median(it["steps"][i][key] for it in iterations)
                   for key in ("seconds", "user_s", "sys_s")}}
               for i, step in enumerate(iterations[0]["steps"])]
    times = stage_times(typical)
    times["cpu_user_s"] = stage_times(typical, "user_s")["wall_s"]
    times["cpu_sys_s"] = stage_times(typical, "sys_s")["wall_s"]
    return times


def tuner_facts(wl, out: Path) -> dict:
    """Tuned parameters and TuneReport fields, read from the output files."""
    from confsets.tuning import TuneConfig

    bounds = (TuneConfig().t_min, TuneConfig().t_max)
    facts = {}
    for m in wl.tuned:
        try:
            params = json.loads((out / f"map_{m}.json").read_text())["params"]
            report = json.loads((out / f"map_{m}.report.json").read_text())
        except (OSError, ValueError, KeyError):
            continue
        if m == "vector":
            params = {"w_norm": sum(v * v for v in params["w"]) ** 0.5,
                      "c_norm": sum(v * v for v in params["c"]) ** 0.5}
        facts[m] = {"params": params, "report": report,
                    "at_bound": m == "temperature" and params["t"] in bounds}
    return facts


def check_digests(work: dict, files: list[str], ledger_path: Path, key: str) -> list:
    """Outputs must be byte-identical across iterations and across runs of this code."""
    runs = [work["untraced"], work.get("traced", []),
            [work["memory"]] if "memory" in work else []]
    seen = [it["digests"] for group in runs for it in group]
    differ = [f for f in files if len({d[f] for d in seen}) != 1 or seen[0][f] is None]
    checks = [("outputs byte-identical across iterations", not differ,
               f"{len(seen)} iterations, differing or missing: {differ}")]
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    earlier = ledger.setdefault(key, seen[0])
    changed = sorted(f for f in files if earlier.get(f) != seen[0][f])
    checks.append(("outputs equal earlier runs of this code and seed", not changed,
                   f"changed: {changed}"))
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return checks


def run_workload(wl, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    deadline = time.monotonic() + WORK_DEADLINE_S
    base = root / ".perfbench"
    wdir = base / wl.name
    shutil.rmtree(wdir, ignore_errors=True)
    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        child(["setup", wl.name, seed, wdir], deadline)
        setup_times.append(time.perf_counter() - start)
    if trace:
        child(["setup", wl.name, seed, wdir, wdir / "setup_spans.json"], deadline)
    flush(wdir)
    child(["work", wl.name, seed, wdir, seconds, int(trace), wdir / "work.json"], deadline)
    work = json.loads((wdir / "work.json").read_text())

    import checks
    import spans

    out = wdir / "out"
    env = environment(root, seed)
    groups = [[work["warmup"]], work["untraced"], work.get("traced", []),
              [work["memory"]] if trace else []]
    ops = [step for group in groups for it in group for step in it["steps"]]
    failed_ops = [f"{s['command']} ({s['map']}) exited {s['rc']}" for s in ops if s["rc"]]
    check_list, facts = checks.run(wl, seed, wdir, out)
    check_list += check_digests(work, [f.name for f in outputs(wl, out)],
                                base / "digests.json",
                                f"{env['source_sha256']}/{wl.name}/{seed}")
    failed = len(failed_ops) + sum(not ok for _, ok, _ in check_list)
    attempted = len(ops) + len(check_list)

    untraced = pass_times(work["untraced"])
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        **untraced,
        "peak_rss_mib": work["peak_rss_kib"] / 1024,
        "avg_set_size": statistics.fmean(f["average_size"] for f in facts.values())
        if facts else 0.0,
        "failed_frac": failed / attempted,
    }
    tuner = tuner_facts(wl, out)
    per_layer = {}
    if trace:
        setup_spans = json.loads((wdir / "setup_spans.json").read_text())
        per_layer = spans.summarize([it["spans"] for it in work["traced"]],
                                    work["memory"]["spans"], setup_spans)
        traced = pass_times(work["traced"])
        per_layer["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        if facts:
            per_layer["metrics.coverage"] = statistics.fmean(
                f["coverage"] for f in facts.values())
        for m, f in facts.items():
            per_layer[f"metrics.avg_size.{m}"] = f["average_size"]
        per_layer["tuning.at_bound"] = sum(f["at_bound"] for f in tuner.values())

    result = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "setup_times": setup_times,
        "iterations": {name: [it["steps"] for it in work.get(name, [])]
                       for name in ("untraced", "traced")},
        "digests": work["untraced"][0]["digests"],
        "tuner": tuner,
        "failed_operations": failed_ops,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in check_list],
        "missing_trace_targets": work.get("missing_targets", []),
    }
    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1))
    return result


def report(result: dict, bench: dict) -> dict:
    """Print one workload's table; return the metrics for the result line."""
    listed = bench["per_layer"] if result["trace"] else bench["end_to_end"]
    metrics = {m["name"]: {"value": (result["per_layer"] if result["trace"]
                                     else result["end_to_end"]).get(m["name"], 0.0),
                           "unit": m["unit"]} for m in listed}
    iterations = len(result["iterations"]["untraced"])
    print(f"{result['workload']}  seed {result['seed']}  {iterations} timed "
          f"iterations  {result['attempted']} operations  {result['failed']} failed")
    shown = dict(metrics)
    if not result["trace"]:
        for name, unit in PRINTED_ONLY.items():
            shown.setdefault(name, {"value": result["end_to_end"][name], "unit": unit})
    for name, m in shown.items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    for m, facts in result["tuner"].items():
        print(f"  tuned {m}: {facts['params']}  {facts['report']}"
              + ("  (at a temperature bound)" if facts["at_bound"] else ""))
    for check in result["checks"]:
        if not check["ok"]:
            print(f"  FAILED check: {check['name']}: {check['detail']}")
    for line in result["failed_operations"]:
        print(f"  FAILED operation: {line}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "confsets" / "__init__.py").is_file() \
            or not (root / "tests" / "oracles.py").is_file():
        print("error: run from the root of a confsets checkout "
              "(src/confsets and tests/oracles.py are required)", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    src = str(root / "src")
    sys.path.insert(0, src)
    # Before numpy first loads, here or in a child: one BLAS/OpenMP thread.
    os.environ.update({var: "1" for var in THREAD_VARS}, PYTHONPATH=src)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(WORKLOADS[name], args.seed, args.seconds,
                                bool(args.trace), root) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for result in results:
        for name, m in report(result, bench).items():
            metrics[name if len(results) == 1 else f"{result['workload']}.{name}"] = m
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
