"""Child processes of the benchmark; run.py starts them from the checkout root.

  python3 perfbench/work.py setup WORKLOAD SEED DIR [SPANS_JSON]
      Make the workload's inputs under DIR with `confsets synth` and
      `confsets split`, plus the identity map file where the workload uses
      one.  With SPANS_JSON, trace the calls and write the spans there.

  python3 perfbench/work.py work WORKLOAD SEED DIR SECONDS TRACE RESULT_JSON
      Warm up, then run the workload's chain in a closed loop until SECONDS
      have passed, and write every step's time and exit code, the output
      digests of every iteration and the peak RSS to RESULT_JSON.  With
      TRACE=1 the time is split between untraced and traced iterations, and
      one more traced iteration runs under tracemalloc for memory peaks.

confsets must be importable; run.py puts the checkout's src/ on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

from confsets import cli, data, maps, tuning
from confsets.errors import ValidationError

import spans
from workloads import (SYNTH_ARGS, VECTOR_MAX_ITERS, WORKLOADS, chain,
                       identity_map_path, outputs, parts_dir, warmup_chain)


def setup(wl, seed: int, root: Path, spans_path: Path | None) -> None:
    root.mkdir(parents=True, exist_ok=True)
    raw = root / "data.bin"
    commands = (
        ["synth", "--n", str(wl.n), "--k", str(wl.k), *SYNTH_ARGS, "--seed", str(seed),
         "--out", str(raw)],
        ["split", "--in", str(raw), "--parts", wl.parts, "--shuffle", "true",
         "--seed", str(seed), "--out-dir", str(parts_dir(root))],
    )
    tracer = spans.Tracer()
    with spans.patched(tracer) if spans_path else contextlib.nullcontext():
        for argv in commands:
            rc = cli.main(argv)
            if rc != 0:
                raise SystemExit(f"set-up: `confsets {argv[0]}` exited with {rc}")
    if "identity" in wl.maps:
        maps.save_map(maps.CalibrationMap.identity(), identity_map_path(root))
    raw.unlink()  # only the parts are inputs; dropping it spares the disk a write-back
    if spans_path:
        spans_path.write_text(json.dumps(tracer.take()))


def tune_vector(argv: tuple[str, ...]) -> int:
    """`confsets tune --map vector` with the iteration cap the CLI lacks."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    try:
        ds = data.load_dataset(opts["--in"], data.sniff_format(opts["--in"]))
        cfg = tuning.TuneConfig(gd_max_iters=VECTOR_MAX_ITERS, seed=int(opts["--seed"]))
        tuned, report = tuning.tune_map(ds, float(opts["--alpha"]), "vector", cfg)
        maps.save_map(tuned, opts["--out"])
        tuning.save_tune_report(report, Path(opts["--out"]).with_suffix(".report.json"))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


def peak_rss_kib() -> int:
    """High-water RSS of this process's own memory, in KiB.

    `ru_maxrss` alone can overstate it: Linux carries the parent's peak into
    a child across fork and exec, and run.py may have checked a K=1000
    workload before starting this process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_step(step) -> int:
    """The step's exit code; an exception that escapes the CLI fails the step."""
    try:
        return tune_vector(step.argv) if step.via_library else cli.main(list(step.argv))
    except Exception:  # the loop must go on and report the failure
        traceback.print_exc()
        return 1


def digests(files: list[Path]) -> dict[str, str | None]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() if f.is_file() else None
            for f in files}


def iterate(steps, files: list[Path], tracer: spans.Tracer | None = None) -> dict:
    """One pass over the chain; digests and spans are taken after the timing."""
    record = []
    for step in steps:
        index = tracer.open(f"cli.{step.command}") if tracer else -1
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        rc = run_step(step)
        seconds = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if tracer:
            tracer.close(index)
        record.append({"stage": step.stage, "command": step.command, "map": step.map,
                       "seconds": seconds, "rc": rc,
                       "user_s": after.ru_utime - before.ru_utime,
                       "sys_s": after.ru_stime - before.ru_stime,
                       "minor_faults": after.ru_minflt - before.ru_minflt})
    iteration = {"steps": record, "digests": digests(files)}
    if tracer:
        iteration["spans"] = tracer.take()
    return iteration


def loop(steps, files, seconds: float, tracer: spans.Tracer | None = None) -> list[dict]:
    """Closed loop: whole iterations until `seconds` have passed (at least one)."""
    iterations = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        iterations.append(iterate(steps, files, tracer))
    return iterations


def work(wl, seed: int, root: Path, seconds: float, trace: bool, result_path: Path) -> None:
    out, warm = root / "out", root / "warm"
    out.mkdir(exist_ok=True)
    warm.mkdir(exist_ok=True)
    result = {"warmup": iterate(warmup_chain(wl, seed, root, warm), [])}
    steps, files = chain(wl, seed, root, out), outputs(wl, out)
    result["untraced"] = loop(steps, files, seconds / 2 if trace else seconds)
    result["peak_rss_kib"] = peak_rss_kib()
    if trace:
        tracer = spans.Tracer()
        with spans.patched(tracer) as missing:
            result["traced"] = loop(steps, files, seconds / 2, tracer)
        result["missing_targets"] = missing
        tracer = spans.Tracer(memory=True)
        tracemalloc.start()
        try:
            with spans.patched(tracer):
                result["memory"] = iterate(steps, files, tracer)
        finally:
            tracemalloc.stop()
    result_path.write_text(json.dumps(result))


def main(argv: list[str]) -> None:
    mode, name, seed, root, *rest = argv
    wl, seed, root = WORKLOADS[name], int(seed), Path(root)
    if mode == "setup":
        setup(wl, seed, root, Path(rest[0]) if rest else None)
    elif mode == "work":
        seconds, trace, result_path = rest
        work(wl, seed, root, float(seconds), trace == "1", Path(result_path))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
