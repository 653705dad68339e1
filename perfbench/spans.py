"""Spans around the calls into each confsets module, recorded from outside the package.

`patched(tracer)` wraps each public function at every module attribute
through which a caller looks it up (for example `apply_map_dataset` both as
`confsets.maps.apply_map_dataset`, which the CLI uses, and as
`confsets.tuning.apply_map_dataset`, which the tuner uses).  A span is
(name, parent, start, end, attrs); spans stay in memory and the caller
writes them out when the run ends.  With `memory=True` each span also keeps
the `tracemalloc` peak above the traced memory at its start.

`summarize` turns the spans of traced iterations into per-layer metrics.
Times named `cli.*` are inclusive; every other `*_s` time is self time: the
span's duration minus its child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import time
import tracemalloc

MIB = 2.0 ** 20


def _tuned(args, result) -> dict:
    cal_map, report = result
    return {"map": cal_map.kind, "report": report.to_json_dict()}


# span name, function name, modules whose attribute callers look it up, and
# what to record from (positional args, result) when the call returns.
# Recorded values keyed by a metric name ("layer.metric") are summed into
# that metric; other keys describe the call.
TARGETS = (
    ("synth.generate", "generate", ("confsets.synth",), None),
    ("data.load", "load_dataset", ("confsets.data",),
     lambda a, r: {"data.bytes_read": os.path.getsize(a[0])}),
    ("data.save", "save_dataset", ("confsets.data",),
     lambda a, r: {"data.bytes_written": os.path.getsize(a[1])}),
    ("maps.apply", "apply_map_dataset",
     ("confsets.maps", "confsets.tuning", "confsets.engine", "confsets.metrics"),
     lambda a, r: {"maps.apply_rows": a[1].n}),
    ("scores.rank", "rank_matrix", ("confsets.scores", "confsets.metrics"),
     lambda a, r: {"scores.rank_rows": len(a[0])}),
    ("scores.score", "true_label_scores",
     ("confsets.scores", "confsets.cli", "confsets.tuning", "confsets.engine"), None),
    ("scores.score", "score_matrix", ("confsets.scores", "confsets.engine"), None),
    ("scores.draw_u", "draw_u_many",
     ("confsets.scores", "confsets.cli", "confsets.engine"), None),
    ("engine.calibrate", "calibrate_threshold", ("confsets.engine", "confsets.tuning"),
     lambda a, r: {"engine.calibrate_calls": 1}),
    ("engine.predict", "predict_sets", ("confsets.engine",), None),
    ("engine.sets_write", "save_prediction_sets", ("confsets.engine",),
     lambda a, r: {"engine.sets_bytes": os.path.getsize(a[1])}),
    ("engine.sets_read", "load_prediction_sets", ("confsets.engine",), None),
    ("metrics.report", "build_report", ("confsets.metrics",), None),
    ("metrics.coverage", "coverage_and_size", ("confsets.metrics",), None),
    ("metrics.ece", "expected_calibration_error", ("confsets.metrics",), None),
    ("metrics.size_by_rank", "size_by_rank", ("confsets.metrics",), None),
    ("tuning.tune", "tune_temperature", ("confsets.tuning",), _tuned),
    ("tuning.tune", "tune_map", ("confsets.tuning",), _tuned),
    ("tuning.loss", "efficiency_gap_loss", ("confsets.tuning",),
     lambda a, r: {"loss": float(r)}),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs", "mem_start", "mem_peak")

    def __init__(self, name: str, parent: int, mem: int):
        self.name = name
        self.parent = parent
        self.attrs: dict = {}
        self.mem_start = self.mem_peak = mem
        self.end = 0.0
        self.start = time.perf_counter()

    def to_json(self) -> list:
        return [self.name, self.parent, self.start, self.end, self.attrs,
                self.mem_peak - self.mem_start]


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _mark_memory(self) -> int:
        # Fold the peak since the last event into every open span, then
        # restart the peak so the next event sees only what came after.
        current, peak = tracemalloc.get_traced_memory()
        for i in self._stack:
            span = self.spans[i]
            span.mem_peak = max(span.mem_peak, peak)
        tracemalloc.reset_peak()
        return current

    def open(self, name: str) -> int:
        mem = self._mark_memory() if self.memory else 0
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, mem))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        if self.memory:
            self._mark_memory()
        self._stack.pop()
        return span

    def take(self) -> list[list]:
        """The recorded spans as JSON-ready lists; the tracer starts empty again."""
        out = [s.to_json() for s in self.spans]
        self.spans = []
        return out


def _wrap(tracer: Tracer, name: str, fn, measure):
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.close(index)
        if measure is not None:
            span.attrs = measure(args, result)
        return result
    return traced


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route the package's public calls through `tracer` while the block runs.

    Yields the attribute paths that no longer exist in the package, so a
    renamed function shows up as a missing span rather than a crash.
    """
    saved, missing = [], []
    for name, attr, modules, measure in TARGETS:
        for module_name in modules:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, name, fn, measure))
    try:
        yield missing
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, parent, start, end, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _iteration_metrics(spans: list[list]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    loss_times = []
    for (name, _, start, end, attrs, _), self_s in zip(spans, own):
        layer, _, op = name.partition(".")
        if layer == "cli":
            add(f"cli.{op}_s", end - start)
            continue
        add(f"{name}_s", self_s)
        for key, value in attrs.items():
            if "." in key:
                add(key, value)
        if name == "tuning.loss":
            loss_times.append(end - start)
    out["tuning.loss_eval_s"] = statistics.median(loss_times) if loss_times else 0.0
    return out


def _tuner_metrics(spans: list[list]) -> dict[str, float]:
    """Counts and outcomes of every tuning run in one iteration's spans."""
    evals = accepted = 0
    out: dict[str, float] = {}
    for index, (name, _, _, _, attrs, _) in enumerate(spans):
        if name != "tuning.tune":
            continue
        losses = [s[4]["loss"] for s in spans if s[0] == "tuning.loss" and s[1] == index]
        evals += len(losses)
        report = attrs["report"]
        if attrs["map"] == "temperature":
            # The grid + golden-section search accepts a point when it beats
            # the best value so far.
            best = float("inf")
            for value in losses:
                if value < best:
                    best = value
                    accepted += 1
        else:
            accepted += report["iterations"]  # accepted descent steps
        out[f"tuning.final_loss.{attrs['map']}"] = report["final_loss"]
    out.update({
        "tuning.loss_evals": evals,
        "tuning.steps_accepted": accepted,
        "tuning.accept_ratio": accepted / evals if evals else 0.0,
    })
    return out


def _peaks(spans: list[list]) -> dict[str, float]:
    peaks: dict[str, float] = {}
    for name, _, _, _, _, mem in spans:
        key = name.partition(".")[0] + ".peak_mib"
        peaks[key] = max(peaks.get(key, 0.0), mem / MIB)
    return peaks


def summarize(traced: list[list[list]], memory: list[list],
              setup: list[list]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced iterations' spans.

    `traced` holds the spans of each timed traced iteration, `memory` those
    of the one iteration run under tracemalloc, and `setup` those of one
    traced set-up (synth, split and the dataset writes).
    """
    per_iter = [_iteration_metrics(spans) for spans in traced]
    keys = set().union(*per_iter)
    out = {key: statistics.median(m.get(key, 0.0) for m in per_iter) for key in keys}
    setup_metrics = _iteration_metrics(setup)
    out["synth.generate_s"] = setup_metrics.get("synth.generate_s", 0.0)
    out["data.save_s"] = setup_metrics.get("data.save_s", 0.0)
    out["data.bytes_written"] = setup_metrics.get("data.bytes_written", 0.0)
    out.update(_tuner_metrics(traced[0]))
    out.update(_peaks(memory))
    return out
