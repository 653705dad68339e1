"""Post-hoc calibration maps: parameterized transforms from logits to probabilities.

Supported kinds:

* ``temperature`` -- divide logits by a positive scalar t,
* ``platt``       -- affine rescale a * logits + b with scalars a, b,
* ``vector``      -- per-class scale and bias, w * logits + c,
* ``identity``    -- no transform.

Every map ends in a softmax computed with max-subtraction so that small
temperatures behave identically across platforms.  Probabilities are
float64 by default; a float32 mode exists for low-precision diagnostics.
`probability_blocks` yields the probabilities of consecutive row blocks, so
callers that reduce each block never hold an n-by-K float matrix.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .data import LogitsDataset
from .errors import ValidationError, check_keys, is_number

MAP_KINDS = ("temperature", "platt", "vector", "identity")

# Matrix cells (rows x classes) in one block of `probability_blocks`.  On
# the wide-k1000 benchmark (K = 1000, identity map, seeds 2-4, 2-core
# host), blocks of 2**16, 2**17 and 2**18 cells gave median wall times of
# 0.56, 0.55 and 0.58 s and peak RSS of 106, 108 and 112 MiB.
_BLOCK_CELLS = 1 << 16

# The keys of each kind's "params" object in map JSON.
_PARAM_NAMES = {"temperature": ("t",), "platt": ("a", "b"), "vector": ("w", "c"),
                "identity": ()}


@dataclass(frozen=True)
class CalibrationMap:
    """Immutable calibration map; use the class-method constructors."""

    kind: str
    t: float | None = None
    a: float | None = None
    b: float | None = None
    w: tuple[float, ...] | None = None
    c: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in MAP_KINDS:
            raise ValidationError(f"unknown map kind {self.kind!r}")
        if self.kind == "temperature":
            if self.t is None or not np.isfinite(self.t) or self.t <= 0:
                raise ValidationError(f"temperature must be > 0, got {self.t}")
        elif self.kind == "platt":
            if self.a is None or self.b is None:
                raise ValidationError("platt map requires scalars a and b")
            if not (np.isfinite(self.a) and np.isfinite(self.b)):
                raise ValidationError("platt parameters must be finite")
        elif self.kind == "vector":
            if self.w is None or self.c is None:
                raise ValidationError("vector map requires per-class w and c")
            if len(self.w) != len(self.c):
                raise ValidationError("vector map w and c must have equal length")
            if not all(np.isfinite(v) for v in self.w + self.c):
                raise ValidationError("vector parameters must be finite")

    @classmethod
    def temperature(cls, t: float) -> "CalibrationMap":
        return cls(kind="temperature", t=float(t))

    @classmethod
    def platt(cls, a: float, b: float) -> "CalibrationMap":
        return cls(kind="platt", a=float(a), b=float(b))

    @classmethod
    def vector(cls, w, c) -> "CalibrationMap":
        return cls(kind="vector", w=tuple(float(v) for v in w),
                   c=tuple(float(v) for v in c))

    @classmethod
    def identity(cls) -> "CalibrationMap":
        return cls(kind="identity")

    def transform_logits(self, logits: np.ndarray) -> np.ndarray:
        """Rescaled logits, before the softmax."""
        if self.kind == "temperature":
            return logits / self.t
        if self.kind == "platt":
            return self.a * logits + self.b
        if self.kind == "vector":
            w = np.asarray(self.w, dtype=logits.dtype)
            c = np.asarray(self.c, dtype=logits.dtype)
            if logits.shape[-1] != w.shape[0]:
                raise ValidationError(
                    f"vector map has {w.shape[0]} classes, logits have {logits.shape[-1]}"
                )
            return logits * w + c
        return logits

    def to_json_dict(self) -> dict:
        params: dict = {}
        if self.kind == "temperature":
            params["t"] = self.t
        elif self.kind == "platt":
            params["a"] = self.a
            params["b"] = self.b
        elif self.kind == "vector":
            params["w"] = list(self.w)
            params["c"] = list(self.c)
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CalibrationMap":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError("map JSON must be an object with a 'kind' field")
        check_keys(obj, ("kind", "params"), "map JSON")
        kind = obj["kind"]
        if kind not in MAP_KINDS:
            raise ValidationError(f"unknown map kind {kind!r}")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ValidationError("map JSON params must be an object")
        names = _PARAM_NAMES[kind]
        check_keys(params, names, f"{kind} map JSON params")
        if any(name not in params for name in names):
            raise ValidationError(
                f"{kind} map JSON requires " + " and ".join(f"params.{n}" for n in names)
            )
        for name in names:
            value = params[name]
            if kind == "vector":
                if not (isinstance(value, list) and all(is_number(v) for v in value)):
                    raise ValidationError(
                        f"vector map JSON params.{name} must be a list of numbers, "
                        f"got {value!r}"
                    )
            elif not is_number(value):
                raise ValidationError(
                    f"{kind} map JSON params.{name} must be a number, got {value!r}"
                )
        # each kind's constructor takes its parameters in _PARAM_NAMES order
        try:
            return getattr(cls, kind)(*(params[name] for name in names))
        except OverflowError as exc:  # an integer too large for a float
            raise ValidationError(f"{kind} map JSON params out of range: {exc}") from exc


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction, in the dtype of ``z``.

    Allocates one output buffer: the shift, the exp and the division run
    in place on it, in the order (and so with the bits) of ``e = exp(z -
    max); e / e.sum()``.  ``z`` itself is never written, since the
    identity map passes a dataset's own logits.
    """
    out = z - np.max(z, axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=-1, keepdims=True)
    return out


def apply_map_dataset(cal_map: CalibrationMap, ds: LogitsDataset,
                      precision: str = "f64", rows: slice = slice(None)) -> np.ndarray:
    """Probability matrix of ``ds.logits[rows]``: each row is the softmax of ``cal_map``."""
    if precision == "f64":
        work = ds.logits[rows]
    elif precision == "f32":
        work = ds.logits[rows].astype(np.float32)
    else:
        raise ValidationError(f"unknown precision {precision!r} (expected f32 or f64)")
    return softmax(cal_map.transform_logits(work))


def probability_blocks(cal_map: CalibrationMap, ds: LogitsDataset,
                       precision: str = "f64") -> Iterator[tuple[slice, np.ndarray]]:
    """``(rows, probs)`` for consecutive row slices that cover ``ds`` in order.

    ``probs`` is ``apply_map_dataset`` on ``rows``.  A block spans at most
    ``max(1, _BLOCK_CELLS // K)`` rows, so a caller that reduces each block
    to per-row values never holds an n-by-K float matrix.  Softmax is
    row-wise, so every block equals its rows of the whole matrix bit for bit.
    """
    step = max(1, _BLOCK_CELLS // ds.k)
    for start in range(0, ds.n, step):
        rows = slice(start, min(start + step, ds.n))
        yield rows, apply_map_dataset(cal_map, ds, precision, rows)


def save_map(cal_map: CalibrationMap, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(cal_map.to_json_dict(), fh, indent=2)
        fh.write("\n")


def load_map(path) -> CalibrationMap:
    with open(path, "r", encoding="ascii") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"map file is not valid JSON: {exc}") from exc
    return CalibrationMap.from_json_dict(obj)
