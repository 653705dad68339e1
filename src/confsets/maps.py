"""Post-hoc calibration maps: parameterized transforms from logits to probabilities.

Supported kinds:

* ``temperature`` -- divide logits by a positive scalar t,
* ``platt``       -- affine rescale a * logits + b with scalars a, b,
* ``vector``      -- per-class scale and bias, w * logits + c,
* ``identity``    -- no transform.

Every map ends in a softmax computed with max-subtraction so that small
temperatures behave identically across platforms.  Probabilities are
float64 by default; a float32 mode exists for low-precision diagnostics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import LogitsDataset
from .errors import ValidationError

MAP_KINDS = ("temperature", "platt", "vector", "identity")


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
        kind = obj["kind"]
        params = obj.get("params", {})
        if kind == "temperature":
            if "t" not in params:
                raise ValidationError("temperature map JSON requires params.t")
            return cls.temperature(params["t"])
        if kind == "platt":
            if "a" not in params or "b" not in params:
                raise ValidationError("platt map JSON requires params.a and params.b")
            return cls.platt(params["a"], params["b"])
        if kind == "vector":
            if "w" not in params or "c" not in params:
                raise ValidationError("vector map JSON requires params.w and params.c")
            return cls.vector(params["w"], params["c"])
        if kind == "identity":
            return cls.identity()
        raise ValidationError(f"unknown map kind {kind!r}")


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction, in the dtype of ``z``."""
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def apply_map_dataset(cal_map: CalibrationMap, ds: LogitsDataset,
                      precision: str = "f64") -> np.ndarray:
    """n-by-K probability matrix: row i is the softmax of ``cal_map`` on row i."""
    if precision == "f64":
        work = ds.logits
    elif precision == "f32":
        work = ds.logits.astype(np.float32)
    else:
        raise ValidationError(f"unknown precision {precision!r} (expected f32 or f64)")
    return softmax(cal_map.transform_logits(work))


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
