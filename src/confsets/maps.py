"""Post-hoc calibration maps: parameterized transforms from logits to probabilities.

Supported kinds:

* ``temperature`` -- divide logits by a positive scalar t,
* ``platt``       -- affine rescale a * logits + b with scalars a, b,
* ``vector``      -- per-class scale and bias, w * logits + c,
* ``identity``    -- no transform.

Every map ends in a softmax computed with max-subtraction so that small
temperatures behave identically across platforms.  Probabilities are
float64 by default; a float32 mode exists for low-precision diagnostics.
`probability_blocks` is the one walk of a dataset's `data.row_blocks`
blocks, so callers that reduce each block never hold an n-by-K float
matrix.  It yields each block undivided, as ``(rows, e, s, top)``: the
shifted exps e, their row sums s and each row's first argmax of its
mapped logits, so that a caller divides only the values it reads.  At either precision e is a
float64 view of one reused buffer: a yielded block is overwritten by the
next one, so a caller reduces each block before it asks for the next.
`apply_map_dataset` reads a dataset's logits only through ``logit_rows``,
so it takes a `data.LogitsFile` as well as a `LogitsDataset`: on a file, a
block's logits are read from disk when it is made, at f64 into the buffer
that then holds its exps.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .data import LogitsDataset, LogitsFile, buffered_row_blocks
from .errors import ValidationError, check_keys, is_number, read_json, write_json
from .scores import _check_normalized

MAP_KINDS = ("temperature", "platt", "vector", "identity")

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
            # one ufunc call over all 2K values: a call per value costs 10 times as much
            if not np.isfinite(self.w + self.c).all():
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

    def transform_logits(self, logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Rescaled logits, before the softmax.

        With ``out`` (the shape and dtype of ``logits``, and it may be
        ``logits`` itself) the result is written there and returned.  The
        identity map writes nothing and returns ``logits`` itself, with or
        without ``out``, so a caller goes on from the result, not from
        ``out``.  Either way the values have the same bits.
        """
        if self.kind == "temperature":
            return np.divide(logits, self.t, out=out)
        if self.kind == "platt":
            out = np.multiply(self.a, logits, out=out)
            return np.add(out, self.b, out=out)
        if self.kind == "vector":
            w = np.asarray(self.w, dtype=logits.dtype)
            c = np.asarray(self.c, dtype=logits.dtype)
            if logits.shape[-1] != w.shape[0]:
                raise ValidationError(
                    f"vector map has {w.shape[0]} classes, logits have {logits.shape[-1]}"
                )
            out = np.multiply(logits, w, out=out)
            return np.add(out, c, out=out)
        return logits

    def to_json_dict(self) -> dict:
        params = {name: getattr(self, name) for name in _PARAM_NAMES[self.kind]}
        if self.kind == "vector":
            params = {name: list(value) for name, value in params.items()}
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CalibrationMap":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError("map JSON must be an object with a 'kind' field")
        check_keys(obj, ("kind", "params"), "map JSON", ("params",))
        kind = obj["kind"]
        if kind not in MAP_KINDS:
            raise ValidationError(f"unknown map kind {kind!r}")
        params = obj["params"]
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


def softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax of an n-by-K ``z`` with max-subtraction, in its dtype.

    The shift, the exp and the division run in place on one buffer, in the
    order (and so with the bits) of ``e = exp(z - max); e / e.sum()``.  The
    buffer is ``out`` (the shape and dtype of ``z``, and it may be ``z``
    itself), or a new array; ``z`` is written only when it is ``out``, since
    the identity map passes a dataset's own logits.
    """
    e, s, _ = _shifted_exp(z, out)
    e /= s
    return e


def _shifted_exp(z: np.ndarray, out: np.ndarray | None = None):
    """``(e, s, top)`` of rescaled logits ``z``: softmax before its division.

    ``top`` is each row's first argmax and the shift ``z[row, top]``, which
    has the value of the row's maximum; e = exp(z - shift) is made in
    ``out`` as `softmax` makes it, and ``s`` is its row sums, kept as a
    column.  A row's maximum that is -0.0 or +0.0 shifts by either to the
    same e: z - (+-0.0) is z at every other value, and exp(+-0.0) = 1.
    """
    top = np.argmax(z, axis=1)
    e = np.subtract(z, z[np.arange(z.shape[0]), top][:, None], out=out)
    np.exp(e, out=e)
    return e, np.sum(e, axis=1, keepdims=True), top


def _mapped_logits(cal_map: CalibrationMap, ds: LogitsDataset | LogitsFile, precision: str,
                   rows: slice, out: np.ndarray | None):
    """``(z, out)``: ``cal_map`` applied to ``ds.logit_rows(rows)`` at
    ``precision``, and the buffer its softmax is to be made in."""
    if precision == "f64":
        z = ds.logit_rows(rows, out=out)
    elif precision == "f32":
        z = out = ds.logit_rows(rows).astype(np.float32)
    else:
        raise ValidationError(f"unknown precision {precision!r} (expected f32 or f64)")
    return cal_map.transform_logits(z, out=out), out


def apply_map_dataset(cal_map: CalibrationMap, ds: LogitsDataset | LogitsFile,
                      precision: str = "f64", rows: slice = slice(None)) -> np.ndarray:
    """Probability matrix of ``ds.logit_rows(rows)``: each row is the softmax of ``cal_map``.

    The matrix is a new array of the precision's dtype, and a
    `LogitsDataset`'s logits are never written.  At f32 the map and
    softmax run in place on one float32 copy of the logits.
    `probability_blocks` gives the same bits a block at a time.
    """
    return softmax(*_mapped_logits(cal_map, ds, precision, rows, None))


def probability_blocks(cal_map: CalibrationMap, ds: LogitsDataset | LogitsFile,
                       precision: str = "f64"
                       ) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """``(rows, e, s, top)`` for each slice of `data.row_blocks`: the
    probabilities of ``apply_map_dataset`` on ``rows`` are ``e / s[:, None]``
    bit for bit, and ``top`` is a column of each row's largest e.

    ``e`` is float64 in the reused buffer of `data.buffered_row_blocks`: it
    is overwritten by the next block, so a caller reduces it before it asks
    for the next, and may write it.  Softmax is row-wise, so every block
    equals its rows of the whole matrix bit for bit.  At f64 ``e`` is
    softmax's exp of the mapped logits shifted by ``z[row, top]``, with
    ``top`` their first argmax (`_shifted_exp`), so e[row, top] = 1 (an
    earlier class's e may round to 1 too), and ``s`` is softmax's row sum;
    at f32 the block is made, divided, in a float32 copy and widened into
    the buffer, with ``s`` ones and ``top`` the argmax of the probabilities.

    A block that fails `scores._check_normalized` is a ValidationError
    with its message ("probabilities must sum to 1").  At f64 only a NaN
    row can: a map's logits are finite or +-inf, so a softmax row is NaN
    in every entry (its maximum is +inf, or every entry is -inf) or in none
    (its maximum is finite, so every shifted entry is at most 0 and the sum
    at least 1), and the guard reads only each row's sum, NaN exactly on
    such a row.  At f32 the block is checked whole: a float32 row sums to 1
    within about (log2 K + 1) * 2**-24, by at most 3.3e-7 as measured at
    K = 10 to 100000 and t = 1 and 0.1.
    """
    for rows, buf in buffered_row_blocks(ds.n, ds.k):
        if precision == "f32":
            buf[...] = apply_map_dataset(cal_map, ds, precision, rows)
            _check_normalized(buf)
            yield rows, buf, np.ones(buf.shape[0]), buf.argmax(axis=1)
            continue
        e, s, top = _shifted_exp(_mapped_logits(cal_map, ds, precision, rows, buf)[0], buf)
        if np.isnan(s).any():
            _check_normalized(e / s)
        yield rows, e, s[:, 0], top


def save_map(cal_map: CalibrationMap, path) -> None:
    write_json(cal_map.to_json_dict(), path)


def load_map(path) -> CalibrationMap:
    return CalibrationMap.from_json_dict(read_json(path, "map file"))
