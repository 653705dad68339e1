"""Logits datasets: validation, CSV/binary persistence, deterministic splits.

A dataset is an n-by-K matrix of raw classifier logits plus one integer
label per row; a label array of any other dtype (float, bool, string) is
rejected.  Two on-disk formats are supported:

* CSV: header ``label,logit_0,...,logit_{K-1}``, one row per sample,
  decimal floats.  Floats are written with ``repr`` so a save/load round
  trip is value-exact.
* binary: magic ``CPLG``, version byte 0x01, n as u64 LE, K as u32 LE,
  n labels as u32 LE, then n*K doubles (f64 LE, row major).  Bit-exact
  round trip.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, ascii_lines, is_int, is_number

_MAGIC = b"CPLG"
_VERSION = 1

_FRACTION_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LogitsDataset:
    """Immutable container for an n-by-K logits matrix with labels."""

    logits: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        logits = np.asarray(self.logits, dtype=np.float64)
        labels = np.asarray(self.labels)
        # float labels would be truncated, and bool or string labels cast
        if labels.dtype.kind not in "iu":
            raise ValidationError(f"labels must be integers, got dtype {labels.dtype}")
        # uint64 labels beyond int64 wrap to negative, which the range check rejects
        labels = labels.astype(np.int64, copy=False)
        if logits.ndim != 2:
            raise ValidationError("logits must be a 2-d matrix")
        n, k = logits.shape
        if n < 1:
            raise ValidationError("empty dataset (n must be >= 1)")
        if k < 2:
            raise ValidationError(f"class count must be >= 2, got {k}")
        if labels.shape != (n,):
            raise ValidationError(
                f"labels must have shape ({n},), got {labels.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
        if bad.size:
            raise ValidationError(f"non-finite logit in row {bad[0]}")
        out = np.flatnonzero((labels < 0) | (labels >= k))
        if out.size:
            raise ValidationError(
                f"label out of range in row {out[0]}: {labels[out[0]]} not in [0, {k})"
            )
        # read-only views: the caller's own arrays stay writable, and nothing is copied
        logits, labels = logits.view(), labels.view()
        logits.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.logits.shape[0]

    @property
    def k(self) -> int:
        return self.logits.shape[1]

    def take(self, rows: np.ndarray) -> "LogitsDataset":
        """Dataset restricted to the given row indices, in that order."""
        return LogitsDataset(self.logits[rows], self.labels[rows])


@dataclass(frozen=True)
class SplitSpec:
    """How to partition a dataset: ordered named fractions plus a seed.

    Fractions must each lie in (0, 1] and sum to 1 (within 1e-12).  Part
    sizes are floor(fraction * n); the last part absorbs the rounding
    remainder.  With shuffle=True the row permutation is a deterministic
    function of the seed.
    """

    fractions: dict[str, float]
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if not self.fractions:
            raise ValidationError("at least one split part is required")
        for name, frac in self.fractions.items():
            if not (is_number(frac) and 0.0 < frac <= 1.0):
                raise ValidationError(
                    f"fraction for part {name!r} must be in (0, 1], got {frac!r}"
                )
        total = sum(self.fractions.values())
        if abs(total - 1.0) > _FRACTION_SUM_TOL:
            raise ValidationError(f"fractions must sum to 1, got {total!r}")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.shuffle, bool):
            raise ValidationError(f"shuffle must be a boolean, got {self.shuffle!r}")


def split_dataset(ds: LogitsDataset, spec: SplitSpec) -> dict[str, LogitsDataset]:
    """Partition ``ds`` into named parts per ``spec``.

    Parts are disjoint and exhaustive.  Identical (ds, spec) always
    produce identical partitions.
    """
    names = list(spec.fractions)
    if ds.n < len(names):
        raise ValidationError(
            f"cannot split {ds.n} rows into {len(names)} parts"
        )
    if spec.shuffle:
        order = np.random.default_rng(spec.seed).permutation(ds.n)
    else:
        order = np.arange(ds.n)

    sizes = [int(np.floor(spec.fractions[name] * ds.n)) for name in names[:-1]]
    sizes.append(ds.n - sum(sizes))
    parts: dict[str, LogitsDataset] = {}
    start = 0
    for name, size in zip(names, sizes):
        if size < 1:
            raise ValidationError(
                f"part {name!r} would be empty; use a larger dataset or fraction"
            )
        parts[name] = ds.take(order[start : start + size])
        start += size
    return parts


def save_dataset(ds: LogitsDataset, path, format: str = "binary") -> None:
    """Write ``ds`` to ``path`` in the requested format ("csv" or "binary")."""
    if format == "csv":
        _save_csv(ds, path)
    elif format == "binary":
        _save_binary(ds, path)
    else:
        raise ValidationError(f"unknown dataset format {format!r}")


def load_dataset(path, format: str = "binary") -> LogitsDataset:
    """Read a dataset from ``path`` ("csv" or "binary"), validating it fully."""
    if format == "csv":
        return _load_csv(path)
    if format == "binary":
        return _load_binary(path)
    raise ValidationError(f"unknown dataset format {format!r}")


def sniff_format(path) -> str:
    """Guess the on-disk format by checking for the binary magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
    return "binary" if head == _MAGIC else "csv"


def _save_csv(ds: LogitsDataset, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        header = "label," + ",".join(f"logit_{j}" for j in range(ds.k))
        fh.write(header + "\n")
        for i in range(ds.n):
            row = ",".join(repr(float(v)) for v in ds.logits[i])
            fh.write(f"{int(ds.labels[i])},{row}\n")


def _load_csv(path) -> LogitsDataset:
    lines = ascii_lines(path, "CSV dataset")
    _, header = next(lines, (0, ""))
    if not header:
        raise ValidationError("empty dataset")
    cols = header.strip().split(",")
    k = len(cols) - 1
    if k < 2 or cols != ["label"] + [f"logit_{j}" for j in range(k)]:
        raise ValidationError(f"malformed header: {header.strip()!r}")
    labels: list[int] = []
    rows: list[list[float]] = []
    for lineno, line in lines:
        i = lineno - 1
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != k + 1:
            raise ValidationError(
                f"row {i}: expected {k + 1} fields, got {len(fields)}"
            )
        try:
            label = int(fields[0])
            values = [float(v) for v in fields[1:]]
        except ValueError as exc:
            raise ValidationError(f"row {i}: unparseable value ({exc})") from exc
        labels.append(label)
        rows.append(values)
    if not rows:
        raise ValidationError("empty dataset")
    try:
        label_array = np.array(labels, dtype=np.int64)
    except OverflowError as exc:
        raise ValidationError(f"label out of range: {exc}") from exc
    return LogitsDataset(np.array(rows, dtype=np.float64), label_array)


def _save_binary(ds: LogitsDataset, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes([_VERSION]))
        fh.write(struct.pack("<Q", ds.n))
        fh.write(struct.pack("<I", ds.k))
        # write each array from its own buffer: no bytes copy of the matrix
        fh.write(np.ascontiguousarray(ds.labels, dtype="<u4"))
        fh.write(np.ascontiguousarray(ds.logits, dtype="<f8"))


def _load_binary(path) -> LogitsDataset:
    head_len = len(_MAGIC) + 1 + 8 + 4
    with open(path, "rb") as fh:
        head = fh.read(head_len)
        if len(head) < head_len:
            raise ValidationError("truncated file: header incomplete")
        if head[: len(_MAGIC)] != _MAGIC:
            raise ValidationError("malformed header: bad magic bytes")
        if head[len(_MAGIC)] != _VERSION:
            raise ValidationError(
                f"malformed header: unsupported version {head[len(_MAGIC)]}"
            )
        n = struct.unpack_from("<Q", head, len(_MAGIC) + 1)[0]
        k = struct.unpack_from("<I", head, len(_MAGIC) + 1 + 8)[0]
        if n == 0:
            raise ValidationError("empty dataset")
        expected = head_len + 4 * n + 8 * n * k
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValidationError(
                f"truncated file: expected {expected} bytes, got {size}"
            )
        # read each array straight into its own buffer: no copy of the file
        labels = np.empty(n, dtype="<u4")
        logits = np.empty((n, k), dtype="<f8")
        for arr in (labels, logits):
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise ValidationError("truncated file: data shorter than its header says")
    return LogitsDataset(logits, labels.astype(np.int64))
