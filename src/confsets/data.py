"""Logits datasets: validation, CSV/binary persistence, deterministic splits.

A dataset is an n-by-K matrix of raw classifier logits plus one integer
label per row.  Two on-disk formats are supported:

* CSV: header ``label,logit_0,...,logit_{K-1}``, one row per sample,
  decimal floats.  Floats are written with ``repr`` so a save/load round
  trip is value-exact.
* binary: magic ``CPLG``, version byte 0x01, n as u64 LE, K as u32 LE,
  n labels as u32 LE, then n*K doubles (f64 LE, row major).  Bit-exact
  round trip.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

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
        try:
            labels = np.asarray(self.labels, dtype=np.int64)
        except OverflowError as exc:
            raise ValidationError(f"label out of range: {exc}") from exc
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
            if not (0.0 < frac <= 1.0):
                raise ValidationError(
                    f"fraction for part {name!r} must be in (0, 1], got {frac}"
                )
        total = sum(self.fractions.values())
        if abs(total - 1.0) > _FRACTION_SUM_TOL:
            raise ValidationError(f"fractions must sum to 1, got {total!r}")
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")


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
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header:
            raise ValidationError("empty dataset")
        cols = header.strip().split(",")
        if cols[0] != "label" or len(cols) < 3:
            raise ValidationError(f"malformed header: {header.strip()!r}")
        k = len(cols) - 1
        expected = [f"logit_{j}" for j in range(k)]
        if cols[1:] != expected:
            raise ValidationError(f"malformed header: {header.strip()!r}")
        labels: list[int] = []
        rows: list[list[float]] = []
        for i, line in enumerate(fh):
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
    return LogitsDataset(np.array(rows, dtype=np.float64), np.array(labels))


def _save_binary(ds: LogitsDataset, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes([_VERSION]))
        fh.write(struct.pack("<Q", ds.n))
        fh.write(struct.pack("<I", ds.k))
        fh.write(ds.labels.astype("<u4").tobytes())
        fh.write(ds.logits.astype("<f8").tobytes())


def _load_binary(path) -> LogitsDataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    head_len = len(_MAGIC) + 1 + 8 + 4
    if len(blob) < head_len:
        raise ValidationError("truncated file: header incomplete")
    if blob[: len(_MAGIC)] != _MAGIC:
        raise ValidationError("malformed header: bad magic bytes")
    if blob[len(_MAGIC)] != _VERSION:
        raise ValidationError(f"malformed header: unsupported version {blob[len(_MAGIC)]}")
    n = struct.unpack_from("<Q", blob, len(_MAGIC) + 1)[0]
    k = struct.unpack_from("<I", blob, len(_MAGIC) + 1 + 8)[0]
    if n == 0:
        raise ValidationError("empty dataset")
    expected = head_len + 4 * n + 8 * n * k
    if len(blob) != expected:
        raise ValidationError(
            f"truncated file: expected {expected} bytes, got {len(blob)}"
        )
    labels = np.frombuffer(blob, dtype="<u4", count=n, offset=head_len)
    logits = np.frombuffer(blob, dtype="<f8", count=n * k, offset=head_len + 4 * n)
    return LogitsDataset(logits.reshape(n, k).copy(), labels.astype(np.int64))
