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

Both readers of the binary format share its header, size and label code
and apply the rules of `LogitsDataset` with its messages.  `load_dataset`
reads the whole matrix in one call, for callers that need it in memory
(splits, tuning).  `LogitsFile` keeps the file open and reads the logits
a row block at a time, for callers that walk `maps.row_blocks` (the CLI's
calibrate, predict and evaluate): they then hold no n-by-K float matrix.
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

# Matrix cells (rows x classes) that `LogitsFile` checks at a time when it
# opens a file.
_CHECK_CELLS = 1 << 16


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
        _check_classes(k)
        if labels.shape != (n,):
            raise ValidationError(
                f"labels must have shape ({n},), got {labels.shape}"
            )
        _check_finite(logits, 0)
        _check_labels(labels, k)
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

    def logit_rows(self, rows: slice) -> np.ndarray:
        """``logits[rows]``, the accessor `maps.apply_map_dataset` reads."""
        return self.logits[rows]

    def take(self, rows: np.ndarray) -> "LogitsDataset":
        """Dataset restricted to the given row indices, in that order."""
        return LogitsDataset(self.logits[rows], self.labels[rows])


def _check_classes(k: int) -> None:
    if k < 2:
        raise ValidationError(f"class count must be >= 2, got {k}")


def _check_finite(logits: np.ndarray, first: int) -> None:
    """Reject a non-finite row of ``logits``, whose first row is row ``first``."""
    finite = np.isfinite(logits)
    # one flat reduction first: the row-wise one costs about 4 times as much at K = 50
    if not finite.all():
        bad = np.flatnonzero(~finite.all(axis=1))
        raise ValidationError(f"non-finite logit in row {first + bad[0]}")


def _check_labels(labels: np.ndarray, k: int) -> None:
    out = np.flatnonzero((labels < 0) | (labels >= k))
    if out.size:
        raise ValidationError(
            f"label out of range in row {out[0]}: {labels[out[0]]} not in [0, {k})"
        )


class LogitsFile:
    """A binary dataset file, validated as `load_dataset` validates it, whose
    logits are read a row block at a time.

    Opening reads the header and the labels, then checks every logits row
    a block of about ``_CHECK_CELLS`` cells at a time, with the rules, order
    and messages of `LogitsDataset`: every row finite, then every label in
    range.  `logit_rows` then reads the rows asked for through the one open
    file, and checks again that the file still holds them and that they are
    finite, so a file changed after it was opened is a ValidationError too.
    ``n``, ``k`` and the read-only ``labels`` are those of `LogitsDataset`.
    Use it in a ``with`` statement, or call `close`.
    """

    def __init__(self, path):
        # unbuffered: every read is of the file as it is now
        self._fh = open(path, "rb", buffering=0)
        try:
            self.n, self.k, labels = _read_head(self._fh)
            _check_classes(self.k)
            self._logits_at = self._fh.tell()
            step = max(1, _CHECK_CELLS // self.k)
            block = np.empty((min(step, self.n), self.k), dtype="<f8")
            for first in range(0, self.n, step):
                rows = block[: min(step, self.n - first)]
                _read_into(self._fh, rows)
                _check_finite(rows, first)
            _check_labels(labels, self.k)
        except BaseException:
            self._fh.close()
            raise
        labels.setflags(write=False)
        self.labels = labels

    def logit_rows(self, rows: slice) -> np.ndarray:
        """The logits of ``rows``, a slice of consecutive rows, read from the file."""
        start, stop, step = rows.indices(self.n)
        if step != 1:
            raise ValueError(f"LogitsFile reads consecutive rows only, got step {step}")
        block = np.empty((max(0, stop - start), self.k), dtype="<f8")
        self._fh.seek(self._logits_at + 8 * self.k * start)
        _read_into(self._fh, block)
        _check_finite(block, start)
        return block

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "LogitsFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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


def _read_head(fh) -> tuple[int, int, np.ndarray]:
    """(n, K, int64 labels) of the binary dataset file ``fh``, open at its
    start, after checking the header and the file size against it; ``fh`` is
    left at the first logit."""
    head_len = len(_MAGIC) + 1 + 8 + 4
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
    labels = np.empty(n, dtype="<u4")
    _read_into(fh, labels)
    return n, k, labels.astype(np.int64)


def _read_into(fh, arr: np.ndarray) -> None:
    """Fill the contiguous ``arr`` from ``fh`` straight into its own buffer."""
    buf = arr.reshape(-1).view(np.uint8)
    # an unbuffered read may stop short of the end of the file
    while buf.size:
        got = fh.readinto(buf)
        if not got:
            raise ValidationError("truncated file: data shorter than its header says")
        buf = buf[got:]


def _load_binary(path) -> LogitsDataset:
    with open(path, "rb") as fh:
        n, k, labels = _read_head(fh)
        # one read of the whole matrix: split and tune need it in memory
        logits = np.empty((n, k), dtype="<f8")
        _read_into(fh, logits)
    return LogitsDataset(logits, labels)
