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

`LogitsFile` is the one reader of the binary format, with the rules,
order and messages of `LogitsDataset`.  Opening it checks the header, the
file size, the class count and the labels; each logit is read once, and
checked as it is first read, and a ``with`` block over it reads and
checks at its end the rows nothing read.  The CLI opens every binary
input as one, and `load_dataset` reads a binary file whole through it.
`split_dataset` gathers its parts from either one a row block at a time,
so split holds its parts, and tune its halves, but never a second copy of
the matrix.

`row_blocks` is the one walk of consecutive row blocks, of about
``_BLOCK_CELLS`` cells each, that every n-by-K stage takes.
`buffered_row_blocks` pairs it with one reused float64 block buffer:
`split_dataset`'s gather and `maps.probability_blocks` make each block
in it, so no float64 read allocates per block.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, ascii_lines, is_int, is_number

_MAGIC = b"CPLG"
_VERSION = 1

_FRACTION_SUM_TOL = 1e-12

# Matrix cells (rows x classes) in one block of `row_blocks`.  On
# the wide-k1000 benchmark (K = 1000, identity map, seeds 2-4, 2-core
# host), blocks of 2**16, 2**17 and 2**18 cells gave median wall times of
# 0.56, 0.55 and 0.58 s and peak RSS of 106, 108 and 112 MiB.
_BLOCK_CELLS = 1 << 16


def row_blocks(n: int, k: int) -> Iterator[slice]:
    """Consecutive row slices that cover n rows of k classes in order, the
    first the longest.

    A block spans ``_BLOCK_CELLS // k`` rows, and at least one, so a caller
    that reduces each block to per-row values never holds an n-by-K float
    matrix.
    """
    step = max(1, _BLOCK_CELLS // k)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def buffered_row_blocks(n: int, k: int) -> Iterator[tuple[slice, np.ndarray]]:
    """``(rows, buf)`` for each slice of `row_blocks`, where ``buf`` is an
    uninitialized float64 array of the rows' shape.

    Every ``buf`` is a view of one array, made for the first (longest)
    block, so a block's ``buf`` is overwritten by the next one's: a caller
    reduces it before it asks for the next.
    """
    whole = None
    for rows in row_blocks(n, k):
        if whole is None:
            whole = np.empty((rows.stop - rows.start, k))
        yield rows, whole[:rows.stop - rows.start]


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
        # a block at a time, so the check holds one block of flags, not n x K
        for rows in row_blocks(n, k):
            _check_finite(logits[rows], rows.start)
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

    def logit_rows(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """``logits[rows]``, the accessor `maps.apply_map_dataset` reads.

        The rows are a read-only view, never a copy: ``out``, the buffer a
        `LogitsFile` reads into, is left as it is.
        """
        return self.logits[rows]


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
    """A binary dataset file, validated with the rules of `LogitsDataset`,
    whose logits are read a row block at a time.

    Opening reads the header and the labels and checks the file size and
    the class count; it reads no logit.  Each row is checked when a read
    first takes it in: `logit_rows` checks that the file still holds the
    rows asked for and that they are finite, so a file changed after it
    was opened is a ValidationError too.  A ``with`` block that leaves
    rows unread, on a normal exit or when an Exception escapes it, reads
    and checks them as it ends, and a bad row's error then replaces the
    block's own (chained to it).  A label out of range is raised at open,
    after every row is checked.  So the errors come in the order of
    `LogitsDataset` (every row finite, then every label in range), and
    before any the block raises.  `close` alone checks nothing.
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
            # rows [0, _checked) are read and finite; _failed: a read has
            # raised the file's first error
            self._checked, self._failed = 0, False
            try:
                _check_labels(labels, self.k)
            except ValidationError:
                self._check_unread()  # a non-finite row wins over a label
                raise
        except BaseException:
            self._fh.close()
            raise
        labels.setflags(write=False)
        self.labels = labels

    def logit_rows(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The logits of ``rows``, a slice of consecutive rows, read from the file.

        With ``out``, a C-contiguous float64 array of the rows' shape, the
        file is read straight into it and ``out`` is returned.
        """
        start, stop, step = rows.indices(self.n)
        if step != 1:
            raise ValueError(f"LogitsFile reads consecutive rows only, got step {step}")
        shape = (max(0, stop - start), self.k)
        if out is None:
            block = np.empty(shape, dtype="<f8")
        elif out.shape == shape and out.dtype == np.dtype("<f8") and out.flags.c_contiguous:
            block = out
        else:
            # a reshape of any other array would read into a copy
            raise ValueError(f"out must be a C-contiguous {shape} float64 array")
        self._fh.seek(self._logits_at + 8 * self.k * start)
        try:
            _read_into(self._fh, block)
            _check_finite(block, start)
        except Exception:
            # a read past the checked rows leaves the rows before it to
            # `__exit__`, which names an earlier bad one first
            self._failed = self._failed or start <= self._checked
            raise
        if start <= self._checked:
            self._checked = max(self._checked, stop)
        return block

    def _check_unread(self) -> None:
        """Read and check every row past the checked prefix, a block at a time.

        A block is allocated only when it is read: one untouched buffer per
        step, after a step that read every row, moved the heap enough to
        raise a K = 50 chain's peak RSS by about 3 MiB."""
        for rows in row_blocks(self.n, self.k):
            if rows.stop > self._checked:
                self.logit_rows(rows)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "LogitsFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if not self._failed and (exc_type is None or issubclass(exc_type, Exception)):
                self._check_unread()
        finally:
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


def split_dataset(ds: LogitsDataset | LogitsFile, spec: SplitSpec) -> dict[str, LogitsDataset]:
    """Partition ``ds`` into named parts per ``spec``.

    Parts are disjoint and exhaustive.  Identical (ds, spec) always
    produce identical partitions.  Each part's rows are gathered from
    ``ds.logit_rows`` one `row_blocks` block at a time, so on a `LogitsFile`
    the parts are all that is held.
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
    for name, size in zip(names, sizes):
        if size < 1:
            raise ValidationError(
                f"part {name!r} would be empty; use a larger dataset or fraction"
            )
    # out holds the parts one after another: row order[j] goes to out[j]
    pos = np.empty(ds.n, dtype=np.intp)
    pos[order] = np.arange(ds.n)
    out = np.empty((ds.n, ds.k))
    for rows, buf in buffered_row_blocks(ds.n, ds.k):
        out[pos[rows]] = ds.logit_rows(rows, out=buf)
    del buf  # free the block buffer before each part checks its logits
    bounds = np.cumsum([0, *sizes])
    return {name: LogitsDataset(out[a:b], ds.labels[order[a:b]])
            for name, a, b in zip(names, bounds, bounds[1:])}


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
        with LogitsFile(path) as opened:
            # a block at a time, so the check holds one block of flags, not n x K
            logits = np.empty((opened.n, opened.k))
            for rows in row_blocks(opened.n, opened.k):
                opened.logit_rows(rows, out=logits[rows])
            return LogitsDataset(logits, opened.labels)
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
