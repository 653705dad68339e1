import functools
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from confsets import (
    LogitsDataset,
    SplitSpec,
    ValidationError,
    load_dataset,
    save_dataset,
    split_dataset,
)
from confsets import data
from confsets.data import LogitsFile, sniff_format


def make_ds(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return LogitsDataset(rng.standard_normal((n, k)), rng.integers(0, k, n))


def _open_binary(path):
    """Open and close a LogitsFile: it checks the whole file as it opens."""
    with LogitsFile(path):
        pass


# Both readers of the binary format; each must reject a bad file with the same message.
BINARY_READERS = (functools.partial(load_dataset, format="binary"), _open_binary)


def _write_binary(path, labels, logits):
    """Write a binary dataset file from arrays that need not make a valid LogitsDataset."""
    logits = np.asarray(logits, dtype="<f8")
    n, k = logits.shape
    path.write_bytes(b"CPLG\x01" + n.to_bytes(8, "little") + k.to_bytes(4, "little")
                     + np.asarray(labels, dtype="<u4").tobytes() + logits.tobytes())


# ---------------------------------------------------------------------------
# validation


def test_rejects_nan_logits():
    with pytest.raises(ValidationError, match="row 1"):
        LogitsDataset(np.array([[0.0, 1.0], [np.nan, 0.0]]), np.array([0, 1]))


def test_rejects_out_of_range_label():
    with pytest.raises(ValidationError, match="label out of range"):
        LogitsDataset(np.zeros((2, 3)), np.array([0, 3]))


@pytest.mark.parametrize("labels", [
    np.array([0.0, 1.7, 3.9]),   # would truncate to [0, 1, 3]
    np.array([True, False, True]),
    np.array(["1", "2", "0"]),
], ids=["float", "bool", "str"])
def test_rejects_non_integer_labels(labels):
    with pytest.raises(ValidationError, match="labels must be integers"):
        LogitsDataset(np.zeros((3, 4)), labels)


def test_rejects_single_class():
    with pytest.raises(ValidationError):
        LogitsDataset(np.zeros((2, 1)), np.array([0, 0]))


def test_dataset_is_immutable():
    ds = make_ds(3, 4)
    with pytest.raises(ValueError):
        ds.logits[0, 0] = 99.0


def test_dataset_views_leave_the_callers_arrays_writable():
    # arrays already of the stored dtypes are viewed, not copied or frozen
    logits, labels = np.zeros((3, 4)), np.array([0, 1, 2])
    ds = LogitsDataset(logits, labels)
    assert not ds.logits.flags.writeable and not ds.labels.flags.writeable
    assert logits.flags.writeable and labels.flags.writeable
    assert np.shares_memory(ds.logits, logits) and np.shares_memory(ds.labels, labels)


# ---------------------------------------------------------------------------
# csv format


def test_csv_parse_example(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text("label,logit_0,logit_1,logit_2\n0,2.0,1.0,0.0\n1,0.0,1.0,2.0\n")
    ds = load_dataset(path, "csv")
    assert ds.n == 2 and ds.k == 3
    assert list(ds.labels) == [0, 1]
    np.testing.assert_array_equal(ds.logits[0], [2.0, 1.0, 0.0])


def test_csv_nan_reports_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,logit_0,logit_1\n0,1.0,2.0\n1,nan,0.0\n")
    with pytest.raises(ValidationError, match="row 1"):
        load_dataset(path, "csv")


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lbl,logit_0,logit_1\n0,1.0,2.0\n")
    with pytest.raises(ValidationError, match="header"):
        load_dataset(path, "csv")


def test_csv_label_out_of_range(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,logit_0,logit_1\n5,1.0,2.0\n")
    with pytest.raises(ValidationError, match="row 0"):
        load_dataset(path, "csv")


def test_csv_label_beyond_int64(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,logit_0,logit_1\n0,1.0,2.0\n100000000000000000000000,1.0,2.0\n")
    with pytest.raises(ValidationError, match="label out of range"):
        load_dataset(path, "csv")


def test_csv_round_trip_exact(tmp_path):
    ds = make_ds(23, 5, seed=1)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path, "csv")
    back = load_dataset(path, "csv")
    np.testing.assert_array_equal(back.logits, ds.logits)
    np.testing.assert_array_equal(back.labels, ds.labels)


# ---------------------------------------------------------------------------
# binary format


def test_binary_round_trip_bit_exact(tmp_path):
    ds = make_ds(31, 7, seed=2)
    path = tmp_path / "ds.bin"
    save_dataset(ds, path, "binary")
    back = load_dataset(path, "binary")
    assert back.logits.tobytes() == ds.logits.tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_binary_empty_dataset(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"CPLG\x01" + (0).to_bytes(8, "little") + (3).to_bytes(4, "little"))
    for read in BINARY_READERS:
        with pytest.raises(ValidationError, match="empty dataset"):
            read(path)


def test_binary_truncated(tmp_path):
    ds = make_ds(4, 3)
    path = tmp_path / "ds.bin"
    save_dataset(ds, path, "binary")
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    for read in BINARY_READERS:
        with pytest.raises(ValidationError, match="truncated"):
            read(path)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "ds.bin"
    path.write_bytes(b"NOPE" + bytes(64))
    for read in BINARY_READERS:
        with pytest.raises(ValidationError, match="magic"):
            read(path)


@pytest.mark.parametrize("labels, logits, message", [
    ([0, 0], [[0.5], [1.0]], "class count must be >= 2, got 1"),
    ([0, 3], [[0.5, 1.0, 2.0], [1.0, 0.0, 0.0]], r"label out of range in row 1: 3 not in \[0, 3\)"),
    ([0, 1], [[0.5, 1.0], [np.inf, 0.0]], "non-finite logit in row 1"),
])
def test_binary_rejects_invalid_content(tmp_path, labels, logits, message):
    path = tmp_path / "bad.bin"
    _write_binary(path, labels, logits)
    for read in BINARY_READERS:
        with pytest.raises(ValidationError, match=message):
            read(path)


@pytest.mark.parametrize("bad_label_row, inf_row", [(0, 5), (None, 6)],
                         ids=["label-before-a-later-block", "last-block-only"])
def test_binary_checks_every_block_for_non_finite_rows_before_labels(
        tmp_path, monkeypatch, bad_label_row, inf_row):
    # LogitsFile checks 2 rows of K = 2 at a time, so row 6 is alone in the
    # last of 4 blocks; a label out of range in an earlier block still loses
    monkeypatch.setattr(data, "_CHECK_CELLS", 4)
    labels, logits = np.zeros(7, dtype=int), np.zeros((7, 2))
    if bad_label_row is not None:
        labels[bad_label_row] = 2
    logits[inf_row, 1] = -np.inf
    path = tmp_path / "bad.bin"
    _write_binary(path, labels, logits)
    for read in BINARY_READERS:
        with pytest.raises(ValidationError, match=f"^non-finite logit in row {inf_row}$"):
            read(path)


@pytest.mark.parametrize("cells", [4, 1 << 16])
def test_logits_file_reads_the_loaded_rows(tmp_path, monkeypatch, cells):
    monkeypatch.setattr(data, "_CHECK_CELLS", cells)
    ds = make_ds(9, 3, seed=4)
    path = tmp_path / "ds.bin"
    save_dataset(ds, path, "binary")
    with LogitsFile(path) as opened:
        assert (opened.n, opened.k) == (ds.n, ds.k)
        np.testing.assert_array_equal(opened.labels, ds.labels)
        assert not opened.labels.flags.writeable
        for rows in (slice(None), slice(0, 4), slice(4, 9), slice(8, 20), slice(5, 5)):
            assert opened.logit_rows(rows).tobytes() == ds.logit_rows(rows).tobytes()
        with pytest.raises(ValueError, match="consecutive rows"):
            opened.logit_rows(slice(0, 9, 2))


@pytest.mark.parametrize("change, message", [
    ("truncate", "^truncated file: data shorter than its header says$"),
    ("nan", "^non-finite logit in row 3$"),
])
def test_logits_file_rejects_rows_changed_after_it_opened(tmp_path, change, message):
    ds = make_ds(4, 3)
    path = tmp_path / "ds.bin"
    save_dataset(ds, path, "binary")
    with LogitsFile(path) as opened:
        # a buffered read of rows 0-2 would take in row 3 as it was
        assert opened.logit_rows(slice(0, 3)).tobytes() == ds.logits[:3].tobytes()
        if change == "truncate":
            os.truncate(path, path.stat().st_size - 8)
        else:
            with open(path, "r+b") as fh:
                fh.seek(-8, os.SEEK_END)
                fh.write(np.array([np.nan]).tobytes())
        with pytest.raises(ValidationError, match=message):
            opened.logit_rows(slice(3, 4))


def test_save_to_unwritable_location(tmp_path):
    ds = make_ds(2, 2)
    with pytest.raises(OSError):
        save_dataset(ds, tmp_path / "no_such_dir" / "ds.bin", "binary")


def test_sniff_format(tmp_path):
    ds = make_ds(3, 3)
    bin_path, csv_path = tmp_path / "a.bin", tmp_path / "a.csv"
    save_dataset(ds, bin_path, "binary")
    save_dataset(ds, csv_path, "csv")
    assert sniff_format(bin_path) == "binary"
    assert sniff_format(csv_path) == "csv"


@given(st.integers(2, 40), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_binary_round_trip_property(n, k, seed):
    import os
    import tempfile

    ds = make_ds(n, k, seed=seed)
    fd, path = tempfile.mkstemp(suffix=".bin")
    os.close(fd)
    try:
        save_dataset(ds, path, "binary")
        back = load_dataset(path, "binary")
        assert back.logits.tobytes() == ds.logits.tobytes()
        np.testing.assert_array_equal(back.labels, ds.labels)
    finally:
        os.unlink(path)


# ---------------------------------------------------------------------------
# splitting


def test_split_no_shuffle_is_contiguous():
    ds = make_ds(10, 3)
    parts = split_dataset(ds, SplitSpec({"a": 0.5, "b": 0.5}, shuffle=False))
    np.testing.assert_array_equal(parts["a"].logits, ds.logits[:5])
    np.testing.assert_array_equal(parts["b"].logits, ds.logits[5:])


def test_split_deterministic_in_seed():
    ds = make_ds(40, 4)
    spec = SplitSpec({"a": 0.5, "b": 0.5}, seed=9, shuffle=True)
    first = split_dataset(ds, spec)
    second = split_dataset(ds, spec)
    for name in ("a", "b"):
        np.testing.assert_array_equal(first[name].logits, second[name].logits)


def test_split_nested_protocol_sizes():
    ds = make_ds(10000, 2)
    top = split_dataset(ds, SplitSpec({"conformal": 0.5, "validation": 0.5}, seed=1))
    assert top["conformal"].n == 5000 and top["validation"].n == 5000
    inner = split_dataset(top["validation"], SplitSpec({"tau": 0.5, "loss": 0.5}, seed=2))
    assert inner["tau"].n == 2500 and inner["loss"].n == 2500


def test_split_rejects_bad_fractions():
    ds = make_ds(10, 2)
    with pytest.raises(ValidationError):
        split_dataset(ds, SplitSpec({"a": 0.5, "b": 0.4}))
    # a bool would count as 1, and a string would fail the comparison as a TypeError
    for frac in (True, "0.5"):
        with pytest.raises(ValidationError, match="^fraction for part 'a' must be"):
            SplitSpec({"a": frac})
    # a float seed would fail in numpy as a TypeError, and "no" would shuffle
    for options, field in (({"seed": 1.5}, "seed"), ({"seed": -1}, "seed"),
                           ({"shuffle": "no"}, "shuffle")):
        with pytest.raises(ValidationError, match=f"^{field} must be"):
            SplitSpec({"a": 0.5, "b": 0.5}, **options)


def test_split_rejects_too_small():
    ds = make_ds(2, 2)
    with pytest.raises(ValidationError):
        split_dataset(ds, SplitSpec({"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}))


@given(
    st.integers(4, 60),
    st.integers(0, 2**31),
    st.booleans(),
    st.lists(st.sampled_from("abcd"), min_size=2, max_size=4, unique=True),
)
def test_split_partition_property(n, seed, shuffle, names):
    ds = make_ds(n, 3, seed=n)
    frac = 1.0 / len(names)
    fractions = {name: frac for name in names}
    parts = split_dataset(ds, SplitSpec(fractions, seed=seed, shuffle=shuffle))
    total = sum(p.n for p in parts.values())
    assert total == n
    # disjoint + exhaustive: row multiset must match exactly
    all_rows = np.concatenate([p.logits for p in parts.values()])
    key = np.lexsort(all_rows.T)
    orig_key = np.lexsort(ds.logits.T)
    np.testing.assert_array_equal(all_rows[key], ds.logits[orig_key])
