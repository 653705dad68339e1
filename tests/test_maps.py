import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from confsets import (
    CalibrationMap,
    LogitsDataset,
    ValidationError,
    apply_map_dataset,
    load_map,
    save_map,
)
from confsets.data import LogitsFile, save_dataset
from confsets.maps import probability_blocks, softmax

from oracles import oracle_softmax

# coarse grid keeps hypothesis away from sub-ulp logit ties, where exp()
# rounding can merge distinct logits
logit_values = st.integers(-40, 40).map(lambda v: v / 4.0)
logit_rows = st.lists(logit_values, min_size=2, max_size=12)


def probs_of(cal_map, row, precision="f64"):
    """The probability row of a one-row dataset holding ``row``."""
    ds = LogitsDataset(np.asarray([row], dtype=np.float64), [0])
    return apply_map_dataset(cal_map, ds, precision=precision)[0]


def test_temperature_one_matches_oracle():
    row = [2.0, 1.0, 0.0]
    got = probs_of(CalibrationMap.temperature(1.0), row)
    np.testing.assert_allclose(got, oracle_softmax(row), rtol=0, atol=1e-15)
    np.testing.assert_allclose(got, [0.665241, 0.244728, 0.090031], atol=5e-7)


def test_temperature_half_sharpens():
    got = probs_of(CalibrationMap.temperature(0.5), [2.0, 1.0, 0.0])
    np.testing.assert_allclose(got, oracle_softmax([4.0, 2.0, 0.0]), atol=1e-15)
    assert abs(got[0] - 0.866813) < 5e-7


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(1, 7), (70, 1000)])
def test_softmax_is_bitwise_the_three_temporary_form(dtype, shape):
    z = (np.random.default_rng(3).standard_normal(shape) * 300.0).astype(dtype)
    before = z.copy()
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    expected = e / np.sum(e, axis=-1, keepdims=True)
    got = softmax(z)
    assert got.dtype == dtype
    assert got.tobytes() == expected.tobytes()
    assert z.tobytes() == before.tobytes()
    # into a separate buffer, and in place
    buf = np.full_like(z, np.nan)
    assert softmax(z, out=buf) is buf
    assert buf.tobytes() == expected.tobytes()
    assert z.tobytes() == before.tobytes()
    assert softmax(z, out=z) is z
    assert z.tobytes() == expected.tobytes()


def test_identity_map_writes_nothing():
    z = np.random.default_rng(5).standard_normal((4, 6))
    before, buf = z.copy(), np.full_like(z, np.nan)
    identity = CalibrationMap.identity()
    assert identity.transform_logits(z, out=z) is z
    assert identity.transform_logits(z, out=buf) is z
    assert z.tobytes() == before.tobytes()
    assert np.isnan(buf).all()


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("cal_map", [
    CalibrationMap.identity(), CalibrationMap.temperature(0.3), CalibrationMap.platt(2.0, -1.0),
    CalibrationMap.vector([0.5, 1.0, 1.5, 2.0, 0.8], [0.0, 0.2, -0.1, 0.3, 1.0]),
], ids=lambda m: m.kind)
def test_apply_map_dataset_into_a_buffer_is_bitwise_the_new_array(tmp_path, cal_map, precision):
    ds = LogitsDataset(np.random.default_rng(6).standard_normal((9, 5)) * 40.0,
                       np.zeros(9, dtype=np.int64))
    before = ds.logits.copy()
    save_dataset(ds, tmp_path / "ds.bin")
    dtype = np.float32 if precision == "f32" else np.float64
    with LogitsFile(tmp_path / "ds.bin") as opened:
        for source in (ds, opened):
            for rows in (slice(None), slice(2, 7)):
                want = apply_map_dataset(cal_map, source, precision, rows)
                assert want.dtype == dtype
                assert want.tobytes() == apply_map_dataset(cal_map, ds, precision, rows).tobytes()
            # the walk makes its blocks in one reused float64 buffer, undivided
            # at f64; divided, they are the new array's bits
            want = apply_map_dataset(cal_map, source, precision).astype(np.float64)
            for rows, e, s, _ in probability_blocks(cal_map, source, precision):
                assert (e / s[:, None]).tobytes() == want[rows].tobytes()
    assert ds.logits.tobytes() == before.tobytes()


def test_identity_map_leaves_dataset_logits_unchanged():
    ds = LogitsDataset(np.random.default_rng(4).standard_normal((30, 5)) * 50.0,
                       np.zeros(30, dtype=np.int64))
    before = ds.logits.copy()
    for precision in ("f64", "f32"):
        apply_map_dataset(CalibrationMap.identity(), ds, precision=precision)
    assert ds.logits.tobytes() == before.tobytes()


def test_equal_logits_give_uniform():
    for cal_map in (CalibrationMap.temperature(0.7),
                    CalibrationMap.platt(2.0, 1.0),
                    CalibrationMap.vector([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]),
                    CalibrationMap.identity()):
        got = probs_of(cal_map, [3.0, 3.0, 3.0])
        np.testing.assert_allclose(got, [1 / 3] * 3, atol=1e-15)


def test_huge_temperature_flattens():
    got = probs_of(CalibrationMap.temperature(1e9), [2.0, 1.0, 0.0])
    assert np.abs(got - 1 / 3).max() < 1e-9


def test_identity_equals_temperature_one():
    rng = np.random.default_rng(0)
    ds = LogitsDataset(rng.standard_normal((50, 6)), rng.integers(0, 6, 50))
    a = apply_map_dataset(CalibrationMap.identity(), ds)
    b = apply_map_dataset(CalibrationMap.temperature(1.0), ds)
    np.testing.assert_array_equal(a, b)


def test_platt_neutral_equals_identity():
    rng = np.random.default_rng(1)
    ds = LogitsDataset(rng.standard_normal((20, 4)), rng.integers(0, 4, 20))
    a = apply_map_dataset(CalibrationMap.identity(), ds)
    b = apply_map_dataset(CalibrationMap.platt(1.0, 0.0), ds)
    np.testing.assert_array_equal(a, b)


def test_invalid_maps_rejected():
    with pytest.raises(ValidationError):
        CalibrationMap.temperature(0.0)
    with pytest.raises(ValidationError):
        CalibrationMap.temperature(-2.0)
    with pytest.raises(ValidationError):
        CalibrationMap.vector([1.0, 2.0], [0.0])
    with pytest.raises(ValidationError):
        probs_of(CalibrationMap.vector([1.0, 1.0], [0.0, 0.0]), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["w", "c"])
def test_vector_map_rejects_each_non_finite_parameter(bad, where):
    params = {"w": [1.0, 2.0, 0.5], "c": [0.0, -1.0, 3.0]}
    params[where][2] = bad
    with pytest.raises(ValidationError, match="^vector parameters must be finite$"):
        CalibrationMap.vector(**params)


@given(logit_rows)
def test_rows_normalize(row):
    got = probs_of(CalibrationMap.temperature(0.8), row)
    assert abs(got.sum() - 1.0) <= 1e-12
    assert (got >= 0).all()


@given(logit_rows, st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0, 5.0]))
def test_temperature_preserves_order(row, t):
    probs = probs_of(CalibrationMap.temperature(t), row)
    order_logits = np.argsort(-np.asarray(row), kind="stable")
    order_probs = np.argsort(-probs, kind="stable")
    np.testing.assert_array_equal(order_logits, order_probs)
    assert int(np.argmax(probs)) == int(np.argmax(row))


@given(logit_rows)
def test_sharpening_raises_top_probability(row):
    base = probs_of(CalibrationMap.temperature(1.0), row)
    sharp = probs_of(CalibrationMap.temperature(0.5), row)
    if len(set(row)) > 1:
        assert sharp.max() > base.max()
    else:
        assert abs(sharp.max() - base.max()) <= 1e-15


def test_f32_mode_differs_only_in_precision():
    row = np.array([30.0, 0.0])
    p64 = probs_of(CalibrationMap.temperature(0.12), row, precision="f64")
    p32 = probs_of(CalibrationMap.temperature(0.12), row, precision="f32")
    assert p64[1] > 0.0
    assert p32[1] == 0.0  # underflows in float32
    assert p32.dtype == np.float32


def test_map_json_round_trip(tmp_path):
    for cal_map in (CalibrationMap.temperature(0.6),
                    CalibrationMap.platt(1.5, -0.25),
                    CalibrationMap.vector([1.0, 0.5], [0.0, 0.1]),
                    CalibrationMap.identity()):
        path = tmp_path / "map.json"
        save_map(cal_map, path)
        assert load_map(path) == cal_map
        obj = json.loads(path.read_text())
        assert set(obj) == {"kind", "params"}


def test_map_json_exact_field_names(tmp_path):
    path = tmp_path / "map.json"
    save_map(CalibrationMap.vector([1.0, 2.0], [3.0, 4.0]), path)
    obj = json.loads(path.read_text())
    assert obj["params"] == {"w": [1.0, 2.0], "c": [3.0, 4.0]}
    save_map(CalibrationMap.platt(1.0, 0.5), path)
    assert json.loads(path.read_text())["params"] == {"a": 1.0, "b": 0.5}
    save_map(CalibrationMap.temperature(2.0), path)
    assert json.loads(path.read_text())["params"] == {"t": 2.0}
