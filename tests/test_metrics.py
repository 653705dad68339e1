import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from confsets import (
    CalibrationMap,
    LogitsDataset,
    SynthSpec,
    ValidationError,
    build_report,
    coverage_and_size,
    expected_calibration_error,
    generate,
    size_by_rank,
    truncation_diagnostic,
)
from confsets.metrics import DEFAULT_RANK_EDGES, rank_bins
from confsets.scores import label_ranks

from oracles import oracle_order


def make_sets(member_lists, k):
    """The n-by-K set mask holding each row's member list."""
    mask = np.zeros((len(member_lists), k), dtype=bool)
    for i, members in enumerate(member_lists):
        mask[i, np.asarray(members, dtype=np.int64)] = True
    return mask


# ---------------------------------------------------------------------------
# coverage / size


def test_full_sets_cover_everything():
    sets = make_sets([[0, 1, 2]] * 4, 3)
    cov, size = coverage_and_size(sets, [0, 1, 2, 0])
    assert cov == 1.0 and size == 3.0


def test_empty_sets():
    cov, size = coverage_and_size(make_sets([[], []], 2), [0, 1])
    assert cov == 0.0 and size == 0.0


def test_half_coverage_example():
    cov, size = coverage_and_size(make_sets([[0], [1]], 2), [0, 0])
    assert cov == 0.5 and size == 1.0


def test_coverage_and_size_match_per_row_membership():
    rng = np.random.default_rng(0)
    k = 7
    member_lists = [sorted(rng.choice(k, size=rng.integers(0, k + 1), replace=False))
                    for _ in range(200)]
    labels = rng.integers(0, k, size=len(member_lists))
    covered = sum(bool(np.isin(y, m)) for m, y in zip(member_lists, labels))
    total = sum(len(m) for m in member_lists)
    expected = (covered / len(labels), total / len(labels))
    assert coverage_and_size(make_sets(member_lists, k), labels) == expected


def test_length_mismatch():
    with pytest.raises(ValidationError):
        coverage_and_size(make_sets([[0]], 2), [0, 1])


# ---------------------------------------------------------------------------
# ece


def test_ece_zero_for_one_hot_consistent():
    probs = np.eye(4)[[0, 1, 2, 3, 1, 2]]
    labels = probs.argmax(axis=1)
    assert expected_calibration_error(probs, labels, 15) == 0.0


def test_ece_single_bin_gap():
    # conf 0.8 everywhere, accuracy 0.6 -> ece = 0.2
    probs = np.tile([0.8, 0.2], (5, 1))
    labels = np.array([0, 0, 0, 1, 1])
    assert expected_calibration_error(probs, labels, 1) == pytest.approx(0.2, abs=1e-15)


def test_ece_two_bins_weighted():
    # bin (0.8, 0.9]: conf 0.9, acc 0.8 (gap 0.1); bin (0.5, 0.6]: gap 0.0
    probs = np.array([[0.9, 0.1]] * 10 + [[0.6, 0.4]] * 10)
    labels = np.array([0] * 8 + [1] * 2 + [0] * 6 + [1] * 4)
    got = expected_calibration_error(probs, labels, 10)
    assert got == pytest.approx(0.05, abs=1e-12)


def test_ece_zero_confidence_goes_to_first_bin():
    # K=2 top-1 confidence is always >= 0.5; use the binning helper directly
    probs = np.array([[0.5, 0.5]])
    labels = np.array([0])
    # falls in bin ceil(0.5*2)-1 = 0 with M=2; accuracy 1, conf 0.5 -> gap 0.5
    assert expected_calibration_error(probs, labels, 2) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# size by rank


def rank_rows_for(probs, labels):
    return label_ranks(np.asarray(probs), np.asarray(labels))


def test_size_by_rank_basic_bins():
    probs = np.array([
        [0.7, 0.2, 0.06, 0.04],  # label 0 -> rank 1
        [0.7, 0.2, 0.06, 0.04],  # label 1 -> rank 2
        [0.7, 0.2, 0.06, 0.04],  # label 3 -> rank 4
    ])
    labels = [0, 1, 3]
    sets = make_sets([[0], [0, 1], [0, 1, 2, 3]], 4)
    out = size_by_rank(sets, rank_rows_for(probs, labels))
    assert out["1"] == (1, 1.0)
    assert out["2-3"] == (1, 2.0)
    assert out["4"] == (1, 4.0)


def test_default_bins_clip_to_k():
    def default(k):
        return rank_bins(DEFAULT_RANK_EDGES, k)

    assert default(10) == [(1, 1), (2, 3), (4, 6), (7, 10)]
    assert default(200) == [(1, 1), (2, 3), (4, 6), (7, 10), (11, 100), (101, 200)]
    assert default(2) == [(1, 1), (2, 2)]
    assert default(101) == [(1, 1), (2, 3), (4, 6), (7, 10), (11, 100), (101, 101)]


def test_custom_rank_edges():
    assert rank_bins((2, 5), 10) == [(1, 2), (3, 5), (6, 10)]
    assert rank_bins((2, 10), 10) == [(1, 2), (3, 10)]
    assert rank_bins((4, 50), 3) == [(1, 3)]


def test_overlapping_bins_rejected():
    # edges that decrease, repeat or sit below 1 would give overlapping or
    # empty bins
    probs = np.array([[0.6, 0.4]])
    sets = make_sets([[0]], 2)
    for edges in ((3, 1), (1, 1), (2, 2, 5), (0, 5), (-1,), (1.5, 3), (True, 3)):
        with pytest.raises(ValidationError, match="strictly increasing"):
            rank_bins(edges, 10)
        with pytest.raises(ValidationError, match="strictly increasing"):
            size_by_rank(sets, rank_rows_for(probs, [0]), edges)


def test_all_rank_one_means():
    probs = np.tile([0.5, 0.3, 0.2], (6, 1))
    sets = make_sets([[0, 1, 2]] * 6, 3)
    out = size_by_rank(sets, rank_rows_for(probs, [0] * 6))
    assert out["1"] == (6, 3.0)
    assert out["2-3"] == (0, 0.0)


@given(st.integers(0, 1000))
def test_rank_bin_means_reconstruct_average_size(seed):
    rng = np.random.default_rng(seed)
    n, k = 40, 12
    probs = rng.dirichlet(np.ones(k), size=n)
    labels = rng.integers(0, k, n)
    sets = make_sets([rng.choice(k, size=rng.integers(0, k), replace=False)
                      for _ in range(n)], k)
    out = size_by_rank(sets, rank_rows_for(probs, labels))
    _, avg_size = coverage_and_size(sets, labels)
    weighted = sum(count * mean for count, mean in out.values()) / n
    assert weighted == pytest.approx(avg_size, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_report_rank_bins_match_per_row_reference(seed):
    # ties and exact zeros: each row's rank comes from oracle_order
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 30)), int(rng.integers(2, 15))
    weights = rng.integers(0, 3, size=(n, k)).astype(float)
    weights[:, 0] += 1.0
    probs = weights / weights.sum(axis=1, keepdims=True)
    labels = rng.integers(0, k, n)
    mask = rng.random((n, k)) < 0.4
    ds = LogitsDataset(np.zeros((n, k)), labels)
    got = build_report(mask, ds, probs).size_by_rank_bin
    ranks = [oracle_order(list(row)).index(y) + 1 for row, y in zip(probs, labels)]
    sizes = [int(row.sum()) for row in mask]
    expected = {}
    for lo, hi in rank_bins(DEFAULT_RANK_EDGES, k):
        in_bin = [s for r, s in zip(ranks, sizes) if lo <= r <= hi]
        label = str(lo) if lo == hi else f"{lo}-{hi}"
        expected[label] = (len(in_bin), sum(in_bin) / len(in_bin) if in_bin else 0.0)
    assert got == expected


# ---------------------------------------------------------------------------
# truncation


def test_no_truncation_moderate_spread():
    ds = generate(SynthSpec(n=200, k=10, seed=3, signal=5, noise=2))
    frac, zeros = truncation_diagnostic(CalibrationMap.temperature(1.0), ds, "f64")
    assert frac == 0.0
    assert zeros.sum() == 0


def test_f32_truncation_wide_gap():
    ds = LogitsDataset(np.array([[30.0, 0.0], [25.0, 0.0]]), np.array([0, 0]))
    frac, zeros = truncation_diagnostic(CalibrationMap.temperature(0.12), ds, "f32")
    assert frac > 0.0
    assert zeros.max() >= 1


def test_equal_logits_never_truncate():
    ds = LogitsDataset(np.full((5, 4), 2.5), np.zeros(5, dtype=int))
    for t in (0.01, 0.1, 1.0):
        frac, _ = truncation_diagnostic(CalibrationMap.temperature(t), ds, "f32")
        assert frac == 0.0


def test_truncation_requires_temperature_map():
    ds = generate(SynthSpec(n=10, k=3, seed=0))
    with pytest.raises(ValidationError):
        truncation_diagnostic(CalibrationMap.identity(), ds, "f32")


def test_truncated_fraction_monotone_in_t():
    ds = generate(SynthSpec(n=500, k=20, seed=9, signal=10, noise=6))
    fractions = []
    for t in (0.5, 0.4, 0.3, 0.2, 0.15, 0.1):
        frac, _ = truncation_diagnostic(CalibrationMap.temperature(t), ds, "f32")
        fractions.append(frac)
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
