import tracemalloc

import numpy as np
import pytest

from confsets import (
    CalibrationMap,
    SynthSpec,
    ValidationError,
    apply_map_dataset,
    expected_calibration_error,
    generate,
    generate_paired_shifted,
)
from confsets.tuning import minimize_on_log_grid


def test_noiseless_limit_is_perfectly_accurate():
    ds = generate(SynthSpec(n=500, k=8, seed=0, signal=2.0, noise=1e-9))
    assert (ds.logits.argmax(axis=1) == ds.labels).all()


def test_generation_deterministic():
    spec = SynthSpec(n=200, k=5, seed=42, signal=1.5, noise=0.7, overconfidence=2.0)
    a, b = generate(spec), generate(spec)
    np.testing.assert_array_equal(a.logits, b.logits)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_overconfidence_scales_logits():
    base = generate(SynthSpec(n=100, k=4, seed=3, signal=1.0, noise=0.5))
    scaled = generate(SynthSpec(n=100, k=4, seed=3, signal=1.0, noise=0.5,
                                overconfidence=3.0))
    np.testing.assert_allclose(scaled.logits, 3.0 * base.logits, rtol=1e-15)


def test_generate_scales_the_noise_in_place():
    # one n-by-K buffer is drawn and becomes the logits
    spec = SynthSpec(n=2000, k=500, seed=2, signal=1.5, noise=0.7, overconfidence=2.0)
    tracemalloc.start()
    try:
        ds = generate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * ds.logits.nbytes
    rng = np.random.default_rng(spec.seed)
    labels = rng.integers(0, spec.k, size=spec.n)
    logits = spec.noise * rng.standard_normal((spec.n, spec.k))
    logits[np.arange(spec.n), labels] += spec.signal
    np.testing.assert_array_equal(ds.logits, logits * spec.overconfidence)
    np.testing.assert_array_equal(ds.labels, labels)


def test_invalid_specs_rejected():
    with pytest.raises(ValidationError):
        SynthSpec(n=0, k=5)
    with pytest.raises(ValidationError):
        SynthSpec(n=5, k=1)
    with pytest.raises(ValidationError):
        SynthSpec(n=5, k=5, noise=-1.0)
    # not integers: the floats would fail in numpy as a TypeError, and True
    # would draw one row
    for options, field in (({"n": 10.5}, "n"), ({"k": 3.0}, "k"), ({"seed": 1.5}, "seed"),
                           ({"n": True}, "n")):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer"):
            SynthSpec(**{"n": 5, "k": 5, **options})


def test_paired_shift_zero_is_same_generator():
    base, other = generate_paired_shifted(SynthSpec(n=4000, k=10, seed=1), shift=0.0)
    acc_base = (base.logits.argmax(axis=1) == base.labels).mean()
    acc_other = (other.logits.argmax(axis=1) == other.labels).mean()
    assert base.n == other.n and base.k == other.k
    assert abs(acc_base - acc_other) < 0.05
    assert not np.array_equal(base.logits, other.logits)


def test_paired_shift_lowers_accuracy():
    diffs = []
    for seed in range(10):
        base, harder = generate_paired_shifted(
            SynthSpec(n=2000, k=10, seed=seed, signal=2.0, noise=1.0), shift=1.0
        )
        acc_base = (base.logits.argmax(axis=1) == base.labels).mean()
        acc_hard = (harder.logits.argmax(axis=1) == harder.labels).mean()
        diffs.append(acc_base - acc_hard)
    assert np.mean(diffs) > 0.05


def test_paired_shift_validates():
    with pytest.raises(ValidationError):
        generate_paired_shifted(SynthSpec(n=10, k=3, signal=2.0), shift=2.0)


@pytest.mark.parametrize("shift", [float("nan"), float("-inf")])
def test_paired_shift_must_be_finite(shift):
    # a NaN shift passes `shift >= signal`, and -inf is below it; either
    # would make every label's logit non-finite
    with pytest.raises(ValidationError, match="shift must be finite"):
        generate_paired_shifted(SynthSpec(n=10, k=3, signal=2.0), shift=shift)


@pytest.mark.parametrize("field", ["signal", "noise", "overconfidence"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_synth_spec_takes_only_positive_finite_scales(field, value):
    # NaN passes `value <= 0`; it and inf would surface later as a
    # non-finite logit
    with pytest.raises(ValidationError, match=f"{field} must be positive and finite"):
        SynthSpec(n=10, k=3, **{field: value})


def _nll(ds, t):
    probs = apply_map_dataset(CalibrationMap.temperature(t), ds)
    picked = probs[np.arange(ds.n), ds.labels]
    return -np.mean(np.log(np.maximum(picked, 1e-300)))


def test_overconfident_data_has_nll_temperature_above_one():
    ds = generate(SynthSpec(n=6000, k=10, seed=5, signal=2.0, noise=1.0,
                            overconfidence=3.0))
    t_nll, _, _ = minimize_on_log_grid(lambda t: _nll(ds, t), 0.2, 10.0, 64)
    assert t_nll > 1.0  # overconfident: nll wants a softer map
    ece_raw = expected_calibration_error(
        apply_map_dataset(CalibrationMap.identity(), ds), ds.labels)
    ece_cal = expected_calibration_error(
        apply_map_dataset(CalibrationMap.temperature(t_nll), ds), ds.labels)
    assert ece_raw > ece_cal


def test_pipeline_coverage_on_split_halves():
    from confsets import ScoreSpec, SplitSpec, coverage_and_size, run_pipeline, split_dataset

    covs = []
    for seed in range(20):
        ds = generate(SynthSpec(n=20000, k=20, seed=seed, signal=2.0, noise=1.0))
        halves = split_dataset(ds, SplitSpec({"cal": 0.5, "test": 0.5}, seed=seed))
        spec = ScoreSpec(kind="aps", randomized=True, rng_seed=seed)
        result = run_pipeline(halves["cal"], halves["test"],
                              CalibrationMap.identity(), spec, 0.1)
        cov, _ = coverage_and_size(result.mask, halves["test"].labels)
        covs.append(cov)
    assert 0.89 <= np.mean(covs) <= 0.92
