"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see
them as they happen).
"""

import json
import math

import numpy as np
import pytest

import confsets as cs
from confsets.engine import conformal_level
from confsets.maps import apply_map_dataset
from confsets.scores import draw_u_many, label_ranks, score_matrix, true_label_scores
from confsets.tuning import (
    TuneConfig,
    efficiency_gap_loss,
    minimize_on_log_grid,
    split_validation,
    tune_map,
)

from oracles import oracle_quantile, oracle_set


def check(criterion, ok, detail):
    line = f"[acceptance] criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. exact coverage law


def test_criterion_1_coverage_law():
    covs = []
    for seed in range(20):
        cal = cs.generate(cs.SynthSpec(n=2000, k=20, seed=2 * seed, signal=2, noise=1))
        test = cs.generate(cs.SynthSpec(n=10000, k=20, seed=2 * seed + 1, signal=2, noise=1))
        spec = cs.ScoreSpec(kind="aps", randomized=True, rng_seed=seed)
        result = cs.run_pipeline(cal, test, cs.CalibrationMap.identity(), spec, 0.1)
        cov, _ = cs.coverage_and_size(result.mask, test.labels)
        covs.append(cov)
    mean = float(np.mean(covs))
    check(1, 0.900 <= mean <= 0.920,
          f"randomized aps mean coverage {mean:.4f} over 20 seeds (band [0.900, 0.920])")


# ---------------------------------------------------------------------------
# 2 & 3. score monotonicity in temperature


def _score_stack():
    """Non-randomized aps scores on 1000 distinct-logit rows over a 16-pt grid."""
    rng = np.random.default_rng(20)
    n, k = 1000, 10
    logits = rng.uniform(0.0, 3.0, size=(n, k))
    while len(np.unique(logits)) != logits.size:  # distinct entries required
        logits = rng.uniform(0.0, 3.0, size=(n, k))
    ds = cs.LogitsDataset(logits, np.zeros(n, dtype=np.int64))
    grid = np.linspace(0.1, 4.0, 16)
    spec = cs.ScoreSpec(kind="aps")
    stack = np.empty((n, k, grid.size))
    for j, t in enumerate(grid):
        probs = apply_map_dataset(cs.CalibrationMap.temperature(t), ds)
        stack[:, :, j] = score_matrix(spec, probs)
    return logits, stack, grid


@pytest.fixture(scope="module")
def score_stack():
    return _score_stack()


def test_criterion_2_score_monotone_in_t(score_stack):
    _, stack, grid = score_stack
    violations = 0
    worst = 0.0
    for i in range(grid.size):
        for j in range(i + 1, grid.size):
            gap = stack[:, :, i] - stack[:, :, j]  # score(t_small) - score(t_big)
            worst = min(worst, float(gap.min()))
            violations += int((gap < -1e-12).sum())
    check(2, violations == 0,
          f"{violations} violations over all class/pair combos (worst slack {worst:.2e})")


def test_criterion_3_epsilon_strictly_decreasing(score_stack):
    logits, stack, grid = score_stack
    # epsilon(k, t) = S(t) - S(t0) with t0 the largest grid temperature;
    # the class ranked last always scores 1, so epsilon is identically 0
    # there and the strictness claim applies to ranks 1..K-1
    eps = stack - stack[:, :, -1:]
    deepest = np.argmin(logits, axis=1)
    mask = np.ones(stack.shape[:2], dtype=bool)
    mask[np.arange(stack.shape[0]), deepest] = False
    sub = eps[mask][:, :-1]  # epsilon over t in the interior of (0, t0)
    diffs = sub[:, :-1] - sub[:, 1:]  # must be strictly positive
    violations = int((diffs <= 0).sum())
    check(3, violations == 0,
          f"{violations} non-strict steps; min strict margin {diffs.min():.3e}")


# ---------------------------------------------------------------------------
# 4. oracle equivalence for set construction


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(4)
    kinds = ("aps", "raps", "saps", "lac")
    mismatches = 0
    for trial in range(10_000):
        k = int(rng.integers(2, 12))
        probs = rng.dirichlet(np.ones(k))
        kind = kinds[trial % 4]
        randomized = bool(trial % 2) and kind != "lac"
        lam, kreg, slam = 0.08, 2, 0.05
        spec = cs.ScoreSpec(
            kind=kind,
            randomized=randomized,
            raps_lambda=lam if kind == "raps" else None,
            raps_kreg=kreg if kind == "raps" else None,
            saps_lambda=slam if kind == "saps" else None,
        )
        u = float(rng.uniform()) if spec.uses_u else None
        tau = float(rng.uniform(-0.1, 1.0 + lam * k))
        threshold = cs.calibrate_threshold([tau], 0.5, score_spec=spec)
        mask = cs.predict_sets(threshold, probs[None, :], None if u is None else np.asarray([u]))
        got = np.flatnonzero(mask[0]).tolist()
        expected = oracle_set(kind, list(probs), u if spec.uses_u else 1.0, tau,
                              raps_lam=lam, raps_kreg=kreg, saps_lam=slam)
        mismatches += got != expected
    check(4, mismatches == 0, f"{mismatches} mismatches on 10^4 random instances")


# ---------------------------------------------------------------------------
# 5. quantile correctness


def test_criterion_5_quantile_matches_oracle():
    rng = np.random.default_rng(5)
    bad = 0
    include_all_seen = 0
    for trial in range(1000):
        if trial % 4 == 0:
            n = int(rng.integers(1, 12))  # degenerate regime shows up here
        else:
            n = int(rng.integers(1, 300))
        alpha = float(rng.uniform(0.01, 0.6))
        scores = rng.uniform(0, 1, size=n)
        if trial % 7 == 0:
            scores = np.round(scores, 2)  # force ties
        expected = oracle_quantile(list(scores), alpha)
        got = cs.calibrate_threshold(scores, alpha)
        if expected is None:
            include_all_seen += 1
            bad += got.tau != math.inf
        else:
            bad += got.tau != expected
    check(5, bad == 0 and include_all_seen > 0,
          f"{bad} mismatches on 10^3 vectors ({include_all_seen} include-all cases)")


# ---------------------------------------------------------------------------
# 6 & 8. efficiency trend and the randomized-loss ablation


def _g3_protocol(seed):
    ds = cs.generate(cs.SynthSpec(n=40000, k=50, seed=seed, signal=4.0, noise=1.0,
                                  overconfidence=3.0))
    top = cs.split_dataset(ds, cs.SplitSpec({"calibration": 0.5, "test": 0.5},
                                            seed=seed, shuffle=True))
    inner = cs.split_dataset(top["calibration"],
                             cs.SplitSpec({"validation": 0.5, "conformal": 0.5},
                                          seed=seed + 1, shuffle=True))
    return inner["validation"], inner["conformal"], top["test"]


def _tune_temperature_randomized_loss(validation, alpha, cfg):
    """Test-only ablation: same optimizer, u draws injected into the loss."""
    d_tau, d_loss = split_validation(validation, cfg)
    spec = cs.ScoreSpec(kind="aps", randomized=True, rng_seed=cfg.seed)
    u_tau = draw_u_many(cfg.seed, np.arange(d_tau.n))
    u_loss = draw_u_many(cfg.seed, d_tau.n + np.arange(d_loss.n))

    def objective(t):
        cal_map = cs.CalibrationMap.temperature(t)
        s_tau = true_label_scores(spec, apply_map_dataset(cal_map, d_tau),
                                  d_tau.labels, u_tau)
        threshold = cs.calibrate_threshold(s_tau, alpha)
        s_loss = true_label_scores(spec, apply_map_dataset(cal_map, d_loss),
                                   d_loss.labels, u_loss)
        gaps = threshold.tau - s_loss
        return float(np.mean(gaps * gaps))

    t_best, _, _ = minimize_on_log_grid(objective, cfg.t_min, cfg.t_max, cfg.grid_points)
    return cs.CalibrationMap.temperature(t_best)


@pytest.fixture(scope="module")
def g3_results():
    out = {"identity": [], "tuned": [], "randomized_loss": [], "coverage_tuned": []}
    for seed in range(20):
        validation, conformal, test = _g3_protocol(seed)
        cfg = TuneConfig(seed=seed)
        tuned, _ = tune_map(validation, 0.1, "temperature", cfg)
        rand_map = _tune_temperature_randomized_loss(validation, 0.1, cfg)
        spec = cs.ScoreSpec(kind="aps", randomized=True, rng_seed=seed)
        for name, cal_map in (("identity", cs.CalibrationMap.identity()),
                              ("tuned", tuned), ("randomized_loss", rand_map)):
            result = cs.run_pipeline(conformal, test, cal_map, spec, 0.1)
            cov, size = cs.coverage_and_size(result.mask, test.labels)
            out[name].append(size)
            if name == "tuned":
                out["coverage_tuned"].append(cov)
    return {key: np.asarray(vals) for key, vals in out.items()}


def test_criterion_6_efficiency_trend(g3_results):
    tuned = g3_results["tuned"].mean()
    identity = g3_results["identity"].mean()
    coverage = g3_results["coverage_tuned"].mean()
    check(6, tuned < identity and coverage >= 0.89,
          f"mean size tuned {tuned:.3f} vs identity {identity:.3f}, "
          f"tuned coverage {coverage:.4f}")


def test_criterion_8_randomized_loss_ablation(g3_results):
    rand = g3_results["randomized_loss"].mean()
    tuned = g3_results["tuned"].mean()
    check(8, rand >= tuned,
          f"randomized-loss mean size {rand:.3f} >= non-randomized {tuned:.3f}")


# ---------------------------------------------------------------------------
# 7. tuner against a dense-grid oracle


def test_criterion_7_tuner_matches_dense_grid():
    # small-scale logits put the loss minimum in the interior of the
    # temperature window, with a single basin around it
    validation = cs.generate(cs.SynthSpec(n=6000, k=10, seed=11,
                                          signal=0.04, noise=0.02))
    cfg = TuneConfig(seed=3)
    tuned, _ = tune_map(validation, 0.1, "temperature", cfg)
    d_tau, d_loss = split_validation(validation, cfg)
    dense = np.geomspace(cfg.t_min, cfg.t_max, 10 * cfg.grid_points)
    values = [efficiency_gap_loss(cs.CalibrationMap.temperature(t), d_tau, d_loss, 0.1)
              for t in dense]
    oracle_t = float(dense[int(np.argmin(values))])
    diff = abs(tuned.t - oracle_t)
    check(7, diff < 1e-3,
          f"tuned t {tuned.t:.6f} vs dense-grid oracle {oracle_t:.6f} (|diff| {diff:.2e})")


# ---------------------------------------------------------------------------
# 9. low-precision pathology demo


def test_criterion_9_precision_demo(tmp_path):
    from confsets.cli import main

    wide = tmp_path / "wide.bin"
    assert main(["synth", "--n", "8000", "--k", "20", "--signal", "8", "--noise", "8",
                 "--overconfidence", "1", "--seed", "5", "--out", str(wide)]) == 0
    f32_out = tmp_path / "f32.json"
    assert main(["demo-precision", "--in", str(wide), "--alpha", "0.1",
                 "--t-grid", "0.5,0.4,0.3,0.25,0.2,0.15,0.12,0.1",
                 "--precision", "f32", "--seed", "5", "--out", str(f32_out)]) == 0
    f32 = json.loads(f32_out.read_text())["rows"]
    sizes32 = [row["average_size"] for row in f32]
    truncated = any(row["truncated_row_fraction"] > 0 for row in f32)
    blowup = sizes32[-1] > min(sizes32)

    soft = tmp_path / "soft.bin"
    assert main(["synth", "--n", "40000", "--k", "50", "--signal", "1.0",
                 "--noise", "0.5", "--overconfidence", "1", "--seed", "5",
                 "--out", str(soft)]) == 0
    f64_out = tmp_path / "f64.json"
    assert main(["demo-precision", "--in", str(soft), "--alpha", "0.1",
                 "--t-grid", "1.3,1.15,1.0,0.85,0.7,0.55,0.4",
                 "--precision", "f64", "--seed", "5", "--out", str(f64_out)]) == 0
    f64 = json.loads(f64_out.read_text())["rows"]
    sizes64 = [row["average_size"] for row in f64]
    monotone = all(b <= a for a, b in zip(sizes64, sizes64[1:]))
    no_trunc = all(row["truncated_row_fraction"] == 0 for row in f64)

    check(9, truncated and blowup and monotone and no_trunc,
          f"f32 truncation={truncated}, blow-up {sizes32[-1]:.2f} > min {min(sizes32):.2f}; "
          f"f64 sizes non-increasing={monotone}")


# ---------------------------------------------------------------------------
# 10. metric identities


def test_criterion_10_metric_identities():
    rng = np.random.default_rng(10)

    # (a) rank-bin means, weighted by counts, rebuild the average size
    n, k = 500, 30
    probs = rng.dirichlet(np.ones(k), size=n)
    labels = rng.integers(0, k, n)
    mask = rng.uniform(size=(n, k)) < 0.3
    by_rank = cs.size_by_rank(mask, label_ranks(probs, labels))
    _, avg = cs.coverage_and_size(mask, labels)
    weighted = sum(c * m for c, m in by_rank.values()) / n
    identity_a = abs(weighted - avg) <= 1e-12

    # (b) one-hot probabilities scored against their own argmax have zero ece
    one_hot = np.eye(k)[rng.integers(0, k, 400)]
    identity_b = cs.expected_calibration_error(one_hot, one_hot.argmax(axis=1)) == 0.0

    # (c) u = 1 randomized equals non-randomized, exactly, 10^4 instances
    mism = 0
    for kind in ("aps", "raps", "saps"):
        spec_r = cs.ScoreSpec(kind=kind, randomized=True,
                              raps_lambda=0.05 if kind == "raps" else None,
                              raps_kreg=1 if kind == "raps" else None,
                              saps_lambda=0.1 if kind == "saps" else None)
        spec_p = cs.ScoreSpec(kind=kind, randomized=False,
                              raps_lambda=0.05 if kind == "raps" else None,
                              raps_kreg=1 if kind == "raps" else None,
                              saps_lambda=0.1 if kind == "saps" else None)
        batch = rng.dirichlet(np.ones(8), size=3400)
        with_u = score_matrix(spec_r, batch, np.ones(batch.shape[0]))
        plain = score_matrix(spec_p, batch)
        mism += int((with_u != plain).sum())
    identity_c = mism == 0

    check(10, identity_a and identity_b and identity_c,
          f"rank-bin identity {identity_a}, one-hot ece {identity_b}, "
          f"u=1 identity {identity_c}")


# ---------------------------------------------------------------------------
# 11. end-to-end determinism


def test_criterion_11_cli_determinism(tmp_path):
    from confsets.cli import main

    def chain(root):
        root.mkdir()
        raw = root / "data.bin"
        main(["synth", "--n", "4000", "--k", "10", "--signal", "4", "--noise", "1",
              "--overconfidence", "1", "--seed", "21", "--out", str(raw)])
        main(["split", "--in", str(raw), "--parts",
              "validation:0.25,conformal:0.25,test:0.5", "--shuffle", "true",
              "--seed", "21", "--out-dir", str(root / "parts")])
        main(["tune", "--in", str(root / "parts" / "validation.bin"), "--alpha", "0.1",
              "--map", "temperature", "--seed", "21", "--out", str(root / "map.json")])
        main(["calibrate", "--in", str(root / "parts" / "conformal.bin"),
              "--alpha", "0.1", "--score", "raps", "--randomized", "true",
              "--lambda", "0.01", "--kreg", "1", "--params", str(root / "map.json"),
              "--seed", "21", "--out", str(root / "threshold.json")])
        main(["predict", "--in", str(root / "parts" / "test.bin"),
              "--threshold", str(root / "threshold.json"), "--seed", "21",
              "--out", str(root / "sets.jsonl")])
        main(["evaluate", "--sets", str(root / "sets.jsonl"),
              "--in", str(root / "parts" / "test.bin"), "--bins", "default",
              "--ece-bins", "15", "--threshold", str(root / "threshold.json"),
              "--out", str(root / "report.json")])
        names = ["data.bin", "map.json", "map.report.json", "threshold.json",
                 "sets.jsonl", "report.json",
                 "parts/validation.bin", "parts/conformal.bin", "parts/test.bin"]
        return {name: (root / name).read_bytes() for name in names}

    first = chain(tmp_path / "run1")
    second = chain(tmp_path / "run2")
    different = [name for name in first if first[name] != second[name]]
    check(11, not different,
          f"byte-identical outputs across reruns ({len(first)} files)"
          if not different else f"files differ: {different}")
