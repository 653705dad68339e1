"""Temperature sweeps showing the finite-precision set blow-up.

Two demonstrations on synthetic logits:
  * float32 on wide-margin logits: as t shrinks, tail probabilities
    underflow to exact zeros, true-label scores pile up at 1, and the
    threshold degenerates, so sets grow instead of shrinking;
  * float64 on soft logits over a moderate grid: sharper maps give
    smaller sets, no truncation anywhere.

Example:
    python scripts/run_precision_sweep.py
"""

import argparse

import confsets as cs


def sweep(ds, grid, precision, alpha, seed):
    halves = cs.split_dataset(ds, cs.SplitSpec({"cal": 0.5, "test": 0.5},
                                               seed=seed, shuffle=True))
    spec = cs.ScoreSpec(kind="aps", randomized=True, rng_seed=seed)
    print(f"precision={precision}  n_cal={halves['cal'].n}  n_test={halves['test'].n}")
    print(f"{'t':>6} {'coverage':>9} {'avg size':>9} {'truncated rows':>15}")
    for t in grid:
        cal_map = cs.CalibrationMap.temperature(t)
        result = cs.run_pipeline(halves["cal"], halves["test"], cal_map, spec,
                                 alpha, precision=precision)
        cov, size = cs.coverage_and_size(result.mask, halves["test"].labels)
        frac, _ = cs.truncation_diagnostic(cal_map, halves["test"], precision=precision)
        print(f"{t:>6.3f} {cov:>9.4f} {size:>9.3f} {frac:>15.4f}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()

    wide = cs.generate(cs.SynthSpec(n=8000, k=20, seed=args.seed,
                                    signal=8.0, noise=8.0))
    sweep(wide, [0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.12, 0.1], "f32",
          args.alpha, args.seed)

    soft = cs.generate(cs.SynthSpec(n=40000, k=50, seed=args.seed,
                                    signal=1.0, noise=0.5))
    sweep(soft, [1.3, 1.15, 1.0, 0.85, 0.7, 0.55, 0.4], "f64",
          args.alpha, args.seed)


if __name__ == "__main__":
    main()
