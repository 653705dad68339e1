"""Empirical marginal-coverage check across score kinds and seeds.

Example:
    python scripts/run_coverage_study.py --seeds 20 --alpha 0.1
"""

import argparse
from dataclasses import replace

import numpy as np

import confsets as cs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--n-cal", type=int, default=2000)
    ap.add_argument("--n-test", type=int, default=10000)
    ap.add_argument("--k", type=int, default=20)
    args = ap.parse_args()

    specs = {
        "aps (randomized)": cs.ScoreSpec(kind="aps", randomized=True),
        "aps": cs.ScoreSpec(kind="aps"),
        "raps (randomized)": cs.ScoreSpec(kind="raps", randomized=True,
                                          raps_lambda=0.01, raps_kreg=1),
        "saps (randomized)": cs.ScoreSpec(kind="saps", randomized=True,
                                          saps_lambda=0.02),
        "lac": cs.ScoreSpec(kind="lac"),
    }
    print(f"alpha={args.alpha}  n_cal={args.n_cal}  n_test={args.n_test}  "
          f"k={args.k}  seeds={args.seeds}")
    print(f"{'score':<20} {'coverage':>9} {'avg size':>9}")
    for name, base in specs.items():
        covs, sizes = [], []
        for seed in range(args.seeds):
            cal = cs.generate(cs.SynthSpec(n=args.n_cal, k=args.k, seed=2 * seed,
                                           signal=2.0, noise=1.0))
            test = cs.generate(cs.SynthSpec(n=args.n_test, k=args.k, seed=2 * seed + 1,
                                            signal=2.0, noise=1.0))
            result = cs.run_pipeline(cal, test, cs.CalibrationMap.identity(),
                                     replace(base, rng_seed=seed), args.alpha)
            cov, size = cs.coverage_and_size(result.mask, test.labels)
            covs.append(cov)
            sizes.append(size)
        print(f"{name:<20} {np.mean(covs):>9.4f} {np.mean(sizes):>9.3f}")


if __name__ == "__main__":
    main()
