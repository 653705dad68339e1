"""Tuned calibration maps versus the identity map on overconfident logits.

Replicates the headline efficiency comparison at desk scale: generate
sharp synthetic logits, tune the temperature on a validation split by
minimizing the mean squared efficiency gap, then compare prediction-set
sizes on held-out data at equal coverage.

Example:
    python scripts/run_efficiency_experiment.py --seeds 5
"""

import argparse

import numpy as np

import confsets as cs
from confsets.tuning import TuneConfig, tune_map


def one_seed(seed, args):
    ds = cs.generate(cs.SynthSpec(n=args.n, k=args.k, seed=seed, signal=args.signal,
                                  noise=args.noise, overconfidence=args.overconfidence))
    top = cs.split_dataset(ds, cs.SplitSpec({"calibration": 0.5, "test": 0.5},
                                            seed=seed, shuffle=True))
    inner = cs.split_dataset(top["calibration"],
                             cs.SplitSpec({"validation": 0.5, "conformal": 0.5},
                                          seed=seed + 1, shuffle=True))
    tuned, report = tune_map(inner["validation"], args.alpha, "temperature",
                             TuneConfig(seed=seed))
    spec = cs.ScoreSpec(kind="aps", randomized=True, rng_seed=seed)
    rows = {}
    for name, cal_map in (("identity", cs.CalibrationMap.identity()),
                          ("tuned", tuned)):
        result = cs.run_pipeline(inner["conformal"], top["test"], cal_map,
                                 spec, args.alpha)
        rows[name] = cs.coverage_and_size(result.mask, top["test"].labels)
    return tuned.t, rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--n", type=int, default=40000)
    ap.add_argument("--k", type=int, default=50)
    ap.add_argument("--signal", type=float, default=4.0)
    ap.add_argument("--noise", type=float, default=1.0)
    ap.add_argument("--overconfidence", type=float, default=3.0)
    args = ap.parse_args()

    print(f"{'seed':>4} {'tuned t':>8} {'cov(id)':>8} {'size(id)':>9} "
          f"{'cov(tuned)':>10} {'size(tuned)':>11}")
    all_rows = []
    for seed in range(args.seeds):
        t, rows = one_seed(seed, args)
        all_rows.append(rows)
        print(f"{seed:>4} {t:>8.4f} {rows['identity'][0]:>8.4f} "
              f"{rows['identity'][1]:>9.3f} {rows['tuned'][0]:>10.4f} "
              f"{rows['tuned'][1]:>11.3f}")
    mean = lambda name, i: np.mean([r[name][i] for r in all_rows])  # noqa: E731
    print(f"{'mean':>4} {'':>8} {mean('identity', 0):>8.4f} {mean('identity', 1):>9.3f} "
          f"{mean('tuned', 0):>10.4f} {mean('tuned', 1):>11.3f}")


if __name__ == "__main__":
    main()
