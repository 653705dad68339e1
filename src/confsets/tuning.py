"""Tune calibration-map parameters to shrink prediction sets.

The objective is the mean squared efficiency gap: split the validation
data into two halves, recompute the conformal threshold tau on the first
half at every parameter evaluation, and average (tau - s_i)^2 over the
second half, where s_i is the non-randomized aps score of the true
label.  Randomized scores are deliberately excluded from the loss; they
misestimate the gap.

Each tuner call ranks each half once: the first loss evaluation argsorts
every row, and later evaluations reuse that class order, re-sorting only
the rows the current map reorders.  Any non-increasing arrangement of a
row sums the same values in the same order, so the loss is bit-identical
to sorting from scratch for every map kind.

``tune_map`` is the one tuner for every map kind.  Temperature and Platt
are the same one-parameter family: softmax ignores a shift shared by all
classes, so Platt's b is pinned at 0 and its scale is a = 1/t.  Both are
minimized over t by a log-uniform grid followed by golden-section
refinement (robust to the kinks that the order-statistic tau introduces;
no gradients needed).  Vector maps scale and shift each class on its own,
which can reorder classes, so they use plain gradient descent with
central-difference gradients and a backtracking line search.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import LogitsDataset, SplitSpec, split_dataset
from .engine import calibrate_threshold
from .errors import ValidationError
from .maps import CalibrationMap, apply_map_dataset
from .scores import ScoreSpec, label_scores_from_sorted, sort_rows

_LOSS_SPEC = ScoreSpec(kind="aps", randomized=False)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TuneConfig:
    """Optimizer settings; alpha and the map kind are passed explicitly."""

    t_min: float = 0.05
    t_max: float = 5.0
    grid_points: int = 64
    refine_tol: float = 1e-4
    gd_step: float = 0.1
    gd_max_iters: int = 500
    gd_grad_eps: float = 1e-4
    gd_max_halvings: int = 20
    rel_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.t_min < self.t_max):
            raise ValidationError("temperature bounds must satisfy 0 < t_min < t_max")
        if self.grid_points < 1 or self.gd_max_iters < 1:
            raise ValidationError("grid and iteration counts must be >= 1")
        # `not (x > 0)` also rejects NaN.
        for name in ("refine_tol", "gd_grad_eps", "gd_step"):
            if not (getattr(self, name) > 0):
                raise ValidationError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.gd_max_halvings < 0:
            raise ValidationError(f"gd_max_halvings must be >= 0, got {self.gd_max_halvings}")
        if not (self.rel_tol >= 0):
            raise ValidationError(f"rel_tol must be >= 0, got {self.rel_tol}")


@dataclass(frozen=True)
class TuneReport:
    alpha: float
    final_loss: float
    iterations: int
    stalled: bool = False

    def to_json_dict(self) -> dict:
        return {"alpha": self.alpha, "final_loss": self.final_loss,
                "iterations": self.iterations, "stalled": self.stalled}


def efficiency_gap(tau: float, score_true: float) -> float:
    """tau minus the true label's score; >= 0 iff the label is covered."""
    return tau - score_true


def efficiency_gap_loss(cal_map: CalibrationMap, d_tau: LogitsDataset,
                        d_loss: LogitsDataset, alpha: float, *,
                        order_hints: list | None = None) -> float:
    """Mean squared gap on d_loss, with tau recomputed on d_tau.

    Uses the non-randomized aps score of each true label on both halves.
    ``order_hints`` is one tuner call's state: ``[tau_perm, loss_perm]``,
    each half's class order from the previous evaluation (None before the
    first).  The call reads and refreshes it, so every half is argsorted
    once and later evaluations re-sort only the rows the map reorders.
    The loss never depends on the hints.
    """
    if d_tau.k != d_loss.k:
        raise ValidationError("d_tau and d_loss class counts differ")
    hints = order_hints if order_hints is not None else [None, None]
    tau_scores = _true_label_loss_scores(cal_map, d_tau, hints, 0)
    threshold = calibrate_threshold(tau_scores, alpha, score_spec=_LOSS_SPEC,
                                    cal_map=cal_map)
    if threshold.tau == math.inf:
        raise ValidationError(
            f"d_tau has too few rows ({d_tau.n}) for alpha={alpha}; "
            "use a larger tau split"
        )
    loss_scores = _true_label_loss_scores(cal_map, d_loss, hints, 1)
    gaps = threshold.tau - loss_scores
    return float(np.mean(gaps * gaps))


def _true_label_loss_scores(cal_map: CalibrationMap, ds: LogitsDataset,
                            hints: list, half: int) -> np.ndarray:
    probs = apply_map_dataset(cal_map, ds)
    sorted_probs, hints[half] = sort_rows(probs, hints[half])
    return label_scores_from_sorted(_LOSS_SPEC, probs, sorted_probs, ds.labels, 1.0)


def split_validation(validation: LogitsDataset,
                     cfg: TuneConfig) -> tuple[LogitsDataset, LogitsDataset]:
    """The tuner's canonical halves: equal tau/loss split, shuffled by cfg.seed."""
    parts = split_dataset(
        validation,
        SplitSpec(fractions={"tau": 0.5, "loss": 0.5}, seed=cfg.seed, shuffle=True),
    )
    return parts["tau"], parts["loss"]


def minimize_on_log_grid(fn, lo: float, hi: float, grid_points: int,
                         refine_tol: float) -> tuple[float, float, int]:
    """Log-uniform grid scan plus golden-section refinement.

    Returns (argmin, min value, evaluation count).  The refinement
    bracket is the grid neighborhood of the grid argmin; ties go to the
    smaller argument.
    """
    grid = np.geomspace(lo, hi, grid_points) if grid_points > 1 else np.asarray([lo])
    values = [fn(float(t)) for t in grid]
    evals = len(values)
    i = int(np.argmin(values))
    best_x, best_f = float(grid[i]), float(values[i])
    a = float(grid[max(0, i - 1)])
    b = float(grid[min(grid_points - 1, i + 1)])
    if b - a > refine_tol:
        c = b - (b - a) * _INVPHI
        d = a + (b - a) * _INVPHI
        fc, fd = fn(c), fn(d)
        evals += 2
        for x, f in ((c, fc), (d, fd)):
            if f < best_f:
                best_x, best_f = x, f
        while b - a > refine_tol:
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - (b - a) * _INVPHI
                fc = fn(c)
                evals += 1
                if fc < best_f:
                    best_x, best_f = c, fc
            else:
                a, c, fc = c, d, fd
                d = a + (b - a) * _INVPHI
                fd = fn(d)
                evals += 1
                if fd < best_f:
                    best_x, best_f = d, fd
    return best_x, best_f, evals


# The one-parameter families, indexed by temperature t.
_SCALAR_MAPS = {
    "temperature": CalibrationMap.temperature,
    "platt": lambda t: CalibrationMap.platt(1.0 / t, 0.0),
}


def tune_map(validation: LogitsDataset, alpha: float, map_kind: str,
             cfg: TuneConfig | None = None) -> tuple[CalibrationMap, TuneReport]:
    """The map of ``map_kind`` minimizing the mean squared efficiency gap.

    temperature and platt: log grid plus golden section over t in
    [cfg.t_min, cfg.t_max]; ``iterations`` counts loss evaluations.
    vector: finite-difference gradient descent from the identity map;
    ``iterations`` counts accepted steps.
    """
    if map_kind not in (*_SCALAR_MAPS, "vector"):
        raise ValidationError(
            f"tune_map supports temperature, platt or vector, got {map_kind!r}"
        )
    cfg = cfg or TuneConfig()
    d_tau, d_loss = split_validation(validation, cfg)
    hints: list = [None, None]

    def loss(cal_map: CalibrationMap) -> float:
        return efficiency_gap_loss(cal_map, d_tau, d_loss, alpha, order_hints=hints)

    if map_kind in _SCALAR_MAPS:
        scalar_map = _SCALAR_MAPS[map_kind]
        t_best, f_best, evals = minimize_on_log_grid(
            lambda t: loss(scalar_map(t)), cfg.t_min, cfg.t_max, cfg.grid_points,
            cfg.refine_tol,
        )
        return scalar_map(t_best), TuneReport(alpha=alpha, final_loss=f_best,
                                              iterations=evals)

    k = d_tau.k

    def vector(p: np.ndarray) -> CalibrationMap:
        return CalibrationMap.vector(p[:k], p[k:])

    def objective(p: np.ndarray) -> float:
        return loss(vector(p))

    params = np.concatenate([np.ones(k), np.zeros(k)])
    current = objective(params)
    iterations = 0
    stalled = False
    for _ in range(cfg.gd_max_iters):
        grad = _central_difference_gradient(objective, params, cfg.gd_grad_eps)
        step = cfg.gd_step
        accepted = False
        for _ in range(cfg.gd_max_halvings + 1):
            candidate = params - step * grad
            value = objective(candidate)
            if value < current:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stalled = True
            break
        iterations += 1
        previous, current = current, value
        params = candidate
        if abs(previous - current) < cfg.rel_tol * max(abs(previous), 1e-30):
            break
    report = TuneReport(alpha=alpha, final_loss=current, iterations=iterations,
                        stalled=stalled)
    return vector(params), report


def _central_difference_gradient(fn, params: np.ndarray, eps: float) -> np.ndarray:
    grad = np.empty_like(params)
    for i in range(params.shape[0]):
        bump = np.zeros_like(params)
        bump[i] = eps
        grad[i] = (fn(params + bump) - fn(params - bump)) / (2.0 * eps)
    return grad


def save_tune_report(report: TuneReport, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
