"""Tune calibration-map parameters to shrink prediction sets.

The objective is the mean squared efficiency gap: split the validation
data into two halves, recompute the conformal threshold tau on the first
half at every parameter evaluation, and average (tau - s_i)^2 over the
second half, where s_i is the non-randomized aps score of the true
label.  Randomized scores are deliberately excluded from the loss; they
misestimate the gap.

``tune_map`` is the one tuner for every map kind.  Temperature and Platt
are the same one-parameter family: softmax ignores a shift shared by all
classes, so Platt's b is pinned at 0 and its scale is a = 1/t.  Both are
minimized over t by a log-uniform grid followed by golden-section
refinement (robust to the kinks that the order-statistic tau introduces;
no gradients needed).  Vector maps scale and shift each class on its own,
which can reorder classes, so they use plain gradient descent with
central-difference gradients and a backtracking line search.

The optimizer's inner constants are fixed module constants, not
settings: ``_REFINE_TOL``, ``_GD_STEP``, ``_GD_GRAD_EPS``,
``_GD_MAX_HALVINGS`` and ``_REL_TOL``.  ``TuneConfig`` holds only what
callers choose: the temperature window, the grid size, the descent's
iteration cap and the seed of the halves.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import LogitsDataset, SplitSpec, split_dataset
from .engine import calibrate
from .errors import ValidationError
from .maps import CalibrationMap, apply_map_dataset
from .scores import ScoreSpec, true_label_scores

_LOSS_SPEC = ScoreSpec(kind="aps", randomized=False)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Golden-section refinement stops once its bracket is this narrow.
_REFINE_TOL = 1e-4
# Gradient descent: first step of each line search, central-difference
# half-width, most halvings per line search, and the relative improvement
# below which an accepted step ends the descent.
_GD_STEP = 0.1
_GD_GRAD_EPS = 1e-4
_GD_MAX_HALVINGS = 20
_REL_TOL = 1e-8


@dataclass(frozen=True)
class TuneConfig:
    """Optimizer settings; alpha and the map kind are passed explicitly."""

    t_min: float = 0.05
    t_max: float = 5.0
    grid_points: int = 64
    gd_max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        # The chained comparison is False for a NaN bound too.
        if not (0 < self.t_min < self.t_max):
            raise ValidationError("temperature bounds must satisfy 0 < t_min < t_max")
        if self.grid_points < 1 or self.gd_max_iters < 1:
            raise ValidationError("grid_points and gd_max_iters must be >= 1")


@dataclass(frozen=True)
class TuneReport:
    alpha: float
    final_loss: float
    iterations: int
    stalled: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)


def efficiency_gap_loss(cal_map: CalibrationMap, d_tau: LogitsDataset,
                        d_loss: LogitsDataset, alpha: float) -> float:
    """Mean squared gap on d_loss, with tau recomputed on d_tau.

    tau comes from ``engine.calibrate`` with the non-randomized aps score,
    and d_loss is scored by the same ``scores.true_label_scores``.
    """
    if d_tau.k != d_loss.k:
        raise ValidationError("d_tau and d_loss class counts differ")
    tau = calibrate(d_tau, cal_map, _LOSS_SPEC, alpha).tau
    if tau == math.inf:
        raise ValidationError(
            f"d_tau has too few rows ({d_tau.n}) for alpha={alpha}; "
            "use a larger tau split"
        )
    loss_probs = apply_map_dataset(cal_map, d_loss)
    gaps = tau - true_label_scores(_LOSS_SPEC, loss_probs, d_loss.labels)
    return float(np.mean(gaps * gaps))


def split_validation(validation: LogitsDataset,
                     cfg: TuneConfig) -> tuple[LogitsDataset, LogitsDataset]:
    """The tuner's canonical halves: equal tau/loss split, shuffled by cfg.seed."""
    parts = split_dataset(
        validation,
        SplitSpec(fractions={"tau": 0.5, "loss": 0.5}, seed=cfg.seed, shuffle=True),
    )
    return parts["tau"], parts["loss"]


def minimize_on_log_grid(fn, lo: float, hi: float,
                         grid_points: int) -> tuple[float, float, int]:
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
    if b - a > _REFINE_TOL:
        c = b - (b - a) * _INVPHI
        d = a + (b - a) * _INVPHI
        fc, fd = fn(c), fn(d)
        evals += 2
        for x, f in ((c, fc), (d, fd)):
            if f < best_f:
                best_x, best_f = x, f
        while b - a > _REFINE_TOL:
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

    def loss(cal_map: CalibrationMap) -> float:
        return efficiency_gap_loss(cal_map, d_tau, d_loss, alpha)

    if map_kind in _SCALAR_MAPS:
        scalar_map = _SCALAR_MAPS[map_kind]
        t_best, f_best, evals = minimize_on_log_grid(
            lambda t: loss(scalar_map(t)), cfg.t_min, cfg.t_max, cfg.grid_points,
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
        grad = _central_difference_gradient(objective, params)
        step = _GD_STEP
        accepted = False
        for _ in range(_GD_MAX_HALVINGS + 1):
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
        if abs(previous - current) < _REL_TOL * max(abs(previous), 1e-30):
            break
    report = TuneReport(alpha=alpha, final_loss=current, iterations=iterations,
                        stalled=stalled)
    return vector(params), report


def _central_difference_gradient(fn, params: np.ndarray) -> np.ndarray:
    grad = np.empty_like(params)
    for i in range(params.shape[0]):
        bump = np.zeros_like(params)
        bump[i] = _GD_GRAD_EPS
        grad[i] = (fn(params + bump) - fn(params - bump)) / (2.0 * _GD_GRAD_EPS)
    return grad


def save_tune_report(report: TuneReport, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
