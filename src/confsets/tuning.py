"""Tune calibration-map parameters to shrink prediction sets.

The objective is the mean squared efficiency gap: split the validation
data into two halves, recompute the conformal threshold tau on the first
half at every parameter evaluation, and average (tau - s_i)^2 over the
second half, where s_i is the non-randomized aps score of the true
label.  ``split_validation`` gathers the halves a row block at a time,
so the CLI's tune, which passes a binary input as a `data.LogitsFile`,
holds the halves but never the whole matrix.  Randomized scores are deliberately excluded from the loss; they
misestimate the gap.  One evaluation (``_evaluate``) scores both halves
with ``engine.label_scores``, one row block at a time, and takes tau from
one ``calibrate_threshold`` call.

Temperature and Platt evaluations (``_evaluate_scalar``) give the same
loss, tau, tau row and scores bit for bit with less work.  Before the
search, ``_Half`` records for each half what no t changes: each row's
largest logit z_max; the near-tie rows, whose label has another logit
within 1e-9 * max(max |z_row|, t_max) of its own; and, for the other rows
whose label is not the largest logit, the classes ahead of the label in
stable descending order.  An evaluation then makes 4 passes per cell:
scale (``CalibrationMap.transform_logits``), shift by the scaled z_max,
exp and row sum S.  Why that is exact:

* z/t and fl(a*z) + 0 with t, a > 0 are monotone, and so is rounding, so
  the largest scaled logit is z_max scaled, and no class overtakes
  another.  The shift puts exactly 0 at the row's largest logit, whose e
  is exp(0) = 1, so a label there scores fl(1 / S), softmax's p_y.
* Away from a near tie, the label's scaled gap to any other logit is at
  least 1e-9 for every t <= t_max, far above the rounding of the scale,
  shift, exp and division.  (Scaled by max |z_row| alone, without
  t_max, the rule lets large t round such gaps away.)  So the classes
  ahead of the label in probability are those ahead in logits, except
  where both values underflow to zero or a subnormal; such a class adds
  zero or less than an ulp to a prefix of at least 1/K, at its end.
* A lower label's score is the cumsum of e/S over the classes ahead of
  it and itself: the divisions softmax makes, added in the order of the
  sorted cumsum, which the values confirm when they do not rise.

The exact path, the `scores._true_label_scores` kernel on the rows'
exps, scores the near-tie rows and any row whose ahead values rise.  Such
rows are a kernel block as they stand: the shift puts e = exp(0) = 1 at
the largest logit and e <= 1 everywhere, so ``e.argmax`` is a column of
each row's largest e, and the loss's score takes no u.  A block whose S
is not finite is checked as `maps.probability_blocks` checks one, so a
z/t that overflows raises the same error.  On the protocol data no row
takes the exact path.

``tune_map`` is the one tuner for every map kind.  Temperature and Platt
are the same one-parameter family: softmax ignores a shift shared by all
classes, so Platt's b is pinned at 0 and its scale is a = 1/t.  Both are
minimized over t by a log-uniform grid followed by golden-section
refinement (robust to the kinks that the order-statistic tau introduces;
no gradients needed).  Vector maps scale and shift each class on its own,
which can reorder classes, so they use plain gradient descent with a
backtracking line search.  The loss is piecewise smooth: between the
points where a label's rank or the row that sets tau changes, it is a
smooth function of the map, so each step takes its analytic gradient
(``_vector_gradient``) from the evaluation of the accepted map: it maps
only the loss half and the one tau-half row that sets tau.

The optimizer's inner constants are fixed module constants, not
settings: ``_REFINE_TOL``, ``_GD_STEP``, ``_GD_MAX_HALVINGS`` and
``_REL_TOL``.  ``TuneConfig`` holds only what callers choose: the
temperature window, the grid size, the descent's iteration cap and the
seed of the halves.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .data import LogitsDataset, LogitsFile, SplitSpec, row_blocks, split_dataset
from .engine import calibrate_threshold, label_scores
from .errors import ValidationError, is_int, write_json
from .maps import CalibrationMap, apply_map_dataset
from .scores import (ScoreSpec, _check_normalized, _row_counts, _true_label_scores, aps_score_dz,
                     descending_order)

_LOSS_SPEC = ScoreSpec(kind="aps", randomized=False)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Golden-section refinement stops once its bracket is this narrow.
_REFINE_TOL = 1e-4
# Gradient descent: first step of each line search, most halvings per
# line search, and the relative improvement below which an accepted step
# ends the descent.
_GD_STEP = 0.1
_GD_MAX_HALVINGS = 20
_REL_TOL = 1e-8
# A label has a near tie when another logit of its row lies within
# _TIE_REL * max(max |z_row|, t_max) of its own; see `_Half`.
_TIE_REL = 1e-9


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
        if not (0 < self.t_min < self.t_max < math.inf):
            raise ValidationError("temperature bounds must satisfy 0 < t_min < t_max < inf")
        for name, least in (("grid_points", 1), ("gd_max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (is_int(value) and value >= least):
                raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class TuneReport:
    alpha: float
    final_loss: float
    iterations: int
    stalled: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)


class _Evaluation(NamedTuple):
    """One loss evaluation and what ``_vector_gradient`` needs of it."""

    loss: float
    tau: float
    row: int              # the first tau-half row that scores exactly tau
    scores: np.ndarray    # the loss half's true-label scores


def efficiency_gap_loss(cal_map: CalibrationMap, d_tau: LogitsDataset,
                        d_loss: LogitsDataset, alpha: float) -> float:
    """Mean squared gap on d_loss, with tau recomputed on d_tau.

    Both halves are scored by ``engine.label_scores`` with the
    non-randomized aps score.
    """
    return _evaluate(cal_map, d_tau, d_loss, alpha).loss


def _evaluate(cal_map: CalibrationMap, d_tau: LogitsDataset, d_loss: LogitsDataset,
              alpha: float) -> _Evaluation:
    """The loss at ``cal_map``; both halves are scored once."""
    return _gap(lambda ds: label_scores(ds, cal_map, _LOSS_SPEC), d_tau, d_loss, alpha)


def _evaluate_scalar(cal_map: CalibrationMap, tau_half: _Half, loss_half: _Half,
                     alpha: float) -> _Evaluation:
    """``_evaluate`` at a temperature or Platt map, from each half's `_Half` facts.

    Equal to ``_evaluate(cal_map, tau_half.ds, loss_half.ds, alpha)`` bit
    for bit, errors included, for a temperature t <= t_max or a Platt map
    with a >= 1/t_max and b = 0, where t_max is the one the halves were
    made with.
    """
    return _gap(lambda half: half.scores(cal_map), tau_half, loss_half, alpha)


def _gap(score, tau_part, loss_part, alpha: float) -> _Evaluation:
    """The loss from ``score(part)``, each half's true-label scores."""
    if tau_part.k != loss_part.k:
        raise ValidationError("d_tau and d_loss class counts differ")
    tau_scores = score(tau_part)
    tau = calibrate_threshold(tau_scores, alpha)
    if tau == math.inf:
        raise ValidationError(
            f"d_tau has too few rows ({tau_part.n}) for alpha={alpha}; "
            "use a larger tau split"
        )
    scores = score(loss_part)
    gaps = tau - scores
    row = int(np.argmax(tau_scores == tau))
    return _Evaluation(float(np.mean(gaps * gaps)), tau, row, scores)


class _Block(NamedTuple):
    """One `data.row_blocks` block of a `_Half`, by the path each row takes."""

    rows: slice
    exact: np.ndarray     # rows whose label has a near tie
    deep: np.ndarray      # the other rows whose label is not the largest logit
    order: np.ndarray     # each deep row's first classes in stable descending order
    at: tuple             # (deep row, label position in ``order``)


class _Half:
    """What every scalar-map evaluation of one validation half shares.

    Made once per half for a search over t <= t_max (the module docstring
    has the argument): each row's largest logit, and per
    `data.row_blocks` block the rows whose label has a near tie and, for
    the rows whose label is not the largest logit, the classes ahead of it
    in `scores.descending_order`.  ``order`` holds those class
    indices in the narrowest unsigned dtype for K (one byte up to K = 256,
    two up to K = 65536), each block padded to its deepest label, so it
    takes at most n*K*2 bytes, a quarter of the half's float64 probability
    matrix, even when every label ranks last.  ``buf``, a float64 array of
    K columns and at least the rows of the first block, holds the
    evaluation's mapped logits one block at a time; `pair` gives the two
    halves one.
    """

    def __init__(self, ds: LogitsDataset, t_max: float, buf: np.ndarray):
        self.ds = ds
        self.n, self.k = ds.n, ds.k
        self.row_max = ds.logits.max(axis=1)
        self._buf = buf
        index_type = np.min_scalar_type(ds.k - 1)
        self.blocks = []
        for rows in row_blocks(ds.n, ds.k):
            z = ds.logits[rows]
            z_y = z[np.arange(z.shape[0]), ds.labels[rows]][:, None]
            tol = _TIE_REL * np.maximum(np.abs(z).max(axis=1), t_max)[:, None]
            distance = self._buf[:z.shape[0]]
            with np.errstate(over="ignore"):  # a gap that overflows is no tie
                np.subtract(z, z_y, out=distance)
            np.abs(distance, out=distance)
            # the label itself is within tol of its own logit
            near = _row_counts(distance <= tol) > 1
            ahead = _row_counts(z > z_y)
            deep = np.flatnonzero(~near & (ahead > 0))
            width = int(ahead[deep].max(initial=-1)) + 1
            order = descending_order(z[deep])[:, :width]
            self.blocks.append(_Block(rows, np.flatnonzero(near), deep, order.astype(index_type),
                                      (np.arange(deep.size), ahead[deep])))

    @classmethod
    def pair(cls, d_tau: LogitsDataset, d_loss: LogitsDataset,
             t_max: float) -> tuple[_Half, _Half]:
        """The facts of both halves, which share one block buffer: an
        evaluation scores the tau half and then the loss half."""
        first = next(row_blocks(max(d_tau.n, d_loss.n), d_tau.k))
        buf = np.empty((first.stop, d_tau.k))
        return cls(d_tau, t_max, buf), cls(d_loss, t_max, buf)

    def scores(self, cal_map: CalibrationMap) -> np.ndarray:
        """``engine.label_scores(ds, cal_map, _LOSS_SPEC)``, bit for bit.

        Each block is scaled into the buffer, shifted by its rows' scaled
        largest logit and exponentiated, and S is its row sum, as in
        `maps.softmax`.  A label at rank 1 scores fl(1 / S).  Any other
        label scores the cumsum of e/S over the classes ahead of it and
        itself, provided those values do not rise.  Near-tie rows and rows
        whose values rise are scored by `scores._true_label_scores`, and a
        block with a non-finite S is a ValidationError.
        """
        ds = self.ds
        shift = cal_map.transform_logits(self.row_max)
        out = np.empty(ds.n)
        for b in self.blocks:
            buf = self._buf[:b.rows.stop - b.rows.start]
            e = cal_map.transform_logits(ds.logits[b.rows], out=buf)
            e -= shift[b.rows, None]
            np.exp(e, out=e)
            s = np.sum(e, axis=1)
            if not np.isfinite(s).all():
                _check_normalized(e / s[:, None])
            block = np.divide(1.0, s, out=out[b.rows])
            exact = b.exact
            if b.deep.size:
                values = e[b.deep[:, None], b.order]
                values /= s[b.deep, None]
                block[b.deep] = np.cumsum(values, axis=1)[b.at]
                rising = (values[:, 1:] > values[:, :-1]).any(axis=1)
                if rising.any():
                    exact = np.concatenate([exact, b.deep[rising]])
            if exact.size:
                q = e[exact]
                block[exact] = _true_label_scores(_LOSS_SPEC, q, s[exact], q.argmax(axis=1),
                                                  ds.labels[b.rows][exact], np.ones(exact.size))
        return out


def split_validation(validation: LogitsDataset | LogitsFile,
                     cfg: TuneConfig) -> tuple[LogitsDataset, LogitsDataset]:
    """The tuner's canonical halves: equal tau/loss split, shuffled by cfg.seed.

    `split_dataset` gathers them a row block at a time, so a `LogitsFile`
    is never held whole.
    """
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


def tune_map(validation: LogitsDataset | LogitsFile, alpha: float, map_kind: str,
             cfg: TuneConfig | None = None) -> tuple[CalibrationMap, TuneReport]:
    """The map of ``map_kind`` minimizing the mean squared efficiency gap.

    temperature and platt: log grid plus golden section over t in
    [cfg.t_min, cfg.t_max]; ``iterations`` counts loss evaluations.
    vector: gradient descent from the identity map, one analytic gradient
    per step; ``iterations`` counts accepted steps, and ``stalled`` says
    that no step along the last gradient lowered the loss.
    """
    if map_kind not in (*_SCALAR_MAPS, "vector"):
        raise ValidationError(
            f"tune_map supports temperature, platt or vector, got {map_kind!r}"
        )
    cfg = cfg or TuneConfig()
    d_tau, d_loss = split_validation(validation, cfg)
    if map_kind in _SCALAR_MAPS:
        scalar_map = _SCALAR_MAPS[map_kind]
        tau_half, loss_half = _Half.pair(d_tau, d_loss, cfg.t_max)
        t_best, f_best, evals = minimize_on_log_grid(
            lambda t: _evaluate_scalar(scalar_map(t), tau_half, loss_half, alpha).loss,
            cfg.t_min, cfg.t_max, cfg.grid_points,
        )
        return scalar_map(t_best), TuneReport(alpha=alpha, final_loss=f_best,
                                              iterations=evals)

    k = d_tau.k

    def vector(p: np.ndarray) -> CalibrationMap:
        return CalibrationMap.vector(p[:k], p[k:])

    def evaluate(p: np.ndarray) -> _Evaluation:
        return _evaluate(vector(p), d_tau, d_loss, alpha)

    params = np.concatenate([np.ones(k), np.zeros(k)])
    current = evaluate(params)
    iterations = 0
    stalled = False
    for _ in range(cfg.gd_max_iters):
        grad = _vector_gradient(vector(params), d_tau, d_loss, current)
        step = _GD_STEP
        for _ in range(_GD_MAX_HALVINGS + 1):
            candidate = params - step * grad
            evaluation = evaluate(candidate)
            if evaluation.loss < current.loss:
                break
            step *= 0.5
        else:
            stalled = True
            break
        iterations += 1
        previous, current = current.loss, evaluation
        params = candidate
        if abs(previous - current.loss) < _REL_TOL * max(abs(previous), 1e-30):
            break
    report = TuneReport(alpha=alpha, final_loss=current.loss, iterations=iterations,
                        stalled=stalled)
    return vector(params), report


def _vector_gradient(cal_map: CalibrationMap, d_tau: LogitsDataset,
                     d_loss: LogitsDataset, evaluation: _Evaluation) -> np.ndarray:
    """Gradient of ``efficiency_gap_loss`` in a vector map's (w, c).

    ``evaluation`` is ``_evaluate`` at ``cal_map``, so only the loss half
    and the tau row are mapped here.  The gradient is exact wherever no
    label rank and no choice of the tau row changes nearby, which is almost
    everywhere.  Each score's gradient in the mapped logits z comes from
    ``scores.aps_score_dz``.  tau is the score of the tau row, the first
    tau-half row equal to tau, so it moves with that row.  With
    z = w*x + c, the loss mean((tau - s)^2) has gradient
    2 mean(tau - s) dtau - (2/n) sum (tau - s_i) ds_i, where a row's d/dw
    is x times its d/dz and its d/dc is d/dz.
    """
    _, tau, i, scores = evaluation
    row = slice(i, i + 1)
    tau_probs = apply_map_dataset(cal_map, d_tau, rows=row)
    tau_dz = aps_score_dz(tau_probs, d_tau.labels[row], np.array([tau]))[0]
    probs = apply_map_dataset(cal_map, d_loss)
    dz = aps_score_dz(probs, d_loss.labels, scores)
    gaps = tau - scores
    weight = 2.0 * float(np.mean(gaps))
    per_row = -2.0 / d_loss.n * gaps
    grad_w = weight * d_tau.logits[i] * tau_dz + per_row @ (d_loss.logits * dz)
    grad_c = weight * tau_dz + per_row @ dz
    return np.concatenate([grad_w, grad_c])


def save_tune_report(report: TuneReport, path) -> None:
    write_json(report.to_json_dict(), path)
