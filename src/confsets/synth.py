"""Synthetic logits with controllable difficulty and miscalibration.

Rows are i.i.d. (hence exchangeable): a uniform label, a one-hot signal
bump on the true class, Gaussian noise everywhere, and a global
overconfidence multiplier g.  Multiplying logits by g is the same as
dividing the temperature by g, so g > 1 produces the sharp, miscalibrated
regime where tuning pays off.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .data import LogitsDataset
from .errors import ValidationError, is_int


@dataclass(frozen=True)
class SynthSpec:
    n: int
    k: int
    seed: int = 0
    signal: float = 2.0
    noise: float = 1.0
    overconfidence: float = 1.0

    def __post_init__(self):
        for name, least in (("n", 1), ("k", 2), ("seed", 0)):
            value = getattr(self, name)
            if not (is_int(value) and value >= least):
                raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
        # the chained comparisons are False for NaN too
        for name in ("signal", "noise", "overconfidence"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValidationError(f"{name} must be positive and finite, got {value!r}")


def generate(spec: SynthSpec) -> LogitsDataset:
    """Deterministic-in-seed sample of the synthetic logits model."""
    return _sample(spec, np.random.default_rng(spec.seed), spec.signal)


def generate_paired_shifted(spec: SynthSpec, shift: float) -> tuple[LogitsDataset, LogitsDataset]:
    """An in-distribution dataset plus a harder one (signal reduced by shift)."""
    if not -math.inf < shift < spec.signal:
        raise ValidationError(
            f"shift must be finite and < signal ({spec.signal}), got {shift}"
        )
    child_seed = np.random.SeedSequence(spec.seed).spawn(1)[0]
    shifted = _sample(spec, np.random.default_rng(child_seed), spec.signal - shift)
    return generate(spec), shifted


def _sample(spec: SynthSpec, rng: np.random.Generator, signal: float) -> LogitsDataset:
    labels = rng.integers(0, spec.k, size=spec.n)
    logits = rng.standard_normal((spec.n, spec.k))
    logits *= spec.noise
    logits[np.arange(spec.n), labels] += signal
    logits *= spec.overconfidence
    return LogitsDataset(logits, labels)
