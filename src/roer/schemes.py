"""Priority computation for each replay strategy.

roer_update is the one regularized priority pipeline, for every
divergence: the ratio w = f*'(delta / beta) of the scheme's divergence,
clipped into [1, max_exp_clip], batch mean-normalized, interpolated with
rate lambda, then floored. ROER_DIVERGENCES maps each scheme name to its
divergence: roer is the KL case (w = exp(delta / beta)), roer_chi2 the
Pearson chi^2 case (w = delta / beta + 1). The pipeline order (clip ->
normalize -> interpolate -> floor) is fixed: clipping before normalization
bounds the mean's sensitivity to outliers.

per_priority is the loss-adjusted PER form (priority floor pairs with a
Huber critic loss); laber_select resamples a uniformly drawn large batch
proportionally to surrogate priorities with importance corrections.

Inputs are validated where they enter, and nowhere else:
  - knobs (lam, beta, grad_clip, the clips, alpha, large_batch) by the
    config dataclasses below, and large_batch against the agent's batch
    size by config.ExperimentConfig, when the config loads;
  - TD errors where they leave the agents: the value estimates by
    losses.td_error, the tabular TD errors by TabularAgent.update, and the
    critic's by the finite critic-loss check of the same SAC phase;
  - priorities by the buffer, on every write (update_priorities) and when
    a snapshot loads;
  - surrogates by laber_select itself, since they meet no later check.
A non-finite value raises FloatingPointError, the one non-finite signal
(SacAgent.update aborts on it, and `roer` reports it as a run error);
InvalidInputError is left for shape and argument errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import SPECS, DivergenceSpec


class ConfigError(ValueError):
    pass


def require(cfg, checks) -> None:
    """Raise ConfigError for the first (field, holds, rule) that fails.
    Each rule is written as comparisons that a NaN fails."""
    for name, holds, rule in checks:
        if not holds:
            raise ConfigError(f"{name} must be {rule}, got {getattr(cfg, name)!r}")


def integer_rules(cfg, *names) -> tuple:
    """require's rule that each named count is an int: not a float, even
    an integral one like 8.0, and not a bool (type(True) is bool)."""
    return tuple((name, type(getattr(cfg, name)) is int, "an integer") for name in names)


class InvalidInputError(ValueError):
    pass


@dataclass(frozen=True)
class RoerConfig:
    """Knobs of the regularized priority update.

    lam is the convergence rate (0 < lam <= 1), beta the temperature of
    both the ratio f*'(delta / beta) and the value network's loss
    mean(f*(z) - z), grad_clip the upper clip of that loss's
    z = R / beta (a clipped sample has zero gradient), max_exp_clip the
    immediate-weight clip, min_priority_clip the floor applied to the
    final priority (0 disables it). Every knob is finite.
    """

    lam: float = 0.01
    beta: float = 1.0
    grad_clip: float = 7.0
    max_exp_clip: float = 100.0
    min_priority_clip: float = 1.0

    def __post_init__(self):
        require(self, (
            ("lam", 0.0 < self.lam <= 1.0, "in (0, 1]"),
            ("beta", 0.0 < self.beta < math.inf, "positive and finite"),
            ("grad_clip", 0.0 < self.grad_clip < math.inf, "positive and finite"),
            ("max_exp_clip", 1.0 <= self.max_exp_clip < math.inf,
             ">= 1 and finite"),
            ("min_priority_clip", 0.0 <= self.min_priority_clip < math.inf,
             ">= 0 and finite"),
        ))


@dataclass(frozen=True)
class PerConfig:
    alpha: float = 0.4
    min_priority: float = 1.0

    def __post_init__(self):
        require(self, (
            ("alpha", 0.0 <= self.alpha < math.inf, ">= 0 and finite"),
            ("min_priority", 0.0 < self.min_priority < math.inf,
             "positive and finite"),
        ))


@dataclass(frozen=True)
class LaberConfig:
    large_batch: int = 256

    def __post_init__(self):
        require(self, (*integer_rules(self, "large_batch"),
                       ("large_batch", self.large_batch >= 1, ">= 1")))


# The divergence whose conjugate derivative sets each ROER scheme's ratio
# and the loss of its value network.
ROER_DIVERGENCES: dict[str, DivergenceSpec] = {
    "roer": SPECS["kl"],
    "roer_chi2": SPECS["pearson_chi2"],
}

# The dataclass that holds each scheme's knobs (uniform has none).
SCHEME_CONFIGS: dict[str, type | None] = {
    "uniform": None,
    "per": PerConfig,
    "laber": LaberConfig,
    **dict.fromkeys(ROER_DIVERGENCES, RoerConfig),
}


def roer_update(td_errors, current_priorities, cfg: RoerConfig,
                div: DivergenceSpec = ROER_DIVERGENCES["roer"]) -> np.ndarray:
    """One multiplicative priority update d' = [lam * w + (1 - lam)] * d.

    w is the divergence's ratio f*'(delta / beta), clipped to
    [1, max_exp_clip] and divided by its batch mean, so a zero-TD batch
    (and any single-element batch) leaves priorities bit-identical: the
    interpolation factor is computed as lam * (w - 1) + 1, which is exactly
    1.0 when w == 1. A ratio that overflows to inf lands on max_exp_clip.

    A slot drawn k times in one batch has k rows: all k count in the batch
    mean of w, each starts from the same current priority, and
    PriorityBuffer.update_priorities keeps the last row's result.
    """
    with np.errstate(over="ignore"):
        w = div.f_star_prime(np.asarray(td_errors, dtype=np.float64) / cfg.beta)
    # np.clip and .mean() give these bits too, through slower wrappers
    np.maximum(w, 1.0, out=w)
    np.minimum(w, cfg.max_exp_clip, out=w)
    w /= np.add.reduce(w) / len(w)
    new = (cfg.lam * (w - 1.0) + 1.0) * current_priorities
    # a floor of 0 keeps every bit of the priorities, which are positive
    np.maximum(new, cfg.min_priority_clip, out=new)
    return new


def per_priority(td_errors, cfg: PerConfig) -> np.ndarray:
    """Loss-adjusted PER: p = max(|delta|^alpha, min_priority)."""
    return np.maximum(np.abs(td_errors) ** cfg.alpha, cfg.min_priority)


def laber_select(surrogate_priorities, n: int, rng: np.random.Generator):
    """Downsample a uniformly drawn large batch proportionally to surrogate
    priorities; returns (indices into the large batch, importance weights
    mean(surrogates) / surrogate).

    All-zero surrogates fall back to uniform selection with unit weights.
    Surrogates whose sum overflows are first divided by their maximum;
    the probabilities and the weights do not depend on their scale.
    """
    s = np.asarray(surrogate_priorities, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise InvalidInputError("surrogate_priorities must be a non-empty 1-d vector")
    if not np.isfinite(s).all():
        raise FloatingPointError("surrogate_priorities contains non-finite values")
    if np.any(s < 0):
        raise InvalidInputError("surrogates must be nonnegative")
    with np.errstate(over="ignore"):
        total = s.sum()
    if total == np.inf:
        s = s / s.max()
        total = s.sum()
    if total <= 0.0:
        idx = rng.integers(0, len(s), size=n)
        return idx, np.ones(n, dtype=np.float64)
    probs = s / total
    idx = rng.choice(len(s), size=n, replace=True, p=probs)
    weights = s.mean() / s[idx]
    return idx, weights

