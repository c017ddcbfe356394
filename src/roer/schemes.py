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

Inputs are validated where they enter: TD errors where they leave the
agents, priorities by the buffer, knobs by the config dataclasses. Only
laber_select checks its surrogates, which meet no later check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import SPECS, DivergenceSpec, Kind


class ConfigError(ValueError):
    pass


class InvalidInputError(ValueError):
    pass


# The divergence whose conjugate derivative sets each ROER scheme's ratio.
ROER_DIVERGENCES: dict[str, DivergenceSpec] = {
    "roer": SPECS[Kind.KL],
    "roer_chi2": SPECS[Kind.PEARSON_CHI2],
}

SCHEME_KEYS = ("uniform", "per", "laber", *ROER_DIVERGENCES)


@dataclass(frozen=True)
class RoerConfig:
    """Knobs of the regularized priority update.

    lam is the convergence rate (0 < lam <= 1), beta the loss temperature,
    grad_clip the Gumbel exponent clip used by the value loss, max_exp_clip
    the immediate-weight clip, min_priority_clip the floor applied to the
    final priority (0 disables it).
    """

    lam: float = 0.01
    beta: float = 1.0
    grad_clip: float = 7.0
    max_exp_clip: float = 100.0
    min_priority_clip: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.lam <= 1.0):
            raise ConfigError(f"lambda must be in (0, 1], got {self.lam}")
        if self.beta <= 0.0 or not np.isfinite(self.beta):
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if not (1.0 <= self.max_exp_clip < np.inf):
            raise ConfigError(
                f"max_exp_clip must be finite and >= 1, got {self.max_exp_clip}"
            )
        if self.min_priority_clip < 0.0:
            raise ConfigError("min_priority_clip must be >= 0")
        if self.grad_clip <= 0.0:
            raise ConfigError("grad_clip must be positive")


@dataclass(frozen=True)
class PerConfig:
    alpha: float = 0.4
    min_priority: float = 1.0

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.min_priority <= 0.0:
            raise ConfigError("min_priority must be positive")


@dataclass(frozen=True)
class LaberConfig:
    large_batch: int = 256

    def __post_init__(self):
        if self.large_batch < 1:
            raise ConfigError("large_batch must be positive")

    def check_minibatch(self, n: int) -> None:
        if self.large_batch < n:
            raise ConfigError(
                f"large_batch {self.large_batch} smaller than minibatch {n}"
            )


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError(f"{what} must be a non-empty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{what} contains non-finite values")
    return arr


def roer_update(td_errors, current_priorities, cfg: RoerConfig,
                div: DivergenceSpec = ROER_DIVERGENCES["roer"]) -> np.ndarray:
    """One multiplicative priority update d' = [lam * w + (1 - lam)] * d.

    w is the divergence's ratio f*'(delta / beta), clipped to
    [1, max_exp_clip] and divided by its batch mean, so a zero-TD batch
    (and any single-element batch) leaves priorities bit-identical: the
    interpolation factor is computed as lam * (w - 1) + 1, which is exactly
    1.0 when w == 1. A ratio that overflows to inf lands on max_exp_clip.
    """
    with np.errstate(over="ignore"):
        w = div.f_star_prime(np.asarray(td_errors, dtype=np.float64) / cfg.beta)
    np.clip(w, 1.0, cfg.max_exp_clip, out=w)
    w /= w.mean()
    new = (cfg.lam * (w - 1.0) + 1.0) * current_priorities
    if cfg.min_priority_clip > 0.0:
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
    """
    s = _check_finite(surrogate_priorities, "surrogate_priorities")
    if np.any(s < 0):
        raise InvalidInputError("surrogates must be nonnegative")
    if n < 1:
        raise InvalidInputError("minibatch size must be >= 1")
    total = s.sum()
    if total <= 0.0:
        idx = rng.integers(0, len(s), size=n)
        return idx, np.ones(n, dtype=np.float64)
    probs = s / total
    idx = rng.choice(len(s), size=n, replace=True, p=probs)
    weights = s.mean() / s[idx]
    return idx, weights

