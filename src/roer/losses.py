"""Training objectives: TD error, the Gumbel value-regression loss with
exponent clipping, weighted Huber critic loss, and the input-gradient-norm
penalty.

The Gumbel loss operates on residuals R (prediction targets minus value
estimates). With z = min(R / beta, grad_clip), the loss is

    mean(exp(z) - z) - 1

so it is nonnegative with equality exactly at all-zero residuals, for any
beta, and the clip freezes both terms (clipped samples contribute zero
gradient). Gradients returned are with respect to the vector handed in
(residuals / q_pred); value-network training negates the residual gradient
since the estimate enters the residual with a minus sign.

Batch means are written np.add.reduce(x) / n: the arithmetic np.mean
runs, without its Python-level wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .schemes import ConfigError, InvalidInputError


@dataclass
class LossOutput:
    """Scalar loss, gradient w.r.t. the supplied prediction vector, and
    clip diagnostics."""

    value: float
    grad: np.ndarray
    diagnostics: dict = field(default_factory=dict)


@dataclass
class PenaltyOutput:
    """Gradient-norm hinge penalty: scalar value plus exact parameter
    gradients (the penalty constrains the model's input sensitivity, so
    its gradient lives in parameter space)."""

    value: float
    param_grads: nn.ParameterSet
    grad_norms: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _vec(x, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{what} contains non-finite values")
    return arr


def td_error(reward, gamma: float, v_next, v_curr, terminal) -> np.ndarray:
    """delta = r + gamma * V(s') * (1 - terminal) - V(s)."""
    if not (0.0 < gamma < 1.0):
        raise ConfigError(f"gamma must be in (0, 1), got {gamma}")
    r = _vec(reward, "reward")
    vn = _vec(v_next, "v_next")
    vc = _vec(v_curr, "v_curr")
    t = np.asarray(terminal, dtype=np.float64).reshape(r.shape)
    return r + gamma * vn * (1.0 - t) - vc


def extreme_v_loss(residuals, beta: float, grad_clip: float) -> LossOutput:
    """Gumbel regression loss over residuals with an upper exponent clip.
    beta and grad_clip are checked where they enter, by RoerConfig."""
    r = _vec(residuals, "residuals")
    n = len(r)
    z_raw = r / beta
    clipped = z_raw > grad_clip
    z = np.where(clipped, grad_clip, z_raw)
    ez = np.exp(z)
    value = float(np.add.reduce(ez - z) / n - 1.0)
    grad = np.where(clipped, 0.0, (ez - 1.0) / (n * beta))
    return LossOutput(
        value=value,
        grad=grad,
        diagnostics={
            "clipped": int(clipped.sum()),
            "max_exponent": float(z_raw.max()),
        },
    )


def pearson_v_loss(residuals, beta: float) -> LossOutput:
    """Conservative (squared) value objective paired with the shifted-linear
    priority: mean(R^2 / (2 beta) + R). beta is checked by RoerConfig."""
    r = _vec(residuals, "residuals")
    n = len(r)
    value = float(np.add.reduce(r * r / (2.0 * beta) + r) / n)
    grad = (r / beta + 1.0) / n
    return LossOutput(value=value, grad=grad)


def weighted_huber_critic_loss(q_pred, target, weights, k: float | None = 1.0) -> LossOutput:
    """mean(w_i * huber_k(target_i - q_pred_i)) with exact q_pred gradient.

    huber_k(x) = 0.5 x^2 for |x| <= k, else k (|x| - 0.5 k). k=None selects
    the plain mean-square form 0.5 x^2 (the k -> infinity limit).
    """
    q = _vec(q_pred, "q_pred")
    t = _vec(target, "target")
    w = _vec(weights, "weights")
    if not (q.shape == t.shape == w.shape):
        raise InvalidInputError("q_pred/target/weights length mismatch")
    if (w <= 0).any():
        raise InvalidInputError("weights must be positive")
    if k is not None and k <= 0:
        raise ConfigError(f"huber bound k must be positive, got {k}")
    n = len(q)
    x = t - q
    if k is None:
        per = 0.5 * x * x
        dper = x
        clipped = np.zeros(n, dtype=bool)
    else:
        clipped = np.abs(x) > k
        per = np.where(clipped, k * (np.abs(x) - 0.5 * k), 0.5 * x * x)
        dper = np.where(clipped, k * np.sign(x), x)
    value = float(np.add.reduce(w * per) / n)
    grad = -w * dper / n
    return LossOutput(
        value=value, grad=grad, diagnostics={"linear_branch": int(clipped.sum())}
    )


def gradient_penalty(critic_params: nn.ParameterSet, inputs,
                     cache=None) -> PenaltyOutput:
    """Hinge penalty mean(max(||dQ/dx|| - 1, 0)^2) over the batch, with
    exact parameter gradients via the input-gradient backward pass.

    cache is the critic's nn.forward_cache of these inputs, if the caller
    already holds it."""
    x = np.asarray(inputs, dtype=np.float64)
    if cache is None:
        _, cache = nn.forward_cache(critic_params, x)
    g, chain = nn.input_gradient(critic_params, x, cache, return_chain=True)
    norms = np.sqrt(np.add.reduce(g * g, axis=1))
    excess = np.maximum(norms - 1.0, 0.0)
    n = len(norms)
    value = float(np.add.reduce(excess**2) / n)
    active = excess > 0.0
    scale = np.zeros(n)
    scale[active] = 2.0 * excess[active] / (n * norms[active])
    cot = g * scale[:, None]
    param_grads = nn.input_gradient_param_backward(critic_params, x, cot,
                                                   cache, chain)
    return PenaltyOutput(
        value=value,
        param_grads=param_grads,
        grad_norms=norms,
        diagnostics={"active": int(active.sum())},
    )
