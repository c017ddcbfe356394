"""Training objectives: TD error, the value network's f-divergence loss
with an upper clip, weighted Huber critic loss, and the input-gradient-norm
penalty.

The value loss operates on residuals R (prediction targets minus value
estimates). With z = min(R / beta, grad_clip) and f* the conjugate of the
ROER scheme's divergence, the loss is

    mean(f*(z) - z)

(the f-divergence value objective of OptiDICE). Its minimizer over a
value V satisfies E[f*'((Q - V) / beta)] = 1, the normalization under
which f*'(delta / beta) is an occupancy ratio. For KL it is the Gumbel
loss of XQL, mean(exp(z) - z) - 1, with V = beta log E exp(Q / beta); for
Pearson chi^2 it is mean(z^2) / 2, with V = E[Q]. It is nonnegative with
equality exactly at all-zero residuals, for any beta, and the clip
freezes both terms (clipped samples contribute zero gradient). Gradients
returned are with respect to the vector handed in (residuals / q_pred);
value-network training negates the residual gradient since the estimate
enters the residual with a minus sign.

Every call on the per-step path goes straight to the ufunc it needs: a
batch mean is np.add.reduce(x) / n, the arithmetic np.mean runs; a count
of flags is np.add.reduce, which .sum runs; a finiteness check is
np.logical_and.reduce, which .all runs. Each array method and np.mean run
the same reduction through a Python-level wrapper.

Each value is validated once, where it enters: gamma, the Huber bound k,
beta and grad_clip by the config dataclasses (SacConfig, RoerConfig);
rewards by PriorityBuffer.push and fill_offline. Loss weights are ones,
priorities (checked by the buffer on every write and at load) or LABER's
importance weights, which laber_select forms from checked surrogates. q_pred
and target go unchecked: a non-finite one makes the critic loss
non-finite (every Huber term is >= 0 and the weights are positive), and
the one finite check per phase in SacAgent.update aborts the step before
any optimizer moves. Only the value estimates V(s), V(s') and the value
residuals are checked here (_vec): a non-finite V would reach the
buffer's priorities, and a +inf residual would be clipped to a finite
loss. A non-finite value raises FloatingPointError, the one non-finite
signal, on which SacAgent.update aborts; InvalidInputError is a shape or
argument error, a caller's bug, and surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .divergences import DivergenceSpec
from .schemes import InvalidInputError


@dataclass
class LossOutput:
    """Scalar loss, gradient w.r.t. the supplied prediction vector, and
    the number of clipped samples (the value loss's upper clip)."""

    value: float
    grad: np.ndarray
    clipped: int = 0


@dataclass
class PenaltyOutput:
    """Gradient-norm hinge penalty: scalar value plus exact parameter
    gradients (the penalty constrains the model's input sensitivity, so
    its gradient lives in parameter space)."""

    value: float
    param_grads: nn.ParameterSet


def _vec(x, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise FloatingPointError(f"{what} contains non-finite values")
    return arr


def td_error(reward, gamma: float, v_next, v_curr, terminal) -> np.ndarray:
    """delta = r + gamma * V(s') * (1 - terminal) - V(s)."""
    r = np.asarray(reward, dtype=np.float64)
    vn = _vec(v_next, "v_next")
    vc = _vec(v_curr, "v_curr")
    t = np.asarray(terminal, dtype=np.float64).reshape(r.shape)
    return r + gamma * vn * (1.0 - t) - vc


def extreme_v_loss(residuals, beta: float, grad_clip: float,
                   div: DivergenceSpec) -> LossOutput:
    """The value loss mean(f*(z) - z) of div's conjugate f*, with
    z = min(R / beta, grad_clip); for KL, the Gumbel regression loss.

    The gradient (f*'(z) - 1) / (n beta) is 0 where z was clipped."""
    r = _vec(residuals, "residuals")
    n = len(r)
    z_raw = r / beta
    clipped = z_raw > grad_clip
    z = np.where(clipped, grad_clip, z_raw)
    value = float(np.add.reduce(div.f_star(z) - z) / n)
    grad = np.where(clipped, 0.0, (div.f_star_prime(z) - 1.0) / (n * beta))
    return LossOutput(value=value, grad=grad, clipped=int(np.add.reduce(clipped)))


def weighted_huber_critic_loss(q_pred, target, weights, k: float = 1.0) -> LossOutput:
    """mean(w_i * huber_k(target_i - q_pred_i)) with exact q_pred gradient.

    huber_k(x) = 0.5 x^2 for |x| <= k, else k (|x| - 0.5 k). A k at or above
    every |x| gives the mean-square loss's bits."""
    q = np.asarray(q_pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if not (q.shape == t.shape == w.shape):
        raise InvalidInputError("q_pred/target/weights length mismatch")
    n = len(q)
    x = t - q
    clipped = np.abs(x) > k
    per = np.where(clipped, k * (np.abs(x) - 0.5 * k), 0.5 * x * x)
    dper = np.where(clipped, k * np.sign(x), x)
    value = float(np.add.reduce(w * per) / n)
    return LossOutput(value=value, grad=-w * dper / n)


def gradient_penalty(critic_params: nn.ParameterSet, inputs,
                     cache) -> PenaltyOutput:
    """Hinge penalty mean(max(||dQ/dx|| - 1, 0)^2) over the batch, with
    exact parameter gradients via the input-gradient backward pass.

    cache is the critic's nn.forward_cache of these inputs."""
    g, chain = nn.input_gradient(critic_params, inputs, cache)
    norms = np.sqrt(np.add.reduce(g * g, axis=1))
    excess = np.maximum(norms - 1.0, 0.0)
    n = len(norms)
    value = float(np.add.reduce(excess**2) / n)
    active = excess > 0.0
    scale = np.zeros(n)
    scale[active] = 2.0 * excess[active] / (n * norms[active])
    cot = g * scale[:, None]
    param_grads = nn.input_gradient_param_backward(critic_params, inputs, cot,
                                                   cache, chain)
    return PenaltyOutput(value=value, param_grads=param_grads)
