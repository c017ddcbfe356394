"""Minimal feed-forward network machinery on float64 numpy.

Hand-rolled reverse-mode gradients for a fixed MLP family (linear layers
with ReLU between, linear output): enough for desk-scale actor-critic
training with full determinism. Also provides exact input gradients and
the mixed parameter derivative of input gradients (needed to train
through a gradient-norm penalty), the Adam optimizer, and Polyak target
averaging. Every backward pass takes the forward cache that its caller
holds, from forward_cache, which checks the input; no pass recomputes a
forward. Both Adam steps raise FloatingPointError on a non-finite
gradient before they change anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import binio


class ShapeError(ValueError):
    pass


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(d < 1 for d in dims):
            raise ShapeError(f"all dimensions must be >= 1, got {dims}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]


class ParameterSet:
    """Per-layer weight matrices (out x in) and bias vectors.

    All parameters live in one contiguous float64 vector, `flat`, laid out
    w0, b0, w1, b1, ...; weights[i] and biases[i] are views into it. Whole-
    set operations (Adam, Polyak, finiteness, copies, equality) act on
    `flat` in one elementwise pass, which rounds each entry exactly as a
    per-layer pass would. The layout (each array's shape and its slice of
    `flat`) is computed once and shared by every copy. The constructor
    copies the given arrays.
    """

    __slots__ = ("flat", "weights", "biases", "_shapes", "_slices")

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if len(weights) != len(biases):
            raise ShapeError(f"{len(weights)} weight matrices but "
                             f"{len(biases)} bias vectors")
        arrays = [np.asarray(a, dtype=np.float64)
                  for pair in zip(weights, biases) for a in pair]
        slices, offset = [], 0
        for a in arrays:
            slices.append(slice(offset, offset + a.size))
            offset += a.size
        self._bind(np.concatenate([a.ravel() for a in arrays]),
                   tuple(a.shape for a in arrays), tuple(slices))

    def _bind(self, flat: np.ndarray, shapes: tuple, slices: tuple) -> None:
        self.flat = flat
        self._shapes = shapes
        self._slices = slices
        views = [flat[s].reshape(shape) for s, shape in zip(slices, shapes)]
        self.weights = views[0::2]
        self.biases = views[1::2]

    def _like(self, flat: np.ndarray) -> "ParameterSet":
        out = ParameterSet.__new__(ParameterSet)
        out._bind(flat, self._shapes, self._slices)
        return out

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "ParameterSet":
        return self._like(self.flat.copy())

    def zeros_like(self) -> "ParameterSet":
        return self._like(np.zeros(len(self.flat)))

    def arrays(self):
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            yield f"w{i}", w
            yield f"b{i}", b

    def all_finite(self) -> bool:
        return bool(np.logical_and.reduce(np.isfinite(self.flat)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterSet) or other.n_layers != self.n_layers:
            return NotImplemented
        return (self._shapes == other._shapes
                and np.array_equal(self.flat, other.flat))


def pack(sets: list[ParameterSet]) -> np.ndarray:
    """Move sets into one contiguous vector, back to back, and return it;
    each set keeps its identity and values, as views into the vector."""
    joined = np.concatenate([s.flat for s in sets])
    offset = 0
    for s in sets:
        s._bind(joined[offset:offset + len(s.flat)], s._shapes, s._slices)
        offset += len(s.flat)
    return joined


def init(spec: NetworkSpec, seed) -> ParameterSet:
    """Fan-in-scaled uniform initialization, deterministic given the seed.

    seed may be anything numpy accepts as generator seed material, or an
    existing Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    weights, biases = [], []
    for out_dim, in_dim in spec.layer_dims:
        bound = 1.0 / np.sqrt(in_dim)
        weights.append(rng.uniform(-bound, bound, size=(out_dim, in_dim)))
        biases.append(rng.uniform(-bound, bound, size=out_dim))
    return ParameterSet(weights, biases)


def forward_cache(params: ParameterSet, x: np.ndarray):
    """Forward pass keeping what the backward passes need; x is checked
    here, where it enters, and taken as float64.

    Returns (output, (hidden, masks)): hidden[0] is the input and
    hidden[l] for 0 < l < L the ReLU activation of layer l - 1; masks[l]
    is the boolean ReLU mask a > 0 of hidden layer l's pre-activation a,
    which the backward passes multiply by rather than recompute. Each
    pre-activation is rounded as h @ W.T + b and then overwritten by its
    activation, so the cache holds no pre-activations.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.weights[0].shape[1]:
        raise ShapeError(
            f"input shape {x.shape} incompatible with first layer "
            f"{params.weights[0].shape}"
        )
    L = params.n_layers
    h = x
    hidden = [x]
    masks = []
    for l in range(L):
        a = h @ params.weights[l].T
        a += params.biases[l]
        if l < L - 1:
            masks.append(a > 0.0)
            h = np.maximum(a, 0.0, out=a)
            hidden.append(h)
        else:
            h = a
    return h, (hidden, masks)


def backward(params: ParameterSet, x: np.ndarray, output_gradient: np.ndarray,
             cache):
    """Exact reverse-mode gradients of the forward map.

    cache is forward_cache(params, x)'s; output_gradient holds
    d(loss)/d(output) per sample. Returns parameter gradients (summed over
    the batch) and d(loss)/d(input) per sample. Each layer's gradient is
    written once into a fresh flat vector.
    """
    hidden, masks = cache
    g = np.asarray(output_gradient, dtype=np.float64)
    if g.shape != (len(x), params.weights[-1].shape[0]):
        raise ShapeError(
            f"output_gradient shape {g.shape} mismatch with "
            f"({len(x)}, {params.weights[-1].shape[0]})"
        )
    L = params.n_layers
    grads = params._like(np.empty(len(params.flat)))
    for l in range(L - 1, -1, -1):
        np.matmul(g.T, hidden[l], out=grads.weights[l])
        np.add.reduce(g, axis=0, out=grads.biases[l])
        # with one column in g, g @ W is an outer product that rounds each
        # entry once, as the broadcast g * W does without BLAS
        w = params.weights[l]
        g = g * w if g.shape[1] == 1 else g @ w
        if l > 0:
            g *= masks[l - 1]
    return grads, g


def input_gradient(params: ParameterSet, x: np.ndarray, cache):
    """Per-sample gradient of a scalar-output network w.r.t. its input,
    from forward_cache(params, x)'s cache.

    Returns (gradient, chain): chain is the backward chain, for
    input_gradient_param_backward. chain[L] is all ones (the output's own
    gradient); chain[l] for 0 < l < L is d(output)/d(pre-activation of
    layer l - 1), i.e. masked by that layer's ReLU; chain[0] is the
    gradient, d(output)/d(input).
    """
    if params.weights[-1].shape[0] != 1:
        raise ShapeError("input_gradient requires a scalar-output network")
    _, masks = cache
    L = params.n_layers
    ones = np.empty((len(x), 1))
    ones.fill(1.0)  # np.ones runs this fill through a Python wrapper
    chain = [ones] * (L + 1)
    # ones @ W is W's one row on every row: broadcast it, one rounding each
    g = params.weights[L - 1]
    g = g * masks[L - 2] if L > 1 else np.repeat(g, len(x), axis=0)
    chain[L - 1] = g
    for l in range(L - 2, -1, -1):
        g = g @ params.weights[l]
        if l > 0:
            g *= masks[l - 1]
        chain[l] = g
    return chain[0], chain


def input_gradient_param_backward(params: ParameterSet, x: np.ndarray,
                                  cotangent: np.ndarray, cache,
                                  chain) -> ParameterSet:
    """Parameter gradient of sum_i <g_i, c_i> where g_i is the input
    gradient of sample i and c_i the given cotangent row.

    Computed as reverse-mode over the directional-derivative (JVP) pass
    with the ReLU masks held fixed, which is the exact derivative almost
    everywhere. Biases only move activations, so their contribution is
    zero a.e. cache is forward_cache(params, x)'s and chain the one
    input_gradient(params, x, cache) returned.
    """
    _, masks = cache
    c = np.asarray(cotangent, dtype=np.float64)
    if c.shape != x.shape:
        raise ShapeError(f"cotangent shape {c.shape} != input shape {x.shape}")
    L = params.n_layers
    grads = params.zeros_like()
    # tangent pass along direction c, meeting the backward chain per layer
    t = c
    for l in range(L):
        grads.weights[l] += chain[l + 1].T @ t
        if l < L - 1:
            t = t @ params.weights[l].T
            t *= masks[l]
    return grads


class AdamState:
    """Bias-corrected Adam over a ParameterSet; deterministic.

    A non-finite gradient raises FloatingPointError before the moments,
    the step count or the parameters change.
    """

    def __init__(self, params: ParameterSet, learning_rate: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.m = params.zeros_like()
        self.v = params.zeros_like()
        self.step_count = 0
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def step(self, params: ParameterSet, grads: ParameterSet) -> ParameterSet:
        if not grads.all_finite():
            raise FloatingPointError("non-finite Adam gradient")
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        g, m, v = grads.flat, self.m.flat, self.v.flat
        # Two transient scratch vectors and in-place ufuncs: each product,
        # sum and quotient is the one of the textbook form
        #   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        #   params -= lr (m / c1) / (sqrt(v / c2) + eps)
        # taken in the same order, so the result is bit-identical to it.
        s, r = np.empty(len(g)), np.empty(len(g))
        np.multiply(g, 1.0 - self.beta1, out=s)
        m *= self.beta1
        m += s
        np.multiply(g, 1.0 - self.beta2, out=s)
        s *= g
        v *= self.beta2
        v += s
        np.divide(m, c1, out=s)
        s *= self.learning_rate
        np.divide(v, c2, out=r)
        np.sqrt(r, out=r)
        r += self.eps
        s /= r
        params.flat -= s
        return params


class ScalarAdam:
    """Adam on a single scalar (temperature parameter)."""

    def __init__(self, learning_rate: float = 3e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.m = 0.0
        self.v = 0.0
        self.step_count = 0
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def step(self, value: float, grad: float) -> float:
        """value after one step; a non-finite grad raises
        FloatingPointError before the moments or the step count change."""
        if not np.isfinite(grad):
            raise FloatingPointError("non-finite Adam gradient")
        self.step_count += 1
        t = self.step_count
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        mhat = self.m / (1.0 - self.beta1**t)
        vhat = self.v / (1.0 - self.beta2**t)
        return value - self.learning_rate * mhat / (np.sqrt(vhat) + self.eps)


def polyak(target: ParameterSet, online: ParameterSet, tau: float) -> ParameterSet:
    """In-place exponential averaging: target <- (1 - tau) target + tau online."""
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if target._shapes != online._shapes:
        raise ShapeError("target/online parameter shape mismatch")
    target.flat *= 1.0 - tau
    target.flat += tau * online.flat
    return target


def save_checkpoint(path_or_stream, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays in the shared versioned binary envelope."""
    binio.write_envelope(
        path_or_stream, binio.KIND_CHECKPOINT, binio.arrays_to_payload(arrays)
    )


def load_checkpoint(path_or_stream) -> dict[str, np.ndarray]:
    payload = binio.read_envelope(path_or_stream, binio.KIND_CHECKPOINT)
    return binio.payload_to_arrays(payload)
