"""Exact tabular oracles: optimal values, discounted occupancies, the dual
objective of the divergence-regularized return and its minimizer, the
telescoping identity check, and Monte-Carlo true-value estimation.

These are the reference paths the rest of the system is verified against,
so everything here favors exactness over scalability: occupancies come
from a dense linear solve, the dual minimizer from quasi-Newton descent
to a 1e-8 gradient norm, expectations from full summation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import divergences
from .envs import TabularMdp


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class OccupancyTable:
    """Per-(s, a) discounted visitation probability; sums to 1."""

    table: np.ndarray  # (S, A)

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        object.__setattr__(self, "table", t)
        if np.any(t < -1e-12):
            raise ValueError("occupancy entries must be nonnegative")
        if abs(t.sum() - 1.0) > 1e-10:
            raise ValueError(f"occupancy must sum to 1, got {t.sum()!r}")


def value_iteration(mdp: TabularMdp, tol: float = 1e-10):
    """Optimal (Q*, V*, greedy policy) with sup-norm Bellman residual <= tol.

    Ties break toward the lowest action index, so the greedy policy (and
    hence the optimal occupancy) is deterministic and reproducible.
    """
    P, r, gamma = mdp.transitions, mdp.rewards, mdp.gamma
    Q = np.zeros((mdp.n_states, mdp.n_actions))
    while True:
        Q_backup = r + gamma * P @ Q.max(axis=1)
        residual = np.max(np.abs(Q_backup - Q))
        Q = Q_backup
        # the contraction shrinks the new iterate's residual below gamma*residual
        if residual <= tol:
            break
    V = Q.max(axis=1)
    greedy = Q.argmax(axis=1)
    policy = np.zeros_like(Q)
    policy[np.arange(mdp.n_states), greedy] = 1.0
    return Q, V, policy


def occupancy(mdp: TabularMdp, policy: np.ndarray) -> OccupancyTable:
    """Exact discounted state-action occupancy of a stochastic policy via
    the dense flow linear system."""
    pi = np.asarray(policy, dtype=np.float64)
    if pi.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError("policy table has wrong shape")
    if np.any(pi < 0) or np.max(np.abs(pi.sum(axis=1) - 1.0)) > 1e-10:
        raise ValueError("policy rows must be distributions")
    # P_pi[s, s'] = sum_a pi(a|s) P(s'|s, a)
    P_pi = np.einsum("sa,sat->st", pi, mdp.transitions)
    A = np.eye(mdp.n_states) - mdp.gamma * P_pi.T
    mu = np.linalg.solve(A, (1.0 - mdp.gamma) * mdp.initial)
    assert np.all(mu > -1e-12), "discounted flow produced negative mass"
    mu = np.maximum(mu, 0.0)
    d = mu[:, None] * pi
    return OccupancyTable(d / d.sum())


def _affine_td_map(mdp: TabularMdp, policy: np.ndarray):
    """delta(Q) = r + gamma P Pi Q - Q as an affine map (A, b) over the
    flattened Q table: delta = A q + b."""
    S, A_n = mdp.n_states, mdp.n_actions
    # T[(s,a), (s',a')] = P(s'|s,a) pi(a'|s')
    T = np.einsum("sat,tb->satb", mdp.transitions, policy).reshape(S * A_n, S * A_n)
    return mdp.gamma * T - np.eye(S * A_n), mdp.rewards.ravel()


def bellman_backup(mdp: TabularMdp, Q: np.ndarray, policy: np.ndarray) -> np.ndarray:
    """B Q(s,a) = r(s,a) + gamma E_{s'|s,a} E_{a'~pi} Q(s',a')."""
    v = np.einsum("sa,sa->s", policy, Q)
    return mdp.rewards + mdp.gamma * mdp.transitions @ v


def dual_objective(mdp: TabularMdp, Q: np.ndarray, d_data: OccupancyTable,
                   beta: float, div: divergences.DivergenceSpec,
                   policy: np.ndarray) -> float:
    """beta * E_{d_data}[f*(delta/beta)] + (1-gamma) E_{rho0, pi}[Q], with
    delta the TD residual of Q under the supplied (optimal) policy."""
    delta = bellman_backup(mdp, Q, policy) - Q
    conj = divergences.conjugate(div, delta / beta)
    reg_term = beta * float(np.sum(d_data.table * conj))
    init_term = (1.0 - mdp.gamma) * float(
        np.sum(mdp.initial[:, None] * policy * Q)
    )
    return reg_term + init_term


def dual_minimize(mdp: TabularMdp, d_data: OccupancyTable, beta: float,
                  div: divergences.DivergenceSpec, policy: np.ndarray,
                  grad_tol: float = 1e-8, max_iter: int = 20_000) -> np.ndarray:
    """Minimize the dual objective over the tabular Q entries until the
    gradient norm is <= grad_tol; returns the minimizer Q table.

    Downstream check: normalize f*'(delta/beta) * d_data and compare to
    the occupancy of the supplied policy.
    """
    A, b = _affine_td_map(mdp, policy)
    dD = d_data.table.ravel()
    lin = ((1.0 - mdp.gamma) * mdp.initial[:, None] * policy).ravel()

    def objective(q):
        conj = divergences.conjugate(div, (A @ q + b) / beta)
        return beta * float(dD @ conj) + float(lin @ q)

    def gradient(q):
        ratio = divergences.conjugate_prime(div, (A @ q + b) / beta)
        return A.T @ (dD * ratio) + lin

    from scipy import optimize  # slow to import; training never needs it

    q0 = np.zeros(mdp.n_states * mdp.n_actions)
    res = optimize.minimize(
        objective, q0, jac=gradient, method="L-BFGS-B",
        options=dict(maxiter=max_iter, ftol=1e-18, gtol=grad_tol * 1e-4),
    )
    q = res.x
    # plain descent polish in case the quasi-Newton stop was premature
    step = 1.0
    for _ in range(2_000):
        g = gradient(q)
        norm = float(np.linalg.norm(g))
        if norm <= grad_tol:
            break
        f0 = objective(q)
        while step > 1e-12:
            trial = q - step * g
            if objective(trial) < f0:
                q = trial
                step *= 1.5
                break
            step *= 0.5
    final = float(np.linalg.norm(gradient(q)))
    if final > grad_tol:
        raise ConvergenceError("dual minimization did not converge", final)
    return q.reshape(mdp.n_states, mdp.n_actions)


def recovered_distribution(mdp: TabularMdp, Q: np.ndarray,
                           d_data: OccupancyTable, beta: float,
                           div: divergences.DivergenceSpec,
                           policy: np.ndarray) -> np.ndarray:
    """Normalized f*'(delta/beta) * d_data: the minimizer's implied target
    occupancy."""
    delta = bellman_backup(mdp, Q, policy) - Q
    ratio = divergences.conjugate_prime(div, delta / beta)
    prod = ratio * d_data.table
    return prod / prod.sum()


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def telescoping_check(mdp: TabularMdp, policy: np.ndarray, Q: np.ndarray) -> float:
    """|E_{d_pi}[Q - gamma E Q'] - (1-gamma) E_{rho0, pi}[Q]| with exact
    occupancies on both sides."""
    d = occupancy(mdp, policy).table
    v = np.einsum("sa,sa->s", policy, Q)
    inner = Q - mdp.gamma * (mdp.transitions @ v)
    lhs = float(np.sum(d * inner))
    rhs = (1.0 - mdp.gamma) * float(np.sum(mdp.initial[:, None] * policy * Q))
    return abs(lhs - rhs)


def kl_divergence_to_implied(d_target: OccupancyTable, implied: dict,
                             eps: float = 1e-12) -> float:
    """KL(d_target || implied) with an epsilon floor on the implied side so
    unvisited pairs stay finite; comparisons must use the same eps."""
    S, A = d_target.table.shape
    out = 0.0
    for s in range(S):
        for a in range(A):
            p = d_target.table[s, a]
            if p <= 0.0:
                continue
            q = max(implied.get((s, a), 0.0), eps)
            out += p * np.log(p / q)
    return float(out)


@dataclass
class McValueResult:
    returns: np.ndarray
    mean: float
    tail_bound: float


def mc_true_value(env, policy_fn, pairs, gamma: float,
                  rng: np.random.Generator, horizon: int = 1000) -> McValueResult:
    """Monte-Carlo discounted returns from stored (state, action) pairs:
    reset to the state, take the stored action, then follow the policy.

    Rollouts are truncated at the horizon; the reported tail bound is
    gamma^horizon * r_max / (1 - gamma) with r_max the largest magnitude
    reward seen along the rollouts.
    """
    states, actions = pairs
    returns = env.batch_rollout(states, actions, policy_fn, horizon, gamma, rng)
    if hasattr(env, "mdp"):
        r_max = float(np.max(np.abs(env.mdp.rewards)))
    else:
        r_max = 16.5  # pendulum cost bound: pi^2 + 0.1 * 64 + 0.001 * 4
    tail = gamma**horizon * r_max / (1.0 - gamma)
    return McValueResult(returns=returns, mean=float(returns.mean()), tail_bound=tail)
