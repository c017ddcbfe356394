"""Exact tabular oracles: optimal values, a policy's values and expected
episode return, discounted occupancies, the dual objective of the
divergence-regularized return and its minimizer, and the telescoping
identity check; and run_suite, the release-gate suite of `roer oracle`.

These are the reference paths the rest of the system is verified against,
so everything here favors exactness over scalability: a policy's Q and
its occupancy come from dense linear solves, the dual minimizer from
quasi-Newton descent to a 1e-8 gradient norm, expectations from full
summation. Only run_suite draws random numbers, each from a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import divergences, losses, schemes
from .envs import TabularMdp, random_mdp
from .replay import PriorityBuffer


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
    # gamma * P @ v is (gamma * P) @ v: the product is formed once, not per sweep
    r, gamma_P = mdp.rewards, mdp.gamma * mdp.transitions
    Q = np.zeros((mdp.n_states, mdp.n_actions))
    while True:
        Q_backup = r + gamma_P @ np.maximum.reduce(Q, axis=1)
        residual = np.maximum.reduce(np.abs(Q_backup - Q), axis=None)
        Q = Q_backup
        # the contraction shrinks the new iterate's residual below gamma*residual
        if residual <= tol:
            break
    return Q, np.maximum.reduce(Q, axis=1), greedy_policy(Q)


def greedy_policy(Q: np.ndarray) -> np.ndarray:
    """The deterministic policy table that takes argmax Q in each state,
    ties to the lowest action index (TabularAgent.act's rule)."""
    return np.eye(Q.shape[1])[Q.argmax(axis=1)]


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


def policy_q(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    """Exact discounted Q of a policy: the zero of its affine TD map."""
    A, b = _affine_td_map(mdp, policy)
    return np.linalg.solve(A, -b).reshape(mdp.n_states, mdp.n_actions)


def expected_return(mdp: TabularMdp, policy: np.ndarray, horizon: int) -> float:
    """Expected undiscounted return of an episode that starts from
    mdp.initial, follows the policy and is cut after horizon steps."""
    P_pi = np.einsum("sa,sat->st", policy, mdp.transitions)
    r_pi = np.einsum("sa,sa->s", policy, mdp.rewards)
    dist, total = mdp.initial, 0.0
    for _ in range(horizon):
        total += float(dist @ r_pi)
        dist = dist @ P_pi
    return total


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


def kl_divergence_to_implied(d_target: OccupancyTable, implied: np.ndarray,
                             eps: float = 1e-12) -> float:
    """KL(d_target || implied) between two S x A tables, its terms added one
    at a time in (state, action) order, with an epsilon floor on the implied
    side so unvisited pairs stay finite; comparisons must use the same eps."""
    p = d_target.table
    if np.shape(implied) != p.shape:
        raise ValueError(f"implied table has shape {np.shape(implied)}, expected {p.shape}")
    held = p > 0.0
    return float(sum(p[held] * np.log(p[held] / np.maximum(implied[held], eps)), 0.0))


# ----------------------------------------------------------------------
# the release-gate suite

def run_suite(corrupt_kind: str | None = None,
              report_path=None) -> tuple[list[dict], bool]:
    """The release-gate checks, in a fixed order from fixed seeds: one row
    each of check (and kind), tolerance, measured residual and passed.

    Every row reads its divergences from one map, divergences.SPECS but
    for the corrupt_kind negative control, whose f*' is shifted by 1e-6. A
    dual minimizer that stalls fails its row alone, with measured inf and
    an "error"; report_path gets strict JSON, with null for an inf.
    """
    specs = dict(divergences.SPECS)
    if corrupt_kind is not None:
        sp = specs[corrupt_kind]  # f holds the original: a late-bound sp recurses
        specs[sp.name] = replace(sp, f_star_prime=lambda y, f=sp.f_star_prime: f(y) + 1e-6)
    report: list[dict] = []

    def record(check: str, tolerance: float, measured: float, **kind) -> None:
        report.append({"check": check, **kind, "tolerance": tolerance,
                       "measured": measured, "passed": measured <= tolerance})

    grid = np.logspace(np.log10(0.1), np.log10(10.0), 200)
    for sp in specs.values():
        ratio = divergences.conjugate_prime(sp, divergences.generator_prime(sp, grid))
        record("conjugate_inverse_identity", 1e-9, float(np.max(np.abs(ratio - grid))),
               kind=sp.name)

    rng = np.random.default_rng(2718)
    for sp in specs.values():
        lo, hi = max(sp.domain_conj[0], -20.0), min(sp.domain_conj[1], 20.0)
        xs = rng.uniform(0.05, 20.0, size=10_000)
        ys = rng.uniform(lo, hi - 1e-9, size=10_000)
        gap = xs * ys - divergences.generator(sp, xs) - divergences.conjugate(sp, ys)
        record("fenchel_young", 1e-12, float(np.max(gap)), kind=sp.name)

    # the unclipped value loss settles where E[f*'((Q - V) / beta)] = 1: bisect
    # a scalar V on the sign of the loss's own gradient over fixed Q samples
    q = np.random.default_rng(1618).normal(size=4096)
    for sp in (specs[div.name] for div in schemes.ROER_DIVERGENCES.values()):
        worst = 0.0
        for beta in (0.5, 1.0, 2.0):
            lo, hi = float(q.min()), float(q.max())
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                out = losses.extreme_v_loss(q - mid, beta, math.inf, sp)
                lo, hi = (mid, hi) if np.add.reduce(out.grad) > 0.0 else (lo, mid)
            ratio = float(np.mean(divergences.conjugate_prime(sp, (q - lo) / beta)))
            worst = max(worst, abs(ratio - 1.0))
        record("value_fixed_point", 1e-10, worst, kind=sp.name)

    worst = 0.0
    for _ in range(100):
        mdp = random_mdp(5, 2, gamma=0.9, seed=int(rng.integers(10**6)))
        pi = rng.dirichlet(np.ones(2), size=5)
        Q = rng.normal(scale=5.0, size=(5, 2))
        worst = max(worst, telescoping_check(mdp, pi, Q))
    record("telescoping_identity", 1e-8, worst)

    mdp = random_mdp(2, 2, gamma=0.9, seed=50)
    _, _, pi_star = value_iteration(mdp, tol=1e-12)
    d_star = occupancy(mdp, pi_star)
    d_uniform, kl = OccupancyTable(np.full((2, 2), 0.25)), specs["kl"]

    def dual_row(check: str, d_data: OccupancyTable, measure) -> None:
        try:
            record(check, 0.05, measure(dual_minimize(mdp, d_data, 1.0, kl, pi_star)))
        except ConvergenceError as exc:
            record(check, 0.05, math.inf)
            report[-1]["error"] = str(exc)

    dual_row("dual_recovery_tv", d_uniform, lambda Q: total_variation(
        recovered_distribution(mdp, Q, d_uniform, 1.0, kl, pi_star), d_star.table))
    support = d_star.table > 1e-12  # on d* the ratio f*'(delta) is 1 where d* has mass
    dual_row("dual_matched_unit_ratio", d_star, lambda Q: float(np.max(np.abs(
        divergences.conjugate_prime(kl, (bellman_backup(mdp, Q, pi_star) - Q)[support])
        - 1.0))))

    buf = PriorityBuffer(4, 3, 1, discrete=True)
    for i in range(3):
        buf.push(i, 0, 0.0, i, False)
    buf.update_priorities([0, 1, 2], [1.0, 2.0, 3.0])
    batch = buf.sample_proportional(60_000, np.random.default_rng(2024))
    freqs = np.bincount(batch.indices, minlength=3) / 60_000
    expect = np.array([1 / 6, 1 / 3, 1 / 2])
    record("sum_tree_proportionality", 0.01, float(np.max(np.abs(freqs - expect))))
    record("sum_tree_chi2", -2.0 * math.log(0.001),  # chi-squared 0.999 quantile, 2 dof
           float((((freqs - expect) * 60_000) ** 2 / (expect * 60_000)).sum()))

    # policy evaluation by one linear solve recovers Q* from the optimal policy
    mdp = random_mdp(5, 2)
    q_star, _, pi_star = value_iteration(mdp, tol=1e-12)
    record("policy_q_matches_q_star", 1e-9,
           float(np.max(np.abs(policy_q(mdp, pi_star) - q_star))))

    ok = all(r["passed"] for r in report)
    if report_path:
        rows = [{**r, "measured": r["measured"] if math.isfinite(r["measured"]) else None}
                for r in report]
        with open(report_path, "w") as fh:
            json.dump({"passed": ok, "checks": rows}, fh, indent=2, allow_nan=False)
            fh.write("\n")
    return report, ok
