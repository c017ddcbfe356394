"""Desk-scale environments: finite MDPs with episodic wrappers and a
pendulum swing-up task.

Tabular instances (chain, gridworld, random) expose their full model
(transition tensor, rewards, initial distribution), so the oracles compute
their values and returns exactly. The pendulum has no such model: it has
batch rollouts from arbitrary (observation, action) starts, which roer bias
uses to estimate its true values by Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ProtocolError(RuntimeError):
    """step() called on a finished episode without reset()."""


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP (P, r, rho0, gamma) with row-stochastic transitions."""

    transitions: np.ndarray  # (S, A, S), rows sum to 1
    rewards: np.ndarray      # (S, A)
    initial: np.ndarray      # (S,)
    gamma: float

    def __post_init__(self):
        P = np.asarray(self.transitions, dtype=np.float64)
        r = np.asarray(self.rewards, dtype=np.float64)
        rho = np.asarray(self.initial, dtype=np.float64)
        object.__setattr__(self, "transitions", P)
        object.__setattr__(self, "rewards", r)
        object.__setattr__(self, "initial", rho)
        if P.ndim != 3 or P.shape[0] != P.shape[2]:
            raise ValueError(f"transition tensor must be (S, A, S), got {P.shape}")
        S, A, _ = P.shape
        if r.shape != (S, A):
            raise ValueError(f"rewards must be (S, A) = ({S}, {A}), got {r.shape}")
        if rho.shape != (S,):
            raise ValueError(f"initial distribution must have length {S}")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if np.any(P < 0) or np.max(np.abs(P.sum(axis=2) - 1.0)) > 1e-12:
            raise ValueError("transition rows must be distributions (tol 1e-12)")
        if np.any(rho < 0) or abs(rho.sum() - 1.0) > 1e-12:
            raise ValueError("initial distribution must sum to 1 (tol 1e-12)")
        if not np.all(np.isfinite(r)):
            raise ValueError("rewards must be finite")

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[1]


def chain_mdp(n_states: int = 10, gamma: float = 0.99,
              goal_reward: float = 1.0) -> TabularMdp:
    """Deterministic chain: action 1 advances (self-loop at the goal, where
    it pays goal_reward), action 0 stays in place for free. The start is
    state 0."""
    S, A = n_states, 2
    P = np.zeros((S, A, S))
    r = np.zeros((S, A))
    for s in range(S):
        P[s, 0, s] = 1.0
        P[s, 1, min(s + 1, S - 1)] = 1.0
    P[S - 1, 1, S - 1] = 1.0
    r[S - 1, 1] = goal_reward
    rho = np.zeros(S)
    rho[0] = 1.0
    return TabularMdp(P, r, rho, gamma)


def gridworld_mdp(rows: int = 4, cols: int = 4, gamma: float = 0.95,
                  slip: float = 0.1, goal_reward: float = 1.0) -> TabularMdp:
    """Rows x cols grid, 4 move actions with slip probability spread over
    the other directions; the bottom-right cell is an absorbing goal whose
    actions pay goal_reward. Start at the top-left corner."""
    S = rows * cols
    A = 4  # up, down, left, right
    moves = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    P = np.zeros((S, A, S))
    r = np.zeros((S, A))
    goal = S - 1

    def clip_move(s, move):
        rr, cc = divmod(s, cols)
        nr = min(max(rr + move[0], 0), rows - 1)
        nc = min(max(cc + move[1], 0), cols - 1)
        return nr * cols + nc

    for s in range(S):
        for a in range(A):
            if s == goal:
                P[s, a, s] = 1.0
                r[s, a] = goal_reward
                continue
            for b, move in enumerate(moves):
                prob = 1.0 - slip if b == a else slip / 3.0
                P[s, a, clip_move(s, move)] += prob
    rho = np.zeros(S)
    rho[0] = 1.0
    return TabularMdp(P, r, rho, gamma)


def random_mdp(n_states: int, n_actions: int, gamma: float = 0.95,
               seed: int = 0) -> TabularMdp:
    """Dense random MDP with Dirichlet transition rows and uniform [0, 1)
    rewards; initial distribution is Dirichlet too."""
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    r = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
    rho = rng.dirichlet(np.ones(n_states))
    return TabularMdp(P, r, rho, gamma)


def _draw_table(probs: np.ndarray) -> np.ndarray:
    """Running sums over the last axis for TabularEnv's one draw rule: a u in
    [0, 1) picks the first state whose sum is above u. The sums are +inf from
    a row's last state of positive probability on, so no u (0, or one at or
    above a row's rounded total) picks a state of probability zero or runs
    past the row."""
    cum = np.cumsum(probs, axis=-1)
    last = probs.shape[-1] - 1 - np.argmax(probs[..., ::-1] > 0.0, axis=-1)
    cum[np.arange(probs.shape[-1]) >= last[..., None]] = np.inf
    return cum


class TabularEnv:
    """Episodic wrapper around a TabularMdp.

    Episodes end only by truncation at the horizon; the MDPs here have no
    terminal states (gamma < 1 keeps values finite), so pushed transitions
    carry terminal=False and bootstrapping stays correct across resets.
    """

    discrete = True

    def __init__(self, mdp: TabularMdp, horizon: int = 1000,
                 rng: np.random.Generator | None = None):
        self.mdp = mdp
        self.horizon = horizon
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._state: int | None = None
        self._t = 0
        self._done = True
        self._cum = _draw_table(mdp.transitions)
        self._cum_init = _draw_table(mdp.initial)

    @property
    def n_states(self) -> int:
        return self.mdp.n_states

    @property
    def n_actions(self) -> int:
        return self.mdp.n_actions

    def reset(self) -> int:
        self._state = int(self._cum_init.searchsorted(self.rng.random(), side="right"))
        self._t = 0
        self._done = False
        return self._state

    def reset_to(self, state: int) -> int:
        """Start an episode in a given state; tests/test_envs.py uses it to
        check step frequencies and the draw rule."""
        self._state = int(state)
        self._t = 0
        self._done = False
        return self._state

    def step(self, action: int):
        if self._done or self._state is None:
            raise ProtocolError("step() after episode end; call reset()")
        s = self._state
        a = int(action)
        nxt = int(self._cum[s, a].searchsorted(self.rng.random(), side="right"))
        reward = float(self.mdp.rewards[s, a])
        self._t += 1
        truncated = self._t >= self.horizon
        self._done = truncated
        self._state = nxt
        return nxt, reward, False, truncated


# pendulum physics
GRAVITY = 10.0
MASS = 1.0
LENGTH = 1.0
DT = 0.05
MAX_TORQUE = 2.0
MAX_SPEED = 8.0


class PendulumEnv:
    """Torque-limited pendulum swing-up with quadratic state/action costs.

    Semi-implicit Euler at dt = 0.05 s, 200-step episodes by default.
    Observations are (cos th, sin th, thdot); actions live in [-1, 1] and
    are scaled by max_torque internally. The physical state is recoverable
    from an observation, which makes reset-to-pair rollouts possible.
    """

    discrete = False
    obs_dim = 3
    action_dim = 1
    # no step costs more: pi^2 + 0.1 * MAX_SPEED^2 + 0.001 * MAX_TORQUE^2 < 16.3
    COST_BOUND = 16.5

    def __init__(self, horizon: int = 200, rng: np.random.Generator | None = None):
        self.horizon = horizon
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._theta = 0.0
        self._thdot = 0.0
        self._t = 0
        self._done = True

    def _obs(self) -> np.ndarray:
        return np.array([np.cos(self._theta), np.sin(self._theta), self._thdot])

    def reset(self) -> np.ndarray:
        self._theta = float(self.rng.uniform(-np.pi, np.pi))
        self._thdot = float(self.rng.uniform(-1.0, 1.0))
        self._t = 0
        self._done = False
        return self._obs()

    def reset_to(self, obs) -> np.ndarray:
        """Start an episode at an observation's state; tests/test_envs.py
        uses it to check observation recovery and batch_rollout."""
        obs = np.asarray(obs, dtype=np.float64)
        self._theta = float(np.arctan2(obs[1], obs[0]))
        self._thdot = float(obs[2])
        self._t = 0
        self._done = False
        return self._obs()

    @staticmethod
    def _angle_norm(x):
        return ((x + np.pi) % (2.0 * np.pi)) - np.pi

    def _dynamics(self, theta, thdot, torque):
        cost = self._angle_norm(theta) ** 2 + 0.1 * thdot**2 + 0.001 * torque**2
        accel = (3.0 * GRAVITY / (2.0 * LENGTH)) * np.sin(theta) \
            + 3.0 * torque / (MASS * LENGTH**2)
        # np.clip's bits, without its Python wrappers
        new_thdot = np.minimum(np.maximum(thdot + accel * DT, -MAX_SPEED), MAX_SPEED)
        new_theta = theta + new_thdot * DT
        return new_theta, new_thdot, -cost

    def step(self, action):
        if self._done:
            raise ProtocolError("step() after episode end; call reset()")
        u = float(np.minimum(np.maximum(np.asarray(action).reshape(-1)[0], -1.0), 1.0))
        torque = u * MAX_TORQUE
        self._theta, self._thdot, reward = self._dynamics(
            self._theta, self._thdot, torque
        )
        self._t += 1
        truncated = self._t >= self.horizon
        self._done = truncated
        return self._obs(), float(reward), False, truncated

    def batch_rollout(self, states, first_actions, policy_fn, horizon: int,
                      gamma: float) -> np.ndarray:
        """Vectorized discounted returns from each observation/action start."""
        obs = np.asarray(states, dtype=np.float64)
        theta = np.arctan2(obs[:, 1], obs[:, 0])
        thdot = obs[:, 2].copy()
        act = np.asarray(first_actions, dtype=np.float64).reshape(len(obs), -1)[:, 0]
        returns = np.zeros(len(obs))
        discount = 1.0
        for t in range(horizon):
            torque = np.minimum(np.maximum(act, -1.0), 1.0) * MAX_TORQUE
            theta, thdot, reward = self._dynamics(theta, thdot, torque)
            returns += discount * reward
            discount *= gamma
            ob = np.stack([np.cos(theta), np.sin(theta), thdot], axis=1)
            act = np.asarray(policy_fn(ob), dtype=np.float64).reshape(len(obs), -1)[:, 0]
        return returns

    def energy(self) -> float:
        """Mechanical energy; tests/test_envs.py bounds it under zero torque."""
        kinetic = 0.5 * MASS * (LENGTH * self._thdot) ** 2
        potential = MASS * GRAVITY * LENGTH * np.cos(self._theta)
        return float(kinetic + potential)
