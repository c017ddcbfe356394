import numpy as np
import pytest
from scipy import stats

from roer import envs
from roer.envs import (
    PendulumEnv,
    ProtocolError,
    TabularEnv,
    TabularMdp,
    chain_mdp,
    gridworld_mdp,
    random_mdp,
)


class TestTabularMdp:
    def test_validation(self):
        P = np.ones((2, 1, 2)) * 0.5
        r = np.zeros((2, 1))
        rho = np.array([0.5, 0.5])
        TabularMdp(P, r, rho, 0.9)
        with pytest.raises(ValueError):
            TabularMdp(P * 2.0, r, rho, 0.9)  # rows not stochastic
        with pytest.raises(ValueError):
            TabularMdp(P, r, np.array([0.6, 0.6]), 0.9)
        with pytest.raises(ValueError):
            TabularMdp(P, r, rho, 1.0)
        with pytest.raises(ValueError):
            TabularMdp(P, np.full((2, 1), np.inf), rho, 0.9)

    def test_chain_structure(self):
        mdp = chain_mdp(10)
        assert mdp.n_states == 10 and mdp.n_actions == 2
        assert mdp.transitions[3, 1, 4] == 1.0  # advance
        assert mdp.transitions[3, 0, 3] == 1.0  # stay
        assert mdp.transitions[9, 1, 9] == 1.0  # goal self-loop
        assert mdp.rewards[9, 1] == 1.0
        assert mdp.rewards.sum() == 1.0  # only the goal pays

    def test_gridworld_stochastic(self):
        mdp = gridworld_mdp(3, 3, slip=0.2)
        assert np.allclose(mdp.transitions.sum(axis=2), 1.0)


class TestTabularEnv:
    def test_reset_determinism(self):
        mdp = random_mdp(6, 2, seed=1)
        a = TabularEnv(mdp, rng=np.random.default_rng(3))
        b = TabularEnv(mdp, rng=np.random.default_rng(3))
        assert [a.reset() for _ in range(20)] == [b.reset() for _ in range(20)]

    def test_step_frequencies_match_transition_rows(self):
        mdp = random_mdp(4, 2, seed=7)
        env = TabularEnv(mdp, horizon=10**9, rng=np.random.default_rng(11))
        env.reset_to(2)
        counts = np.zeros(4)
        n = 100_000
        for _ in range(n):
            nxt, _, _, _ = env.step(1)
            counts[nxt] += 1
            env.reset_to(2)
        expected = mdp.transitions[2, 1] * n
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.ppf(0.999, df=3)

    def test_protocol_error_after_horizon(self):
        env = TabularEnv(chain_mdp(3), horizon=2, rng=np.random.default_rng(0))
        env.reset()
        env.step(1)
        _, _, _, truncated = env.step(1)
        assert truncated
        with pytest.raises(ProtocolError):
            env.step(1)


class FixedDraws:
    """A generator stub whose every uniform draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def edge_mdp():
    """Rows and an initial distribution with zero-probability states at
    both ends."""
    P = np.zeros((4, 2, 4))
    P[:, 0, 1:3] = 0.5
    P[:, 1, 2] = 1.0
    return TabularMdp(P, np.zeros((4, 2)), np.array([0.0, 0.25, 0.75, 0.0]), 0.9)


class TestOneDrawRule:
    """reset and step pick the first state whose running sum exceeds the
    draw; the extreme draws land on the first and the last state of
    positive probability, never on one of probability zero and never past
    the row (random MDP rows can sum to 1 - 2^-52)."""

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    @pytest.mark.parametrize("mdp", [edge_mdp(), random_mdp(20, 3, seed=5)],
                             ids=["edge", "random-20x3-5"])
    def test_extreme_draws_land_on_positive_probability(self, mdp, u):
        def expect(probs):
            support = np.flatnonzero(probs > 0.0)
            return support[0] if u == 0.0 else support[-1]

        env = TabularEnv(mdp, horizon=10**9, rng=FixedDraws(u))
        assert env.reset() == expect(mdp.initial)
        S, A = mdp.n_states, mdp.n_actions
        for s in range(S):
            for a in range(A):
                env.reset_to(s)
                nxt, _, _, _ = env.step(a)
                assert nxt == expect(mdp.transitions[s, a])
                env.step(0)  # the state drawn is one the next step can use


class TestPendulumEnv:
    def test_reset_determinism(self):
        a = PendulumEnv(rng=np.random.default_rng(2))
        b = PendulumEnv(rng=np.random.default_rng(2))
        assert np.array_equal(a.reset(), b.reset())

    def test_reset_to_recovers_observation(self):
        env = PendulumEnv(rng=np.random.default_rng(0))
        obs = env.reset()
        env.step([0.5])
        again = env.reset_to(obs)
        assert np.allclose(again, obs, atol=1e-12)

    def test_energy_bounded_under_zero_torque(self):
        env = PendulumEnv(horizon=10_000, rng=np.random.default_rng(4))
        env.reset()
        energies = []
        for _ in range(5_000):
            _, _, _, truncated = env.step([0.0])
            energies.append(env.energy())
            if truncated:
                break
        bound = 0.5 * envs.MASS * (envs.LENGTH * envs.MAX_SPEED) ** 2 \
            + envs.MASS * envs.GRAVITY * envs.LENGTH
        assert max(np.abs(energies)) <= bound + 1e-9

    def test_rewards_nonpositive_and_finite(self):
        env = PendulumEnv(rng=np.random.default_rng(5))
        env.reset()
        for _ in range(100):
            _, r, _, truncated = env.step([1.0])
            assert np.isfinite(r) and r <= 0.0
            if truncated:
                env.reset()

    def test_protocol_error(self):
        env = PendulumEnv(horizon=1, rng=np.random.default_rng(0))
        env.reset()
        env.step([0.0])
        with pytest.raises(ProtocolError):
            env.step([0.0])

    def test_batch_rollout_matches_serial(self):
        env = PendulumEnv(horizon=10**9, rng=np.random.default_rng(8))
        start = env.reset()
        policy = lambda obs: np.full((len(obs), 1), 0.3)
        horizon, gamma = 50, 0.99
        batch = env.batch_rollout(start[None, :], np.array([[0.7]]), policy, horizon,
                                  gamma)
        env.reset_to(start)
        total, disc = 0.0, 1.0
        action = 0.7
        for _ in range(horizon):
            _, r, _, _ = env.step([action])
            total += disc * r
            disc *= gamma
            action = 0.3
        assert batch[0] == pytest.approx(total, abs=1e-10)
