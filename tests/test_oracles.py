import itertools
import json
import math

import numpy as np
import pytest

from roer import divergences, losses, oracles
from roer.divergences import SPECS, DomainError
from roer.envs import TabularEnv, TabularMdp, chain_mdp, gridworld_mdp, random_mdp
from roer.oracles import (
    OccupancyTable,
    bellman_backup,
    dual_minimize,
    dual_objective,
    expected_return,
    greedy_policy,
    kl_divergence_to_implied,
    occupancy,
    policy_q,
    recovered_distribution,
    run_suite,
    telescoping_check,
    total_variation,
    value_iteration,
)


def single_state_mdp(reward=1.0, gamma=0.9):
    return TabularMdp(
        transitions=np.ones((1, 1, 1)),
        rewards=np.full((1, 1), reward),
        initial=np.ones(1),
        gamma=gamma,
    )


def random_policy(mdp, rng):
    return rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)


class TestValueIteration:
    def test_single_state_closed_form(self):
        Q, V, policy = value_iteration(single_state_mdp(reward=1.0, gamma=0.9))
        assert Q[0, 0] == pytest.approx(10.0, abs=1e-8)
        assert V[0] == pytest.approx(10.0, abs=1e-8)
        assert policy[0, 0] == 1.0

    def test_zero_reward(self):
        mdp = random_mdp(5, 3, seed=1)
        zero = TabularMdp(mdp.transitions, np.zeros((5, 3)), mdp.initial, mdp.gamma)
        Q, _, _ = value_iteration(zero)
        assert np.max(np.abs(Q)) <= 1e-12

    def test_two_state_chain_vs_truncated_enumeration(self):
        # independent oracle: enumerate all stationary deterministic
        # policies, evaluate each by a 1e5-step truncated discounted sum on
        # the deterministic chain, take the best
        mdp = chain_mdp(2, gamma=0.9)
        horizon = 100_000
        best = np.full((2, 2), -np.inf)
        for pol in itertools.product(range(2), repeat=2):
            for s0 in range(2):
                for a0 in range(2):
                    s, a = s0, a0
                    total, disc = 0.0, 1.0
                    for _ in range(horizon):
                        total += disc * mdp.rewards[s, a]
                        s = int(mdp.transitions[s, a].argmax())
                        a = pol[s]
                        disc *= mdp.gamma
                        if disc < 1e-18:
                            break
                    best[s0, a0] = max(best[s0, a0], total)
        Q, _, _ = value_iteration(mdp, tol=1e-12)
        assert np.max(np.abs(Q - best)) <= 1e-6

    def test_bellman_residual_bound(self):
        mdp = random_mdp(6, 3, seed=3)
        Q, _, _ = value_iteration(mdp, tol=1e-10)
        backup = mdp.rewards + mdp.gamma * mdp.transitions @ Q.max(axis=1)
        assert np.max(np.abs(backup - Q)) <= 1e-10

    def test_ties_break_to_lowest_action(self):
        mdp = single_state_mdp()
        P = np.ones((1, 2, 1))
        r = np.full((1, 2), 1.0)
        tie = TabularMdp(P, r, np.ones(1), 0.9)
        _, _, policy = value_iteration(tie)
        assert policy[0, 0] == 1.0 and policy[0, 1] == 0.0


class TestOccupancy:
    def test_single_state_normalized(self):
        d = occupancy(single_state_mdp(), np.ones((1, 1)))
        assert d.table[0, 0] == pytest.approx(1.0)

    def test_symmetric_two_state_uniform(self):
        P = np.zeros((2, 2, 2))
        for s in range(2):
            P[s, 0, s] = 1.0        # stay
            P[s, 1, 1 - s] = 1.0    # swap
        mdp = TabularMdp(P, np.zeros((2, 2)), np.array([0.5, 0.5]), 0.9)
        d = occupancy(mdp, np.full((2, 2), 0.5))
        assert np.allclose(d.table, 0.25)

    def test_power_series_oracle(self):
        mdp = random_mdp(5, 2, gamma=0.9, seed=9)
        rng = np.random.default_rng(10)
        pi = random_policy(mdp, rng)
        # independent path: propagate the state distribution forward and
        # accumulate (1-gamma) sum gamma^t Pr[s_t, a_t]
        P_pi = np.einsum("sa,sat->st", pi, mdp.transitions)
        p = mdp.initial.copy()
        acc = np.zeros((5, 2))
        disc = 1.0
        while disc >= 1e-12:
            acc += disc * (p[:, None] * pi)
            p = P_pi.T @ p
            disc *= mdp.gamma
        acc *= 1.0 - mdp.gamma
        d = occupancy(mdp, pi)
        assert np.max(np.abs(d.table - acc / acc.sum())) <= 1e-9

    def test_optimal_occupancy_maximizes_reward(self):
        mdp = random_mdp(4, 3, gamma=0.9, seed=12)
        _, _, pi_star = value_iteration(mdp)
        best = float(np.sum(occupancy(mdp, pi_star).table * mdp.rewards))
        rng = np.random.default_rng(13)
        for _ in range(100):
            pi = random_policy(mdp, rng)
            val = float(np.sum(occupancy(mdp, pi).table * mdp.rewards))
            assert val <= best + 1e-10


class TestTelescoping:
    def test_single_state_exact(self):
        mdp = single_state_mdp()
        assert telescoping_check(mdp, np.ones((1, 1)), np.array([[3.7]])) <= 1e-12

    def test_random_triples(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            mdp = random_mdp(5, 2, gamma=0.9, seed=int(rng.integers(10**6)))
            pi = random_policy(mdp, rng)
            Q = rng.normal(scale=5.0, size=(5, 2))
            assert telescoping_check(mdp, pi, Q) <= 1e-8

    def test_constant_q(self):
        mdp = random_mdp(4, 2, seed=30)
        pi = random_policy(mdp, np.random.default_rng(31))
        Q = np.full((4, 2), 2.5)
        assert telescoping_check(mdp, pi, Q) <= 1e-12


class TestDualObjective:
    def test_saddle_point_value(self):
        mdp = random_mdp(3, 2, gamma=0.9, seed=40)
        Q, _, pi_star = value_iteration(mdp, tol=1e-12)
        d_star = occupancy(mdp, pi_star)
        val = dual_objective(mdp, Q, d_star, beta=1.0, div=SPECS["kl"],
                             policy=pi_star)
        init_only = (1.0 - mdp.gamma) * float(
            np.sum(mdp.initial[:, None] * pi_star * Q)
        )
        assert val == pytest.approx(init_only, abs=1e-8)

    def test_large_beta_limit(self):
        mdp = random_mdp(3, 2, gamma=0.9, seed=41)
        rng = np.random.default_rng(42)
        Q = rng.normal(size=(3, 2))
        _, _, pi = value_iteration(mdp)
        d = OccupancyTable(np.full((3, 2), 1.0 / 6.0))
        init_only = (1.0 - mdp.gamma) * float(np.sum(mdp.initial[:, None] * pi * Q))
        vals = [
            dual_objective(mdp, Q, d, beta, SPECS["kl"], pi)
            for beta in (1e2, 1e4, 1e6)
        ]
        gaps = [abs(v - init_only - np.sum(d.table * (bellman_backup(mdp, Q, pi) - Q)))
                for v in vals]
        assert gaps[2] < gaps[0]
        assert gaps[2] < 1e-4

    def test_double_bookkeeping_reference(self):
        # separately coded reference path: explicit loops and math.exp
        mdp = random_mdp(2, 2, gamma=0.9, seed=43)
        rng = np.random.default_rng(44)
        Q = rng.normal(size=(2, 2))
        _, _, pi = value_iteration(mdp)
        d = OccupancyTable(np.array([[0.1, 0.2], [0.3, 0.4]]))
        beta = 0.7
        ref = 0.0
        for s in range(2):
            for a in range(2):
                backup = mdp.rewards[s, a]
                for s2 in range(2):
                    v = 0.0
                    for a2 in range(2):
                        v += pi[s2, a2] * Q[s2, a2]
                    backup += mdp.gamma * mdp.transitions[s, a, s2] * v
                delta = backup - Q[s, a]
                ref += beta * d.table[s, a] * (math.exp(delta / beta) - 1.0)
        for s in range(2):
            for a in range(2):
                ref += (1.0 - mdp.gamma) * mdp.initial[s] * pi[s, a] * Q[s, a]
        val = dual_objective(mdp, Q, d, beta, SPECS["kl"], pi)
        assert val == pytest.approx(ref, abs=1e-12)

    def test_domain_violation_propagates(self):
        mdp = single_state_mdp(reward=100.0, gamma=0.9)
        pi = np.ones((1, 1))
        d = OccupancyTable(np.ones((1, 1)))
        with pytest.raises(DomainError):
            # huge positive residual exceeds the neyman conjugate domain
            dual_objective(mdp, np.zeros((1, 1)), d, 1.0,
                           SPECS["neyman_chi2"], pi)


class TestDualMinimize:
    def fixed_mdp(self):
        return random_mdp(2, 2, gamma=0.9, seed=50)

    def test_uniform_data_recovers_optimal_occupancy(self):
        mdp = self.fixed_mdp()
        _, _, pi_star = value_iteration(mdp, tol=1e-12)
        d_star = occupancy(mdp, pi_star)
        d_data = OccupancyTable(np.full((2, 2), 0.25))
        Q = dual_minimize(mdp, d_data, 1.0, SPECS["kl"], pi_star)
        rec = recovered_distribution(mdp, Q, d_data, 1.0, SPECS["kl"], pi_star)
        assert total_variation(rec, d_star.table) <= 0.05

    def test_matched_data_gives_unit_ratio(self):
        mdp = self.fixed_mdp()
        _, _, pi_star = value_iteration(mdp, tol=1e-12)
        d_star = occupancy(mdp, pi_star)
        Q = dual_minimize(mdp, d_star, 1.0, SPECS["kl"], pi_star)
        delta = bellman_backup(mdp, Q, pi_star) - Q
        ratio = np.exp(delta)
        support = d_star.table > 1e-12
        assert np.max(np.abs(ratio[support] - 1.0)) <= 0.05

    def test_beta_sweep_residual_scaling(self):
        mdp = self.fixed_mdp()
        _, _, pi_star = value_iteration(mdp, tol=1e-12)
        d_data = OccupancyTable(np.full((2, 2), 0.25))
        max_abs_delta = []
        for beta in (1.0, 10.0, 100.0, 1000.0):
            Q = dual_minimize(mdp, d_data, beta, SPECS["kl"], pi_star)
            delta = bellman_backup(mdp, Q, pi_star) - Q
            max_abs_delta.append(np.max(np.abs(delta)))
            rec = recovered_distribution(mdp, Q, d_data, beta, SPECS["kl"],
                                         pi_star)
            assert total_variation(rec, occupancy(mdp, pi_star).table) <= 0.05
        assert all(b >= a - 1e-9 for a, b in zip(max_abs_delta, max_abs_delta[1:]))


EXACT_MDPS = pytest.mark.parametrize("mdp", [
    chain_mdp(5, gamma=0.9), gridworld_mdp(3, 3, gamma=0.9),
    random_mdp(4, 2, gamma=0.9, seed=0)], ids=["chain-5", "grid-3x3", "random-4x2"])


class TestPolicyQ:
    @EXACT_MDPS
    def test_optimal_policy_recovers_q_star(self, mdp):
        Q, _, pi_star = value_iteration(mdp, tol=1e-12)
        assert np.max(np.abs(policy_q(mdp, pi_star) - Q)) <= 1e-9

    def test_stochastic_policy_is_a_bellman_fixed_point(self):
        mdp = random_mdp(5, 3, gamma=0.9, seed=8)
        pi = np.random.default_rng(9).dirichlet(np.ones(3), size=5)
        Q = policy_q(mdp, pi)
        assert np.max(np.abs(bellman_backup(mdp, Q, pi) - Q)) <= 1e-12


class TestExpectedReturn:
    @EXACT_MDPS
    def test_matches_serial_episodes(self, mdp):
        # the greedy optimal policy's episodes of 30 steps from mdp.initial
        _, _, pi_star = value_iteration(mdp, tol=1e-12)
        greedy = pi_star.argmax(axis=1)
        env = TabularEnv(mdp, horizon=30, rng=np.random.default_rng(11))
        returns = []
        for _ in range(2_000):
            s, total, done = env.reset(), 0.0, False
            while not done:
                s, r, _, done = env.step(greedy[s])
                total += r
            returns.append(total)
        se = np.std(returns, ddof=1) / np.sqrt(len(returns))
        exact = expected_return(mdp, pi_star, 30)
        # the chain is deterministic: se is 0 and the sums must agree
        assert abs(np.mean(returns) - exact) <= 4.0 * se + 1e-12


def test_greedy_policy_breaks_ties_to_the_lowest_action():
    Q = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]])
    assert greedy_policy(Q).tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


class TestKlHelper:
    def test_matches_manual_sum(self):
        d = OccupancyTable(np.array([[0.5, 0.25], [0.25, 0.0]]))
        implied = {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.5}
        manual = (0.5 * math.log(0.5 / 0.25) + 0.25 * math.log(0.25 / 0.25)
                  + 0.25 * math.log(0.25 / 0.5))
        assert kl_divergence_to_implied(d, implied) == pytest.approx(manual)

    def test_missing_support_is_finite(self):
        d = OccupancyTable(np.array([[1.0], [0.0]]))
        val = kl_divergence_to_implied(d, {(1, 0): 1.0})
        assert np.isfinite(val) and val > 0.0


KINDS = ("kl", "reverse_kl", "pearson_chi2", "neyman_chi2", "squared_hellinger")

# the clean report's 18 rows, in order
SUITE_ROWS = (
    [("conjugate_inverse_identity", k) for k in KINDS]
    + [("fenchel_young", k) for k in KINDS]
    + [("value_fixed_point", "kl"), ("value_fixed_point", "pearson_chi2"),
       ("telescoping_identity", None), ("dual_recovery_tv", None),
       ("dual_matched_unit_ratio", None), ("sum_tree_proportionality", None),
       ("sum_tree_chi2", None), ("policy_q_matches_q_star", None)]
)


class TestOracleSuite:
    def test_fresh_checkout_passes(self):
        report, ok = run_suite()
        assert ok
        assert [(r["check"], r.get("kind")) for r in report] == SUITE_ROWS
        for r in report:
            assert "tolerance" in r and "measured" in r

    def test_corrupted_conjugate_named_in_report(self, tmp_path):
        path = tmp_path / "report.json"
        report, ok = run_suite(corrupt_kind="kl", report_path=path)
        assert not ok
        failed = [r for r in report if not r["passed"]]
        assert any(r["check"] == "conjugate_inverse_identity"
                   and r.get("kind") == "kl" for r in failed)
        saved = json.loads(path.read_text())
        assert saved["passed"] is False

    def test_value_fixed_point_rejects_a_loss_that_settles_off_the_unit_ratio(
            self, monkeypatch):
        # mean(R^2 / (2 beta) + R) settles at V = E[Q] + beta, where the
        # Pearson ratio z + 1 averages to 0
        real = losses.extreme_v_loss

        def shifted(residuals, beta, grad_clip, div):
            out = real(residuals, beta, grad_clip, div)
            if div.name == "pearson_chi2":
                out.grad = (residuals / beta + 1.0) / len(residuals)
            return out

        monkeypatch.setattr(losses, "extreme_v_loss", shifted)
        report, ok = run_suite()
        failed = [(r["check"], r.get("kind")) for r in report if not r["passed"]]
        assert failed == [("value_fixed_point", "pearson_chi2")]
        assert [r["measured"] for r in report if r["check"] == "value_fixed_point"
                and r["kind"] == "pearson_chi2"] == [pytest.approx(1.0)]
