"""Acceptance gate: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The two pendulum
criteria share one set of training runs (10 seeds x 2 schemes) through a
session fixture; everything else is self-contained and fast.
"""

import io
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from roer import config as cmod
from roer import divergences, harness, losses, nn, oracles, schemes
from roer.divergences import SPECS
from roer.envs import random_mdp
from roer.oracles import (
    OccupancyTable,
    bellman_backup,
    dual_minimize,
    occupancy,
    recovered_distribution,
    total_variation,
    value_iteration,
)
from roer.replay import PriorityBuffer


def report(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"\n[criterion {number}] {'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def rel_err(a, b):
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    return np.max(np.abs(a - b) / np.maximum(1e-6, np.abs(a) + np.abs(b)))


def test_criterion_1_divergence_identity_suite():
    t0 = time.perf_counter()
    grid = np.logspace(np.log10(0.1), np.log10(10.0), 200)
    worst_identity = 0.0
    for sp in SPECS.values():
        worst_identity = max(
            worst_identity,
            max(abs(divergences.conjugate_prime(sp, divergences.generator_prime(sp, x)) - x)
                for x in grid),
        )
    rng = np.random.default_rng(314)
    worst_fy = -np.inf
    for sp in SPECS.values():
        lo = max(sp.domain_conj[0], -20.0)
        hi = min(sp.domain_conj[1], 20.0)
        xs = rng.uniform(0.05, 20.0, size=10_000)
        ys = rng.uniform(lo, hi - 1e-9, size=10_000)
        gaps = [x * y - divergences.generator(sp, x) - divergences.conjugate(sp, y)
                for x, y in zip(xs, ys)]
        worst_fy = max(worst_fy, max(gaps))
    elapsed = time.perf_counter() - t0
    ok = worst_identity <= 1e-9 and worst_fy <= 1e-12 and elapsed < 1.0
    report(1, "divergence identity suite", ok,
           f"max |f*'(f'(x)) - x| = {worst_identity:.2e} (tol 1e-9), "
           f"max Fenchel-Young violation = {worst_fy:.2e} (tol 1e-12), "
           f"runtime {elapsed:.2f}s (< 1 s)")


def test_criterion_2_sum_tree_proportionality():
    t0 = time.perf_counter()
    buf = PriorityBuffer(4, 3, 1, discrete=True)
    for i in range(3):
        buf.push(i, 0, 0.0, i, False)
    buf.update_priorities([0, 1, 2], [1.0, 2.0, 3.0])
    batch = buf.sample_proportional(60_000, np.random.default_rng(2024))
    freqs = np.bincount(batch.indices, minlength=3) / 60_000
    expect = np.array([1 / 6, 1 / 3, 1 / 2])
    max_dev = float(np.max(np.abs(freqs - expect)))
    counts = freqs * 60_000
    chi2 = float(((counts - expect * 60_000) ** 2 / (expect * 60_000)).sum())
    crit = float(stats.chi2.ppf(0.999, df=2))
    elapsed = time.perf_counter() - t0
    ok = max_dev < 0.01 and chi2 < crit and elapsed < 1.0
    report(2, "sum-tree proportionality", ok,
           f"max |freq - p| = {max_dev:.4f} (tol 0.01), chi2 = {chi2:.2f} "
           f"(99.9% critical {crit:.2f}), runtime {elapsed:.2f}s (< 1 s)")


def test_criterion_3_gradient_checks():
    t0 = time.perf_counter()
    worst = {"mlp": 0.0, "extreme_v": 0.0, "huber": 0.0, "penalty": 0.0}
    h = 1e-5
    for seed in range(20):
        rng = np.random.default_rng(seed)
        # MLP backprop
        net_spec = nn.NetworkSpec(3, (6, 5), 2)
        params = nn.init(net_spec, seed)
        x = rng.normal(size=(4, 3))
        gout = rng.normal(size=(4, 2))
        analytic, _ = nn.backward(params, x, gout, nn.forward_cache(params, x)[1])
        for target, store in zip(
            [*params.weights, *params.biases],
            [*analytic.weights, *analytic.biases],
        ):
            it = np.nditer(target, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = target[idx]
                target[idx] = orig + h
                up = float(np.sum(nn.forward_cache(params, x)[0] * gout))
                target[idx] = orig - h
                down = float(np.sum(nn.forward_cache(params, x)[0] * gout))
                target[idx] = orig
                fd = (up - down) / (2.0 * h)
                worst["mlp"] = max(worst["mlp"], rel_err(store[idx], fd))

        # the value loss's gradient w.r.t. the residuals, for each ROER
        # divergence
        r = rng.normal(scale=2.0, size=12)
        beta = float(rng.uniform(0.4, 4.0))
        for div in schemes.ROER_DIVERGENCES.values():
            out_ev = losses.extreme_v_loss(r, beta, 7.0, div)
            fd_v = np.zeros(12)
            for i in range(12):
                e = h * np.eye(12)[i]
                fd_v[i] = (losses.extreme_v_loss(r + e, beta, 7.0, div).value
                           - losses.extreme_v_loss(r - e, beta, 7.0, div).value) / (2 * h)
            worst["extreme_v"] = max(worst["extreme_v"], rel_err(out_ev.grad, fd_v))

        # weighted Huber gradient w.r.t. q_pred
        q = rng.normal(size=12)
        target_v = rng.normal(scale=2.0, size=12)
        w = rng.uniform(0.5, 2.0, size=12)
        out = losses.weighted_huber_critic_loss(q, target_v, w, k=1.0)
        fd_q = np.zeros(12)
        for i in range(12):
            e = h * np.eye(12)[i]
            fd_q[i] = (losses.weighted_huber_critic_loss(q + e, target_v, w, k=1.0).value
                       - losses.weighted_huber_critic_loss(q - e, target_v, w, k=1.0).value) / (2 * h)
        worst["huber"] = max(worst["huber"], rel_err(out.grad, fd_q))

        # gradient penalty parameter gradients
        pen_params = nn.init(nn.NetworkSpec(3, (6,), 1), seed + 1000)
        for wmat in pen_params.weights:
            wmat *= 3.0  # activate the hinge
        xin = rng.normal(size=(4, 3))
        pen = losses.gradient_penalty(pen_params, xin, nn.forward_cache(pen_params, xin)[1])
        for target, store in zip(pen_params.weights, pen.param_grads.weights):
            it = np.nditer(target, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = target[idx]
                target[idx] = orig + h
                up = losses.gradient_penalty(pen_params, xin, nn.forward_cache(pen_params, xin)[1]).value
                target[idx] = orig - h
                down = losses.gradient_penalty(pen_params, xin, nn.forward_cache(pen_params, xin)[1]).value
                target[idx] = orig
                fd = (up - down) / (2.0 * h)
                worst["penalty"] = max(worst["penalty"], rel_err(store[idx], fd))
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-4 for v in worst.values()) and elapsed < 10.0
    report(3, "gradient checks", ok,
           "max relative errors vs central differences over 20 seeds: "
           + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
           + f" (tol 1e-4 each), runtime {elapsed:.1f}s (< 10 s)")


def test_criterion_4_priority_update_fixed_points():
    zero_ok = True
    for lam in (0.01, 0.3, 1.0):
        cfg = schemes.RoerConfig(lam=lam, beta=1.0, max_exp_clip=1e12,
                                 min_priority_clip=0.0)
        d = np.array([1.0, 0.123456789, 7.25, 3.0])
        out = schemes.roer_update(np.zeros(4), d, cfg)
        zero_ok = zero_ok and np.array_equal(out, d)
    single_ok = True
    for delta in (-3.7, 0.0, 12.1):
        cfg = schemes.RoerConfig(lam=1.0, beta=1.0, max_exp_clip=1e12,
                                 min_priority_clip=0.0)
        out = schemes.roer_update(np.array([delta]), np.array([2.0]), cfg)
        single_ok = single_ok and out[0] == 2.0
    ok = zero_ok and single_ok
    report(4, "priority-update fixed points", ok,
           f"zero-TD batches bit-identical: {zero_ok}; "
           f"single-element batches unchanged: {single_ok} (exact)")


def test_criterion_5_telescoping_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(100):
        mdp = random_mdp(5, 2, gamma=0.9, seed=int(rng.integers(10**6)))
        pi = rng.dirichlet(np.ones(2), size=5)
        Q = rng.normal(scale=5.0, size=(5, 2))
        worst = max(worst, oracles.telescoping_check(mdp, pi, Q))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    report(5, "telescoping identity", ok,
           f"max residual over 100 random (MDP, policy, Q) triples = "
           f"{worst:.2e} (tol 1e-8), runtime {elapsed:.1f}s (< 5 s)")


def test_criterion_6_dual_objective_recovery():
    t0 = time.perf_counter()
    mdp = random_mdp(2, 2, gamma=0.9, seed=50)
    _, _, pi_star = value_iteration(mdp, tol=1e-12)
    d_star = occupancy(mdp, pi_star)
    kl = SPECS["kl"]
    d_uniform = OccupancyTable(np.full((2, 2), 0.25))
    Q = dual_minimize(mdp, d_uniform, 1.0, kl, pi_star)
    rec = recovered_distribution(mdp, Q, d_uniform, 1.0, kl, pi_star)
    tv = total_variation(rec, d_star.table)
    Q2 = dual_minimize(mdp, d_star, 1.0, kl, pi_star)
    delta = bellman_backup(mdp, Q2, pi_star) - Q2
    support = d_star.table > 1e-12
    dev = float(np.max(np.abs(np.exp(delta[support]) - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = tv <= 0.05 and dev <= 0.05 and elapsed < 30.0
    report(6, "dual-objective recovery", ok,
           f"TV(normalized ratio * data distribution, optimal occupancy) = "
           f"{tv:.2e} (tol 0.05); matched-data ratio deviation = {dev:.2e} "
           f"(tol 0.05), runtime {elapsed:.1f}s (< 30 s)")


def test_criterion_7_tabular_occupancy_shaping(tmp_path_factory):
    t0 = time.perf_counter()
    raw = dict(
        env="chain-10", scheme="roer", seeds=list(range(10)),
        total_steps=20_000, train_start_step=1_000,
        eval_period=10_000, eval_episodes=2,
        buffer_capacity=5_000, env_horizon=100,
        tabular=dict(learning_rate=0.3, gamma=0.99, epsilon=0.1,
                     soft_temperature=0.01, batch_size=64),
        scheme_config=dict(lam=0.01, beta=1.0, grad_clip=7.0,
                           max_exp_clip=100.0, min_priority_clip=1e-3),
        output_dir=str(tmp_path_factory.mktemp("chain")),
        workers=4,
    )
    out = harness.run_train(cmod.from_dict(raw))
    agg = json.loads((out / "summary.json").read_text())
    kl_tau = np.array([s["kl_at_tau"] for s in agg["per_seed"]])
    kl_final = np.array([s["final_kl"] for s in agg["per_seed"]])
    q_err = np.array([s["q_error_sup"] for s in agg["per_seed"]])
    q_star = np.array([s["q_star_sup"] for s in agg["per_seed"]])
    elapsed = time.perf_counter() - t0
    kl_ratio = kl_final.mean() / kl_tau.mean()
    q_frac = q_err.mean() / q_star.mean()
    ok = kl_ratio <= 0.5 and q_frac <= 0.1 and elapsed < 120.0
    report(7, "tabular occupancy shaping", ok,
           f"mean KL(optimal || buffer) fell {kl_tau.mean():.3f} -> "
           f"{kl_final.mean():.3f} (ratio {kl_ratio:.3f}, tol 0.5); "
           f"mean sup-norm Q error fraction = {q_frac:.4f} (tol 0.1); "
           f"10 seeds, runtime {elapsed:.0f}s (< 120 s)")
