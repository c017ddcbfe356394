"""Experiment orchestration: the train/evaluate loop, offline prefill,
metric persistence, the oracle verification suite, sweeps, and bias
estimation.

One training step follows the prioritized actor-critic recipe: push the
new transition with priority 1; once past the training-start step, sample
a minibatch (proportionally to priorities by default), update the agent,
refresh the sampled transitions' priorities through the configured scheme,
and periodically evaluate. Runs are deterministic per (config, seed): all
randomness derives from the documented seed-splitting rule and metrics
files contain no wall-clock fields (timing goes to a sidecar).
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import itertools
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import divergences, nn, oracles, schemes
from .agents import SacAgent, StepMetrics, TabularAgent
from .config import ExperimentConfig, apply_override, echo, seed_streams
from .envs import PendulumEnv, TabularEnv, chain_mdp, gridworld_mdp, random_mdp
from .oracles import kl_divergence_to_implied, mc_true_value, occupancy, value_iteration
from .replay import PriorityBuffer, SampledBatch
from .schemes import ConfigError


# ----------------------------------------------------------------------
# environment registry

def make_env(env_id: str, horizon: int | None, rng: np.random.Generator):
    if env_id == "pendulum":
        return PendulumEnv(horizon=horizon or 200, rng=rng)
    if env_id.startswith("chain-"):
        n = int(env_id.split("-")[1])
        return TabularEnv(chain_mdp(n), horizon=horizon or 1000, rng=rng)
    if env_id.startswith("grid-"):
        rows, cols = (int(v) for v in env_id.split("-")[1].split("x"))
        return TabularEnv(gridworld_mdp(rows, cols), horizon=horizon or 1000,
                          rng=rng)
    if env_id.startswith("random-"):
        parts = env_id.split("-")
        s, a = (int(v) for v in parts[1].split("x"))
        seed = int(parts[2]) if len(parts) > 2 else 0
        return TabularEnv(random_mdp(s, a, seed=seed), horizon=horizon or 1000,
                          rng=rng)
    raise ConfigError(f"unknown environment id {env_id!r}")


# ----------------------------------------------------------------------
# metrics persistence

def _clean(value):
    if value is None:
        return None
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


class MetricsWriter:
    """Append-only line-delimited JSON stream.

    Reopening an existing stream drops a trailing partial record (a crash
    between write and flush), keeping every retained line valid JSON.
    """

    def __init__(self, path):
        self.path = Path(path)
        if self.path.exists():
            self._truncate_partial_tail()
        self._fh = open(self.path, "a", encoding="utf-8")

    def _truncate_partial_tail(self):
        data = self.path.read_bytes()
        if not data:
            return
        keep = len(data)
        if not data.endswith(b"\n"):
            nl = data.rfind(b"\n")
            keep = nl + 1 if nl >= 0 else 0
        else:
            last = data[:-1].rfind(b"\n")
            tail = data[last + 1 :].rstrip(b"\n")
            try:
                json.loads(tail)
            except json.JSONDecodeError:
                keep = last + 1
        if keep != len(data):
            with open(self.path, "wb") as fh:
                fh.write(data[:keep])

    def write(self, record: dict) -> None:
        clean = {k: _clean(v) for k, v in record.items()}
        line = json.dumps(clean, sort_keys=True, separators=(",", ":"))
        self._fh.write(line + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def read_metrics(path) -> list[dict]:
    records = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return records
    for i, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # torn final record
            raise
    return records


def load_offline_dataset(path):
    """Columnar .npz with states, actions, rewards, next_states, terminals,
    all with the same number of rows."""
    required = ("states", "actions", "rewards", "next_states", "terminals")
    with np.load(path) as data:
        missing = [k for k in required if k not in data]
        if missing:
            raise ConfigError(f"offline dataset {path!r} missing fields {missing}")
        columns = {k: data[k] for k in required}
    rows = {k: v.shape[0] if v.ndim else None for k, v in columns.items()}
    uneven = [k for k in required if rows[k] is None or rows[k] != rows["rewards"]]
    if uneven:
        raise ConfigError(
            f"offline dataset {path!r}: fields {uneven} differ in length from "
            f"rewards (rows per field: {rows})"
        )
    return columns


# ----------------------------------------------------------------------
# single-seed training

def _slice_batch(batch: SampledBatch, idx: np.ndarray,
                 weights: np.ndarray) -> SampledBatch:
    return SampledBatch(
        indices=batch.indices[idx],
        states=batch.states[idx], actions=batch.actions[idx],
        rewards=batch.rewards[idx], next_states=batch.next_states[idx],
        terminals=batch.terminals[idx], insert_steps=batch.insert_steps[idx],
        priorities=batch.priorities[idx], sampling_weights=weights,
    )


class _SeedRun:
    def __init__(self, cfg: ExperimentConfig, seed: int, out_dir: Path):
        self.cfg = cfg
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.streams = seed_streams(seed)
        self.env = make_env(cfg.env, cfg.env_horizon, self.streams["env"])
        self.eval_env = make_env(cfg.env, cfg.env_horizon, self.streams["eval"])
        self.discrete = getattr(self.env, "discrete", False)
        if self.discrete:
            self.agent = TabularAgent(self.env.n_states, self.env.n_actions,
                                      cfg.tabular)
            self.batch_size = cfg.tabular.batch_size
            self.buffer = PriorityBuffer(cfg.buffer_capacity, 1, 1, discrete=True)
            # the oracle solves the problem the agent learns: the env's
            # dynamics under the agent's discount
            oracle_mdp = replace(self.env.mdp, gamma=cfg.tabular.gamma)
            self.q_star, _, pi_star = value_iteration(oracle_mdp)
            self.d_star = occupancy(oracle_mdp, pi_star)
        else:
            self.agent = SacAgent(self.env.obs_dim, self.env.action_dim,
                                  cfg.sac, self.streams["init"])
            self.batch_size = cfg.sac.batch_size
            self.buffer = PriorityBuffer(cfg.buffer_capacity, self.env.obs_dim,
                                         self.env.action_dim)
            self.d_star = None
        self._loss_sums: dict[str, float] = {}
        self._loss_counts: dict[str, int] = {}

    # -- scheme dispatch -------------------------------------------------

    def _sample_batch(self):
        cfg = self.cfg
        brng = self.streams["buffer"]
        if cfg.scheme == "laber":
            cfg.laber.check_minibatch(self.batch_size)
            big_n = min(cfg.laber.large_batch, len(self.buffer))
            big = self.buffer.sample_uniform(big_n, brng)
            surrogates = self._surrogates(big)
            idx, weights = schemes.laber_select(surrogates, self.batch_size, brng)
            return _slice_batch(big, idx, weights)
        if cfg.sampling_mode == "weighted" and cfg.scheme != "uniform":
            return self.buffer.sample_uniform(self.batch_size, brng,
                                              priorities_as_weights=True)
        return self.buffer.sample_proportional(self.batch_size, brng)

    def _surrogates(self, batch: SampledBatch) -> np.ndarray:
        if self.discrete:
            return np.abs(self.agent.td_errors(
                batch.states, batch.actions, batch.rewards, batch.next_states,
                batch.terminals,
            ))
        return self.agent.td_surrogates(
            batch.states, batch.actions, batch.rewards, batch.next_states,
            batch.terminals, self.streams["agent"],
        )

    def _refresh_priorities(self, batch: SampledBatch, metrics: StepMetrics) -> None:
        cfg = self.cfg
        if cfg.scheme == "per":
            new = schemes.per_priority(metrics.critic_td_errors, cfg.per)
        elif cfg.scheme in schemes.ROER_DIVERGENCES:
            div = schemes.ROER_DIVERGENCES[cfg.scheme]
            new = schemes.roer_update(metrics.value_td_errors, batch.priorities,
                                      cfg.roer, div)
        else:
            return
        self.buffer.update_priorities(batch.indices, new)

    # -- acting ------------------------------------------------------------

    def _act(self, obs, step: int):
        arng = self.streams["agent"]
        if self.discrete:
            return self.agent.act(obs, arng)
        if step <= self.cfg.train_start_step:
            return arng.uniform(-1.0, 1.0, size=self.env.action_dim)
        return self.agent.act(obs, rng=arng)

    # -- evaluation ----------------------------------------------------------

    def _evaluate(self) -> float:
        env = self.eval_env
        rng = self.streams["eval"]
        total = 0.0
        for _ in range(self.cfg.eval_episodes):
            obs = env.reset()
            done = False
            while not done:
                if self.discrete:
                    action = self.agent.act(obs, rng, deterministic=True)
                else:
                    action = self.agent.act(obs, deterministic=True)
                obs, reward, terminal, truncated = env.step(action)
                total += reward
                done = terminal or truncated
        return total / self.cfg.eval_episodes

    def _bias_probe(self) -> dict | None:
        if len(self.buffer) == 0:
            return None
        rng = self.streams["eval"]
        n = min(self.cfg.bias_eval_pairs, len(self.buffer))
        idx = rng.integers(0, len(self.buffer), size=n)
        probe = self.buffer._gather(idx, np.ones(n))
        return compute_bias(self.agent, self.eval_env, probe.states,
                            probe.actions, rng,
                            horizon=self.cfg.bias_eval_horizon,
                            discrete=self.discrete)

    # -- metric accumulation ---------------------------------------------

    def _accumulate(self, metrics: StepMetrics) -> None:
        for key in ("critic_loss", "value_loss", "actor_loss", "alpha_loss"):
            v = getattr(metrics, key)
            if v is not None and np.isfinite(v):
                self._loss_sums[key] = self._loss_sums.get(key, 0.0) + v
                self._loss_counts[key] = self._loss_counts.get(key, 0) + 1

    def _drain_losses(self) -> dict:
        out = {}
        for key, total in self._loss_sums.items():
            out[key] = total / self._loss_counts[key]
        self._loss_sums.clear()
        self._loss_counts.clear()
        return out

    # -- main loop -----------------------------------------------------------

    def run(self) -> dict:
        from .replay import Transition

        cfg = self.cfg
        t_start = time.monotonic()
        if cfg.offline_dataset:
            # filled before the metrics stream opens: a bad dataset leaves no file
            data = load_offline_dataset(cfg.offline_dataset)
            self.buffer.fill_offline(**data)
            del data  # the buffer holds its own copy for the whole run
        writer = MetricsWriter(self.out_dir / "metrics.jsonl")
        obs = self.env.reset()
        kl_at_tau = None
        final_eval = None
        clip_hits = 0
        for step in range(1, cfg.total_steps + 1):
            action = self._act(obs, step)
            next_obs, reward, terminal, truncated = self.env.step(action)
            self.buffer.push(Transition(
                state=obs, action=action, reward=reward, next_state=next_obs,
                terminal=terminal, insert_step=step,
            ))
            obs = self.env.reset() if (terminal or truncated) else next_obs

            if step >= cfg.train_start_step and len(self.buffer) >= self.batch_size:
                batch = self._sample_batch()
                weights = batch.sampling_weights
                if self.discrete:
                    metrics = self.agent.update(batch, weights)
                else:
                    metrics = self.agent.update(
                        batch, weights, self.streams["agent"],
                        train_value=cfg.trains_value_network,
                    )
                clip_hits += metrics.value_clip_count
                self._accumulate(metrics)
                if not metrics.aborted:
                    self._refresh_priorities(batch, metrics)

            at_tau = step == cfg.train_start_step
            if step % cfg.eval_period == 0 or at_tau or step == cfg.total_steps:
                record = {"step": step, "eval_return": self._evaluate()}
                record.update(self._drain_losses())
                if self.discrete:
                    kl = kl_divergence_to_implied(
                        self.d_star, self.buffer.implied_distribution()
                    )
                    record["kl_to_optimal"] = kl
                    if at_tau:
                        kl_at_tau = kl
                if cfg.bias_eval_period and step % cfg.bias_eval_period == 0:
                    probe = self._bias_probe()
                    if probe:
                        record["bias"] = probe["bias"]
                record["clip_hits"] = clip_hits
                if not self.discrete:
                    record["aborted_updates"] = self.agent.aborted_updates
                writer.write(record)
                final_eval = record["eval_return"]
            if cfg.checkpoint_period and step % cfg.checkpoint_period == 0:
                self.agent.save(self.out_dir / f"checkpoint_{step:08d}.bin")
                self.buffer.snapshot(self.out_dir / f"buffer_{step:08d}.bin")
        writer.close()
        self.agent.save(self.out_dir / "checkpoint.bin")
        self.buffer.snapshot(self.out_dir / "buffer.bin")
        summary = {
            "seed": self.seed,
            "steps": cfg.total_steps,
            "final_eval_return": final_eval,
            # read by perfbench/run.py; the serial loop never writes an overwritten slot
            "stale_updates": 0,
            "clip_hits": clip_hits,
        }
        if self.discrete:
            summary["kl_at_tau"] = kl_at_tau
            summary["final_kl"] = kl_divergence_to_implied(
                self.d_star, self.buffer.implied_distribution()
            )
            gap = np.max(np.abs(self.agent.q_table - self.q_star))
            summary["q_error_sup"] = float(gap)
            summary["q_star_sup"] = float(np.max(np.abs(self.q_star)))
        else:
            summary["aborted_updates"] = self.agent.aborted_updates
        with open(self.out_dir / "summary.json", "w") as fh:
            json.dump({k: _clean(v) for k, v in summary.items()}, fh,
                      sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        with open(self.out_dir / "timing.json", "w") as fh:
            json.dump({"wall_clock_seconds": time.monotonic() - t_start}, fh)
            fh.write("\n")
        return summary


def _seed_worker(args) -> dict:
    cfg, seed, seed_dir = args
    return _SeedRun(cfg, seed, seed_dir).run()


def run_train(cfg: ExperimentConfig) -> Path:
    """Execute the configured run for every seed; returns the run directory.

    Seeds run in parallel worker processes (each owns its env/agent/buffer
    and its own output files; the parent process is the only writer of the
    aggregate). Processes rather than threads: the small-matrix numpy work
    here serializes badly on the interpreter lock.
    """
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.yaml").write_text(echo(cfg))
    jobs = [(cfg, seed, out_dir / f"seed_{seed}") for seed in cfg.seeds]
    if cfg.workers > 1 and len(cfg.seeds) > 1:
        ctx = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(cfg.workers,
                                                    mp_context=ctx) as pool:
            summaries = list(pool.map(_seed_worker, jobs))
    else:
        summaries = [_seed_worker(job) for job in jobs]
    returns = [s["final_eval_return"] for s in summaries]
    aggregate = {
        "seeds": list(cfg.seeds),
        "per_seed": summaries,
        "mean_final_return": float(np.mean(returns)),
        "std_final_return": float(np.std(returns, ddof=1)) if len(returns) > 1 else 0.0,
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(aggregate, fh, sort_keys=True, separators=(",", ":"),
                  default=_clean)
        fh.write("\n")
    return out_dir


# ----------------------------------------------------------------------
# value-bias estimation

def compute_bias(agent, env, states, actions, rng, horizon: int,
                 discrete: bool) -> dict:
    """mean(true MC return - critic estimate) over the given pairs."""
    if discrete:
        greedy = agent.q_table.argmax(axis=1)
        policy = lambda s: greedy[np.asarray(s, dtype=np.int64)]
        estimates = agent.q_table[
            np.asarray(states, dtype=np.int64), np.asarray(actions, dtype=np.int64)
        ]
        gamma = agent.config.gamma
    else:
        policy = lambda obs: agent.act(obs, rng=rng)
        q1 = nn.forward(agent.critic1, np.concatenate(
            [states, actions.reshape(len(states), -1)], axis=1))[:, 0]
        q2 = nn.forward(agent.critic2, np.concatenate(
            [states, actions.reshape(len(states), -1)], axis=1))[:, 0]
        estimates = np.minimum(q1, q2)
        gamma = agent.config.gamma
    result = mc_true_value(env, policy, (states, actions), gamma, rng,
                           horizon=horizon)
    return {
        "bias": float(np.mean(result.returns - estimates)),
        "true_mean": float(result.mean),
        "estimate_mean": float(np.mean(estimates)),
        "tail_bound": result.tail_bound,
        "n_pairs": len(states),
    }


def estimate_bias(seed_dir, cfg: ExperimentConfig, seed: int = 0) -> list[dict]:
    """Bias series over every (checkpoint, buffer) snapshot pair in a run
    directory, scheduled checkpoints first, final checkpoint last."""
    seed_dir = Path(seed_dir)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    env = make_env(cfg.env, cfg.env_horizon, np.random.default_rng(seed))
    discrete = getattr(env, "discrete", False)
    pairs = sorted(
        (int(p.stem.split("_")[1]), p) for p in seed_dir.glob("checkpoint_*.bin")
    )
    pairs.append((cfg.total_steps, seed_dir / "checkpoint.bin"))
    series = []
    for step, ckpt_path in pairs:
        buffer_path = seed_dir / ckpt_path.name.replace("checkpoint", "buffer")
        if not ckpt_path.exists() or not buffer_path.exists():
            continue
        buffer = PriorityBuffer.load(buffer_path)
        if discrete:
            agent = TabularAgent.load(ckpt_path, cfg.tabular)
        else:
            agent = SacAgent.load(ckpt_path, cfg.sac)
        n = min(cfg.bias_eval_pairs, len(buffer))
        idx = rng.integers(0, len(buffer), size=n)
        probe = buffer._gather(idx, np.ones(n))
        record = compute_bias(agent, env, probe.states, probe.actions, rng,
                              horizon=cfg.bias_eval_horizon, discrete=discrete)
        record["step"] = step
        series.append(record)
    return series


# ----------------------------------------------------------------------
# oracle verification suite

def run_oracle_suite(corrupt_kind: str | None = None,
                     report_path=None) -> tuple[list[dict], bool]:
    """Release-gate checks, each with its tolerance and measured residual.

    corrupt_kind is a negative-control fixture: the named divergence's
    conjugate derivative is perturbed so the identity check must fail and
    name the corrupted row.
    """
    report: list[dict] = []

    def conj_prime(sp, y):
        val = divergences.conjugate_prime(sp, y)
        if corrupt_kind and sp.name == corrupt_kind:
            val += 1e-6
        return val

    grid = np.logspace(np.log10(0.1), np.log10(10.0), 200)
    for kind in divergences.DIFFERENTIABLE_KINDS:
        sp = divergences.spec(kind)
        worst = float(np.max(np.abs(
            conj_prime(sp, divergences.generator_prime(sp, grid)) - grid
        )))
        report.append({
            "check": "conjugate_inverse_identity", "kind": sp.name,
            "tolerance": 1e-9, "measured": worst, "passed": worst <= 1e-9,
        })

    rng = np.random.default_rng(2718)
    for kind in divergences.DIFFERENTIABLE_KINDS:
        sp = divergences.spec(kind)
        lo = max(sp.domain_conj[0], -20.0)
        hi = min(sp.domain_conj[1], 20.0)
        xs = rng.uniform(0.05, 20.0, size=10_000)
        ys = rng.uniform(lo, hi - 1e-9, size=10_000)
        worst = float(np.max(
            xs * ys - divergences.generator(sp, xs) - divergences.conjugate(sp, ys)
        ))
        report.append({
            "check": "fenchel_young", "kind": sp.name, "tolerance": 1e-12,
            "measured": worst, "passed": worst <= 1e-12,
        })

    worst = 0.0
    for _ in range(100):
        mdp = random_mdp(5, 2, gamma=0.9, seed=int(rng.integers(10**6)))
        pi = rng.dirichlet(np.ones(2), size=5)
        Q = rng.normal(scale=5.0, size=(5, 2))
        worst = max(worst, oracles.telescoping_check(mdp, pi, Q))
    report.append({
        "check": "telescoping_identity", "tolerance": 1e-8,
        "measured": worst, "passed": worst <= 1e-8,
    })

    mdp = random_mdp(2, 2, gamma=0.9, seed=50)
    _, _, pi_star = value_iteration(mdp, tol=1e-12)
    d_star = occupancy(mdp, pi_star)
    d_data = oracles.OccupancyTable(np.full((2, 2), 0.25))
    kl = divergences.spec(divergences.Kind.KL)
    Q = oracles.dual_minimize(mdp, d_data, 1.0, kl, pi_star)
    rec = oracles.recovered_distribution(mdp, Q, d_data, 1.0, kl, pi_star)
    tv = oracles.total_variation(rec, d_star.table)
    report.append({
        "check": "dual_recovery_tv", "tolerance": 0.05, "measured": tv,
        "passed": tv <= 0.05,
    })
    Q2 = oracles.dual_minimize(mdp, d_star, 1.0, kl, pi_star)
    delta = oracles.bellman_backup(mdp, Q2, pi_star) - Q2
    support = d_star.table > 1e-12
    dev = float(np.max(np.abs(np.exp(delta[support]) - 1.0)))
    report.append({
        "check": "dual_matched_unit_ratio", "tolerance": 0.05,
        "measured": dev, "passed": dev <= 0.05,
    })

    buf = PriorityBuffer(4, 1, 1, discrete=True)
    from .replay import Transition
    for i in range(3):
        buf.push(Transition(i, 0, 0.0, i, False))
    buf.update_priorities([0, 1, 2], [1.0, 2.0, 3.0])
    batch = buf.sample_proportional(60_000, np.random.default_rng(2024))
    freqs = np.bincount(batch.indices, minlength=3) / 60_000
    expect = np.array([1 / 6, 1 / 3, 1 / 2])
    max_dev = float(np.max(np.abs(freqs - expect)))
    chi2 = float((((freqs - expect) * 60_000) ** 2 / (expect * 60_000)).sum())
    crit = -2.0 * math.log(0.001)  # chi-squared 0.999 quantile, 2 dof
    report.append({
        "check": "sum_tree_proportionality", "tolerance": 0.01,
        "measured": max_dev, "passed": max_dev <= 0.01,
    })
    report.append({
        "check": "sum_tree_chi2", "tolerance": crit, "measured": chi2,
        "passed": chi2 <= crit,
    })

    ok = all(r["passed"] for r in report)
    if report_path:
        with open(report_path, "w") as fh:
            json.dump({"passed": ok, "checks": report}, fh, indent=2,
                      default=_clean)
            fh.write("\n")
    return report, ok


# ----------------------------------------------------------------------
# sweeps

def run_sweep(cfg: ExperimentConfig) -> Path:
    """Cartesian product over cfg.sweep_grid; per-cell mean and 95% CI of
    the final return over the config's seeds, written as JSON + TSV."""
    from scipy import stats  # slow to import; training never needs it

    if not cfg.sweep_grid:
        raise ConfigError("sweep requires a non-empty sweep.grid")
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    keys = sorted(cfg.sweep_grid)
    cells = []
    for values in itertools.product(*(cfg.sweep_grid[k] for k in keys)):
        cell_cfg = cfg
        label = []
        for key, value in zip(keys, values):
            cell_cfg = apply_override(cell_cfg, key, value)
            label.append(f"{key}={value}")
        name = ",".join(label)
        cell_cfg = replace(cell_cfg, output_dir=str(out_dir / name.replace("/", "_")),
                           sweep_grid={})
        entry = {"cell": name}
        try:
            run_train(cell_cfg)
            summary = json.loads((Path(cell_cfg.output_dir) / "summary.json")
                                 .read_text())
            rets = [s["final_eval_return"] for s in summary["per_seed"]]
            mean = float(np.mean(rets))
            if len(rets) > 1:
                half = float(stats.t.ppf(0.975, df=len(rets) - 1)
                             * np.std(rets, ddof=1) / np.sqrt(len(rets)))
            else:
                half = 0.0
            entry.update(mean_final_return=mean, ci95_half_width=half,
                         n_seeds=len(rets), failed=False)
        except Exception as exc:  # cell failures recorded, sweep continues
            entry.update(failed=True, error=f"{type(exc).__name__}: {exc}")
        cells.append(entry)
    with open(out_dir / "sweep_summary.json", "w") as fh:
        json.dump({"grid": {k: list(v) for k, v in sorted(cfg.sweep_grid.items())},
                   "cells": cells}, fh, sort_keys=True, separators=(",", ":"),
                  default=_clean)
        fh.write("\n")
    rows = ["cell\tmean_final_return\tci95_half_width\tn_seeds\tfailed"]
    for c in cells:
        rows.append("\t".join(str(c.get(k, "")) for k in
                              ("cell", "mean_final_return", "ci95_half_width",
                               "n_seeds", "failed")))
    (out_dir / "sweep_summary.tsv").write_text("\n".join(rows) + "\n")
    return out_dir
