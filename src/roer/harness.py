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
import json
import math
import re
import time
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import divergences, losses, oracles, schemes
from .agents import SacAgent, SacConfig, StepMetrics, TabularAgent
from .binio import FormatError
from .config import (ExperimentConfig, echo, from_dict, parse_env_id, seed_streams,
                     sweep_cells)
from .envs import PendulumEnv, TabularEnv, chain_mdp, gridworld_mdp, random_mdp
from .oracles import (expected_return, greedy_policy, kl_divergence_to_implied,
                      occupancy, policy_q, value_iteration)
from .replay import PriorityBuffer, SampledBatch
from .schemes import ConfigError


# ----------------------------------------------------------------------
# environment registry

# env id family -> the MDP builder of its integer arguments
_MDPS = {"chain": chain_mdp, "grid": gridworld_mdp,
         "random": lambda s, a, seed: random_mdp(s, a, seed=seed)}


def make_env(env_id: str, horizon: int | None, rng: np.random.Generator):
    family, args = parse_env_id(env_id)
    if family == "pendulum":
        return PendulumEnv(horizon=horizon or 200, rng=rng)
    return TabularEnv(_MDPS[family](*args), horizon=horizon or 1000, rng=rng)


# ----------------------------------------------------------------------
# metrics persistence

def _clean(value):
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


class MetricsWriter:
    """Line-delimited JSON stream, one flushed record per line, written
    into a fresh file."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8")

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


class _NpzColumns:
    """The arrays of the open .npz archive at path by name (np.savez's
    `<name>.npy` members). Each lookup reads its member into one new array,
    in pieces of PIECE bytes, so a read holds the array and one piece
    (np.load holds two 256 KiB pieces beside it). Only plain arrays load,
    as with np.load's allow_pickle off; a member that fails to read raises
    ConfigError naming the file."""

    PIECE = 1 << 16

    def __init__(self, archive: zipfile.ZipFile, path):
        self.archive, self.path = archive, path

    def __getitem__(self, name: str) -> np.ndarray:
        fmt, member = np.lib.format, f"{name}.npy"
        try:
            with self.archive.open(member) as fp:
                version = fmt.read_magic(fp)
                if version not in ((1, 0), (2, 0)):
                    raise ValueError(f"{member} has .npy format version {version}")
                read_header = (fmt.read_array_header_1_0 if version == (1, 0)
                               else fmt.read_array_header_2_0)
                shape, fortran, dtype = read_header(fp)
                if dtype.hasobject:
                    raise ValueError(f"{member} holds objects, which load only by unpickling")
                # checked before allocating: the header cannot claim more than the member holds
                if math.prod(shape) * dtype.itemsize > self.archive.getinfo(member).file_size:
                    raise ValueError(f"{member} is shorter than its header's shape {shape}")
                array = np.empty(shape[::-1] if fortran else shape, dtype)
                data = memoryview(array.reshape(-1).view(np.uint8))
                for i in range(0, len(data), self.PIECE):
                    piece = data[i : i + self.PIECE]
                    if fp.readinto(piece) != len(piece):
                        raise EOFError(f"{member} ends inside its data")
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"offline dataset {self.path!r} is not a readable "
                              f".npz: {exc}") from None
        return array.T if fortran else array


def load_offline_dataset(path, buffer: PriorityBuffer) -> None:
    """Fill the empty buffer from the columnar .npz at path through
    fill_offline, which holds a tabular buffer's indices below its counts
    (the env's): the archive stays open through the fill, which reads each
    DATA member once, checks it and writes it, holding one at a time. A
    path that holds no readable .npz of plain arrays (no pickled objects),
    or a member that fails to read (a bad CRC, say), raises ConfigError
    naming it; a column the buffer rejects raises InvalidTransitionError.
    Either way the buffer is left empty."""
    try:
        archive = zipfile.ZipFile(path)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"offline dataset {path!r} is not a readable .npz: {exc}") from None
    with archive:
        names = set(archive.namelist())
        missing = [k for k in PriorityBuffer.DATA if f"{k}.npy" not in names]
        if missing:
            raise ConfigError(f"offline dataset {path!r} missing fields {missing}")
        buffer.fill_offline(_NpzColumns(archive, path))


def _dims(env) -> tuple[int, int]:
    """The (state, action) dims of env's agent and buffer alike: a tabular
    env's state and action counts, the sizes of pendulum's vectors."""
    if env.discrete:
        return env.n_states, env.n_actions
    return env.obs_dim, env.action_dim


def _agent(cfg: ExperimentConfig, env, init=None, checkpoint=None):
    """env's agent, of the kind cfg.agent_config configures: loaded from a
    checkpoint, or else built from init (the seed's init stream) to share
    the CPUs with the min(workers, seeds) seeds that run_train runs at once."""
    cls = SacAgent if isinstance(cfg.agent_config, SacConfig) else TabularAgent
    if checkpoint is not None:
        return cls.load(checkpoint, cfg.agent_config)
    return cls(*_dims(env), cfg.agent_config, init, min(cfg.workers, len(cfg.seeds)))


# ----------------------------------------------------------------------
# single-seed training

class _SeedRun:
    def __init__(self, cfg: ExperimentConfig, seed: int, out_dir: Path):
        self.cfg = cfg
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.streams = seed_streams(seed)
        self.env = make_env(cfg.env, cfg.env_horizon, self.streams["env"])
        self.discrete = self.env.discrete
        if not self.discrete:
            self.eval_env = make_env(cfg.env, cfg.env_horizon, self.streams["eval"])
        # agent before buffer: the other order read about 5% fewer pendulum-full
        # env-steps/s (4 alternating pairs, 2-vCPU Xeon VM)
        self.agent = _agent(cfg, self.env, self.streams["init"])
        self.buffer = PriorityBuffer(cfg.buffer_capacity, *_dims(self.env), self.discrete)
        if self.discrete:
            # the oracle solves the problem the agent learns: the env's
            # dynamics under the agent's discount
            oracle_mdp = replace(self.env.mdp, gamma=cfg.tabular.gamma)
            self.q_star, _, pi_star = value_iteration(oracle_mdp)
            self.d_star = occupancy(oracle_mdp, pi_star)
        # the scheme's value-loss knobs and divergence; None trains no value net
        self.div = schemes.ROER_DIVERGENCES.get(cfg.scheme)
        self.value_loss_cfg = cfg.scheme_config if self.div is not None else None
        self._loss_sums: dict[str, float] = {}
        self._loss_counts: dict[str, int] = {}

    # -- scheme dispatch -------------------------------------------------

    def _sample_batch(self) -> tuple[SampledBatch, np.ndarray]:
        """A minibatch and the loss weights the agent trains it with."""
        cfg = self.cfg
        brng = self.streams["buffer"]
        n = self.agent.config.batch_size
        if cfg.scheme == "laber":
            big = self.buffer.sample_uniform(
                min(cfg.scheme_config.large_batch, len(self.buffer)), brng)
            surrogates = self.agent.td_surrogates(big, self.streams["agent"])
            idx, weights = schemes.laber_select(surrogates, n, brng)
            return self.buffer.gather(big.indices[idx]), weights
        if cfg.sampling_mode == "weighted" and cfg.scheme != "uniform":
            # a uniform draw that weights each loss term by its priority:
            # the expected update is the proportional draw's times sum(p)/N
            batch = self.buffer.sample_uniform(n, brng)
            return batch, batch.priorities
        return self.buffer.sample_proportional(n, brng), np.ones(n)

    def _refresh_priorities(self, batch: SampledBatch, metrics: StepMetrics) -> None:
        cfg = self.cfg
        if cfg.scheme == "per":
            new = schemes.per_priority(metrics.critic_td_errors, cfg.scheme_config)
        elif self.div is not None:
            new = schemes.roer_update(metrics.value_td_errors, batch.priorities,
                                      cfg.scheme_config, self.div)
        else:
            return
        self.buffer.update_priorities(batch.indices, new)

    # -- acting ------------------------------------------------------------

    def _act(self, obs, step: int):
        arng = self.streams["agent"]
        if not self.discrete and step <= self.cfg.train_start_step:
            # SAC warms up on uniform actions
            return arng.uniform(-1.0, 1.0, size=self.env.action_dim)
        return self.agent.act(obs, arng)

    # -- evaluation ----------------------------------------------------------

    def _evaluate(self) -> float:
        """The greedy policy's mean episode return, exact on a tabular env."""
        if self.discrete:
            return expected_return(self.env.mdp, greedy_policy(self.agent.q_table),
                                   self.env.horizon)
        env = self.eval_env
        rng = self.streams["eval"]
        total = 0.0
        for _ in range(self.cfg.eval_episodes):
            obs = env.reset()
            done = False
            while not done:
                action = self.agent.act(obs, rng, deterministic=True)
                obs, reward, terminal, truncated = env.step(action)
                total += reward
                done = terminal or truncated
        return total / self.cfg.eval_episodes

    # -- metric accumulation ---------------------------------------------

    def _accumulate(self, metrics: StepMetrics) -> None:
        for key in ("critic_loss", "value_loss", "actor_loss", "alpha_loss"):
            v = getattr(metrics, key)
            if math.isfinite(v):
                self._loss_sums[key] = self._loss_sums.get(key, 0.0) + v
                self._loss_counts[key] = self._loss_counts.get(key, 0) + 1

    def _drain_losses(self) -> dict:
        out = {k: total / self._loss_counts[k] for k, total in self._loss_sums.items()}
        self._loss_sums.clear()
        self._loss_counts.clear()
        return out

    # -- main loop -----------------------------------------------------------

    def run(self) -> dict:
        cfg = self.cfg
        t_start = time.monotonic()
        if cfg.offline_dataset:
            # filled before the metrics stream opens: a bad dataset leaves no file
            load_offline_dataset(cfg.offline_dataset, self.buffer)
        # a rerun starts afresh: delete every name this method writes below, so no
        # file of an earlier run here survives it
        for pattern in ("metrics.jsonl", "checkpoint_*.bin", "buffer_*.bin",
                        "checkpoint.bin", "buffer.bin", "summary.json", "timing.json"):
            for path in self.out_dir.glob(pattern):
                path.unlink()
        writer = MetricsWriter(self.out_dir / "metrics.jsonl")
        try:
            obs = self.env.reset()
            kl_at_tau = None
            clip_hits = 0
            for step in range(1, cfg.total_steps + 1):
                action = self._act(obs, step)
                next_obs, reward, terminal, truncated = self.env.step(action)
                self.buffer.push(obs, action, reward, next_obs, terminal, step)
                obs = self.env.reset() if (terminal or truncated) else next_obs

                if (step >= cfg.train_start_step
                        and len(self.buffer) >= self.agent.config.batch_size):
                    batch, weights = self._sample_batch()
                    metrics = self.agent.update(batch, weights, self.streams["agent"],
                                                self.value_loss_cfg, self.div)
                    clip_hits += metrics.value_clip_count
                    self._accumulate(metrics)
                    if not metrics.aborted:
                        self._refresh_priorities(batch, metrics)

                at_tau = step == cfg.train_start_step
                if step % cfg.eval_period == 0 or at_tau or step == cfg.total_steps:
                    record = {"step": step, "eval_return": self._evaluate(),
                              "clip_hits": clip_hits, **self._drain_losses()}
                    if self.discrete:
                        record["kl_to_optimal"] = kl_divergence_to_implied(
                            self.d_star, self.buffer.implied_distribution()
                        )
                        if at_tau:
                            kl_at_tau = record["kl_to_optimal"]
                    else:
                        record["aborted_updates"] = self.agent.aborted_updates
                    writer.write(record)
                if cfg.checkpoint_period and step % cfg.checkpoint_period == 0:
                    self.agent.save(self.out_dir / f"checkpoint_{step:08d}.bin")
                    self.buffer.snapshot(self.out_dir / f"buffer_{step:08d}.bin")
        finally:
            writer.close()
        self.agent.save(self.out_dir / "checkpoint.bin")
        self.buffer.snapshot(self.out_dir / "buffer.bin")
        # record is the step-total_steps one; nothing has changed since
        summary = {
            "seed": self.seed,
            "steps": cfg.total_steps,
            "final_eval_return": record["eval_return"],
            # read by perfbench/run.py; the serial loop never writes an overwritten slot
            "stale_updates": 0,
            "clip_hits": clip_hits,
        }
        if self.discrete:
            summary["kl_at_tau"] = kl_at_tau
            summary["final_kl"] = record["kl_to_optimal"]
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

def compute_bias(agent, env, states, actions, rng, horizon: int) -> dict:
    """mean(true value - critic estimate) over the given pairs. True values
    are exact on a tabular env (the greedy policy's Q at the agent's gamma);
    on pendulum, Monte-Carlo returns with rng, cut at the horizon."""
    gamma = agent.config.gamma
    if env.discrete:
        s, a = np.asarray(states, dtype=np.int64), np.asarray(actions, dtype=np.int64)
        q = policy_q(replace(env.mdp, gamma=gamma), greedy_policy(agent.q_table))
        true, estimates, tail = q[s, a], agent.q_table[s, a], 0.0
    else:
        x = np.concatenate([states, actions.reshape(len(states), -1)], axis=1)
        estimates = agent.min_q(x)
        true = env.batch_rollout(states, actions, lambda obs: agent.act(obs, rng=rng),
                                 horizon, gamma, rng)
        tail = gamma**horizon * env.COST_BOUND / (1.0 - gamma)
    return {
        "bias": float(np.mean(true - estimates)),
        "true_mean": float(true.mean()),
        "estimate_mean": float(np.mean(estimates)),
        "tail_bound": tail,
        "n_pairs": len(states),
    }


def _check_snapshot_pair(agent, buffer: PriorityBuffer, env) -> None:
    """A checkpoint and a nonempty buffer of env's problem, or FormatError."""
    dims = _dims(env)
    if agent.dims != dims:
        raise FormatError(f"checkpoint dims {agent.dims} are not the environment's "
                          f"{dims}")
    got, want = (buffer.state_dim, buffer.action_dim, buffer.discrete), (*dims, env.discrete)
    if got != want:
        raise FormatError(f"buffer (state_dim, action_dim, discrete) {got} is not "
                          f"the environment's {want}")
    if len(buffer) == 0:
        raise FormatError("buffer holds no transitions")


def estimate_bias(seed_dir, cfg: ExperimentConfig, seed: int = 0) -> list[dict]:
    """Bias series over every (checkpoint, buffer) snapshot pair in a run
    directory, scheduled checkpoints first, then the final checkpoint
    unless a scheduled one was taken at the last step. A directory with no
    pair, a listed pair with either file missing (so a run cut short fails
    on its final pair), a pair of another problem than cfg's env or with an
    empty buffer, or a checkpoint_*.bin not named checkpoint_<8-digit
    step>.bin raises FormatError."""
    seed_dir = Path(seed_dir)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    env = make_env(cfg.env, cfg.env_horizon, np.random.default_rng(seed))
    pairs = []
    for path in seed_dir.glob("checkpoint_*.bin"):
        match = re.fullmatch(r"checkpoint_([0-9]{8})\.bin", path.name)
        if match is None:
            raise FormatError(f"{path} is not named checkpoint_<8-digit step>.bin")
        pairs.append((int(match[1]), path))
    pairs.sort()
    # a scheduled checkpoint at the last step holds the final state already
    if not pairs or pairs[-1][0] != cfg.total_steps:
        pairs.append((cfg.total_steps, seed_dir / "checkpoint.bin"))
    pairs = [(step, ckpt, seed_dir / ckpt.name.replace("checkpoint", "buffer"))
             for step, ckpt in pairs]
    # a missing file fails before any pair's rollouts run
    for step, *files in pairs:
        missing = [p for p in files if not p.exists()]
        if len(missing) == 2 and len(pairs) == 1:
            raise FormatError(f"{seed_dir} holds no (checkpoint, buffer) pair")
        if missing:
            whole = "half" if len(missing) == 1 else "absent"
            raise FormatError(f"{missing[0]} is missing: the step-{step} pair is {whole}")
    series = []
    for step, ckpt_path, buffer_path in pairs:
        buffer = PriorityBuffer.load(buffer_path)
        agent = _agent(cfg, env, checkpoint=ckpt_path)
        _check_snapshot_pair(agent, buffer, env)
        # min(bias_eval_pairs, len(buffer)) slots drawn uniformly with rng,
        # which then drives the pendulum's rollouts
        probe = buffer.sample_uniform(min(cfg.bias_eval_pairs, len(buffer)), rng)
        record = compute_bias(agent, env, probe.states, probe.actions, rng,
                              horizon=cfg.bias_eval_horizon)
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

    def record(check: str, tolerance: float, measured: float, **kind) -> None:
        report.append({"check": check, **kind, "tolerance": tolerance,
                       "measured": measured, "passed": measured <= tolerance})

    def conj_prime(sp, y):
        val = divergences.conjugate_prime(sp, y)
        if sp.name == corrupt_kind:
            val += 1e-6
        return val

    grid = np.logspace(np.log10(0.1), np.log10(10.0), 200)
    for sp in divergences.SPECS.values():
        worst = float(np.max(np.abs(
            conj_prime(sp, divergences.generator_prime(sp, grid)) - grid
        )))
        record("conjugate_inverse_identity", 1e-9, worst, kind=sp.name)

    rng = np.random.default_rng(2718)
    for sp in divergences.SPECS.values():
        lo = max(sp.domain_conj[0], -20.0)
        hi = min(sp.domain_conj[1], 20.0)
        xs = rng.uniform(0.05, 20.0, size=10_000)
        ys = rng.uniform(lo, hi - 1e-9, size=10_000)
        worst = float(np.max(
            xs * ys - divergences.generator(sp, xs) - divergences.conjugate(sp, ys)
        ))
        record("fenchel_young", 1e-12, worst, kind=sp.name)

    # the unclipped value loss settles where E[f*'((Q - V) / beta)] = 1:
    # bisect a scalar V on the sign of the loss's own gradient over fixed
    # Q samples
    q = np.random.default_rng(1618).normal(size=4096)
    for sp in schemes.ROER_DIVERGENCES.values():
        worst = 0.0
        for beta in (0.5, 1.0, 2.0):
            lo, hi = float(q.min()), float(q.max())
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                out = losses.extreme_v_loss(q - mid, beta, math.inf, sp)
                lo, hi = (mid, hi) if np.add.reduce(out.grad) > 0.0 else (lo, mid)
            ratio = float(np.mean(conj_prime(sp, (q - lo) / beta)))
            worst = max(worst, abs(ratio - 1.0))
        record("value_fixed_point", 1e-10, worst, kind=sp.name)

    worst = 0.0
    for _ in range(100):
        mdp = random_mdp(5, 2, gamma=0.9, seed=int(rng.integers(10**6)))
        pi = rng.dirichlet(np.ones(2), size=5)
        Q = rng.normal(scale=5.0, size=(5, 2))
        worst = max(worst, oracles.telescoping_check(mdp, pi, Q))
    record("telescoping_identity", 1e-8, worst)

    mdp = random_mdp(2, 2, gamma=0.9, seed=50)
    _, _, pi_star = value_iteration(mdp, tol=1e-12)
    d_star = occupancy(mdp, pi_star)
    d_data = oracles.OccupancyTable(np.full((2, 2), 0.25))
    kl = divergences.SPECS["kl"]
    Q = oracles.dual_minimize(mdp, d_data, 1.0, kl, pi_star)
    rec = oracles.recovered_distribution(mdp, Q, d_data, 1.0, kl, pi_star)
    tv = oracles.total_variation(rec, d_star.table)
    record("dual_recovery_tv", 0.05, tv)
    Q2 = oracles.dual_minimize(mdp, d_star, 1.0, kl, pi_star)
    delta = oracles.bellman_backup(mdp, Q2, pi_star) - Q2
    support = d_star.table > 1e-12
    dev = float(np.max(np.abs(np.exp(delta[support]) - 1.0)))
    record("dual_matched_unit_ratio", 0.05, dev)

    buf = PriorityBuffer(4, 3, 1, discrete=True)
    for i in range(3):
        buf.push(i, 0, 0.0, i, False)
    buf.update_priorities([0, 1, 2], [1.0, 2.0, 3.0])
    batch = buf.sample_proportional(60_000, np.random.default_rng(2024))
    freqs = np.bincount(batch.indices, minlength=3) / 60_000
    expect = np.array([1 / 6, 1 / 3, 1 / 2])
    max_dev = float(np.max(np.abs(freqs - expect)))
    chi2 = float((((freqs - expect) * 60_000) ** 2 / (expect * 60_000)).sum())
    crit = -2.0 * math.log(0.001)  # chi-squared 0.999 quantile, 2 dof
    record("sum_tree_proportionality", 0.01, max_dev)
    record("sum_tree_chi2", crit, chi2)

    # policy evaluation by one linear solve recovers Q* from the optimal policy
    mdp = random_mdp(5, 2)
    q_star, _, pi_star = value_iteration(mdp, tol=1e-12)
    record("policy_q_matches_q_star", 1e-9,
           float(np.max(np.abs(policy_q(mdp, pi_star) - q_star))))

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
    the final return over the config's seeds, written as JSON + TSV. Each
    cell loads through config.from_dict, so it gets a plain run's checks."""
    from scipy import stats  # slow to import; training never needs it

    if not cfg.sweep_grid:
        raise ConfigError("sweep requires a non-empty sweep.grid")
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = []
    for name, raw in sweep_cells(cfg):
        entry = {"cell": name}
        try:
            cell_cfg = from_dict({**raw,
                                  "output_dir": str(out_dir / name.replace("/", "_"))})
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
