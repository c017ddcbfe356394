"""Experiment configuration: YAML schema, validation, seed derivation.

Seed derivation rule: the experiment seed s feeds numpy's SeedSequence(s),
whose first five spawned children seed, in order, (1) the training
environment, (2) agent updates and action sampling, (3) buffer sampling,
(4) network / table initialization, (5) pendulum evaluation (its own
environment). Every stream an experiment consumes comes from one of
these five generators, so a (config, seed) pair fixes a run exactly.

Schema (all keys optional unless noted):

    env: pendulum | chain-<n> | grid-<r>x<c> | random-<s>x<a>[-<seed>] [required]
                                # sizes >= 1; the seed defaults to 0
    scheme: uniform | per | laber | roer | roer_chi2                   [required]
                                # roer: KL, roer_chi2: Pearson chi^2; the
                                # divergence sets the priority ratio
                                # (schemes.roer_update) and the value loss
                                # (losses.extreme_v_loss)
    seeds: [0, 1, ...]          # distinct integers >= 0               [required]
    total_steps: int            # N                                    [required]
    train_start_step: int       # tau, default 0
    eval_period: int            # default 1000
    eval_episodes: int          # default 5; pendulum only (tabular is exact)
    output_dir: str             # default runs/<env>-<scheme>; roer train
                                # --output-dir overrides it
    buffer_capacity: int        # at least the agent's batch_size
    env_horizon: int            # episode cap >= 1, default 1000 (200 pendulum)
    offline_dataset: path to .npz or null
    checkpoint_period: int      # >= 0; 0 = final checkpoint only
    bias_eval_pairs: int        # roer bias: pairs probed per checkpoint, >= 1
    bias_eval_horizon: int      # roer bias: pendulum rollout length, >= 1
    workers: int                # parallel seed workers, >= 1; --workers overrides it
    agent:                      # SAC fields (continuous envs)
      profile: test | full      # SAC_PROFILES: test = SacConfig's defaults,
                                # (64, 64) nets, batch 64, lr 3e-4; full =
                                # (256, 256) nets, batch 256, lr 3e-3; the
                                # keys below override the profile's
      learning_rate, hidden_dims, batch_size, gamma, polyak_tau,
      init_temperature, target_entropy, huber_k, penalty_coef
    tabular:                    # tabular agent fields (finite envs)
      learning_rate, gamma, soft_temperature, epsilon, batch_size
    scheme_config:              # knobs of the selected scheme
      lam, beta, grad_clip, max_exp_clip, min_priority_clip   (roer, roer_chi2)
      alpha, min_priority                                     (per)
      large_batch                                             (laber)
                                # laber: at least the agent's batch_size
                                # roer/roer_chi2: beta and grad_clip also set
                                # the value network's loss mean(f*(z) - z),
                                # z = min(R / beta, grad_clip)
    sweep:
      grid: {dotted.key: [values], ...}   # e.g. scheme_config.beta, agent.learning_rate,
                                          # tabular.epsilon, buffer_capacity; no
                                          # two values of a key name one cell

Every key is checked when the file loads: an unknown key, a scheme_config
key the scheme does not have, a sweep.grid key that names no key of this
schema, or a count (a size, step, period or seed above) that is not an
int is a ConfigError; 8.0 and true are not ints. The config.yaml that a
run writes (echo) is this same schema with every value spelled out, so
it can be passed back to `roer train` and `roer bias`. Each sweep cell is
the echoed file with the cell's grid values set, loaded again through
from_dict. Files in the older resolved form (top-level sac / roer / per /
laber / sweep_grid), and files that still hold the removed
bias_eval_period or sampling_mode key, fail with "unknown config keys",
which the CLI maps to exit code 2.
"""

from __future__ import annotations

import copy
import itertools
import re
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any

import numpy as np
import yaml

from .agents import SacConfig, TabularConfig
from .schemes import (SCHEME_CONFIGS, ConfigError, LaberConfig, PerConfig,
                      RoerConfig, integer_rules, require)


@dataclass(frozen=True)
class ExperimentConfig:
    env: str
    scheme: str
    seeds: tuple[int, ...]
    total_steps: int
    train_start_step: int = 0
    eval_period: int = 1000
    eval_episodes: int = 5
    output_dir: str = ""
    buffer_capacity: int = 100_000
    env_horizon: int | None = None
    offline_dataset: str | None = None
    checkpoint_period: int = 0
    bias_eval_pairs: int = 64
    bias_eval_horizon: int = 1000
    workers: int = 1
    sac: SacConfig = field(default_factory=SacConfig)
    tabular: TabularConfig = field(default_factory=TabularConfig)
    # the knobs of the scheme, as schemes.SCHEME_CONFIGS names; None for uniform
    scheme_config: RoerConfig | PerConfig | LaberConfig | None = None
    sweep_grid: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scheme not in SCHEME_CONFIGS:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; expected one of "
                f"{tuple(SCHEME_CONFIGS)}"
            )
        cls = SCHEME_CONFIGS[self.scheme]
        if not isinstance(self.scheme_config, cls or type(None)):
            raise ConfigError(f"scheme {self.scheme!r} needs scheme_config of "
                              f"type {cls and cls.__name__}")
        require(self, (
            ("seeds", len(self.seeds) >= 1, "a non-empty list"),
            ("seeds", all(type(s) is int and s >= 0 for s in self.seeds),
             "integers >= 0"),
            ("seeds", all(self.seeds.count(s) == 1 for s in self.seeds), "distinct"),
            *integer_rules(self, "total_steps", "train_start_step", "eval_period",
                           "eval_episodes", "buffer_capacity", "checkpoint_period",
                           "bias_eval_pairs", "bias_eval_horizon", "workers"),
            ("env_horizon", self.env_horizon is None or type(self.env_horizon) is int,
             "an integer or null"),
            ("train_start_step", self.train_start_step >= 0, ">= 0"),
            ("total_steps", self.total_steps > self.train_start_step,
             "more than train_start_step"),
            ("eval_period", self.eval_period >= 1, ">= 1"),
            ("eval_episodes", self.eval_episodes >= 1, ">= 1"),
            ("workers", self.workers >= 1, ">= 1"),
            ("checkpoint_period", self.checkpoint_period >= 0, ">= 0"),
            ("bias_eval_pairs", self.bias_eval_pairs >= 1, ">= 1"),
            ("bias_eval_horizon", self.bias_eval_horizon >= 1, ">= 1"),
            ("env_horizon", self.env_horizon is None or self.env_horizon >= 1,
             ">= 1 or null"),
        ))
        batch = self.agent_config.batch_size
        # a buffer smaller than one minibatch never reaches the update gate
        if self.buffer_capacity < batch:
            raise ConfigError(f"buffer_capacity {self.buffer_capacity} "
                              f"smaller than minibatch {batch}")
        if self.scheme == "laber" and self.scheme_config.large_batch < batch:
            raise ConfigError(f"large_batch {self.scheme_config.large_batch} "
                              f"smaller than minibatch {batch}")

    @property
    def agent_config(self) -> SacConfig | TabularConfig:
        """The config of env's agent, the one place that picks its kind: SAC
        on pendulum, the tabular agent on every finite env."""
        return self.sac if parse_env_id(self.env)[0] == "pendulum" else self.tabular


# env id family -> the pattern of the whole id: sizes are >= 1, written
# without leading zeros, and random's seed defaults to 0
_SIZE = r"([1-9][0-9]*)"
_ENV_IDS = {"pendulum": r"pendulum", "chain": f"chain-{_SIZE}",
            "grid": f"grid-{_SIZE}x{_SIZE}",
            "random": f"random-{_SIZE}x{_SIZE}(?:-([0-9]+))?"}


def parse_env_id(env_id) -> tuple[str, tuple[int, ...]]:
    """(family, integer arguments) of an env id of the schema above."""
    for family, pattern in _ENV_IDS.items():
        match = re.fullmatch(pattern, str(env_id))
        if match:
            return family, tuple(int(v) for v in match.groups(default="0"))
    raise ConfigError(f"unknown environment id {env_id!r}")


def seed_streams(experiment_seed: int) -> dict[str, np.random.Generator]:
    """Derive the five named generators from one experiment seed."""
    children = np.random.SeedSequence(experiment_seed).spawn(5)
    names = ("env", "agent", "buffer", "init", "eval")
    return {n: np.random.default_rng(c) for n, c in zip(names, children)}


# top-level keys of the file schema that map one to one onto fields
_TOP_LEVEL = ("env", "scheme", "total_steps", "train_start_step",
              "eval_period", "eval_episodes", "output_dir", "buffer_capacity",
              "env_horizon", "offline_dataset", "checkpoint_period",
              "bias_eval_pairs", "bias_eval_horizon", "workers")


# agent.profile -> the SacConfig fields it sets; the agent section's own
# keys override them
SAC_PROFILES: dict[str, dict[str, Any]] = {
    "test": {},  # SacConfig's defaults: (64, 64) nets, batch 64, lr 3e-4
    "full": dict(hidden_dims=(256, 256), batch_size=256, learning_rate=3e-3),
}


def _build_sac(raw: dict) -> SacConfig:
    raw = dict(raw)
    profile = raw.pop("profile", "test")
    if profile not in SAC_PROFILES:
        raise ConfigError(f"unknown agent profile {profile!r}")
    if "hidden_dims" in raw:
        raw["hidden_dims"] = tuple(raw["hidden_dims"])
    return SacConfig(**{**SAC_PROFILES[profile], **raw})


def _build_scheme_config(scheme, raw: dict):
    cls = SCHEME_CONFIGS.get(scheme)
    allowed = {f.name for f in fields(cls)} if cls else set()
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(
            f"scheme_config keys {sorted(unknown)} not valid for {scheme!r}"
        )
    return cls(**raw) if cls else None


def from_dict(raw: dict[str, Any]) -> ExperimentConfig:
    """Build a config from the file schema in the module docstring."""
    raw = dict(raw)
    try:
        seeds = raw.pop("seeds", None)
        if seeds is None:
            raise ConfigError("config requires 'seeds'")
        kwargs: dict[str, Any] = {k: raw.pop(k) for k in _TOP_LEVEL if k in raw}
        kwargs["seeds"] = tuple(seeds)
        kwargs["sac"] = _build_sac(raw.pop("agent", None) or {})
        kwargs["tabular"] = TabularConfig(**(raw.pop("tabular", None) or {}))
        kwargs["scheme_config"] = _build_scheme_config(
            kwargs.get("scheme"), raw.pop("scheme_config", None) or {})
        sweep = raw.pop("sweep", None) or {}
        if not isinstance(sweep, dict) or set(sweep) - {"grid"}:
            raise ConfigError("the sweep section takes one key, grid")
        kwargs["sweep_grid"] = sweep.get("grid") or {}
        if raw:
            raise ConfigError(f"unknown config keys: {sorted(raw)}")
        cfg = ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    _check_grid(cfg)
    if not cfg.output_dir:
        cfg = replace(cfg, output_dir=f"runs/{cfg.env}-{cfg.scheme}")
    return cfg


def load(path: str) -> ExperimentConfig:
    with open(path, "r") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} did not parse to a mapping")
    return from_dict(raw)


def as_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    """The config in the file schema, every value spelled out, so that
    from_dict(as_dict(cfg)) == cfg."""
    data: dict[str, Any] = {k: getattr(cfg, k) for k in _TOP_LEVEL}
    data["seeds"] = list(cfg.seeds)
    data["agent"] = asdict(cfg.sac)
    data["agent"]["hidden_dims"] = list(cfg.sac.hidden_dims)
    data["tabular"] = asdict(cfg.tabular)
    if cfg.scheme_config is not None:
        data["scheme_config"] = asdict(cfg.scheme_config)
    data["sweep"] = {"grid": copy.deepcopy(cfg.sweep_grid)}
    return data


def echo(cfg: ExperimentConfig) -> str:
    """Deterministic YAML rendering of a config, loadable by load()."""
    return yaml.safe_dump(as_dict(cfg), sort_keys=True)


def _section_of(data: dict, dotted_key) -> tuple[dict, str] | None:
    """The mapping that holds a dotted key's leaf value, and the leaf's
    name; None when the key names no value of the schema."""
    *path, leaf = str(dotted_key).split(".")
    for part in path:
        data = data.get(part)
        if not isinstance(data, dict):
            return None
    if leaf not in data or isinstance(data[leaf], dict):
        return None
    return data, leaf


def _check_grid(cfg: ExperimentConfig) -> None:
    if not isinstance(cfg.sweep_grid, dict):
        raise ConfigError("sweep.grid must map config keys to value lists")
    known = as_dict(cfg)
    for key, values in cfg.sweep_grid.items():
        if _section_of(known, key) is None:
            raise ConfigError(f"sweep.grid key {key!r} names no config key")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.grid[{key!r}] must be a non-empty list")
        names = [str(v).replace("/", "_") for v in values]  # as run_sweep's cell dirs
        if len(set(names)) < len(names):
            raise ConfigError(f"sweep.grid[{key!r}] gives two cells one name: {values!r}")


def sweep_cells(cfg: ExperimentConfig) -> list[tuple[str, dict[str, Any]]]:
    """One (label, file-schema dict) per cell of the grid's Cartesian
    product, keys in sorted order; each dict is the config with the cell's
    values set and no grid of its own."""
    base = as_dict(cfg)
    del base["sweep"]
    keys = sorted(cfg.sweep_grid)
    cells = []
    for values in itertools.product(*(cfg.sweep_grid[k] for k in keys)):
        raw = copy.deepcopy(base)
        for key, value in zip(keys, values):
            section, leaf = _section_of(raw, key)
            section[leaf] = value
        cells.append((",".join(f"{k}={v}" for k, v in zip(keys, values)), raw))
    return cells
