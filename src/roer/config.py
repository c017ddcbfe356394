"""Experiment configuration: YAML schema, validation, seed derivation.

Seed derivation rule: the experiment seed s feeds numpy's SeedSequence(s),
whose first five spawned children seed, in order, (1) the training
environment, (2) agent updates and action sampling, (3) buffer sampling,
(4) network / table initialization, (5) evaluation (its own environment
and rollout noise). Every stream an experiment consumes comes from one of
these five generators, so a (config, seed) pair fixes a run exactly.

Schema (all keys optional unless noted):

    env: pendulum | chain-<n> | grid-<r>x<c> | random-<s>x<a>-<seed>   [required]
    scheme: uniform | per | laber | roer | roer_chi2                   [required]
                                # roer: KL ratio, roer_chi2: Pearson chi^2
                                # ratio, both through schemes.roer_update
    seeds: [0, 1, ...]                                                 [required]
    total_steps: int            # N                                    [required]
    train_start_step: int       # tau, default 0
    eval_period: int            # default 1000
    eval_episodes: int          # default 5
    output_dir: str             # default runs/<env>-<scheme>
    sampling_mode: proportional | weighted
    buffer_capacity: int
    env_horizon: int            # episode cap, default 1000 (200 pendulum)
    offline_dataset: path to .npz or null
    checkpoint_period: int      # 0 = final checkpoint only
    bias_eval_period: int       # 0 = off
    bias_eval_pairs: int
    bias_eval_horizon: int
    workers: int                # parallel seed workers
    agent:                      # SAC fields (continuous envs)
      profile: test | full
      learning_rate, hidden_dims, batch_size, gamma, polyak_tau,
      init_temperature, target_entropy, huber_k, penalty_coef
    tabular:                    # tabular agent fields (finite envs)
      learning_rate, gamma, soft_temperature, epsilon, batch_size
    scheme_config:              # knobs of the selected scheme
      lam, beta, grad_clip, max_exp_clip, min_priority_clip   (roer, roer_chi2)
      alpha, min_priority                                     (per)
      large_batch                                             (laber)
    sweep:
      grid: {dotted.key: [values], ...}

Environment variables: ROER_OUTPUT_DIR overrides output_dir, ROER_WORKERS
overrides workers.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace
from typing import Any

import numpy as np
import yaml

from .agents import SacConfig, TabularConfig
from .divergences import Kind
from .schemes import (ROER_DIVERGENCES, SCHEME_KEYS, ConfigError, LaberConfig,
                      PerConfig, RoerConfig)


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
    sampling_mode: str = "proportional"
    buffer_capacity: int = 100_000
    env_horizon: int | None = None
    offline_dataset: str | None = None
    checkpoint_period: int = 0
    bias_eval_period: int = 0
    bias_eval_pairs: int = 64
    bias_eval_horizon: int = 1000
    workers: int = 1
    sac: SacConfig = field(default_factory=SacConfig.test_profile)
    tabular: TabularConfig = field(default_factory=TabularConfig)
    roer: RoerConfig = field(default_factory=RoerConfig)
    per: PerConfig = field(default_factory=PerConfig)
    laber: LaberConfig = field(default_factory=LaberConfig)
    sweep_grid: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scheme not in SCHEME_KEYS:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEME_KEYS}"
            )
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.total_steps <= self.train_start_step:
            raise ConfigError("total_steps must exceed train_start_step")
        if self.train_start_step < 0:
            raise ConfigError("train_start_step must be >= 0")
        if self.eval_period <= 0:
            raise ConfigError("eval_period must be positive")
        if self.sampling_mode not in ("proportional", "weighted"):
            raise ConfigError(f"unknown sampling_mode {self.sampling_mode!r}")

    @property
    def trains_value_network(self) -> bool:
        return self.scheme in ROER_DIVERGENCES


def seed_streams(experiment_seed: int) -> dict[str, np.random.Generator]:
    """Derive the five named generators from one experiment seed."""
    children = np.random.SeedSequence(experiment_seed).spawn(5)
    names = ("env", "agent", "buffer", "init", "eval")
    return {n: np.random.default_rng(c) for n, c in zip(names, children)}


def _build_sac(raw: dict) -> SacConfig:
    raw = dict(raw)
    if "value_loss_kind" in raw:
        raise ConfigError("agent.value_loss_kind is set by the scheme; "
                          "it cannot be configured")
    profile = raw.pop("profile", "test")
    if "hidden_dims" in raw:
        raw["hidden_dims"] = tuple(raw["hidden_dims"])
    if profile == "full":
        return SacConfig.full_profile(**raw)
    if profile == "test":
        return SacConfig.test_profile(**raw)
    raise ConfigError(f"unknown agent profile {profile!r}")


_SCHEME_CFG_FIELDS = {
    **dict.fromkeys(ROER_DIVERGENCES, ("lam", "beta", "grad_clip",
                                       "max_exp_clip", "min_priority_clip")),
    "per": ("alpha", "min_priority"),
    "laber": ("large_batch",),
    "uniform": (),
}


def from_dict(raw: dict[str, Any]) -> ExperimentConfig:
    """Build a config from either the user-facing schema (agent /
    scheme_config / sweep sugar keys) or the resolved form that echo()
    emits (sac / roer / per / laber / sweep_grid)."""
    raw = dict(raw)
    try:
        scheme = raw.get("scheme", "uniform")
        scheme_cfg = raw.pop("scheme_config", {}) or {}
        allowed = _SCHEME_CFG_FIELDS.get(scheme, ())
        unknown = set(scheme_cfg) - set(allowed)
        if unknown:
            raise ConfigError(
                f"scheme_config keys {sorted(unknown)} not valid for {scheme!r}"
            )
        kwargs: dict[str, Any] = {}
        if "sac" in raw:
            sac_raw = dict(raw.pop("sac"))
            sac_raw["hidden_dims"] = tuple(sac_raw.get("hidden_dims", (64, 64)))
            kwargs["sac"] = SacConfig(**sac_raw)
        else:
            kwargs["sac"] = _build_sac(raw.pop("agent", {}) or {})
        kwargs["tabular"] = TabularConfig(**(raw.pop("tabular", {}) or {}))
        for section, cls in (("roer", RoerConfig), ("per", PerConfig),
                             ("laber", LaberConfig)):
            if section in raw:
                kwargs[section] = cls(**raw.pop(section))
        if scheme in ROER_DIVERGENCES and "roer" not in kwargs:
            kwargs["roer"] = RoerConfig(**scheme_cfg)
            # the value network shares the scheme's loss temperature, clip
            # and divergence (Pearson chi^2 has the squared loss, KL Gumbel's)
            pearson = ROER_DIVERGENCES[scheme].kind is Kind.PEARSON_CHI2
            kwargs["sac"] = replace(
                kwargs["sac"],
                value_beta=kwargs["roer"].beta,
                value_grad_clip=kwargs["roer"].grad_clip,
                value_loss_kind="pearson" if pearson else "extreme",
            )
        elif scheme == "per" and "per" not in kwargs:
            kwargs["per"] = PerConfig(**scheme_cfg)
        elif scheme == "laber" and "laber" not in kwargs:
            kwargs["laber"] = LaberConfig(**scheme_cfg)
        sweep = raw.pop("sweep", {}) or {}
        if "sweep_grid" in raw:
            kwargs["sweep_grid"] = raw.pop("sweep_grid") or {}
        else:
            kwargs["sweep_grid"] = sweep.get("grid", {}) if isinstance(sweep, dict) else {}
        seeds = raw.pop("seeds", None)
        if seeds is None:
            raise ConfigError("config requires 'seeds'")
        kwargs["seeds"] = tuple(int(s) for s in seeds)
        for key in ("env", "scheme", "total_steps", "train_start_step",
                    "eval_period", "eval_episodes", "output_dir",
                    "sampling_mode", "buffer_capacity", "env_horizon",
                    "offline_dataset", "checkpoint_period", "bias_eval_period",
                    "bias_eval_pairs", "bias_eval_horizon", "workers"):
            if key in raw:
                kwargs[key] = raw.pop(key)
        if raw:
            raise ConfigError(f"unknown config keys: {sorted(raw)}")
        cfg = ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = os.environ.get("ROER_OUTPUT_DIR")
    if out_dir:
        cfg = replace(cfg, output_dir=out_dir)
    elif not cfg.output_dir:
        cfg = replace(cfg, output_dir=f"runs/{cfg.env}-{cfg.scheme}")
    workers = os.environ.get("ROER_WORKERS")
    if workers:
        cfg = replace(cfg, workers=int(workers))
    return cfg


def load(path: str) -> ExperimentConfig:
    with open(path, "r") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} did not parse to a mapping")
    return from_dict(raw)


def echo(cfg: ExperimentConfig) -> str:
    """Deterministic YAML rendering of a resolved config."""
    data = asdict(cfg)
    data["seeds"] = list(cfg.seeds)
    data["sac"]["hidden_dims"] = list(cfg.sac.hidden_dims)
    return yaml.safe_dump(data, sort_keys=True)


def apply_override(cfg: ExperimentConfig, dotted_key: str, value) -> ExperimentConfig:
    """Set a possibly nested field ('roer.beta', 'sac.learning_rate') on a
    copy of the config; used by the sweep grid."""
    parts = dotted_key.split(".")
    if len(parts) == 1:
        return replace(cfg, **{parts[0]: value})
    if len(parts) == 2:
        sub = getattr(cfg, parts[0], None)
        if sub is None:
            raise ConfigError(f"unknown config section {parts[0]!r}")
        new_sub = replace(sub, **{parts[1]: value})
        return replace(cfg, **{parts[0]: new_sub})
    raise ConfigError(f"cannot apply override {dotted_key!r}")
