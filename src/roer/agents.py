"""Desk-scale agents: Soft Actor-Critic with double critics and a tanh-
Gaussian actor, the auxiliary value network that produces priority TD
errors, and a tabular soft-Q agent for exact-oracle experiments.

The SAC update follows a fixed order per step: critic update (weighted
Huber + gradient penalty against the entropy-regularized min-target),
value-network update, actor update (reparameterized), temperature update
toward the target entropy, then Polyak target averaging. Every piece of
randomness comes from the generator passed into the call, so a (state,
batch, generator-state) triple fixes the update bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import losses, nn
from .replay import SampledBatch
from .schemes import InvalidInputError

LOG_STD_MIN = -10.0
LOG_STD_MAX = 2.0
TANH_EPS = 1e-6


@dataclass(frozen=True)
class SacConfig:
    gamma: float = 0.99
    polyak_tau: float = 5e-3
    learning_rate: float = 3e-4
    hidden_dims: tuple[int, ...] = (64, 64)
    batch_size: int = 64
    init_temperature: float = 1.0
    target_entropy: float | None = None  # None -> -action_dim
    huber_k: float | None = 1.0          # None -> mean-square critic loss
    penalty_coef: float = 1.0
    value_beta: float = 1.0
    value_grad_clip: float = 7.0
    value_loss_kind: str = "extreme"         # or "pearson"

    @classmethod
    def test_profile(cls, **overrides) -> "SacConfig":
        """Small nets and batches for fast desk runs."""
        base = dict(hidden_dims=(64, 64), batch_size=64, learning_rate=3e-4)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def full_profile(cls, **overrides) -> "SacConfig":
        """(256, 256) nets, batch 256, learning rate 3e-3."""
        base = dict(hidden_dims=(256, 256), batch_size=256, learning_rate=3e-3)
        base.update(overrides)
        return cls(**base)


@dataclass
class StepMetrics:
    critic_loss: float = math.nan
    value_loss: float = math.nan
    actor_loss: float = math.nan
    alpha_loss: float = math.nan
    value_td_errors: np.ndarray | None = None
    critic_td_errors: np.ndarray | None = None
    value_clip_count: int = 0
    aborted: bool = False


class SacAgent:
    def __init__(self, obs_dim: int, action_dim: int, config: SacConfig, seed):
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.config = config
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        h = config.hidden_dims
        critic_spec = nn.NetworkSpec(obs_dim + action_dim, h, 1)
        self.critic1 = nn.init(critic_spec, rng)
        self.critic2 = nn.init(critic_spec, rng)
        self.target1 = self.critic1.copy()
        self.target2 = self.critic2.copy()
        self.actor = nn.init(nn.NetworkSpec(obs_dim, h, 2 * action_dim), rng)
        self.value = nn.init(nn.NetworkSpec(obs_dim, h, 1), rng)
        self.log_alpha = float(np.log(config.init_temperature))
        lr = config.learning_rate
        self.opt_critic1 = nn.AdamState(self.critic1, lr)
        self.opt_critic2 = nn.AdamState(self.critic2, lr)
        self.opt_actor = nn.AdamState(self.actor, lr)
        self.opt_value = nn.AdamState(self.value, lr)
        self.opt_alpha = nn.ScalarAdam(lr)
        self.target_entropy = (
            config.target_entropy if config.target_entropy is not None
            else -float(action_dim)
        )
        self.aborted_updates = 0

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha))

    # -- policy ---------------------------------------------------------

    def _policy_stats(self, obs: np.ndarray):
        out, cache = nn.forward_cache(self.actor, obs)
        A = self.action_dim
        mu = out[:, :A]
        raw = out[:, A:]
        squashed = np.tanh(raw)
        log_std = LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (squashed + 1.0)
        return mu, log_std, squashed, cache

    def _sample(self, obs: np.ndarray, rng: np.random.Generator):
        """Reparameterized tanh-Gaussian sample with its log-density and
        everything the actor backward pass needs."""
        mu, log_std, squashed, cache = self._policy_stats(obs)
        std = np.exp(log_std)
        eps = rng.standard_normal(mu.shape)
        u = mu + std * eps
        a = np.tanh(u)
        log_prob = np.sum(
            -0.5 * eps**2 - log_std - 0.5 * math.log(2.0 * math.pi)
            - np.log(1.0 - a**2 + TANH_EPS),
            axis=1,
        )
        return a, log_prob, dict(mu=mu, log_std=log_std, std=std, eps=eps,
                                 u=u, squashed_raw=squashed, cache=cache)

    def act(self, obs, deterministic: bool = False,
            rng: np.random.Generator | None = None) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64)
        single = obs.ndim == 1
        if single:
            obs = obs[None, :]
        if deterministic:
            mu, _, _, _ = self._policy_stats(obs)
            a = np.tanh(mu)
        else:
            if rng is None:
                raise ValueError("stochastic act() needs a generator")
            a, _, _ = self._sample(obs, rng)
        return a[0] if single else a

    # -- critic helpers ---------------------------------------------------

    def _q(self, params: nn.ParameterSet, obs: np.ndarray, act: np.ndarray):
        x = np.concatenate([obs, act], axis=1)
        q, cache = nn.forward_cache(params, x)
        return q[:, 0], x, cache

    def _min_q(self, p1, p2, obs, act) -> np.ndarray:
        q1, _, _ = self._q(p1, obs, act)
        q2, _, _ = self._q(p2, obs, act)
        return np.minimum(q1, q2)

    # -- state snapshot for non-finite rollback --------------------------

    # The targets and the temperature change only after the last check that
    # can raise (the actor loss), so an abort never reaches them and the
    # snapshot leaves them out.
    def _snapshot(self):
        nets = (self.critic1, self.critic2, self.actor, self.value)
        opts = (self.opt_critic1, self.opt_critic2, self.opt_actor, self.opt_value)
        return (
            [p.copy() for p in nets],
            [(o.m.copy(), o.v.copy(), o.step_count, o.skipped) for o in opts],
        )

    def _restore(self, snap):
        nets, opts = snap
        self.critic1, self.critic2, self.actor, self.value = nets
        for opt, (m, v, sc, sk) in zip(
            (self.opt_critic1, self.opt_critic2, self.opt_actor, self.opt_value),
            opts,
        ):
            opt.m, opt.v, opt.step_count, opt.skipped = m, v, sc, sk

    # -- update ----------------------------------------------------------

    def update(self, batch: SampledBatch, weights: np.ndarray,
               rng: np.random.Generator, train_value: bool = False) -> StepMetrics:
        weights = np.asarray(weights, dtype=np.float64)
        snap = self._snapshot()
        metrics = StepMetrics()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return self._update_inner(batch, weights, rng, train_value, metrics)
        except (FloatingPointError, InvalidInputError):
            # non-finite collapse: abort, count, roll back all state
            self._restore(snap)
            self.aborted_updates += 1
            metrics.aborted = True
            return metrics

    def _update_inner(self, batch, weights, rng, train_value,
                      metrics: StepMetrics) -> StepMetrics:
        cfg = self.config
        n = len(batch)
        obs = batch.states
        act = batch.actions
        nobs = batch.next_states
        not_done = 1.0 - batch.terminals.astype(np.float64)
        # critic update against the entropy-regularized min-target
        next_act, next_logp, _ = self._sample(nobs, rng)
        q_next = self._min_q(self.target1, self.target2, nobs, next_act)
        target = batch.rewards + cfg.gamma * not_done * (
            q_next - self.alpha * next_logp
        )
        critic_losses = []
        preds = []
        for params, opt in ((self.critic1, self.opt_critic1),
                            (self.critic2, self.opt_critic2)):
            q, x, cache = self._q(params, obs, act)
            preds.append(q)
            out = losses.weighted_huber_critic_loss(q, target, weights,
                                                    k=cfg.huber_k)
            grads, _ = nn.backward(params, x, out.grad[:, None], cache)
            penalty = 0.0
            if cfg.penalty_coef > 0.0:
                pen = losses.gradient_penalty(params, x, cache)
                penalty = pen.value
                for gw, pw in zip(grads.weights, pen.param_grads.weights):
                    gw += cfg.penalty_coef * pw
            loss_val = out.value + cfg.penalty_coef * penalty
            if not np.isfinite(loss_val):
                raise FloatingPointError("critic loss diverged")
            critic_losses.append(loss_val)
            opt.step(params, grads)
        metrics.critic_loss = float(np.mean(critic_losses))
        metrics.critic_td_errors = target - 0.5 * (preds[0] + preds[1])

        # value network (priority TD source)
        if train_value:
            v_pred, _, v_cache = self._value_forward(obs)
            residual = self._min_q(self.target1, self.target2, obs, act) - v_pred
            if cfg.value_loss_kind == "pearson":
                out = losses.pearson_v_loss(residual, cfg.value_beta)
            else:
                out = losses.extreme_v_loss(residual, cfg.value_beta,
                                            cfg.value_grad_clip)
                metrics.value_clip_count = out.diagnostics["clipped"]
            if not np.isfinite(out.value):
                raise FloatingPointError("value loss diverged")
            metrics.value_loss = out.value
            vgrads, _ = nn.backward(self.value, obs, -out.grad[:, None], v_cache)
            self.opt_value.step(self.value, vgrads)
            # TD errors from the freshly updated value function
            v_curr, _, _ = self._value_forward(obs)
            v_next, _, _ = self._value_forward(nobs)
            metrics.value_td_errors = losses.td_error(
                batch.rewards, cfg.gamma, v_next, v_curr, batch.terminals
            )

        # actor, through the min online critic
        new_act, logp, aux = self._sample(obs, rng)
        q1, x1, c1 = self._q(self.critic1, obs, new_act)
        q2, x2, c2 = self._q(self.critic2, obs, new_act)
        use_first = q1 <= q2
        q_min = np.where(use_first, q1, q2)
        metrics.actor_loss = float(np.mean(self.alpha * logp - q_min))
        if not np.isfinite(metrics.actor_loss):
            raise FloatingPointError("actor loss diverged")
        g1 = nn.input_gradient(self.critic1, x1, c1)[:, self.obs_dim:]
        g2 = nn.input_gradient(self.critic2, x2, c2)[:, self.obs_dim:]
        dq_da = np.where(use_first[:, None], g1, g2)
        agrads = self._actor_backward(aux, dq_da, n)
        self.opt_actor.step(self.actor, agrads)

        # temperature toward the target entropy
        entropy_gap = float(np.mean(logp)) + self.target_entropy
        metrics.alpha_loss = -self.log_alpha * entropy_gap
        self.log_alpha = self.opt_alpha.step(self.log_alpha, -entropy_gap)

        nn.polyak(self.target1, self.critic1, cfg.polyak_tau)
        nn.polyak(self.target2, self.critic2, cfg.polyak_tau)
        return metrics

    def _value_forward(self, obs: np.ndarray):
        v, cache = nn.forward_cache(self.value, obs)
        return v[:, 0], obs, cache

    def td_surrogates(self, states, actions, rewards, next_states, terminals,
                      rng: np.random.Generator) -> np.ndarray:
        """|critic TD error| of arbitrary transitions (large-batch surrogate
        priorities)."""
        not_done = 1.0 - np.asarray(terminals, dtype=np.float64)
        next_act, next_logp, _ = self._sample(next_states, rng)
        q_next = self._min_q(self.target1, self.target2, next_states, next_act)
        target = rewards + self.config.gamma * not_done * (
            q_next - self.alpha * next_logp
        )
        q1, _, _ = self._q(self.critic1, states, actions)
        q2, _, _ = self._q(self.critic2, states, actions)
        return np.abs(target - 0.5 * (q1 + q2))

    def _actor_backward(self, aux: dict, dq_da: np.ndarray, n: int) -> nn.ParameterSet:
        """Assemble d(actor loss)/d(actor params) from the sampled-action
        pathwise terms.

        With u = mu + std*eps and a = tanh(u), the log-density splits into
        -0.5 eps^2 - log_std (no mu dependence) and the tanh correction
        -log(1 - a^2 + eps_c) whose u-derivative is 2 a (1-a^2)/(1-a^2+eps_c).
        """
        alpha = self.alpha
        a = np.tanh(aux["u"])
        one_m_a2 = 1.0 - a**2
        dlogp_du = 2.0 * a * one_m_a2 / (one_m_a2 + TANH_EPS)
        dq_du = dq_da * one_m_a2
        du_dlogstd = aux["std"] * aux["eps"]
        g_mu = (alpha * dlogp_du - dq_du) / n
        g_logstd = (alpha * (-1.0 + dlogp_du * du_dlogstd)
                    - dq_du * du_dlogstd) / n
        # chain through the tanh parameterization of log_std
        g_raw = g_logstd * 0.5 * (LOG_STD_MAX - LOG_STD_MIN) \
            * (1.0 - aux["squashed_raw"]**2)
        g_out = np.concatenate([g_mu, g_raw], axis=1)
        grads, _ = nn.backward(self.actor, aux_obs_of(aux), g_out, aux["cache"])
        return grads

    # -- checkpointing ----------------------------------------------------

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] = {}
        nets = dict(critic1=self.critic1, critic2=self.critic2,
                    target1=self.target1, target2=self.target2,
                    actor=self.actor, value=self.value)
        for name, params in nets.items():
            for key, arr in params.arrays():
                arrays[f"{name}.{key}"] = arr
        opts = dict(critic1=self.opt_critic1, critic2=self.opt_critic2,
                    actor=self.opt_actor, value=self.opt_value)
        for name, opt in opts.items():
            for mk, mset in opt.state_arrays():
                for key, arr in mset.arrays():
                    arrays[f"opt.{name}.{mk}.{key}"] = arr
            arrays[f"opt.{name}.scalars"] = opt.scalars()
        arrays["log_alpha"] = np.array([self.log_alpha])
        arrays["alpha_opt"] = np.array(
            [self.opt_alpha.m, self.opt_alpha.v, float(self.opt_alpha.step_count)]
        )
        arrays["meta"] = np.array(
            [self.obs_dim, self.action_dim, self.aborted_updates], dtype=np.int64
        )
        return arrays

    def save(self, path_or_stream) -> None:
        nn.save_checkpoint(path_or_stream, self.checkpoint_arrays())

    @classmethod
    def load(cls, path_or_stream, config: SacConfig) -> "SacAgent":
        arrays = nn.load_checkpoint(path_or_stream)
        meta = arrays["meta"]
        agent = cls(int(meta[0]), int(meta[1]), config, seed=0)
        nets = dict(critic1=agent.critic1, critic2=agent.critic2,
                    target1=agent.target1, target2=agent.target2,
                    actor=agent.actor, value=agent.value)
        for name, params in nets.items():
            for i in range(params.n_layers):
                params.weights[i][...] = arrays[f"{name}.w{i}"]
                params.biases[i][...] = arrays[f"{name}.b{i}"]
        opts = dict(critic1=agent.opt_critic1, critic2=agent.opt_critic2,
                    actor=agent.opt_actor, value=agent.opt_value)
        for name, opt in opts.items():
            for mk, mset in opt.state_arrays():
                for i in range(opt.m.n_layers):
                    mset.weights[i][...] = arrays[f"opt.{name}.{mk}.w{i}"]
                    mset.biases[i][...] = arrays[f"opt.{name}.{mk}.b{i}"]
            opt.restore_scalars(arrays[f"opt.{name}.scalars"])
        agent.log_alpha = float(arrays["log_alpha"][0])
        alpha_opt = arrays["alpha_opt"]
        agent.opt_alpha.m = float(alpha_opt[0])
        agent.opt_alpha.v = float(alpha_opt[1])
        agent.opt_alpha.step_count = int(alpha_opt[2])
        agent.aborted_updates = int(meta[2])
        return agent


def aux_obs_of(aux: dict) -> np.ndarray:
    """The observation batch an actor cache was built from."""
    return aux["cache"][0][0]


@dataclass(frozen=True)
class TabularConfig:
    gamma: float = 0.99
    learning_rate: float = 0.3
    soft_temperature: float = 0.01
    epsilon: float = 0.1
    batch_size: int = 64


class TabularAgent:
    """Soft-Q learner on an explicit Q table.

    The behavior policy is epsilon-greedy; targets bootstrap through the
    soft (log-sum-exp) state value, which approaches the hard max as the
    temperature shrinks.
    """

    def __init__(self, n_states: int, n_actions: int, config: TabularConfig):
        self.n_states = n_states
        self.n_actions = n_actions
        self.config = config
        self.q_table = np.zeros((n_states, n_actions))

    def soft_value(self, states) -> np.ndarray:
        temp = self.config.soft_temperature
        q = self.q_table[np.asarray(states, dtype=np.int64)]
        m = q.max(axis=-1)
        return m + temp * np.log(np.sum(np.exp((q - m[..., None]) / temp), axis=-1))

    def act(self, state: int, rng: np.random.Generator,
            deterministic: bool = False) -> int:
        if not deterministic and rng.random() < self.config.epsilon:
            return int(rng.integers(self.n_actions))
        return int(self.q_table[int(state)].argmax())

    def update(self, batch: SampledBatch, weights: np.ndarray) -> StepMetrics:
        cfg = self.config
        s = batch.states.astype(np.int64)
        a = batch.actions.astype(np.int64)
        not_done = 1.0 - batch.terminals.astype(np.float64)
        v_next = self.soft_value(batch.next_states.astype(np.int64))
        delta = batch.rewards + cfg.gamma * v_next * not_done - self.q_table[s, a]
        if not np.all(np.isfinite(delta)):
            raise FloatingPointError("tabular TD errors diverged")
        np.add.at(self.q_table, (s, a), cfg.learning_rate * weights * delta)
        return StepMetrics(
            critic_loss=float(np.mean(weights * delta**2)),
            value_td_errors=delta,
            critic_td_errors=delta,
        )

    def td_errors(self, states, actions, rewards, next_states, terminals) -> np.ndarray:
        """TD errors of arbitrary transitions under the current table."""
        s = np.asarray(states, dtype=np.int64)
        a = np.asarray(actions, dtype=np.int64)
        not_done = 1.0 - np.asarray(terminals, dtype=np.float64)
        v_next = self.soft_value(np.asarray(next_states, dtype=np.int64))
        return rewards + self.config.gamma * v_next * not_done - self.q_table[s, a]

    def save(self, path_or_stream) -> None:
        nn.save_checkpoint(path_or_stream, {
            "q_table": self.q_table,
            "meta": np.array([self.n_states, self.n_actions], dtype=np.int64),
        })

    @classmethod
    def load(cls, path_or_stream, config: TabularConfig) -> "TabularAgent":
        arrays = nn.load_checkpoint(path_or_stream)
        meta = arrays["meta"]
        agent = cls(int(meta[0]), int(meta[1]), config)
        agent.q_table[...] = arrays["q_table"]
        return agent
