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

import contextvars
import ctypes
import math
import os
import queue
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import binio, losses, nn
from .divergences import DivergenceSpec
from .replay import SampledBatch
from .schemes import (ROER_DIVERGENCES, RoerConfig, integer_rules, is_real,
                      real_rules, require)

LOG_STD_MIN = -10.0
LOG_STD_MAX = 2.0
TANH_EPS = 1e-6

# A SAC agent runs each twin pair's passes on two threads when its process
# has this many CPUs to itself and batch_size * max(hidden_dims)**2 reaches
# PAIR_THREAD_WORK: then the passes are bound by BLAS, which releases the
# GIL. Smaller nets are bound by numpy calls that hold it, and lose from the
# second thread.
PAIR_THREAD_CPUS = 2
PAIR_THREAD_WORK = 1 << 22


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


try:
    _sched_getcpu = ctypes.CDLL(None).sched_getcpu  # glibc
    _sched_getcpu.argtypes, _sched_getcpu.restype = (), ctypes.c_int
except (AttributeError, OSError, TypeError):
    _sched_getcpu = None


def _serve(tasks: queue.SimpleQueue) -> None:
    """A pair helper's loop: run each task's lane in its context, off the
    CPU its caller was on when there is another, until a None task. It
    drops each task before it signals the task done, so it never holds
    what a lane reads (an agent) past the caller's wait."""
    cpus = os.sched_getaffinity(0) if _sched_getcpu is not None else None
    left = None  # the CPU this thread's affinity leaves out
    while (task := tasks.get()) is not None:
        ctx, lane, here, out, done = task
        del task
        try:
            if here != left:
                os.sched_setaffinity(0, cpus - {here} or cpus)
                left = here
            out[0] = ctx.run(lane)
        except BaseException as exc:  # raised on the caller's thread
            out[1] = exc
        del ctx, lane, out
        done.release()


def _end(pid: int, tasks: queue.SimpleQueue, thread: threading.Thread) -> None:
    """Stop a helper that process pid started, and wait for its thread; a
    forked child, which has no such thread, leaves its queue alone."""
    if os.getpid() == pid:
        tasks.put(None)
        if thread is not threading.current_thread():
            thread.join()


class _PairHelper:
    """One daemon thread that runs the second lane of each pair handed to
    lanes(). Its thread holds nothing but its task queue, and ends when
    this object is collected; it belongs to the process that built it."""

    def __init__(self):
        self.pid = os.getpid()
        self._tasks = queue.SimpleQueue()
        thread = threading.Thread(target=_serve, args=(self._tasks,),
                                  name="roer-pair-helper", daemon=True)
        thread.start()
        weakref.finalize(self, _end, self.pid, self._tasks, thread).atexit = False

    def lanes(self, first, second):
        """(first(), second()), with second() on the helper, in a copy of
        this thread's context (numpy's errstate lives there), while first()
        runs here; both finish before an exception is raised, first()'s
        first. The helper runs one task at a time, so second() must not
        hand it another.

        A thread left to the scheduler stayed on its caller's CPU for pairs
        of a few ms on a 2-vCPU VM, with the other vCPU idle, so each task
        names the caller's CPU of the moment, and the helper's affinity
        leaves it out."""
        here = _sched_getcpu() if _sched_getcpu is not None else None
        out, done = [None, None], threading.Lock()
        done.acquire()
        self._tasks.put((contextvars.copy_context(), second, here, out, done))
        try:
            early = first()
        finally:
            done.acquire()
        late, error = out
        del out
        if error is not None:
            # the error's traceback holds this frame: were the frame to hold
            # the error too, the cycle would keep the agent until a gc pass
            try:
                raise error
            finally:
                del error
        return early, late


@dataclass(frozen=True)
class SacConfig:
    gamma: float = 0.99
    polyak_tau: float = 5e-3
    learning_rate: float = 3e-4
    hidden_dims: tuple[int, ...] = (64, 64)
    batch_size: int = 64
    init_temperature: float = 1.0
    target_entropy: float | None = None  # None -> -action_dim
    huber_k: float = 1.0
    penalty_coef: float = 1.0

    def __post_init__(self):
        require(self, (
            *integer_rules(self, "batch_size"),
            ("hidden_dims", all(type(d) is int for d in self.hidden_dims), "integers"),
            *real_rules(self, "gamma", "polyak_tau", "learning_rate", "init_temperature",
                        "huber_k", "penalty_coef"),
            ("target_entropy", self.target_entropy is None or is_real(self.target_entropy)
             and -math.inf < self.target_entropy < math.inf, "None or finite"),
        ), lambda: (
            ("gamma", 0.0 < self.gamma < 1.0, "in (0, 1)"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("polyak_tau", 0.0 < self.polyak_tau <= 1.0, "in (0, 1]"),
            ("learning_rate", 0.0 < self.learning_rate < math.inf,
             "positive and finite"),
            ("init_temperature", 0.0 < self.init_temperature < math.inf,
             "positive and finite"),
            ("huber_k", 0.0 < self.huber_k < math.inf, "positive and finite"),
            ("penalty_coef", 0.0 <= self.penalty_coef < math.inf, ">= 0 and finite"),
            ("hidden_dims", all(d >= 1 for d in self.hidden_dims), "all >= 1"),
        ))


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
    def __init__(self, obs_dim: int, action_dim: int, config: SacConfig, seed,
                 processes: int = 1):
        """processes counts the processes that share this one's CPUs (a
        multi-seed run's concurrent seeds): the twin pairs take two threads
        only if each process has PAIR_THREAD_CPUS CPUs to itself."""
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.dims = (obs_dim, action_dim)
        self.config = config
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        h = config.hidden_dims
        critic_spec = nn.NetworkSpec(obs_dim + action_dim, h, 1)
        # clipped double Q's twin critics and their targets, as pairs
        self.critics = tuple(nn.init(critic_spec, rng) for _ in range(2))
        self.targets = tuple(c.copy() for c in self.critics)
        self.actor = nn.init(nn.NetworkSpec(obs_dim, h, 2 * action_dim), rng)
        self.value = nn.init(nn.NetworkSpec(obs_dim, h, 1), rng)
        self.log_alpha = float(np.log(config.init_temperature))
        lr = config.learning_rate
        self.opt_q = tuple(nn.AdamState(c, lr) for c in self.critics)
        self.opt_actor = nn.AdamState(self.actor, lr)
        self.opt_value = nn.AdamState(self.value, lr)
        self.opt_alpha = nn.ScalarAdam(lr)
        # One contiguous vector holds all an update can roll back: the online
        # networks (the critic pair first) and every Adam moment.
        self._state = nn.pack([*self.critics, self.actor, self.value,
                               *(s for o in self._optimizers() for s in (o.m, o.v))])
        self._saved = np.empty(len(self._state))
        self._saved_steps: list[int] = []
        self.target_entropy = (-float(action_dim) if config.target_entropy is None
                               else config.target_entropy)
        self.aborted_updates = 0
        self.pair_threads = (
            _usable_cpus() >= PAIR_THREAD_CPUS * processes
            and config.batch_size * max(h, default=0) ** 2 >= PAIR_THREAD_WORK)
        self._helper: _PairHelper | None = None

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
        log_prob = np.add.reduce(
            -0.5 * eps**2 - log_std - 0.5 * math.log(2.0 * math.pi)
            - np.log(1.0 - a**2 + TANH_EPS),
            axis=1,
        )
        return a, log_prob, dict(std=std, eps=eps, a=a, squashed_raw=squashed,
                                 cache=cache)

    def act(self, obs, rng: np.random.Generator | None = None,
            deterministic: bool = False) -> np.ndarray:
        """The tanh-Gaussian action, or its mean when deterministic, which
        draws nothing from rng."""
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

    def _scalar(self, params: nn.ParameterSet, x: np.ndarray):
        """A scalar-output network (critic or value) on the rows of x, as a
        vector, with its forward cache."""
        y, cache = nn.forward_cache(params, x)
        return y[:, 0], cache

    def _lanes(self, first, second):
        """(first(), second()): in turn on this thread, or, with pair_threads
        set, as two lanes through this agent's pair helper. The helper starts
        at the first such pair, and again in a forked child, which has no
        thread of its parent's."""
        if not self.pair_threads:
            return first(), second()
        if self._helper is None or self._helper.pid != os.getpid():
            self._helper = _PairHelper()
        return self._helper.lanes(first, second)

    def _pair(self, job, pair):
        """(job(pair[0], 0), job(pair[1], 1)) over the critic or target pair,
        as two lanes."""
        return self._lanes(lambda: job(pair[0], 0), lambda: job(pair[1], 1))

    def _q(self, pair, x):
        """Both networks of the critic or target pair on the rows of x; each
        lane drops its forward cache."""
        return self._pair(lambda params, _: self._scalar(params, x)[0], pair)

    def min_q(self, x) -> np.ndarray:
        """Clipped double Q: the min of the two critics on the rows of x."""
        return np.minimum(*self._q(self.critics, x))

    def _critic_step(self, params, i, x, target, weights):
        """Critic i's weighted Huber loss and gradient penalty, and its step
        on its own Adam state opt_q[i]; returns the loss and the critic's
        predictions. A non-finite loss or gradient raises before the step."""
        cfg = self.config
        q, cache = self._scalar(params, x)
        out = losses.weighted_huber_critic_loss(q, target, weights, k=cfg.huber_k)
        # the penalty runs first, so that its chain is freed before the loss
        # backward allocates; each array goes once nothing reads it
        penalty, pen_grads = 0.0, None
        if cfg.penalty_coef > 0.0:
            pen = losses.gradient_penalty(params, x, cache)
            penalty, pen_grads = pen.value, pen.param_grads.flat
            del pen
            pen_grads *= cfg.penalty_coef
        grads = nn.backward(params, x, out.grad[:, None], cache)[0]
        del cache
        if pen_grads is not None:
            # the penalty's bias gradients are +0.0, so the flat sum leaves
            # every bias bit as it was, but for a -0.0 that it makes +0.0
            # (Adam cannot tell the two apart)
            grads.flat += pen_grads
        del pen_grads
        loss_val = out.value + cfg.penalty_coef * penalty
        if not math.isfinite(loss_val):
            raise FloatingPointError("critic loss diverged")
        self.opt_q[i].step(params, grads)
        return loss_val, q

    def _critic_input_gradient(self, params, x):
        """A critic on the rows of x, and its gradient w.r.t. the actions."""
        q, cache = self._scalar(params, x)
        return q, nn.input_gradient(params, x, cache)[0][:, self.obs_dim:]

    # -- state snapshot for non-finite rollback --------------------------

    # The last check that can raise is the temperature's, before its step;
    # the targets move after it. So an abort never reaches either, and the
    # snapshot leaves them out. The rollback copies values back in place, so
    # every ParameterSet and AdamState keeps its identity and its views.
    _OPT_NAMES = ("critic1", "critic2", "actor", "value")  # _optimizers' checkpoint names

    def _optimizers(self):
        return (*self.opt_q, self.opt_actor, self.opt_value)

    def _snapshot(self) -> None:
        np.copyto(self._saved, self._state)
        self._saved_steps = [o.step_count for o in self._optimizers()]

    def _restore(self) -> None:
        np.copyto(self._state, self._saved)
        for opt, step_count in zip(self._optimizers(), self._saved_steps):
            opt.step_count = step_count

    # -- update ----------------------------------------------------------

    def update(self, batch: SampledBatch, weights: np.ndarray,
               rng: np.random.Generator, roer: RoerConfig | None = None,
               div: DivergenceSpec = ROER_DIVERGENCES["roer"]) -> StepMetrics:
        """One SAC step. The value network trains only under a ROER scheme:
        roer holds its loss temperature beta and upper clip, and div the
        divergence whose conjugate sets the loss (losses.extreme_v_loss).
        With roer=None the value network is left alone.

        A network runs once over two stacked row blocks wherever it does not
        move between two uses: the actor over (next_obs, obs), with one
        draw for both halves; the target pair over (next_obs, next_act)
        and, under a ROER scheme, (obs, act); the stepped value network over
        obs and next_obs. That is 9 forward passes per update under a ROER
        scheme (4 of them stacked) and 7 without (1 stacked). At the profile
        batch sizes (64, 256) each row rounds as in a pass of its own block;
        at some other sizes (16, 50) OpenBLAS rounds a stacked row
        differently in the last bit.

        Work that reads nothing the other half writes runs in two lanes
        through _lanes. When pair_threads is set (PAIR_THREAD_CPUS CPUs per
        process and BLAS-bound passes; see PAIR_THREAD_WORK) the second
        lane runs on the agent's pair helper thread while the first runs on
        this one:
        - the actor's stacked pass and draw, beside the rollback snapshot;
        - through _pair, one lane per network of the target or critic
          pair: the targets' forward, and each critic's loss, backward,
          penalty and step on its own Adam state;
        - under a ROER scheme, the value network's forward, loss, backward,
          Adam step and TD pass, beside the actor's whole phase: both
          critics' forward and input gradient, which read only the stepped
          critics, then the actor's loss, finite check, backward and Adam
          step. Neither lane reads the other's network, and the temperature
          moves only after both. Without a ROER scheme the input gradients
          are a critic pair of their own, and the actor steps after it.
        Each lane makes the same one-thread BLAS and ufunc calls on the
        same operands as the serial path, which runs the first lane and
        then the second (the value step, both input gradients, then the
        actor step), so the bytes are the same; both lanes finish before
        either result is read. One helper thread serves every pair of an
        agent: it starts at the first and ends when the agent is collected
        (_PairHelper), so an update starts no thread of its own, where one
        thread per pair took about 85 us to start and join (measured on a
        2-vCPU Xeon VM).

        A non-finite loss, input or gradient of any network or of the
        temperature aborts the whole step: each raises FloatingPointError,
        the one class caught here (a shape or argument error surfaces, with
        no abort counted). Each check raises before its step changes
        anything; the one vector that holds the online networks and their
        Adam moments is copied back in place from the snapshot, the Adam
        step counts are restored, and the abort is counted. Both lanes
        finish before the first lane's error is raised, so the rollback
        never races a late Adam step; threaded, the actor may have stepped
        when the value loss aborts, or the value network when the actor's
        phase does, and the rollback undoes it. An aborted step
        returns fresh StepMetrics with only aborted set, and has still taken
        its one (2n, A) normal draw from rng, whichever phase aborted."""
        weights = np.asarray(weights, dtype=np.float64)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return self._update_inner(batch, weights, rng, roer, div)
        except FloatingPointError:
            self._restore()
            self.aborted_updates += 1
            return StepMetrics(aborted=True)

    def _update_inner(self, batch, weights, rng, roer, div) -> StepMetrics:
        n = len(batch)
        obs = batch.states
        nobs = batch.next_states
        x = np.concatenate([obs, batch.actions], axis=1)
        # the actor moves only at its own step: one pass and one draw over
        # (next_obs, obs) give the critic target's next action and the
        # actor loss's sample. _sample makes no check, so the snapshot
        # beside it is whole before anything can raise.
        (act, logp, aux), _ = self._lanes(
            lambda: self._sample(np.concatenate([nobs, obs]), rng), self._snapshot)
        # the actor's backward reads only the obs half: the stacked arrays go
        # now, before the target and critic pairs allocate theirs
        aux = _rows_from(aux, n)
        # critic update against the entropy-regularized min-target; the
        # targets move only at the Polyak step, so under a ROER scheme the
        # same pass also gives the value loss its min-target on (obs, act)
        x_next = np.concatenate([nobs, act[:n]], axis=1)
        rows = x_next if roer is None else np.concatenate([x_next, x])
        q_target = np.minimum(*self._q(self.targets, rows))
        target = self._soft_target(batch, q_target[:n], logp[:n])
        (loss1, q1), (loss2, q2) = self._pair(
            lambda params, i: self._critic_step(params, i, x, target, weights),
            self.critics)
        metrics = StepMetrics(critic_loss=(loss1 + loss2) / 2,
                              critic_td_errors=target - 0.5 * (q1 + q2))

        # the actor's gradient through the min online critic, on the obs
        # half of the draw; the critics' passes read only the stepped critics
        x_new = np.concatenate([obs, act[n:]], axis=1)
        logp = logp[n:]
        if roer is None:
            critics = self._pair(
                lambda params, _: self._critic_input_gradient(params, x_new), self.critics)
            metrics.actor_loss = self._actor_step(aux, logp, critics, n)
        else:  # the value network (priority TD source) beside the actor's whole phase
            value, metrics.actor_loss = self._lanes(
                lambda: self._value_step(batch, q_target[n:], roer, div),
                lambda: self._actor_step(aux, logp, [
                    self._critic_input_gradient(c, x_new) for c in self.critics], n))
            metrics.value_loss, metrics.value_clip_count, metrics.value_td_errors = value

        # temperature toward the target entropy; its step raises before it
        # changes anything
        entropy_gap = float(np.add.reduce(logp) / n) + self.target_entropy
        metrics.alpha_loss = -self.log_alpha * entropy_gap
        self.log_alpha = self.opt_alpha.step(self.log_alpha, -entropy_gap)

        for target_net, critic in zip(self.targets, self.critics):
            nn.polyak(target_net, critic, self.config.polyak_tau)
        return metrics

    def _value_step(self, batch, q_min, roer, div):
        """The value network's loss against the target pair's min on (obs,
        act), its Adam step, and the TD errors of the stepped network:
        (loss, clipped count, TD errors). A non-finite loss or gradient
        raises before the step."""
        obs, n = batch.states, len(batch)
        v_pred, v_cache = self._scalar(self.value, obs)
        residual = q_min - v_pred
        out = losses.extreme_v_loss(residual, roer.beta, roer.grad_clip, div)
        if not math.isfinite(out.value):
            raise FloatingPointError("value loss diverged")
        vgrads = nn.backward(self.value, obs, -out.grad[:, None], v_cache)[0]
        del v_cache
        self.opt_value.step(self.value, vgrads)
        v = self._scalar(self.value, np.concatenate([obs, batch.next_states]))[0]
        td = losses.td_error(batch.rewards, self.config.gamma, v[n:], v[:n],
                             batch.terminals)
        return out.value, out.clipped, td

    def _actor_step(self, aux, logp, critics, n: int) -> float:
        """The actor loss against the min of the critics' (q, dq/da) pair,
        and the actor's Adam step; returns the loss. A non-finite loss or
        gradient raises before the step."""
        (q1, g1), (q2, g2) = critics
        use_first = q1 <= q2
        q_min = np.where(use_first, q1, q2)
        loss = float(np.add.reduce(self.alpha * logp - q_min) / n)
        if not math.isfinite(loss):
            raise FloatingPointError("actor loss diverged")
        dq_da = np.where(use_first[:, None], g1, g2)
        self.opt_actor.step(self.actor, self._actor_backward(aux, dq_da, n))
        return loss

    def td_surrogates(self, batch: SampledBatch,
                      rng: np.random.Generator) -> np.ndarray:
        """|critic TD error| of a batch's transitions (LaBER's large-batch
        surrogate priorities)."""
        next_act, next_logp, _ = self._sample(batch.next_states, rng)
        x_next = np.concatenate([batch.next_states, next_act], axis=1)
        q_next = np.minimum(*self._q(self.targets, x_next))
        target = self._soft_target(batch, q_next, next_logp)
        q1, q2 = self._q(self.critics, np.concatenate([batch.states, batch.actions], axis=1))
        return np.abs(target - 0.5 * (q1 + q2))

    def _soft_target(self, batch, q_next, logp_next) -> np.ndarray:
        """The soft Bellman target r + gamma (1 - d) (min Q' - alpha log pi')."""
        not_done = 1.0 - batch.terminals.astype(np.float64)
        return batch.rewards + self.config.gamma * not_done * (
            q_next - self.alpha * logp_next
        )

    def _actor_backward(self, aux: dict, dq_da: np.ndarray, n: int) -> nn.ParameterSet:
        """Assemble d(actor loss)/d(actor params) from the sampled-action
        pathwise terms.

        With u = mu + std*eps and a = tanh(u), the log-density splits into
        -0.5 eps^2 - log_std (no mu dependence) and the tanh correction
        -log(1 - a^2 + eps_c) whose u-derivative is 2 a (1-a^2)/(1-a^2+eps_c).
        """
        alpha = self.alpha
        a = aux["a"]
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

    def _checkpoint_entries(self):
        """Every checkpoint entry in file order, as (key, array). The network
        and Adam-moment arrays are views into the agent, so load writes
        through them; the counter entries are fresh arrays."""
        for name, params in [("critic1", self.critics[0]), ("critic2", self.critics[1]),
                             ("target1", self.targets[0]), ("target2", self.targets[1]),
                             ("actor", self.actor), ("value", self.value)]:
            for key, arr in params.arrays():
                yield f"{name}.{key}", arr
        for name, opt in zip(self._OPT_NAMES, self._optimizers()):
            for mk, mset in (("m", opt.m), ("v", opt.v)):
                for key, arr in mset.arrays():
                    yield f"opt.{name}.{mk}.{key}", arr
            # the second slot once counted skipped steps; it is always 0
            yield f"opt.{name}.scalars", np.array([opt.step_count, 0], dtype=np.int64)
        yield "log_alpha", np.array([self.log_alpha])
        yield "alpha_opt", np.array(
            [self.opt_alpha.m, self.opt_alpha.v, float(self.opt_alpha.step_count)])
        yield "meta", np.array([self.obs_dim, self.action_dim, self.aborted_updates],
                               dtype=np.int64)

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        return dict(self._checkpoint_entries())

    def save(self, path_or_stream) -> None:
        nn.save_checkpoint(path_or_stream, self.checkpoint_arrays())

    @classmethod
    def load(cls, path_or_stream, config: SacConfig) -> "SacAgent":
        """Rebuild a checkpoint. An entry that is missing, whose shape or
        dtype differs from what config's agent holds, or whose value breaks
        its rule raises FormatError naming it. The rules: each step count
        is >= 0, and the two critics' are equal (each critic's Adam state
        steps once per completed update); each spare slot is 0; every Adam v
        is >= 0; every other float entry (each network, each Adam m,
        log_alpha and alpha_opt) is finite, alpha_opt's v >= 0 and its step
        count integral and >= 0; the abort count is >= 0. An update aborts
        on a non-finite value before it steps, so every saved agent meets them."""
        arrays = nn.load_checkpoint(path_or_stream)
        meta = binio.checked(arrays, "meta", (3,), np.int64)
        obs_dim, action_dim = int(meta[0]), int(meta[1])
        if min(obs_dim, action_dim) < 1:
            raise binio.FormatError(f"checkpoint meta {meta.tolist()} has a dim below 1")
        # the file's own first layers must hold those dims before any net is
        # built; with no hidden layer, each is the critic's or value net's one output
        width = (*config.hidden_dims, 1)[0]
        binio.checked(arrays, "critic1.w0", (width, obs_dim + action_dim), np.float64)
        binio.checked(arrays, "value.w0", (width, obs_dim), np.float64)
        agent = cls(obs_dim, action_dim, config, seed=0)

        def rule(key, holds, what, got=None):
            if not holds:
                got = arrays[key].tolist() if got is None else got
                raise binio.FormatError(f"checkpoint entry {key!r} must hold {what}, got {got}")

        for key, arr in agent._checkpoint_entries():
            arr[...] = binio.checked(arrays, key, arr.shape, arr.dtype)
            if key.endswith(".scalars"):
                rule(key, arr[0] >= 0 and arr[1] == 0, "a step count >= 0 and a spare slot of 0")
            elif ".v." in key:
                rule(key, (arr >= 0.0).all(), "values >= 0", f"min {arr.min()}")
            elif arr.dtype == np.float64:
                bad = np.count_nonzero(~np.isfinite(arr))
                rule(key, bad == 0, "finite values", f"{bad} non-finite")
        rule("opt.critic2.scalars", (arrays["opt.critic1.scalars"][0]
                                     == arrays["opt.critic2.scalars"][0]),
             "opt.critic1's step count")
        m, v, steps = arrays["alpha_opt"]
        rule("alpha_opt", v >= 0.0 and steps >= 0.0 and float(steps).is_integer(),
             "v >= 0 and an integral step count >= 0")
        rule("meta", meta[2] >= 0, "an abort count >= 0")
        for opt, name in zip(agent._optimizers(), cls._OPT_NAMES):
            opt.step_count = int(arrays[f"opt.{name}.scalars"][0])
        agent.log_alpha = float(arrays["log_alpha"][0])
        agent.opt_alpha.m, agent.opt_alpha.v = float(m), float(v)
        agent.opt_alpha.step_count = int(steps)
        agent.aborted_updates = int(meta[2])
        return agent


def aux_obs_of(aux: dict) -> np.ndarray:
    """The observation batch an actor cache was built from."""
    return aux["cache"][0][0]


def _rows_from(aux: dict, start: int) -> dict:
    """_sample's aux for its rows from start on, as copies, so that aux's
    own arrays are freed once the caller drops it."""
    hidden, masks = aux["cache"]
    rows = {k: v[start:].copy() for k, v in aux.items() if k != "cache"}
    rows["cache"] = ([h[start:].copy() for h in hidden], [m[start:].copy() for m in masks])
    return rows


@dataclass(frozen=True)
class TabularConfig:
    gamma: float = 0.99
    learning_rate: float = 0.3
    soft_temperature: float = 0.01
    epsilon: float = 0.1
    batch_size: int = 64

    def __post_init__(self):
        require(self, (
            *integer_rules(self, "batch_size"),
            *real_rules(self, "gamma", "epsilon", "learning_rate", "soft_temperature"),
        ), lambda: (
            ("gamma", 0.0 < self.gamma < 1.0, "in (0, 1)"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("epsilon", 0.0 <= self.epsilon <= 1.0, "in [0, 1]"),
            ("learning_rate", 0.0 < self.learning_rate < math.inf,
             "positive and finite"),
            ("soft_temperature", 0.0 < self.soft_temperature < math.inf,
             "positive and finite"),
        ))


class TabularAgent:
    """Soft-Q learner on an explicit Q table.

    The behavior policy is epsilon-greedy; targets bootstrap through the
    soft (log-sum-exp) state value, which approaches the hard max as the
    temperature shrinks. It takes SacAgent's calls, but reads neither the
    constructor's seed and processes (the table starts at zeros) nor
    update's rng, roer and div (it trains no value function).
    """

    def __init__(self, n_states: int, n_actions: int, config: TabularConfig,
                 seed=None, processes: int = 1):
        self.dims = (n_states, n_actions)
        self.config = config
        self.q_table = np.zeros((n_states, n_actions))

    def soft_value(self, states) -> np.ndarray:
        temp = self.config.soft_temperature
        # a fancy gather copies, even for a scalar state, so q is ours to
        # round in place: m + temp * log(sum(exp((q - m) / temp)))
        q = self.q_table[np.asarray(states, dtype=np.int64)]
        # the reductions that q.max and np.sum run, without their wrappers
        m = np.maximum.reduce(q, axis=-1)
        q -= m[..., None]
        q /= temp
        np.exp(q, out=q)
        v = np.log(np.add.reduce(q, axis=-1))
        v *= temp
        v += m
        return v

    def act(self, state: int, rng: np.random.Generator,
            deterministic: bool = False) -> int:
        if not deterministic and rng.random() < self.config.epsilon:
            return int(rng.integers(self.dims[1]))
        return int(self.q_table[int(state)].argmax())

    def update(self, batch: SampledBatch, weights: np.ndarray, rng=None,
               roer=None, div=None) -> StepMetrics:
        """One soft-Q step; the table's own TD errors are its value TD errors."""
        s = np.asarray(batch.states, dtype=np.int64)
        a = np.asarray(batch.actions, dtype=np.int64)
        delta = self.td_errors(s, a, batch.rewards, batch.next_states, batch.terminals)
        if not np.logical_and.reduce(np.isfinite(delta)):
            raise FloatingPointError("tabular TD errors diverged")
        np.add.at(self.q_table, (s, a), self.config.learning_rate * weights * delta)
        return StepMetrics(
            critic_loss=float(np.add.reduce(weights * delta**2) / len(delta)),
            value_td_errors=delta,
            critic_td_errors=delta,
        )

    def td_surrogates(self, batch: SampledBatch, rng=None) -> np.ndarray:
        """|TD error| of a batch's transitions; draws nothing from rng."""
        return np.abs(self.td_errors(batch.states, batch.actions, batch.rewards,
                                     batch.next_states, batch.terminals))

    def td_errors(self, states, actions, rewards, next_states, terminals) -> np.ndarray:
        """TD errors of arbitrary transitions under the current table."""
        s = np.asarray(states, dtype=np.int64)
        a = np.asarray(actions, dtype=np.int64)
        not_done = 1.0 - np.asarray(terminals, dtype=np.float64)
        v_next = self.soft_value(next_states)
        return rewards + self.config.gamma * v_next * not_done - self.q_table[s, a]

    def save(self, path_or_stream) -> None:
        nn.save_checkpoint(path_or_stream, {
            "q_table": self.q_table,
            "meta": np.array(self.dims, dtype=np.int64),
        })

    @classmethod
    def load(cls, path_or_stream, config: TabularConfig) -> "TabularAgent":
        arrays = nn.load_checkpoint(path_or_stream)
        meta = binio.checked(arrays, "meta", (2,), np.int64)
        n_states, n_actions = int(meta[0]), int(meta[1])
        if min(n_states, n_actions) < 1:
            raise binio.FormatError(f"checkpoint meta {meta.tolist()} has a dim below 1")
        # checked against the file's own table before the agent allocates one
        q_table = binio.checked(arrays, "q_table", (n_states, n_actions), np.float64)
        # an update aborts on a non-finite TD error, so a saved table is finite
        bad = np.count_nonzero(~np.isfinite(q_table))
        if bad:
            raise binio.FormatError(
                f"checkpoint entry 'q_table' must hold finite values, got {bad} non-finite")
        agent = cls(n_states, n_actions, config)
        agent.q_table[...] = q_table
        return agent
