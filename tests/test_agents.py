import gc
import io
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from roer import agents, losses, nn
from roer.agents import (
    SacAgent,
    SacConfig,
    StepMetrics,
    TabularAgent,
    TabularConfig,
)
from roer.binio import FormatError
from roer.config import SAC_PROFILES
from roer.replay import PriorityBuffer, SampledBatch
from roer.schemes import ROER_DIVERGENCES, ConfigError, InvalidInputError, RoerConfig


def make_batch(rng, n=16, obs_dim=3, action_dim=1):
    buf = PriorityBuffer(64, obs_dim, action_dim)
    for i in range(n):
        buf.push(
            state=rng.normal(size=obs_dim),
            action=np.tanh(rng.normal(size=action_dim)),
            reward=float(rng.normal()),
            next_state=rng.normal(size=obs_dim),
            terminal=bool(rng.random() < 0.1),
            insert_step=i,
        )
    return buf.sample_proportional(n, rng)


def fresh_agent(seed=0, **cfg):
    config = SacConfig(hidden_dims=(8, 8), batch_size=16, **cfg)
    return SacAgent(3, 1, config, seed=seed)


class TestAct:
    def test_zero_actor_deterministic_zero_action(self):
        agent = fresh_agent()
        for w in agent.actor.weights:
            w.fill(0.0)
        for b in agent.actor.biases:
            b.fill(0.0)
        a = agent.act(np.ones(3), deterministic=True)
        assert np.all(a == 0.0)

    def test_samples_strictly_inside_bounds(self):
        agent = fresh_agent(seed=1)
        rng = np.random.default_rng(2)
        obs = rng.normal(size=(10_000, 3))
        acts = agent.act(obs, rng=rng)
        assert np.all(acts > -1.0) and np.all(acts < 1.0)

    def test_same_call_as_the_tabular_agent(self):
        # act(obs, rng, deterministic): the mean action draws nothing
        agent = fresh_agent(seed=3)
        obs = np.random.default_rng(4).normal(size=3)
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        mean = agent.act(obs, rng, deterministic=True)
        assert rng.bit_generator.state == state
        assert np.array_equal(mean, np.tanh(agent._policy_stats(obs[None])[0][0]))
        assert np.array_equal(agent.act(obs, rng),
                              agent.act(obs, rng=np.random.default_rng(9)))

    def test_seeded_sequence_identical(self):
        agent = fresh_agent(seed=3)
        obs = np.random.default_rng(4).normal(size=(5, 3))
        a1 = [agent.act(o, rng=np.random.default_rng(9)) for o in obs]
        a2 = [agent.act(o, rng=np.random.default_rng(9)) for o in obs]
        assert all(np.array_equal(x, y) for x, y in zip(a1, a2))


class TestActorGradient:
    def test_matches_finite_differences(self):
        agent = fresh_agent(seed=5)
        rng = np.random.default_rng(6)
        obs = rng.normal(size=(6, 3))
        eps = rng.standard_normal((6, 1))

        def actor_loss():
            mu, log_std, _, _ = agent._policy_stats(obs)
            std = np.exp(log_std)
            u = mu + std * eps
            a = np.tanh(u)
            logp = np.sum(
                -0.5 * eps**2 - log_std - 0.5 * math.log(2.0 * math.pi)
                - np.log(1.0 - a**2 + 1e-6),
                axis=1,
            )
            x = np.concatenate([obs, a], axis=1)
            q1, q2 = (nn.forward_cache(agent.critics[i], x)[0][:, 0] for i in range(2))
            return float(np.mean(agent.alpha * logp - np.minimum(q1, q2)))

        # analytic gradient through the agent's own backward assembly
        mu, log_std, squashed, cache = agent._policy_stats(obs)
        std = np.exp(log_std)
        u = mu + std * eps
        a = np.tanh(u)
        x = np.concatenate([obs, a], axis=1)
        q1, q2 = (nn.forward_cache(agent.critics[i], x)[0][:, 0] for i in range(2))
        use_first = q1 <= q2
        g1, g2 = (nn.input_gradient(c, x, nn.forward_cache(c, x)[1])[0][:, 3:]
                  for c in agent.critics)
        dq_da = np.where(use_first[:, None], g1, g2)
        aux = dict(std=std, eps=eps, a=a, squashed_raw=squashed, cache=cache)
        analytic = agent._actor_backward(aux, dq_da, len(obs))

        h = 1e-6
        for target, store in zip(
            [*agent.actor.weights, *agent.actor.biases],
            [*analytic.weights, *analytic.biases],
        ):
            it = np.nditer(target, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = target[idx]
                target[idx] = orig + h
                up = actor_loss()
                target[idx] = orig - h
                down = actor_loss()
                target[idx] = orig
                fd = (up - down) / (2.0 * h)
                denom = max(1e-6, abs(fd) + abs(store[idx]))
                assert abs(fd - store[idx]) / denom <= 1e-3


class TestUpdate:
    def test_weight_doubling_doubles_critic_gradient(self):
        agent = fresh_agent(seed=9, penalty_coef=0.0)
        rng = np.random.default_rng(10)
        batch = make_batch(rng)
        w = rng.uniform(0.5, 2.0, size=len(batch))
        target = rng.normal(size=len(batch))

        def critic_grads(weights):
            x = np.concatenate([batch.states, batch.actions], axis=1)
            critic = agent.critics[0]
            q, cache = agent._scalar(critic, x)
            out = losses.weighted_huber_critic_loss(q, target, weights, k=1.0)
            grads, _ = nn.backward(critic, x, out.grad[:, None], cache)
            return grads

        g1 = critic_grads(w)
        g2 = critic_grads(2.0 * w)
        for a, b in zip(g1.weights, g2.weights):
            assert np.allclose(2.0 * a, b, rtol=0, atol=0)

    def test_returned_td_errors_definitional(self):
        agent = fresh_agent(seed=12)
        rng = np.random.default_rng(13)
        batch = make_batch(rng)
        m = agent.update(batch, np.ones(len(batch)), rng, RoerConfig())
        v_curr = nn.forward_cache(agent.value, batch.states)[0][:, 0]
        v_next = nn.forward_cache(agent.value, batch.next_states)[0][:, 0]
        expect = losses.td_error(batch.rewards, agent.config.gamma, v_next,
                                 v_curr, batch.terminals)
        assert np.array_equal(m.value_td_errors, expect)

    def test_caller_error_is_raised_not_counted(self):
        # 15 loss weights for 16 rows: the Huber loss's length check raises
        # before any optimizer steps, and no abort is counted
        agent = fresh_agent(seed=18)
        rng = np.random.default_rng(19)
        batch = make_batch(rng)
        before = agent.checkpoint_arrays()
        with pytest.raises(InvalidInputError, match="length mismatch"):
            agent.update(batch, np.ones(len(batch) - 1), rng, RoerConfig())
        assert agent.aborted_updates == 0
        after = agent.checkpoint_arrays()
        assert all(after[k].tobytes() == v.tobytes() for k, v in before.items())

    def test_temperature_tracks_target_entropy(self):
        # start from a deliberately near-deterministic policy: entropy sits
        # far below target, the temperature rises and pulls it back
        agent = fresh_agent(seed=18, learning_rate=3e-3)
        agent.actor.biases[-1][agent.action_dim:] = -4.0
        rng = np.random.default_rng(19)
        diag = make_batch(np.random.default_rng(99), n=64).states
        gaps = []
        for _ in range(1_000):
            batch = make_batch(rng, n=16)
            agent.update(batch, np.ones(len(batch)), rng)
            _, logp, _ = agent._sample(diag, rng)
            gaps.append(abs(float(np.mean(logp)) + agent.target_entropy))
        assert np.mean(gaps[-100:]) < 0.4 * np.mean(gaps[:100])


def state_bytes(agent):
    """Every checkpointed array but the abort count, as bytes."""
    arrays = agent.checkpoint_arrays()
    arrays.pop("meta")
    return {k: v.tobytes() for k, v in arrays.items()}


def metrics_bytes(m):
    return [np.asarray(getattr(m, f)).tobytes() for f in (
        "critic_loss", "value_loss", "actor_loss", "alpha_loss",
        "value_td_errors", "critic_td_errors", "value_clip_count", "aborted")]


def update_with(agent, batch, seed, roer=RoerConfig(), div=ROER_DIVERGENCES["roer"]):
    return agent.update(batch, np.ones(len(batch)), np.random.default_rng(seed),
                        roer, div)


class TestValueFixedPoint:
    @pytest.mark.parametrize("scheme", ["roer", "roer_chi2"])
    def test_value_net_settles_at_the_unit_ratio(self, scheme):
        # 4 states x 16 Q values with the min-target held fixed, so the
        # critics play no part: V(s) must reach the V where the batch mean of
        # f*'((Q - V) / beta) is 1 at each state
        rng = np.random.default_rng(5)
        n, beta = 64, 1.0
        states = np.repeat(rng.normal(size=(4, 3)), 16, axis=0)
        q = rng.normal(size=n) + np.repeat([0.0, 1.0, -1.0, 2.0], 16)
        batch = SampledBatch(
            indices=np.arange(n), states=states, actions=np.zeros((n, 1)),
            rewards=np.zeros(n), next_states=states, terminals=np.zeros(n, bool),
            priorities=np.ones(n))
        agent = SacAgent(3, 1, SacConfig(hidden_dims=(16, 16), batch_size=n,
                                         learning_rate=3e-3), seed=0)
        roer = RoerConfig(beta=beta, grad_clip=50.0)
        for _ in range(3000):
            agent._value_step(batch, q, roer, ROER_DIVERGENCES[scheme])
        v, _ = agent._scalar(agent.value, states[::16])
        qs = q.reshape(4, 16)
        expect = (beta * np.log(np.mean(np.exp(qs / beta), axis=1))
                  if scheme == "roer" else qs.mean(axis=1))
        assert np.max(np.abs(v - expect)) <= 1e-8


def force_pair_threads(mp):
    """Run every twin pair of the agents built from here on on two threads,
    whatever their size and the CPUs at hand."""
    mp.setattr(agents, "PAIR_THREAD_WORK", 0)
    mp.setattr(agents, "PAIR_THREAD_CPUS", 1)


# the five phases of an update that step an optimizer, in the serial order
PHASES = ("critic1", "critic2", "value", "actor", "alpha")
# each fault that poison() injects, and the phase whose check it trips
FAULTS = {"penalty1": "critic1", "penalty2": "critic2", "output2": "critic2",
          "value_loss": "value", "actor_draw": "actor",
          **{f"{phase}_step": phase for phase in PHASES}}


def optimizers(agent):
    """An agent's five optimizers, in PHASES order."""
    return (*agent.opt_q, agent.opt_value, agent.opt_actor, agent.opt_alpha)


def poison(mp, targets, fault):
    """Through mp, inject one of FAULTS into the next update of each agent in
    targets; returns a list that gains an entry each time the fault fires.
    The patches sit on classes and modules and pick their agents' objects
    by identity (the critic pair may run on two threads, in no fixed
    order), so none holds an agent once mp undoes it."""
    fired, phase = [], FAULTS[fault]
    if fault.endswith("_step"):
        opts = [optimizers(a)[PHASES.index(phase)] for a in targets]
        owner = nn.ScalarAdam if phase == "alpha" else nn.AdamState
        real = owner.step

        def step(self, value, grad):
            if any(self is o for o in opts):
                fired.append(fault)
                if isinstance(grad, nn.ParameterSet):
                    grad = grad.copy()
                    grad.flat[-1] = math.nan
                else:
                    grad = math.inf
            return real(self, value, grad)

        mp.setattr(owner, "step", step)
    elif fault.startswith("penalty"):
        critics = [a.critics[PHASES.index(phase)] for a in targets]
        real = losses.gradient_penalty

        def penalty(params, *args, **kwargs):
            out = real(params, *args, **kwargs)
            if any(params is c for c in critics):
                fired.append(fault)
                out.value = math.nan
            return out

        mp.setattr(losses, "gradient_penalty", penalty)
    elif fault == "output2":
        # the second critic's first pass of the update is its critic step's;
        # the loss makes no check of its own: a NaN output gives a NaN loss,
        # which the phase's finite check catches
        critics = [a.critics[1] for a in targets]
        real = SacAgent._scalar

        def scalar(self, params, x):
            q, cache = real(self, params, x)
            if any(params is c for c in critics) and not any(params is p for p in fired):
                fired.append(params)
                q = np.full_like(q, math.nan)
            return q, cache

        mp.setattr(SacAgent, "_scalar", scalar)
    elif fault == "value_loss":
        real = losses.extreme_v_loss

        def value_loss(*args, **kwargs):
            out = real(*args, **kwargs)
            fired.append(fault)
            out.value = math.nan
            return out

        mp.setattr(losses, "extreme_v_loss", value_loss)
    else:
        # the one draw covers (next_obs, obs); a NaN log-density in its obs
        # half reaches only the actor loss
        real = SacAgent._sample

        def sample(self, obs, rng):
            act, logp, aux = real(self, obs, rng)
            if any(self is a for a in targets):
                fired.append(fault)
                logp = logp.copy()
                logp[len(logp) // 2:] = math.nan
            return act, logp, aux

        mp.setattr(SacAgent, "_sample", sample)
    return fired


def on_restore(mp, agent, record):
    """Through mp, call record() as agent's rollback begins."""
    restore = SacAgent._restore

    def recording(self):
        if self is agent:
            record()
        restore(self)

    mp.setattr(SacAgent, "_restore", recording)


class TestThreadedRollback:
    """An abort with the pairs on two threads, with the two lanes forced into
    one order: the rollback starts only after the other lane's step, and
    undoes it."""

    @pytest.fixture(autouse=True)
    def threaded(self, monkeypatch):
        force_pair_threads(monkeypatch)
        assert fresh_agent().pair_threads

    def test_first_critic_abort_waits_for_the_second(self, monkeypatch):
        # critic 1 fails on this thread while critic 2 steps on the helper
        agent, twin = fresh_agent(seed=33), fresh_agent(seed=33)
        before = state_bytes(agent)
        second = agent.critics[1].flat.tobytes()
        reached = []
        with monkeypatch.context() as mp:
            poison(mp, [agent], "penalty1")
            on_restore(mp, agent, lambda: reached.append((
                [o.step_count for o in optimizers(agent)[:3]],
                agent.critics[1].flat.tobytes() != second)))
            m = update_with(agent, make_batch(np.random.default_rng(34)), 35)
        # critic 2 had stepped, network and Adam state, when the rollback began
        assert reached == [([0, 1, 0], True)]
        assert m.aborted and state_bytes(agent) == before
        batch = make_batch(np.random.default_rng(36))
        assert metrics_bytes(update_with(agent, batch, 37)) == \
            metrics_bytes(update_with(twin, batch, 37))

    def test_value_abort_undoes_the_actor_step_beside_it(self, monkeypatch):
        # the value loss fails on this thread while the actor steps on the helper
        agent, twin = fresh_agent(seed=38), fresh_agent(seed=38)
        before = state_bytes(agent)
        reached = []
        with monkeypatch.context() as mp:
            poison(mp, [agent], "value_loss")
            on_restore(mp, agent, lambda: reached.append(
                [o.step_count for o in optimizers(agent)[:4]]))
            m = update_with(agent, make_batch(np.random.default_rng(39)), 40)
        assert reached == [[1, 1, 0, 1]]
        assert m.aborted and agent.aborted_updates == 1
        assert state_bytes(agent) == before
        assert agent.opt_actor.step_count == 0
        batch = make_batch(np.random.default_rng(41))
        assert metrics_bytes(update_with(agent, batch, 42)) == \
            metrics_bytes(update_with(twin, batch, 42))
        assert state_bytes(agent) == state_bytes(twin)

    def test_actor_abort_waits_for_the_value_step(self, monkeypatch):
        # the actor's loss turns NaN on the helper while the value network
        # steps on this thread, held back until the loss has failed
        agent, twin = fresh_agent(seed=43), fresh_agent(seed=43)
        rng = np.random.default_rng(44)
        for i in range(3):  # nonzero moments and step counts on both
            batch = make_batch(rng)
            update_with(agent, batch, 45 + i)
            update_with(twin, batch, 45 + i)
        before = state_bytes(agent), [o.step_count for o in optimizers(agent)]
        value = agent.value.flat.tobytes()
        failed, reached = threading.Event(), []
        with monkeypatch.context() as mp:
            poison(mp, [agent], "actor_draw")
            on_restore(mp, agent, lambda: reached.append((
                [o.step_count for o in optimizers(agent)[:3]],
                agent.value.flat.tobytes() != value)))
            actor_step, value_step = agent._actor_step, agent.opt_value.step

            def failing_actor_step(*args):
                try:
                    return actor_step(*args)
                except FloatingPointError:
                    failed.set()
                    raise

            def late_value_step(*args):
                assert failed.wait(timeout=10)
                return value_step(*args)

            mp.setattr(agent, "_actor_step", failing_actor_step)
            mp.setattr(agent.opt_value, "step", late_value_step)
            m = update_with(agent, make_batch(rng), 48)
        # both critics and the value network had stepped when the rollback began
        assert reached == [([4, 4, 4], True)]
        assert m.aborted and agent.aborted_updates == 1
        assert (state_bytes(agent), [o.step_count for o in optimizers(agent)]) == before
        batch = make_batch(rng)
        assert metrics_bytes(update_with(agent, batch, 49)) == \
            metrics_bytes(update_with(twin, batch, 49))
        assert state_bytes(agent) == state_bytes(twin)


class TestPairThreads:
    def test_both_halves_finish_before_the_first_error(self):
        done, go = [], threading.Event()

        def fail(tag):
            if tag == "b":  # still running when "a" fails
                assert go.wait(timeout=10)
                time.sleep(0.05)
            else:
                go.set()
            done.append(tag)
            raise ValueError(tag)

        helper = agents._PairHelper()
        with pytest.raises(ValueError, match="a"):
            helper.lanes(lambda: fail("a"), lambda: fail("b"))
        assert done == ["a", "b"]
        done.clear()
        go.clear()
        with pytest.raises(ValueError, match="b"):
            helper.lanes(go.set, lambda: fail("b"))
        assert done == ["b"]

    def test_helper_runs_under_the_callers_errstate(self):
        def overflow(scale):
            return np.float64(1e308) * scale

        helper = agents._PairHelper()

        def lanes():
            return helper.lanes(lambda: overflow(1.0), lambda: overflow(10.0))

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                lanes()
        with np.errstate(over="ignore"):
            assert lanes() == (1e308, np.inf)

    def test_each_pair_reads_its_own_results(self):
        # many quick hand-overs to one helper, with the interpreter switching
        # threads as often as it can: no result is lost or read by another pair
        helper, interval = agents._PairHelper(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i in range(2000):
                assert helper.lanes(lambda: i, lambda: -i) == (i, -i)
        finally:
            sys.setswitchinterval(interval)

    def test_one_helper_per_agent_off_the_callers_cpu(self, monkeypatch):
        """Many pairs and updates of a threaded agent start one thread, which
        ends when the agent is collected. The caller's affinity never
        changes, and on 2+ CPUs the helper's leaves out the caller's CPU of
        the moment."""
        force_pair_threads(monkeypatch)
        gc.collect()  # no helper of an earlier test's agent ends during this one
        count, cpus = threading.active_count(), os.sched_getaffinity(0)
        # the caller's CPU at each hand-over, cycling through all of them
        cycle, handed = itertools.cycle(sorted(cpus)), []
        monkeypatch.setattr(agents, "_sched_getcpu",
                            lambda: handed.append(next(cycle)) or handed[-1])
        starts, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: starts.append(thread) or start(thread))
        agent = fresh_agent(seed=47)
        rng = np.random.default_rng(48)
        for i in range(3):  # 4 pairs each under a ROER scheme
            assert not update_with(agent, make_batch(rng), 49 + i).aborted
        assert len(starts) == 1 and len(handed) == 3 * 4
        for _ in range(2 * len(cpus)):
            mine, helpers = agent._lanes(lambda: os.sched_getaffinity(0),
                                         lambda: os.sched_getaffinity(0))
            assert mine == cpus
            assert helpers == (cpus - {handed[-1]} if len(cpus) > 1 else cpus)
        assert len(starts) == 1 and threading.active_count() == count + 1
        del agent
        assert not starts[0].is_alive() and threading.active_count() == count
        assert os.sched_getaffinity(0) == cpus

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_importing_roer_pins_blas_to_one_thread(self, preset):
        # the pair helper beside BLAS threads of its own oversubscribes the CPUs
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in names}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(agents.__file__))
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = f"import os, roer; print(*(os.environ[k] for k in {names}))"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == [preset or "1", "1", "1"]

    @pytest.mark.parametrize("profile", ["test", "full"])
    def test_only_blas_bound_pairs_take_two_threads(self, profile):
        agent = SacAgent(3, 1, SacConfig(**SAC_PROFILES[profile]), seed=0)
        assert agent.pair_threads == (
            profile == "full" and agents._usable_cpus() >= 2)


class TestLanes:
    @pytest.mark.parametrize("threaded", [False, True])
    def test_overlapped_phases_run_on_two_threads(self, monkeypatch, threaded):
        """Threaded, the snapshot runs on the helper beside the actor's pass
        and draw, and both critics' input gradients and the actor's Adam
        step beside the value network's step; serially all five run on the
        caller's thread."""
        if threaded:
            force_pair_threads(monkeypatch)
        agent = fresh_agent(seed=44)
        assert agent.pair_threads == threaded
        threads = {}

        def record(tag, owner, name):
            real = getattr(owner, name)

            def wrapped(*args, **kwargs):
                threads.setdefault(tag, set()).add(threading.get_ident())
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        record("snapshot", agent, "_snapshot")
        record("sample", agent, "_sample")
        record("value", agent.opt_value, "step")
        record("actor", agent.opt_actor, "step")
        record("gradient", agent, "_critic_input_gradient")
        rng = np.random.default_rng(45)
        for i in range(2):
            assert not update_with(agent, make_batch(rng), 46 + i).aborted
        here = {threading.get_ident()}
        assert threads["sample"] == threads["value"] == here
        helper = threads["snapshot"] | threads["actor"] | threads["gradient"]
        if threaded:  # the one helper thread
            assert len(helper) == 1 and here.isdisjoint(helper)
        else:
            assert helper == here


class TestForwardPasses:
    @pytest.mark.parametrize("roer, passes, stacked",
                             [(RoerConfig(), 9, 4), (None, 7, 1)])
    def test_forward_passes_per_update(self, monkeypatch, roer, passes, stacked):
        agent = fresh_agent(seed=40)
        batch = make_batch(np.random.default_rng(41))
        rows = []
        real = nn.forward_cache

        def counting(params, x):
            rows.append(len(x))
            return real(params, x)

        monkeypatch.setattr(nn, "forward_cache", counting)
        m = update_with(agent, batch, 42, roer)
        assert not m.aborted
        assert len(rows) == passes
        # the actor runs once over (next_obs, obs); under a ROER scheme the
        # target pair and the stepped value network also run once over two
        # stacked batches each
        assert rows.count(2 * len(batch)) == stacked


class TestUpdateMemory:
    # every array of an update has a shape that the config and the batch
    # fix, so its traced peak repeats to a few bytes: about 5.10e6 B here
    # (numpy 2.4, Python 3.11), where holding each array until its phase
    # ended took about 6.84e6 B
    BOUND = 5 << 20

    def test_traced_peak_of_one_full_profile_update(self):
        config = SacConfig(**SAC_PROFILES["full"])
        n = config.batch_size
        agent = SacAgent(3, 1, config, seed=0)
        agent.pair_threads = False
        rng = np.random.default_rng(50)
        buf = PriorityBuffer(n, 3, 1)
        buf.fill_offline(dict(states=rng.normal(size=(n, 3)),
                              actions=np.tanh(rng.normal(size=(n, 1))),
                              rewards=rng.normal(size=n), next_states=rng.normal(size=(n, 3)),
                              terminals=rng.random(n) < 0.1))
        batch = buf.sample_uniform(n, rng)
        peaks = []
        for seed in range(2):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assert not update_with(agent, batch, seed).aborted
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        assert max(peaks) <= self.BOUND, peaks


class TestCheckpointMismatch:
    """A checkpoint that does not fit the agent a config builds is a
    FormatError naming the first entry that does not fit."""

    @staticmethod
    def sac_arrays():
        return fresh_agent(seed=24).checkpoint_arrays()

    @staticmethod
    def saved(arrays):
        stream = io.BytesIO()
        nn.save_checkpoint(stream, arrays)
        stream.seek(0)
        return stream

    def test_missing_entry(self):
        arrays = self.sac_arrays()
        del arrays["opt.value.v.b2"]
        with pytest.raises(FormatError, match="'opt.value.v.b2' is missing"):
            SacAgent.load(self.saved(arrays), fresh_agent().config)

    def test_other_network_sizes(self):
        with pytest.raises(FormatError, match="'critic1.w0' is float64 \\(8, 4\\)"):
            SacAgent.load(self.saved(self.sac_arrays()), SacConfig(hidden_dims=(16, 16)))

    def test_wrong_dtype(self):
        arrays = self.sac_arrays()
        arrays["opt.actor.scalars"] = arrays["opt.actor.scalars"].astype(np.float64)
        with pytest.raises(FormatError, match="'opt.actor.scalars'"):
            SacAgent.load(self.saved(arrays), fresh_agent().config)

    def test_agent_kinds_not_interchangeable(self):
        tabular = io.BytesIO()
        TabularAgent(3, 2, TabularConfig()).save(tabular)
        tabular.seek(0)
        with pytest.raises(FormatError, match="'meta'"):
            SacAgent.load(tabular, fresh_agent().config)
        with pytest.raises(FormatError, match="'meta'"):
            TabularAgent.load(self.saved(self.sac_arrays()), TabularConfig())

    @pytest.mark.parametrize("dims", [(0, 1), (3, 0), (-1, 1), (3, -1),
                                      (2**40, 1), (3, 2**40)])
    def test_meta_dims_checked_before_the_nets_are_built(self, dims):
        arrays = self.sac_arrays()
        arrays["meta"] = np.array([*dims, 0], dtype=np.int64)
        with pytest.raises(FormatError):
            SacAgent.load(self.saved(arrays), fresh_agent().config)

    @pytest.mark.parametrize("dims", [(0, 2), (3, 0), (-1, 2), (3, -1),
                                      (2**40, 2), (3, 2**40)])
    def test_tabular_meta_dims_checked_before_the_table_is_built(self, dims):
        arrays = dict(q_table=np.zeros((3, 2)), meta=np.array(dims, dtype=np.int64))
        with pytest.raises(FormatError):
            TabularAgent.load(self.saved(arrays), TabularConfig())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_tabular_nonfinite_q_table(self, value):
        table = np.arange(6.0).reshape(3, 2)
        arrays = dict(q_table=table, meta=np.array([3, 2], dtype=np.int64))
        agent = TabularAgent.load(self.saved(arrays), TabularConfig())
        assert agent.q_table.tobytes() == table.tobytes()
        table[2, 1] = value
        with pytest.raises(FormatError, match="entry 'q_table' must hold finite values"):
            TabularAgent.load(self.saved(arrays), TabularConfig())


def set_entry(arrays, key, index, value):
    arr = arrays[key].copy()
    arr[index] = value
    arrays[key] = arr


class TestCheckpointValueRules:
    """A checkpoint entry of the right shape and dtype whose value breaks
    its rule is a FormatError naming the entry."""

    @pytest.mark.parametrize("key, index, value", [
        ("opt.critic1.scalars", ..., [-3, 0]),    # a negative step count
        ("opt.critic2.scalars", 0, 7),            # the critics' counts 0 and 7
        ("opt.actor.scalars", 1, 9),              # a spare slot of 9
        ("opt.value.scalars", 0, -1),
        ("log_alpha", 0, math.nan),
        ("log_alpha", 0, math.inf),
        ("alpha_opt", ..., [0.0, -1.0, 2.5]),     # v < 0, a count of 2.5
        ("alpha_opt", 1, -1.0),
        ("alpha_opt", 2, 2.5),
        ("alpha_opt", 2, -1.0),
        ("alpha_opt", 0, math.nan),
        ("alpha_opt", 2, math.inf),
        ("meta", 2, -4),                          # a negative abort count
        ("opt.value.v.w0", (0, 0), -1.0),         # an Adam v below 0
        ("opt.critic2.v.b1", 0, math.nan),
        ("critic1.w0", (0, 0), math.nan),         # a non-finite network entry
        ("critic2.b2", 0, math.inf),
        ("target2.w1", (2, 3), -math.inf),
        ("actor.b0", 1, math.nan),
        ("value.w2", (0, 0), math.inf),
        ("opt.critic1.m.w0", (0, 0), math.nan),   # a non-finite Adam m
        ("opt.actor.m.b2", 0, -math.inf),
        ("opt.value.m.w1", (1, 1), math.inf),
    ])
    def test_value_rule_refused(self, key, index, value):
        arrays = TestCheckpointMismatch.sac_arrays()
        set_entry(arrays, key, index, value)
        with pytest.raises(FormatError, match=f"entry '{key}'"):
            SacAgent.load(TestCheckpointMismatch.saved(arrays), fresh_agent().config)

    def test_values_at_their_edges_load(self):
        arrays = TestCheckpointMismatch.sac_arrays()
        for key in ("opt.critic1.scalars", "opt.critic2.scalars"):
            set_entry(arrays, key, 0, 7)
        set_entry(arrays, "alpha_opt", ..., [-0.5, 0.0, 3.0])  # m may be < 0
        set_entry(arrays, "opt.actor.m.w0", (0, 0), -2.0)
        set_entry(arrays, "critic2.w1", (0, 0), -1e308)  # finite, however large
        set_entry(arrays, "opt.critic1.m.b0", 0, 1e308)
        set_entry(arrays, "meta", 2, 5)
        agent = SacAgent.load(TestCheckpointMismatch.saved(arrays), fresh_agent().config)
        assert [o.step_count for o in agent.opt_q] == [7, 7]
        assert agent.opt_alpha.step_count == 3
        assert agent.aborted_updates == 5
        assert all(a.tobytes() == arrays[k].tobytes()
                   for k, a in agent.checkpoint_arrays().items())


def rollback_sets(agent):
    """The four online networks and the eight Adam moments."""
    return [*agent.critics, agent.actor, agent.value,
            *(s for o in (*agent.opt_q, agent.opt_actor, agent.opt_value)
              for s in (o.m, o.v))]


def check_packed(agent):
    """One vector, _state, holds every rollback set, each layer array a view
    into it, with the critic pair at its head; the targets and the snapshot
    lie outside it, each target's layers views into its own flat vector."""
    state = agent._state
    sets = rollback_sets(agent)
    assert sum(p.flat.size for p in sets) == state.size
    for p in sets:
        assert np.shares_memory(p.flat, state)
        assert all(np.shares_memory(arr, state) for _, arr in p.arrays())
    first, second = (c.flat for c in agent.critics)
    assert first.ctypes.data == state.ctypes.data
    assert second.ctypes.data == first.ctypes.data + first.nbytes
    for target in agent.targets:
        assert not np.shares_memory(target.flat, state)
        assert all(np.shares_memory(arr, target.flat) for _, arr in target.arrays())
    assert not np.shares_memory(agent._saved, state)


class TestPackedState:
    def test_pair_polyak_equals_one_step_per_target(self):
        agent = fresh_agent(seed=52)
        rng = np.random.default_rng(53)
        agent.update(make_batch(rng), np.ones(16), rng, RoerConfig())
        refs = [t.copy() for t in agent.targets]
        agent.update(make_batch(rng), np.ones(16), rng, RoerConfig())
        for ref, online, target in zip(refs, agent.critics, agent.targets):
            nn.polyak(ref, online, agent.config.polyak_tau)
            assert ref.flat.tobytes() == target.flat.tobytes()


def held_objects(agent):
    """Every ParameterSet and optimizer an agent holds."""
    return (*rollback_sets(agent), *agent.targets, *optimizers(agent))


def helper_threads():
    return {t for t in threading.enumerate() if t.name == "roer-pair-helper"}


SEEDS = st.integers(0, 2**32 - 1)
SCHEMES = st.sampled_from(("roer", "roer_chi2", None))


@settings(max_examples=40, stateful_step_count=12, deadline=None)
class AgentMachine(RuleBasedStateMachine):
    """Any sequence of updates (clean, on a batch with one non-finite or
    huge entry, or with a fault in one phase), probes and checkpoint round
    trips on three SacAgents built from one seed: serial, the reference;
    threaded, whose pairs run on its helper thread; and mirror, which
    save_and_load replaces by its reloaded checkpoint. Each step gives the
    three the same batch, weights and generator state. After every step
    they agree byte for byte, and an abort has restored the state from
    before it. Nets without hidden layers, of one, two and 64-wide layers,
    batches of 1, 8 and 64 rows, and two (obs, action) shapes."""

    @initialize(hidden=st.sampled_from(((), (8,), (8, 8), (64, 64))),
                n=st.sampled_from((1, 8, 64)), dims=st.sampled_from(((3, 1), (2, 2))),
                seed=SEEDS)
    def start(self, hidden, n, dims, seed):
        self.n, self.dims = n, dims
        self.config = SacConfig(hidden_dims=hidden, batch_size=n)
        self.threads = helper_threads()
        # serial, threaded and mirror
        self.agents = [SacAgent(*dims, self.config, seed=seed) for _ in range(3)]
        assert not any(a.pair_threads for a in self.agents)
        self.agents[1].pair_threads = True
        self.held = [held_objects(a) for a in self.agents]
        self.aborts, self.last, self.outputs = 0, None, []
        self.paired, self.helper, self.started = False, None, set()

    def teardown(self):
        self.agents = None
        if sys.exc_info()[1] is None:  # a failed step's traceback holds its agents
            assert not any(t.is_alive() for t in self.started)

    def batch(self, seed, ones):
        """A batch of the run's size and dims, and its loss weights: ones,
        or drawn from [0.5, 2]."""
        rng = np.random.default_rng(seed)
        batch = make_batch(rng, self.n, *self.dims)
        return batch, np.ones(self.n) if ones else rng.uniform(0.5, 2.0, self.n)

    def run_update(self, seed, scheme, batch, weights):
        """One update of each agent on batch and weights, under a ROER
        scheme or none, with a fresh generator from seed; returns whether
        it aborted."""
        roer = None if scheme is None else RoerConfig()
        before, rngs, metrics = state_bytes(self.agents[0]), [], []
        for agent in self.agents:
            rngs.append(np.random.default_rng(seed))
            metrics.append(agent.update(batch, weights, rngs[-1], roer,
                                        ROER_DIVERGENCES[scheme or "roer"]))
        twin = np.random.default_rng(seed)
        twin.standard_normal((2 * self.n, self.dims[1]))
        self.last = before, metrics[0], roer, rngs, twin
        self.outputs = [metrics_bytes(m) for m in metrics]
        self.aborts += metrics[0].aborted
        self.paired = True
        return metrics[0].aborted

    @rule(seed=SEEDS, scheme=SCHEMES, ones=st.booleans())
    def update(self, seed, scheme, ones):
        assert not self.run_update(seed, scheme, *self.batch(seed, ones))

    @rule(seed=SEEDS, scheme=SCHEMES, ones=st.booleans(),
          field=st.sampled_from(("rewards", "states", "next_states", "actions", "weights")),
          value=st.sampled_from((math.nan, math.inf, -math.inf, 1e300, -1e300)),
          data=st.data())
    def poisoned_update(self, seed, scheme, ones, field, value, data):
        """One entry of the batch or the weights set to NaN or +-inf, which
        aborts, or to +-1e300, which overflows inside the update under its
        errstate. Under the KL scheme or none that update completes; under
        roer_chi2 a huge negative value residual squares to an infinite
        value loss, which aborts."""
        batch, weights = self.batch(seed, ones)
        column = weights if field == "weights" else getattr(batch, field)
        column.flat[data.draw(st.integers(0, column.size - 1))] = value
        aborted = self.run_update(seed, scheme, batch, weights)
        if not math.isfinite(value):
            assert aborted
        elif scheme != "roer_chi2":
            assert not aborted

    @rule(seed=SEEDS, scheme=SCHEMES, ones=st.booleans(), fault=st.sampled_from(sorted(FAULTS)))
    def phase_fault(self, seed, scheme, ones, fault):
        """One of FAULTS aborts the update in its phase (the value phase runs
        only under a ROER scheme, so its faults never fire without one); on
        serial, the optimizers that had stepped when the rollback began are
        those of the phases before it, each once."""
        serial = self.agents[0]
        counts, reached = [o.step_count for o in optimizers(serial)], []
        with pytest.MonkeyPatch.context() as mp:
            fired = poison(mp, self.agents, fault)
            on_restore(mp, serial, lambda: reached.append(
                [o.step_count for o in optimizers(serial)]))
            aborted = self.run_update(seed, scheme, *self.batch(seed, ones))
        phases = [p for p in PHASES if scheme is not None or p != "value"]
        if FAULTS[fault] not in phases:
            assert not (aborted or fired or reached)
            return
        stepped = phases[:phases.index(FAULTS[fault])]
        assert aborted and len(fired) == len(self.agents)
        assert reached == [[c + (p in stepped) for p, c in zip(PHASES, counts)]]

    @rule(seed=SEEDS)
    def probe(self, seed):
        batch, _ = self.batch(seed, True)
        x = np.concatenate([batch.states, batch.actions], axis=1)
        self.outputs = [[a.td_surrogates(batch, np.random.default_rng(seed)).tobytes(),
                         a.min_q(x).tobytes()] for a in self.agents]
        self.paired = True

    @rule()
    def save_and_load(self):
        stream = io.BytesIO()
        self.agents[2].save(stream)
        stream.seek(0)
        self.agents[2] = SacAgent.load(stream, self.config)
        self.held[2] = held_objects(self.agents[2])

    @invariant()
    def agents_agree(self):
        """Every checkpointed array, the abort count among them, and the
        last step's metrics or probe outputs, byte for byte; the abort count
        is the model's."""
        want = self.agents[0].checkpoint_arrays()
        for agent in self.agents[1:]:
            got = agent.checkpoint_arrays()
            assert list(got) == list(want)
            for key, arr in want.items():
                assert got[key].tobytes() == arr.tobytes(), key
        assert all(out == self.outputs[0] for out in self.outputs)
        assert [a.aborted_updates for a in self.agents] == [self.aborts] * 3

    @invariant()
    def last_update_took_one_draw_and_an_abort_undid_it(self):
        """The last update took one (2n, A) normal draw from each generator.
        If it aborted, every checkpointed array and step count is as it was
        before it, and its metrics are fresh; if not, its losses are
        finite (the value loss only under a ROER scheme)."""
        if self.last is None:
            return
        before, metrics, roer, rngs, twin = self.last
        assert all(rng.bit_generator.state == twin.bit_generator.state for rng in rngs)
        if metrics.aborted:
            assert state_bytes(self.agents[0]) == before
            assert metrics_bytes(metrics) == metrics_bytes(StepMetrics(aborted=True))
        else:
            assert all(map(math.isfinite, (metrics.critic_loss, metrics.actor_loss,
                                           metrics.alpha_loss)))
            assert math.isfinite(metrics.value_loss) == (roer is not None)

    @invariant()
    def packed_in_place(self):
        """check_packed holds on each agent, and no agent has rebound a
        ParameterSet or optimizer since it was built or loaded."""
        for agent, held in zip(self.agents, self.held):
            check_packed(agent)
            assert all(a is b for a, b in zip(held_objects(agent), held))

    @invariant()
    def one_helper_thread(self):
        """threaded makes its helper at its first pair and keeps it; the
        helper's one thread lives as long as the agent."""
        helper = self.agents[1]._helper
        if not self.paired:
            assert helper is None
            return
        if self.helper is None:
            self.helper = weakref.ref(helper)
            self.started = helper_threads() - self.threads
            assert len(self.started) == 1
        assert helper is self.helper() and all(t.is_alive() for t in self.started)


TestAgentMachine = AgentMachine.TestCase


class TestTabularAgent:
    def batch_of(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        n = len(rows)
        return type("B", (), dict(
            states=rows[:, 0], actions=rows[:, 1], rewards=rows[:, 2],
            next_states=rows[:, 3], terminals=rows[:, 4].astype(bool),
            __len__=lambda self: n,
        ))()

    def test_zero_weight_no_change(self):
        agent = TabularAgent(3, 2, TabularConfig())
        before = agent.q_table.copy()
        agent.update(self.batch_of([[0, 1, 1.0, 1, 0]]), np.zeros(1))
        assert np.array_equal(agent.q_table, before)

    def test_constant_reward_fixed_point(self):
        cfg = TabularConfig(gamma=0.9, learning_rate=0.5, soft_temperature=1e-4)
        agent = TabularAgent(1, 1, cfg)
        batch = self.batch_of([[0, 0, 1.0, 0, 0]])
        for _ in range(2_000):
            agent.update(batch, np.ones(1))
        assert agent.q_table[0, 0] == pytest.approx(10.0, abs=1e-3)

    def test_permutation_invariance_on_disjoint_keys(self):
        cfg = TabularConfig(gamma=0.95, learning_rate=0.2)
        rows = [[0, 0, 1.0, 1, 0], [1, 1, -0.5, 2, 0], [2, 0, 0.3, 0, 0]]
        a = TabularAgent(3, 2, cfg)
        b = TabularAgent(3, 2, cfg)
        a.update(self.batch_of(rows), np.ones(3))
        b.update(self.batch_of(rows[::-1]), np.ones(3))
        assert np.array_equal(a.q_table, b.q_table)

    def test_td_errors_returned(self):
        cfg = TabularConfig(gamma=0.9, soft_temperature=0.01)
        agent = TabularAgent(2, 2, cfg)
        m = agent.update(self.batch_of([[0, 0, 2.0, 1, 0]]), np.ones(1))
        # zero table: soft state value is temp * ln(n_actions)
        expect = 2.0 + 0.9 * cfg.soft_temperature * math.log(2.0)
        assert m.value_td_errors == pytest.approx([expect])

    def test_td_surrogates_are_absolute_td_errors(self):
        agent = TabularAgent(3, 2, TabularConfig())
        agent.q_table[:] = np.random.default_rng(0).normal(size=(3, 2))
        batch = self.batch_of([[0, 1, 1.0, 2, 0], [2, 0, -0.5, 1, 1]])
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        got = agent.td_surrogates(batch, rng)
        assert rng.bit_generator.state == state  # draws nothing
        assert np.array_equal(got, np.abs(agent.td_errors(
            batch.states, batch.actions, batch.rewards, batch.next_states,
            batch.terminals)))

    def test_epsilon_greedy_determinism(self):
        agent = TabularAgent(4, 3, TabularConfig(epsilon=0.5))
        agent.q_table[:] = np.random.default_rng(0).normal(size=(4, 3))
        seq1 = [agent.act(1, np.random.default_rng(5)) for _ in range(20)]
        seq2 = [agent.act(1, np.random.default_rng(5)) for _ in range(20)]
        assert seq1 == seq2

    def test_update_bits_match_wrapper_reference(self):
        # the update written with q.max, np.sum, np.all and np.mean
        rng = np.random.default_rng(3)
        cfg = TabularConfig(gamma=0.9, learning_rate=0.2, soft_temperature=0.05)
        agent = TabularAgent(6, 3, cfg)
        agent.q_table[:] = rng.normal(size=(6, 3))
        q = agent.q_table.copy()
        rows = np.column_stack([rng.integers(0, 6, 40), rng.integers(0, 3, 40),
                                rng.normal(size=40), rng.integers(0, 6, 40),
                                rng.random(40) < 0.2])
        weights = rng.random(40)
        m = agent.update(self.batch_of(rows), weights)
        s, a, r = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64), rows[:, 2]
        qn = q[rows[:, 3].astype(np.int64)]
        top = qn.max(axis=-1)
        v = top + cfg.soft_temperature * np.log(
            np.sum(np.exp((qn - top[:, None]) / cfg.soft_temperature), axis=-1))
        delta = r + cfg.gamma * v * (1.0 - rows[:, 4]) - q[s, a]
        assert np.all(np.isfinite(delta))
        np.add.at(q, (s, a), cfg.learning_rate * weights * delta)
        assert m.value_td_errors.tobytes() == delta.tobytes()
        assert agent.q_table.tobytes() == q.tobytes()
        assert m.critic_loss == float(np.mean(weights * delta**2))

    @pytest.mark.parametrize("states", [
        np.array([0, 3, 3, 5, 1]), [2, 2], 4, np.int64(0), np.zeros(0, dtype=np.int64)])
    def test_soft_value_rounds_in_place_with_the_same_bits(self, states):
        # wide-ranging Q values, so the shift, exp and log all round
        rng = np.random.default_rng(11)
        cfg = TabularConfig(soft_temperature=0.05)
        agent = TabularAgent(6, 3, cfg)
        agent.q_table[:] = rng.normal(size=(6, 3)) * 10.0 ** rng.integers(-3, 3, (6, 3))
        table = agent.q_table.copy()
        q = table[np.asarray(states, dtype=np.int64)]
        m = q.max(axis=-1)
        want = m + cfg.soft_temperature * np.log(
            np.sum(np.exp((q - m[..., None]) / cfg.soft_temperature), axis=-1))
        got = agent.soft_value(states)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        # the in-place steps work on a copy, even for a scalar state
        assert agent.q_table.tobytes() == table.tobytes()


class TestConfigChecks:
    @pytest.mark.parametrize("field, value", [
        ("gamma", 0.0), ("gamma", 1.0), ("gamma", float("nan")),
        ("batch_size", 0), ("epsilon", -0.1), ("epsilon", 1.5),
        ("learning_rate", 0.0), ("soft_temperature", 0.0),
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("soft_temperature", math.nan), ("soft_temperature", math.inf),
    ])
    def test_tabular_rejects(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TabularConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("gamma", 1.0), ("batch_size", 0), ("polyak_tau", 0.0),
        ("polyak_tau", 1.5), ("learning_rate", -1e-3), ("penalty_coef", -1.0),
        ("huber_k", 0.0), ("hidden_dims", (64, 0)),
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("penalty_coef", math.nan), ("penalty_coef", math.inf),
        ("init_temperature", -1.0), ("init_temperature", 0.0),
        ("init_temperature", math.nan), ("init_temperature", math.inf),
        ("target_entropy", math.nan), ("target_entropy", -math.inf),
        ("huber_k", math.nan), ("huber_k", None), ("huber_k", math.inf),
    ])
    def test_sac_rejects(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SacConfig(**{field: value})

    def test_edges_accepted(self):
        TabularConfig(epsilon=0.0)
        TabularConfig(epsilon=1.0)
        SacConfig(polyak_tau=1.0, penalty_coef=0.0)
