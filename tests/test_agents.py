import gc
import io
import itertools
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from roer import agents, losses, nn
from roer.agents import (
    SacAgent,
    SacConfig,
    TabularAgent,
    TabularConfig,
    aux_obs_of,
)
from roer.binio import FormatError
from roer.config import SAC_PROFILES
from roer.replay import PriorityBuffer, SampledBatch
from roer.schemes import ROER_DIVERGENCES, ConfigError, InvalidInputError, RoerConfig


def rel_err(a, b):
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    return np.max(np.abs(a - b) / np.maximum(1e-6, np.abs(a) + np.abs(b)))


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
    def test_deterministic_metrics(self):
        rng = np.random.default_rng(7)
        batch = make_batch(rng)
        stream = io.BytesIO()
        agent = fresh_agent(seed=8)
        agent.save(stream)
        stream.seek(0)
        clone = SacAgent.load(stream, agent.config)
        m1 = agent.update(batch, np.ones(len(batch)), np.random.default_rng(11),
                          RoerConfig())
        m2 = clone.update(batch, np.ones(len(batch)), np.random.default_rng(11),
                          RoerConfig())
        assert m1.critic_loss == m2.critic_loss
        assert m1.actor_loss == m2.actor_loss
        assert m1.value_loss == m2.value_loss
        assert np.array_equal(m1.value_td_errors, m2.value_td_errors)
        assert agent.critics == clone.critics and agent.targets == clone.targets
        assert agent.actor == clone.actor

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

    def test_losses_finite_and_counters(self):
        agent = fresh_agent(seed=14)
        rng = np.random.default_rng(15)
        for _ in range(10):
            batch = make_batch(rng)
            m = agent.update(batch, np.ones(len(batch)), rng, RoerConfig())
            assert not m.aborted
            for v in (m.critic_loss, m.value_loss, m.actor_loss, m.alpha_loss):
                assert np.isfinite(v)
        assert agent.aborted_updates == 0

    def test_nonfinite_batch_aborts_and_rolls_back(self):
        agent = fresh_agent(seed=16)
        rng = np.random.default_rng(17)
        batch = make_batch(rng)
        batch.rewards[:] = np.inf  # poisons the critic target
        before = tuple(c.copy() for c in agent.critics)
        opt_steps = [o.step_count for o in agent.opt_q]
        m = agent.update(batch, np.ones(len(batch)), rng, RoerConfig())
        assert m.aborted
        assert agent.aborted_updates == 1
        assert agent.critics == before
        assert [o.step_count for o in agent.opt_q] == opt_steps

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

    def test_abort_in_actor_phase_restores_everything(self, monkeypatch):
        agent = fresh_agent(seed=22)
        rng = np.random.default_rng(23)
        for _ in range(3):  # nonzero moments, step counts and temperature state
            agent.update(make_batch(rng), np.ones(16), rng, RoerConfig())
        opts = (*agent.opt_q, agent.opt_value, agent.opt_actor, agent.opt_alpha)

        def state():
            arrays = agent.checkpoint_arrays()
            arrays.pop("meta")  # holds the abort count
            return ({k: v.tobytes() for k, v in arrays.items()},
                    [o.step_count for o in opts[:4]])

        before = state()
        stepped = []

        def fail(*args):
            stepped.append([o.step_count for o in opts[:3]])
            raise FloatingPointError("actor backward diverged")

        monkeypatch.setattr(agent, "_actor_backward", fail)
        m = agent.update(make_batch(rng), np.ones(16), rng, RoerConfig())
        # both critics and the value net had stepped when the abort came
        assert stepped == [[s + 1 for s in before[1][:3]]]
        assert m.aborted and agent.aborted_updates == 1
        assert state() == before

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


class TestInPlaceRollback:
    @staticmethod
    def poison(mp, agent, phase, reached):
        """Make one loss of the given phase NaN; when the abort rolls back,
        record the step counts of the critic and value optimizers in
        `reached`."""
        opts = (*agent.opt_q, agent.opt_value)
        calls = []
        restore = agent._restore

        def recording_restore(*args):
            reached.append([o.step_count for o in opts])
            return restore(*args)

        mp.setattr(agent, "_restore", recording_restore)

        def nan_on(call):
            def wrapped(*args, **kwargs):
                out = real(*args, **kwargs)
                calls.append(1)
                if len(calls) == call:
                    out.value = math.nan
                return out
            return wrapped

        # the critic pair may run on two threads, in no fixed call order:
        # the poisons pick a critic by its params
        def nan_penalty_of(critic):
            def wrapped(params, *args, **kwargs):
                out = real(params, *args, **kwargs)
                if params is agent.critics[critic]:
                    out.value = math.nan
                return out
            return wrapped

        def nan_q_of_second(params, x):
            # the loss makes no check of its own: a NaN critic output gives
            # a NaN loss, which the phase's finite check catches
            q, cache = real(params, x)
            if params is agent.critics[1] and not calls:  # its critic-step pass
                calls.append(1)
                q = np.full_like(q, math.nan)
            return q, cache

        def nan_obs_half(*args, **kwargs):
            # the one draw covers (next_obs, obs); a NaN log-density in its
            # obs half reaches only the actor loss
            act, logp, aux = real(*args, **kwargs)
            logp = logp.copy()
            logp[len(logp) // 2:] = math.nan
            return act, logp, aux

        if phase in ("critic", "first_critic"):  # one critic's loss
            real = losses.gradient_penalty
            mp.setattr(losses, "gradient_penalty", nan_penalty_of(
                1 if phase == "critic" else 0))
        elif phase == "critic_output":  # the second critic's predictions
            real = agent._scalar
            mp.setattr(agent, "_scalar", nan_q_of_second)
        elif phase == "value":
            real = losses.extreme_v_loss
            mp.setattr(losses, "extreme_v_loss", nan_on(1))
        else:  # the actor's half of the draw poisons its loss
            real = agent._sample
            mp.setattr(agent, "_sample", nan_obs_half)

    @pytest.mark.parametrize("phase, stepped", [
        ("critic", [1, 0, 0]), ("critic_output", [1, 0, 0]), ("value", [1, 1, 0]),
        ("actor", [1, 1, 1])])
    def test_abort_restores_in_place_and_matches_a_twin(self, monkeypatch,
                                                       phase, stepped):
        agent, twin = fresh_agent(seed=30), fresh_agent(seed=30)
        rng = np.random.default_rng(31)
        for i in range(3):  # nonzero moments and step counts on both
            batch = make_batch(rng)
            update_with(agent, batch, 100 + i)
            update_with(twin, batch, 100 + i)
        nets = (*agent.critics, *agent.targets, agent.actor, agent.value)
        opts = (*agent.opt_q, agent.opt_actor, agent.opt_value)
        moments = [(o.m, o.v) for o in opts]
        counts = [o.step_count for o in (*agent.opt_q, agent.opt_value)]
        before = state_bytes(agent)
        reached = []
        with monkeypatch.context() as mp:
            self.poison(mp, agent, phase, reached)
            m = update_with(agent, make_batch(rng), 200)
        assert reached == [[c + s for c, s in zip(counts, stepped)]]
        assert m.aborted and agent.aborted_updates == 1
        assert state_bytes(agent) == before
        # the same objects, with every layer still a view of its flat vector
        assert all(a is b for a, b in zip(
            (*agent.critics, *agent.targets, agent.actor, agent.value), nets))
        assert all(a is b for a, b in zip((*agent.opt_q, agent.opt_actor,
                                           agent.opt_value), opts))
        assert all(o.m is m0 and o.v is v0 for o, (m0, v0) in zip(opts, moments))
        for p in [*nets, *(s for pair in moments for s in pair)]:
            assert all(np.shares_memory(a, p.flat) for a in (*p.weights, *p.biases))
        batch = make_batch(rng)
        assert metrics_bytes(update_with(agent, batch, 300)) == \
            metrics_bytes(update_with(twin, batch, 300))
        assert state_bytes(agent) == state_bytes(twin)

    @pytest.mark.parametrize("phase", [None, "critic", "critic_output", "value",
                                       "actor"])
    def test_every_update_takes_one_stacked_draw(self, monkeypatch, phase):
        """An update takes one (2n, A) normal draw from a shared generator,
        whether it completes or aborts, and whichever phase aborts it."""
        agent = fresh_agent(seed=32)
        batch = make_batch(np.random.default_rng(33))
        rng, twin = np.random.default_rng(34), np.random.default_rng(34)
        with monkeypatch.context() as mp:
            if phase is not None:
                self.poison(mp, agent, phase, [])
            m = agent.update(batch, np.ones(len(batch)), rng, RoerConfig())
        assert m.aborted == (phase is not None)
        twin.standard_normal((2 * len(batch), agent.action_dim))
        assert rng.bit_generator.state == twin.bit_generator.state


def force_pair_threads(mp):
    """Run every twin pair of the agents built from here on on two threads,
    whatever their size and the CPUs at hand."""
    mp.setattr(agents, "PAIR_THREAD_WORK", 0)
    mp.setattr(agents, "PAIR_THREAD_CPUS", 1)


class TestThreadedRollback(TestInPlaceRollback):
    """TestInPlaceRollback's cases with the pairs on two threads: a NaN in
    the helper's half (critic 2) aborts the step as it does serially."""

    @pytest.fixture(autouse=True)
    def threaded(self, monkeypatch):
        force_pair_threads(monkeypatch)
        assert fresh_agent().pair_threads

    def test_first_critic_abort_waits_for_the_second(self, monkeypatch):
        # critic 1 fails on this thread while critic 2 steps on the helper:
        # the rollback starts only after that step, and undoes it
        agent, twin = fresh_agent(seed=33), fresh_agent(seed=33)
        before = state_bytes(agent)
        second = agent.critics[1].flat.tobytes()
        reached, second_moved = [], []
        with monkeypatch.context() as mp:
            self.poison(mp, agent, "first_critic", reached)
            restore = agent._restore

            def recording_restore(*args):
                second_moved.append(agent.critics[1].flat.tobytes() != second)
                return restore(*args)

            mp.setattr(agent, "_restore", recording_restore)
            m = update_with(agent, make_batch(np.random.default_rng(34)), 35)
        # critic 2 had stepped, network and Adam state, when the rollback began
        assert reached == [[0, 1, 0]] and second_moved == [True]
        assert m.aborted and state_bytes(agent) == before
        batch = make_batch(np.random.default_rng(36))
        assert metrics_bytes(update_with(agent, batch, 37)) == \
            metrics_bytes(update_with(twin, batch, 37))

    def test_value_abort_undoes_the_actor_step_beside_it(self, monkeypatch):
        # the value loss fails on this thread while the actor steps on the
        # helper: the rollback starts only after that step, and undoes it
        agent, twin = fresh_agent(seed=38), fresh_agent(seed=38)
        before = state_bytes(agent)
        reached, actor_reached = [], []
        with monkeypatch.context() as mp:
            self.poison(mp, agent, "value", reached)
            restore = agent._restore

            def recording_restore(*args):
                actor_reached.append(agent.opt_actor.step_count)
                return restore(*args)

            mp.setattr(agent, "_restore", recording_restore)
            m = update_with(agent, make_batch(np.random.default_rng(39)), 40)
        assert reached == [[1, 1, 0]] and actor_reached == [1]
        assert m.aborted and agent.aborted_updates == 1
        assert state_bytes(agent) == before
        assert agent.opt_actor.step_count == 0
        batch = make_batch(np.random.default_rng(41))
        assert metrics_bytes(update_with(agent, batch, 42)) == \
            metrics_bytes(update_with(twin, batch, 42))
        assert state_bytes(agent) == state_bytes(twin)

    def test_actor_abort_waits_for_the_value_step(self, monkeypatch):
        # the actor's loss turns NaN on the helper while the value network
        # steps on this thread, held back until the loss has failed: the
        # rollback starts only after that step, and undoes it
        agent, twin = fresh_agent(seed=43), fresh_agent(seed=43)
        rng = np.random.default_rng(44)
        for i in range(3):  # nonzero moments and step counts on both
            batch = make_batch(rng)
            update_with(agent, batch, 45 + i)
            update_with(twin, batch, 45 + i)
        opts = (*agent.opt_q, agent.opt_actor, agent.opt_value, agent.opt_alpha)
        before = state_bytes(agent), [o.step_count for o in opts]
        value = agent.value.flat.tobytes()
        failed, reached, value_moved = threading.Event(), [], []
        with monkeypatch.context() as mp:
            self.poison(mp, agent, "actor", reached)
            actor_step, value_step, restore = (agent._actor_step, agent.opt_value.step,
                                               agent._restore)

            def failing_actor_step(*args):
                try:
                    return actor_step(*args)
                except FloatingPointError:
                    failed.set()
                    raise

            def late_value_step(*args):
                assert failed.wait(timeout=10)
                return value_step(*args)

            def recording_restore(*args):
                value_moved.append(agent.value.flat.tobytes() != value)
                return restore(*args)

            mp.setattr(agent, "_actor_step", failing_actor_step)
            mp.setattr(agent.opt_value, "step", late_value_step)
            mp.setattr(agent, "_restore", recording_restore)
            m = update_with(agent, make_batch(rng), 48)
        # both critics and the value network had stepped when the rollback began
        assert reached == [[4, 4, 4]] and value_moved == [True]
        assert m.aborted and agent.aborted_updates == 1
        assert (state_bytes(agent), [o.step_count for o in opts]) == before
        batch = make_batch(rng)
        assert metrics_bytes(update_with(agent, batch, 49)) == \
            metrics_bytes(update_with(twin, batch, 49))
        assert state_bytes(agent) == state_bytes(twin)


class TestNonFiniteGradient:
    """A non-finite gradient with a finite loss, in any of the four networks'
    Adam steps or the temperature's, aborts the whole update: the step
    raises before it changes anything, and the rollback restores every
    online array, Adam moment, step count and log_alpha byte for byte."""

    @pytest.mark.parametrize("threaded", [False, True])
    @pytest.mark.parametrize("net", ["critic1", "critic2", "value", "actor", "alpha"])
    def test_aborts_and_restores_everything(self, monkeypatch, net, threaded):
        if threaded:
            force_pair_threads(monkeypatch)
        agent, twin = fresh_agent(seed=70), fresh_agent(seed=70)
        assert agent.pair_threads == threaded
        rng = np.random.default_rng(71)
        for i in range(3):  # nonzero moments, step counts and temperature state
            batch = make_batch(rng)
            update_with(agent, batch, 72 + i)
            update_with(twin, batch, 72 + i)
        opts = (*agent.opt_q, agent.opt_actor, agent.opt_value, agent.opt_alpha)
        before = state_bytes(agent), [o.step_count for o in opts], agent.log_alpha
        critic = {"critic1": 0, "critic2": 1}.get(net)
        opt = agent.opt_q[critic] if critic is not None else getattr(agent, f"opt_{net}")
        real, raised = opt.step, []

        def poisoned(value, grad):
            if isinstance(grad, nn.ParameterSet):
                grad = grad.copy()
                grad.flat[-1] = math.nan
            else:
                grad = math.inf
            try:
                return real(value, grad)
            except FloatingPointError:
                raised.append(net)
                raise

        monkeypatch.setattr(opt, "step", poisoned)
        m = update_with(agent, make_batch(rng), 80)
        monkeypatch.undo()
        assert raised == [net]
        assert m.aborted and agent.aborted_updates == 1
        assert math.isnan(m.critic_loss)  # fresh metrics, nothing of the step
        assert (state_bytes(agent), [o.step_count for o in opts],
                agent.log_alpha) == before
        # the next update is the twin's, byte for byte
        batch = make_batch(rng)
        assert metrics_bytes(update_with(agent, batch, 81)) == \
            metrics_bytes(update_with(twin, batch, 81))
        assert state_bytes(agent) == state_bytes(twin)


class TestPairThreads:
    @pytest.mark.parametrize("hidden, n", [((8, 8), 16), ((64, 64), 64)])
    def test_threaded_agent_matches_the_serial_one(self, monkeypatch, hidden, n):
        def agent():
            config = SacConfig(hidden_dims=hidden, batch_size=n)
            return SacAgent(3, 1, config, seed=50)

        serial = agent()
        force_pair_threads(monkeypatch)
        threaded = agent()
        assert threaded.pair_threads and not serial.pair_threads
        rng = np.random.default_rng(51)
        for i in range(6):
            batch = make_batch(rng, n=n)
            roer = RoerConfig() if i % 3 else None
            # the value lane's loss under both ROER divergences
            div = ROER_DIVERGENCES["roer_chi2" if i % 3 == 2 else "roer"]
            assert metrics_bytes(update_with(serial, batch, 60 + i, roer, div)) == \
                metrics_bytes(update_with(threaded, batch, 60 + i, roer, div))
            assert serial.td_surrogates(batch, np.random.default_rng(i)).tobytes() == \
                threaded.td_surrogates(batch, np.random.default_rng(i)).tobytes()
            x = np.concatenate([batch.states, batch.actions], axis=1)
            assert serial.min_q(x).tobytes() == threaded.min_q(x).tobytes()
        assert state_bytes(serial) == state_bytes(threaded)
        assert serial.checkpoint_arrays()["meta"].tobytes() == \
            threaded.checkpoint_arrays()["meta"].tobytes()

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


class TestCheckpoint:
    def test_round_trip_arrays_equal(self):
        agent = fresh_agent(seed=20)
        rng = np.random.default_rng(21)
        for _ in range(3):
            agent.update(make_batch(rng), np.ones(16), rng, RoerConfig())
        stream = io.BytesIO()
        agent.save(stream)
        stream.seek(0)
        clone = SacAgent.load(stream, agent.config)
        a1 = agent.checkpoint_arrays()
        a2 = clone.checkpoint_arrays()
        assert set(a1) == set(a2)
        for k in a1:
            assert np.array_equal(a1[k], a2[k]), k
        # loading writes through the per-layer views into each flat vector
        sets = [*clone.critics, *clone.targets, clone.actor, clone.value]
        for opt in (*clone.opt_q, clone.opt_actor, clone.opt_value):
            sets += [opt.m, opt.v]
        for params in sets:
            for _, arr in params.arrays():
                assert np.shares_memory(arr, params.flat)


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


class TestPackedState:
    @staticmethod
    def check_packed(agent):
        state = agent._state
        sets = rollback_sets(agent)
        assert sum(p.flat.size for p in sets) == state.size
        for p in sets:
            assert np.shares_memory(p.flat, state)
            assert all(np.shares_memory(arr, state) for _, arr in p.arrays())
        # the critic pair lies side by side at the head of the vector
        first, second = (c.flat for c in agent.critics)
        assert first.ctypes.data == state.ctypes.data
        assert second.ctypes.data == first.ctypes.data + first.nbytes
        assert not any(np.shares_memory(t.flat, state) for t in agent.targets)
        assert not np.shares_memory(agent._saved, state)

    def test_one_rollback_vector_after_init_and_load(self):
        agent = fresh_agent(seed=50)
        self.check_packed(agent)
        rng = np.random.default_rng(51)
        for _ in range(3):
            agent.update(make_batch(rng), np.ones(16), rng, RoerConfig())
        self.check_packed(agent)
        stream = io.BytesIO()
        agent.save(stream)
        stream.seek(0)
        clone = SacAgent.load(stream, agent.config)
        self.check_packed(clone)
        assert state_bytes(clone) == state_bytes(agent)

    def test_pair_polyak_equals_one_step_per_target(self):
        agent = fresh_agent(seed=52)
        rng = np.random.default_rng(53)
        agent.update(make_batch(rng), np.ones(16), rng, RoerConfig())
        refs = [t.copy() for t in agent.targets]
        agent.update(make_batch(rng), np.ones(16), rng, RoerConfig())
        for ref, online, target in zip(refs, agent.critics, agent.targets):
            nn.polyak(ref, online, agent.config.polyak_tau)
            assert ref.flat.tobytes() == target.flat.tobytes()


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
        ("huber_k", math.nan),
    ])
    def test_sac_rejects(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SacConfig(**{field: value})

    def test_edges_accepted(self):
        TabularConfig(epsilon=0.0)
        TabularConfig(epsilon=1.0)
        SacConfig(polyak_tau=1.0, penalty_coef=0.0, huber_k=None)
