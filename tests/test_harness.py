import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from roer import config as cmod
from roer import agents, divergences, harness, losses, schemes
from roer.agents import TabularAgent, TabularConfig
from roer.cli import main
from roer.config import seed_streams
from roer.envs import PendulumEnv, TabularEnv, TabularMdp, gridworld_mdp, random_mdp
from roer.harness import (
    MetricsWriter,
    compute_bias,
    estimate_bias,
    make_env,
    read_metrics,
    run_oracle_suite,
    run_sweep,
    run_train,
)
from roer.oracles import greedy_policy, policy_q, value_iteration
from roer.replay import InvalidTransitionError, PriorityBuffer
from roer.schemes import ConfigError, LaberConfig, PerConfig, RoerConfig


def base_raw(tmp_path, **overrides):
    raw = dict(
        env="chain-5", scheme="uniform", seeds=[0], total_steps=400,
        train_start_step=100, eval_period=200, eval_episodes=2,
        buffer_capacity=300, env_horizon=50,
        tabular=dict(learning_rate=0.3, gamma=0.95, epsilon=0.2, batch_size=16),
        output_dir=str(tmp_path / "run"),
    )
    raw.update(overrides)
    return raw


class TestConfig:
    def test_round_trip_yaml(self, tmp_path):
        cfg = cmod.from_dict(base_raw(tmp_path))
        text = cmod.echo(cfg)
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        again = cmod.load(str(path))
        assert again == cfg

    # the last five are the sections of the resolved form that config.yaml
    # used to hold; the file schema has agent, scheme_config and sweep.grid
    @pytest.mark.parametrize("key", ["bogus", "priority_refresh", "bias_eval_period",
                                     "full_refresh_period",
                                     "refresh_offline_priorities",
                                     "sac", "roer", "per", "laber",
                                     "sweep_grid", "agent_config"])
    def test_unknown_keys_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError, match="unknown config keys"):
            cmod.from_dict(base_raw(tmp_path, **{key: 1}))

    def test_unknown_agent_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="value_residual_mode"):
            cmod.from_dict(base_raw(tmp_path, env="pendulum", agent=dict(
                value_residual_mode="target_minus_v")))

    @pytest.mark.parametrize("section,key", [
        ("scheme_config", "train_start_step"),  # the loop reads the top level
        ("agent", "value_loss_kind"),           # the scheme sets it
        ("agent", "value_beta"),                # scheme_config.beta sets it
        ("agent", "value_grad_clip"),           # scheme_config.grad_clip sets it
    ])
    def test_ignored_options_rejected(self, tmp_path, section, key):
        raw = base_raw(tmp_path, env="pendulum", scheme="roer",
                       **{section: {key: 1}})
        with pytest.raises(ConfigError, match=key):
            cmod.from_dict(raw)

    def test_unknown_scheme_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown scheme"):
            cmod.from_dict(base_raw(tmp_path, scheme="rank"))

    def test_scheme_config_keys_validated(self, tmp_path):
        with pytest.raises(ConfigError, match="not valid"):
            cmod.from_dict(base_raw(tmp_path, scheme="per",
                                    scheme_config=dict(beta=1.0)))
        with pytest.raises(ConfigError, match="not valid"):
            cmod.from_dict(base_raw(tmp_path, scheme_config=dict(beta=1.0)))

    def test_per_run_refuses_roer_knobs(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config keys"):
            cmod.from_dict(base_raw(tmp_path, scheme="per",
                                    roer=dict(beta=1.0)))
        with pytest.raises(ConfigError, match="not valid for 'per'"):
            cmod.from_dict(base_raw(tmp_path, scheme="per",
                                    scheme_config=dict(beta=1.0)))

    def test_constraints(self, tmp_path):
        with pytest.raises(ConfigError):
            cmod.from_dict(base_raw(tmp_path, total_steps=50,
                                    train_start_step=100))
        with pytest.raises(ConfigError):
            cmod.from_dict(base_raw(tmp_path, seeds=[]))

    def test_scheme_config_is_the_schemes_dataclass(self, tmp_path):
        cfg = cmod.from_dict(base_raw(
            tmp_path, scheme="roer",
            scheme_config=dict(beta=4.0, grad_clip=5.0),
        ))
        assert cfg.scheme_config == RoerConfig(beta=4.0, grad_clip=5.0)
        for scheme, expect in (("roer_chi2", RoerConfig()), ("per", PerConfig()),
                               ("laber", LaberConfig()), ("uniform", None)):
            cfg = cmod.from_dict(base_raw(tmp_path, scheme=scheme))
            assert cfg.scheme_config == expect
        with pytest.raises(ConfigError, match="RoerConfig"):
            replace(cfg, scheme="roer")

    @pytest.mark.parametrize("key", ["roer.beta", "sac.learning_rate",
                                     "scheme_config.beta", "agent.profile",
                                     "tabular", "sweep.grid", "tabular.eps"])
    def test_sweep_keys_name_config_keys(self, tmp_path, key):
        # uniform has no scheme_config; the echoed agent has no profile
        with pytest.raises(ConfigError, match="names no config key"):
            cmod.from_dict(base_raw(tmp_path, sweep=dict(grid={key: [1]})))

    def test_sweep_values_are_lists(self, tmp_path):
        with pytest.raises(ConfigError, match="non-empty list"):
            cmod.from_dict(base_raw(tmp_path, sweep=dict(
                grid={"tabular.epsilon": 0.1})))
        with pytest.raises(ConfigError, match="one key, grid"):
            cmod.from_dict(base_raw(tmp_path, sweep=dict(
                grids={"tabular.epsilon": [0.1]})))

    def test_echo_writes_the_file_schema(self, tmp_path):
        cfg = cmod.from_dict(base_raw(
            tmp_path, env="pendulum", scheme="roer", agent=dict(profile="full"),
            scheme_config=dict(beta=2.0),
            sweep=dict(grid={"scheme_config.beta": [0.5, 2.0]})))
        data = yaml.safe_load(cmod.echo(cfg))
        assert {"agent", "tabular", "scheme_config", "sweep"} <= set(data)
        assert not {"sac", "roer", "per", "laber", "sweep_grid"} & set(data)
        assert data["agent"]["hidden_dims"] == [256, 256]
        assert data["scheme_config"]["beta"] == 2.0
        assert cmod.from_dict(data) == cfg

    @pytest.mark.parametrize("env_id, parsed", [
        ("pendulum", ("pendulum", ())), ("chain-7", ("chain", (7,))),
        ("grid-3x4", ("grid", (3, 4))), ("random-4x2", ("random", (4, 2, 0))),
        ("random-4x2-9", ("random", (4, 2, 9)))])
    def test_env_ids_parse(self, env_id, parsed):
        assert cmod.parse_env_id(env_id) == parsed

    @pytest.mark.parametrize("env_id", [
        "chain-x", "chain-0", "chain-5-3", "chain--1", "grid-3", "grid-0x4",
        "random-4x0", "random-4x2-", "cartpole", "pendulum-1", "chain-\u0663"])
    def test_bad_env_ids_rejected_when_the_config_loads(self, tmp_path, env_id):
        with pytest.raises(ConfigError, match="unknown environment id"):
            cmod.from_dict(base_raw(tmp_path, env=env_id))

    @pytest.mark.parametrize("env, section, batch", [
        ("chain-5", "tabular", 16), ("pendulum", "agent", 64)])
    def test_laber_large_batch_checked_against_the_agents_batch(
            self, tmp_path, env, section, batch):
        raw = base_raw(tmp_path, env=env, scheme="laber",
                       **{section: dict(batch_size=batch)})
        assert cmod.from_dict({**raw, "scheme_config": dict(large_batch=batch)})
        with pytest.raises(ConfigError, match=f"large_batch {batch - 1} smaller "
                                              f"than minibatch {batch}"):
            cmod.from_dict({**raw, "scheme_config": dict(large_batch=batch - 1)})

    def test_seed_streams_disjoint_and_deterministic(self):
        a = seed_streams(7)
        b = seed_streams(7)
        assert set(a) == {"env", "agent", "buffer", "init", "eval"}
        for k in a:
            assert a[k].random() == b[k].random()
        fresh = seed_streams(7)
        draws = [fresh[k].random() for k in sorted(fresh)]
        assert len(set(draws)) == len(draws)


_floats = dict(allow_nan=False, allow_infinity=False)


@st.composite
def file_configs(draw):
    """Valid file-schema dicts for every scheme, both agent profiles and
    random knob values."""
    scheme = draw(st.sampled_from(sorted(schemes.SCHEME_CONFIGS)))
    knobs = {
        "roer": dict(lam=st.floats(1e-6, 1.0, **_floats),
                     beta=st.floats(1e-3, 1e3, **_floats),
                     grad_clip=st.floats(1e-3, 50.0, **_floats),
                     max_exp_clip=st.floats(1.0, 1e9, **_floats),
                     min_priority_clip=st.floats(0.0, 10.0, **_floats)),
        "per": dict(alpha=st.floats(0.0, 2.0, **_floats),
                    min_priority=st.floats(1e-6, 10.0, **_floats)),
        "laber": dict(large_batch=st.integers(512, 4096)),
    }
    knobs["roer_chi2"] = knobs["roer"]
    # large_batch must be at least the batch_size drawn below, which may
    # exceed its default 256: laber draws it always, from 512 up
    required = knobs.pop("laber") if scheme == "laber" else {}
    raw = dict(
        env=draw(st.sampled_from(["pendulum", "chain-5", "grid-3x4"])),
        scheme=scheme, seeds=draw(st.lists(st.integers(0, 2**31), min_size=1,
                                           max_size=3, unique=True)),
        train_start_step=draw(st.integers(0, 1000)),
        sampling_mode=draw(st.sampled_from(["proportional", "weighted"])),
        env_horizon=draw(st.none() | st.integers(1, 1000)),
        bias_eval_pairs=draw(st.integers(1, 256)),
        output_dir="runs/round-trip",
        agent=dict(
            profile=draw(st.sampled_from(["test", "full"])),
            **draw(st.fixed_dictionaries({}, optional=dict(
                learning_rate=st.floats(1e-6, 1.0, **_floats),
                gamma=st.floats(0.5, 0.999, **_floats),
                hidden_dims=st.lists(st.integers(1, 512), min_size=1, max_size=3),
                target_entropy=st.none() | st.floats(-10.0, 10.0, **_floats),
                huber_k=st.none() | st.floats(1e-3, 10.0, **_floats),
            )))),
        tabular=draw(st.fixed_dictionaries({}, optional=dict(
            epsilon=st.floats(0.0, 1.0, **_floats),
            soft_temperature=st.floats(1e-4, 1.0, **_floats),
            batch_size=st.integers(1, 512)))),
        scheme_config=draw(st.fixed_dictionaries(required,
                                                 optional=knobs.get(scheme, {}))),
        sweep=dict(grid=draw(st.fixed_dictionaries({}, optional={
            "buffer_capacity": st.lists(st.integers(1, 10**6), min_size=1, unique=True),
            "tabular.epsilon": st.lists(st.floats(0.0, 1.0, **_floats),
                                        min_size=1, unique=True)}))),
    )
    raw["total_steps"] = raw["train_start_step"] + draw(st.integers(1, 10**6))
    return raw


class TestEchoRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(raw=file_configs())
    def test_load_of_echo_is_identity(self, raw):
        cfg = cmod.from_dict(raw)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.yaml"
            path.write_text(cmod.echo(cfg))
            assert cmod.load(str(path)) == cfg


class TestMetricsStream:
    def test_fresh_file_nan_as_null_and_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"step": 9}\n{"step": 10, "x":')  # an earlier stream
        w = MetricsWriter(path)
        w.write({"step": 1, "x": 1.5})
        w.write({"step": 2, "x": float("nan")})
        w.close()
        assert path.read_text() == '{"step":1,"x":1.5}\n{"step":2,"x":null}\n'
        with open(path, "a") as fh:
            fh.write('{"step": 3, "x":')  # torn record, no newline
        records = read_metrics(path)
        assert [r["step"] for r in records] == [1, 2]
        assert records[1]["x"] is None  # nan persisted as null


class TestMakeEnv:
    def test_registry(self):
        rng = np.random.default_rng(0)
        assert make_env("pendulum", None, rng).horizon == 200
        assert make_env("chain-7", None, rng).n_states == 7
        assert make_env("grid-3x4", None, rng).n_states == 12
        assert make_env("random-4x2-9", None, rng).n_actions == 2
        with pytest.raises(ConfigError):
            make_env("mujoco", None, rng)


class TestRunTrain:
    def test_uniform_priorities_stay_one(self, tmp_path):
        cfg = cmod.from_dict(base_raw(tmp_path))
        out = run_train(cfg)
        buf = PriorityBuffer.load(out / "seed_0" / "buffer.bin")
        assert np.all(buf.priorities == 1.0)

    def test_roer_changes_priorities(self, tmp_path):
        cfg = cmod.from_dict(base_raw(
            tmp_path, scheme="roer",
            scheme_config=dict(lam=0.05, beta=1.0, min_priority_clip=1e-3),
        ))
        out = run_train(cfg)
        buf = PriorityBuffer.load(out / "seed_0" / "buffer.bin")
        assert np.any(buf.priorities != 1.0)

    def test_roer_chi2_moves_priorities_above_the_floor(self, tmp_path):
        cfg = cmod.from_dict(base_raw(
            tmp_path, scheme="roer_chi2",
            scheme_config=dict(lam=0.05, beta=1.0, min_priority_clip=1e-3),
        ))
        out = run_train(cfg)
        buf = PriorityBuffer.load(out / "seed_0" / "buffer.bin")
        assert np.any(buf.priorities != 1.0)
        assert np.all(buf.priorities >= 1e-3)

    def test_determinism_bytes(self, tmp_path):
        cfg_a = cmod.from_dict(base_raw(tmp_path, output_dir=str(tmp_path / "a")))
        cfg_b = cmod.from_dict(base_raw(tmp_path, output_dir=str(tmp_path / "b")))
        out_a = run_train(cfg_a)
        out_b = run_train(cfg_b)
        for name in ("metrics.jsonl", "checkpoint.bin", "buffer.bin",
                     "summary.json"):
            assert (out_a / "seed_0" / name).read_bytes() == \
                (out_b / "seed_0" / name).read_bytes(), name

    def test_rerun_into_the_same_directory_starts_a_fresh_stream(self, tmp_path):
        cfg = cmod.from_dict(base_raw(tmp_path))
        first = (run_train(cfg) / "seed_0" / "metrics.jsonl").read_bytes()
        assert first
        again = (run_train(cfg) / "seed_0" / "metrics.jsonl").read_bytes()
        assert again == first

    def test_shorter_rerun_leaves_only_its_own_files(self, tmp_path):
        run_train(cmod.from_dict(base_raw(tmp_path, checkpoint_period=100)))
        cfg = cmod.from_dict(base_raw(tmp_path, checkpoint_period=100,
                                      total_steps=200))
        seed_dir = run_train(cfg) / "seed_0"
        snapshots = sorted(p.name for p in seed_dir.glob("*_*.bin"))
        assert snapshots == ["buffer_00000100.bin", "buffer_00000200.bin",
                             "checkpoint_00000100.bin", "checkpoint_00000200.bin"]
        # the final checkpoint duplicates the one at step 200: probed once
        assert [e["step"] for e in estimate_bias(seed_dir, cfg)] == [100, 200]
        # the rerun's directory holds exactly the files a fresh run writes
        fresh = run_train(cmod.from_dict(base_raw(
            tmp_path, checkpoint_period=100, total_steps=200,
            output_dir=str(tmp_path / "fresh")))) / "seed_0"
        assert sorted(p.name for p in seed_dir.iterdir()) == \
            sorted(p.name for p in fresh.iterdir())

    def test_lambda_zero_limit_matches_uniform(self, tmp_path):
        uni = run_train(cmod.from_dict(base_raw(
            tmp_path, output_dir=str(tmp_path / "u"))))
        roer = run_train(cmod.from_dict(base_raw(
            tmp_path, scheme="roer", output_dir=str(tmp_path / "r"),
            scheme_config=dict(lam=1e-12, beta=1.0, min_priority_clip=0.0),
        )))
        ru = [r["eval_return"] for r in read_metrics(uni / "seed_0" / "metrics.jsonl")]
        rr = [r["eval_return"] for r in read_metrics(roer / "seed_0" / "metrics.jsonl")]
        assert ru == rr

    def test_uniform_path_isolated_from_scheme_knobs(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise AssertionError("scheme numerics touched by uniform path")

        monkeypatch.setattr(schemes, "roer_update", boom)
        monkeypatch.setattr(schemes, "per_priority", boom)
        monkeypatch.setattr(schemes, "laber_select", boom)
        monkeypatch.setattr(divergences, "conjugate_prime", boom)
        cfg = cmod.from_dict(base_raw(tmp_path))
        run_train(cfg)  # must not raise

    def test_per_and_laber_schemes_run(self, tmp_path):
        per = cmod.from_dict(base_raw(
            tmp_path, scheme="per", output_dir=str(tmp_path / "per"),
            scheme_config=dict(alpha=0.4, min_priority=1.0),
        ))
        out = run_train(per)
        buf = PriorityBuffer.load(out / "seed_0" / "buffer.bin")
        assert np.all(buf.priorities >= 1.0)
        laber = cmod.from_dict(base_raw(
            tmp_path, scheme="laber", output_dir=str(tmp_path / "laber"),
            scheme_config=dict(large_batch=64),
        ))
        out = run_train(laber)
        buf = PriorityBuffer.load(out / "seed_0" / "buffer.bin")
        assert np.all(buf.priorities == 1.0)  # surrogates never persist

    @pytest.mark.parametrize("workers, seeds, cpus, threaded", [
        (1, [0, 1], 2, True), (2, [0], 2, True), (2, [0, 1], 2, False),
        (2, [0, 1, 2], 4, True), (3, [0, 1, 2], 4, False)])
    def test_seeds_run_at_once_share_the_cpus(self, tmp_path, monkeypatch,
                                              workers, seeds, cpus, threaded):
        # two full-profile seed processes with two threads each on two CPUs
        # ran 1.35x slower than serial pairs
        monkeypatch.setattr(agents, "_usable_cpus", lambda: cpus)
        cfg = cmod.from_dict(base_raw(tmp_path, env="pendulum", scheme="roer",
                                      agent=dict(profile="full"), buffer_capacity=256,
                                      workers=workers, seeds=seeds))
        assert harness._SeedRun(cfg, 0, tmp_path / "seed_0").agent.pair_threads == threaded

    def test_aborted_updates_leave_no_metrics_behind(self, tmp_path, monkeypatch):
        # every fifth actor step diverges after the critic and value steps:
        # the eval records' loss means and clip counts are those of the
        # completed updates alone
        real_update, real_backward = agents.SacAgent.update, agents.SacAgent._actor_backward
        calls, updates = [], []

        def failing_backward(self, *args):
            calls.append(1)
            if len(calls) % 5 == 0:
                raise FloatingPointError("actor backward diverged")
            return real_backward(self, *args)

        def recording_update(self, *args, **kwargs):
            updates.append(real_update(self, *args, **kwargs))
            return updates[-1]

        monkeypatch.setattr(agents.SacAgent, "_actor_backward", failing_backward)
        monkeypatch.setattr(agents.SacAgent, "update", recording_update)
        cfg = cmod.from_dict(base_raw(
            tmp_path, env="pendulum", scheme="roer", total_steps=240,
            train_start_step=64, eval_period=80, eval_episodes=1,
            buffer_capacity=256))
        records = read_metrics(run_train(cfg) / "seed_0" / "metrics.jsonl")
        # records at steps 64 (the first update), 80, 160 and 240
        windows = [updates[:1], updates[1:17], updates[17:97], updates[97:]]
        assert len(updates) == 177 and len(records) == len(windows)
        assert records[-1]["aborted_updates"] == sum(m.aborted for m in updates) == 35
        clip_hits = 0
        for record, window in zip(records, windows):
            done = [m for m in window if not m.aborted]
            clip_hits += sum(m.value_clip_count for m in done)
            assert record["clip_hits"] == clip_hits
            for key in ("critic_loss", "value_loss", "actor_loss", "alpha_loss"):
                values = [getattr(m, key) for m in done]
                assert record.get(key) == (sum(values) / len(values) if values else None)

    @pytest.mark.parametrize("mode", ["weighted", "proportional"])
    def test_loss_weights_of_each_sampling_mode(self, tmp_path, mode):
        cfg = cmod.from_dict(base_raw(tmp_path, scheme="roer", sampling_mode=mode))
        run = harness._SeedRun(cfg, 0, tmp_path / "seed_0")
        for i in range(20):
            run.buffer.push(i % 5, i % 2, 0.0, 0, False)
        run.buffer.update_priorities(np.arange(20), np.arange(1.0, 21.0))
        batch, weights = run._sample_batch()
        assert len(batch) == cfg.tabular.batch_size
        if mode == "weighted":
            assert np.array_equal(weights, batch.priorities)
        else:
            assert np.array_equal(weights, np.ones(len(batch)))

    def test_weighted_mode_scales_the_expected_update_by_the_mean_priority(
            self, tmp_path):
        # exact enumeration over the slot a draw picks: the weighted mode
        # picks slot i with probability 1/N and weights its loss by p_i, the
        # proportional mode with probability p_i / sum(p) at weight 1, so
        # the weighted mode's expected loss and update are sum(p)/N times
        # the proportional mode's
        p = np.array([0.5, 1.0, 2.0, 4.5, 3.0])
        expected = {}
        for mode in ("weighted", "proportional"):
            cfg = cmod.from_dict(base_raw(tmp_path, scheme="roer", sampling_mode=mode))
            run = harness._SeedRun(cfg, 0, tmp_path / mode)
            for i in range(5):
                run.buffer.push(i, i % 2, i - 1.5, (i + 1) % 5, i == 4)
            run.buffer.update_priorities(np.arange(5), p)
            draw = {"weighted": np.full(5, 1 / 5), "proportional": p / p.sum()}[mode]
            loss, update = 0.0, np.zeros_like(run.agent.q_table)
            for i in range(5):
                def slot_i(n, rng, i=i):
                    return run.buffer.gather(np.full(n, i))
                run.buffer.sample_uniform = run.buffer.sample_proportional = slot_i
                batch, weights = run._sample_batch()
                run.agent.q_table[...] = 0.0
                loss += draw[i] * run.agent.update(batch, weights).critic_loss
                update += draw[i] * run.agent.q_table
            expected[mode] = loss, update
        (w_loss, w_update), (p_loss, p_update) = expected.values()
        scale = p.sum() / len(p)
        assert w_loss == pytest.approx(scale * p_loss, rel=1e-12)
        assert np.allclose(w_update, scale * p_update, rtol=1e-12, atol=0.0)
        assert np.any(p_update != 0.0)

    def test_weighted_sampling_mode(self, tmp_path):
        cfg = cmod.from_dict(base_raw(
            tmp_path, scheme="roer", sampling_mode="weighted",
            scheme_config=dict(lam=0.05, beta=1.0, min_priority_clip=1e-3),
        ))
        out = run_train(cfg)
        assert (out / "seed_0" / "summary.json").exists()

    def test_offline_fill(self, tmp_path):
        n = 120
        rng = np.random.default_rng(0)
        path = tmp_path / "offline.npz"
        np.savez(path, states=rng.integers(0, 5, n),
                 actions=rng.integers(0, 2, n),
                 rewards=rng.random(n),
                 next_states=rng.integers(0, 5, n),
                 terminals=np.zeros(n, dtype=bool))
        cfg = cmod.from_dict(base_raw(tmp_path, offline_dataset=str(path),
                                      total_steps=150, train_start_step=10))
        out = run_train(cfg)
        rec = read_metrics(out / "seed_0" / "metrics.jsonl")
        assert rec  # ran to completion with a prefilled buffer

    def test_offline_columns_of_unequal_length_rejected(self, tmp_path):
        # the loader finds the buffer's columns; fill_offline checks their rows
        path = tmp_path / "offline.npz"
        np.savez(path, states=np.zeros(5, dtype=int), actions=np.zeros(5, dtype=int),
                 rewards=np.zeros(5), next_states=np.zeros(6, dtype=int),
                 terminals=np.zeros(5, dtype=bool))
        cfg = cmod.from_dict(base_raw(tmp_path, offline_dataset=str(path)))
        with pytest.raises(InvalidTransitionError,
                           match=r"next_states has shape \(6,\), but rewards has 5 rows"):
            run_train(cfg)
        assert not (tmp_path / "run" / "seed_0" / "metrics.jsonl").exists()
        # a 0-d rewards column has no rows to count
        np.savez(path, states=np.zeros(5, dtype=int), actions=np.zeros(5, dtype=int),
                 rewards=np.float64(0.0), next_states=np.zeros(5, dtype=int),
                 terminals=np.zeros(5, dtype=bool))
        with pytest.raises(InvalidTransitionError, match=r"rewards has shape \(\)"):
            run_train(cfg)

    def test_oracle_solved_at_the_agent_discount(self, tmp_path):
        # grid MDPs discount at 0.95, the default tabular agent at 0.99
        gamma = TabularConfig().gamma
        assert gamma != gridworld_mdp(3, 3).gamma
        raw = base_raw(tmp_path, env="grid-3x3", total_steps=60,
                       train_start_step=10, eval_period=30)
        raw["tabular"] = dict(batch_size=16)
        out = run_train(cmod.from_dict(raw))
        summary = json.loads((out / "seed_0" / "summary.json").read_text())
        q_star, _, _ = value_iteration(replace(gridworld_mdp(3, 3), gamma=gamma))
        assert summary["q_star_sup"] == float(np.max(np.abs(q_star)))

    def test_parallel_workers_match_serial(self, tmp_path):
        serial = cmod.from_dict(base_raw(
            tmp_path, seeds=[0, 1], output_dir=str(tmp_path / "s"), workers=1))
        threaded = cmod.from_dict(base_raw(
            tmp_path, seeds=[0, 1], output_dir=str(tmp_path / "t"), workers=2))
        out_s = run_train(serial)
        out_t = run_train(threaded)
        for seed in (0, 1):
            a = (out_s / f"seed_{seed}" / "metrics.jsonl").read_bytes()
            b = (out_t / f"seed_{seed}" / "metrics.jsonl").read_bytes()
            assert a == b


class TestAgentSite:
    @pytest.mark.parametrize("env, kind", [("chain-5", TabularAgent),
                                           ("pendulum", agents.SacAgent)])
    def test_one_site_builds_updates_and_reloads_either_agent(self, tmp_path, env,
                                                              kind):
        cfg = cmod.from_dict(base_raw(tmp_path, env=env, scheme="roer",
                                      agent=dict(hidden_dims=[8, 8], batch_size=16)))
        assert cfg.agent_config is (cfg.sac if env == "pendulum" else cfg.tabular)
        with pytest.raises(TypeError):  # derived from env, not a field
            replace(cfg, agent_config=cfg.sac)
        run = harness._SeedRun(cfg, 0, tmp_path / "seed_0")
        assert type(run.agent) is kind and run.agent.config is cfg.agent_config
        assert run.agent.dims == harness._dims(run.env)[0]
        obs = run.env.reset()
        for step in range(1, 33):
            action = run._act(obs, step)
            next_obs, reward, terminal, truncated = run.env.step(action)
            run.buffer.push(obs, action, reward, next_obs, terminal, step)
            obs = run.env.reset() if terminal or truncated else next_obs
        batch, weights = run._sample_batch()
        rng = run.streams["agent"]
        state = rng.bit_generator.state
        # the loop's one call, for either kind
        metrics = run.agent.update(batch, weights, rng, run.value_loss_cfg, run.div)
        assert not metrics.aborted and np.isfinite(metrics.value_td_errors).all()
        # the tabular agent draws nothing; SAC draws its actor noise
        assert (rng.bit_generator.state == state) == (kind is TabularAgent)
        run.agent.save(tmp_path / "checkpoint.bin")
        loaded = harness._agent(cfg, run.env, checkpoint=tmp_path / "checkpoint.bin")
        assert type(loaded) is kind and loaded.dims == run.agent.dims
        loaded.save(tmp_path / "again.bin")
        assert ((tmp_path / "again.bin").read_bytes()
                == (tmp_path / "checkpoint.bin").read_bytes())


class TestBias:
    def test_zero_reward_env_bias_is_negative_estimate_mean(self):
        mdp = TabularMdp(
            transitions=np.ones((2, 1, 2)) * 0.5,
            rewards=np.zeros((2, 1)),
            initial=np.array([1.0, 0.0]),
            gamma=0.9,
        )
        env = TabularEnv(mdp, horizon=10**9, rng=np.random.default_rng(0))
        agent = TabularAgent(2, 1, TabularConfig(gamma=0.9))
        agent.q_table[:] = [[3.0], [5.0]]
        states = np.array([0, 1, 0, 1])
        actions = np.zeros(4, dtype=int)
        rec = compute_bias(agent, env, states, actions,
                           np.random.default_rng(1), horizon=50)
        assert rec["bias"] == pytest.approx(-4.0)
        assert rec["true_mean"] == 0.0

    def test_series_length_matches_checkpoints(self, tmp_path):
        cfg = cmod.from_dict(base_raw(
            tmp_path, total_steps=300, checkpoint_period=100,
            bias_eval_pairs=8, bias_eval_horizon=30,
        ))
        out = run_train(cfg)
        series = estimate_bias(out / "seed_0", cfg)
        # checkpoints at 100, 200 and 300; the final one holds step 300 too
        assert [r["step"] for r in series] == [100, 200, 300]

    def test_final_checkpoint_probed_after_the_last_scheduled_one(self, tmp_path):
        cfg = cmod.from_dict(base_raw(
            tmp_path, total_steps=250, checkpoint_period=100,
            bias_eval_pairs=8, bias_eval_horizon=30,
        ))
        series = estimate_bias(run_train(cfg) / "seed_0", cfg)
        assert [r["step"] for r in series] == [100, 200, 250]

    def test_tabular_optimal_q_has_small_bias(self):
        from roer.envs import chain_mdp

        mdp = chain_mdp(4, gamma=0.9)
        env = TabularEnv(mdp, horizon=10**9, rng=np.random.default_rng(2))
        q_star, _, _ = value_iteration(mdp, tol=1e-12)
        agent = TabularAgent(4, 2, TabularConfig(gamma=0.9))
        agent.q_table[:] = q_star
        states = np.array([0, 1, 2, 3] * 8)
        actions = np.array([0, 1] * 16)
        rec = compute_bias(agent, env, states, actions,
                           np.random.default_rng(3), horizon=400)
        assert abs(rec["bias"]) <= 1e-5 + rec["tail_bound"]

    def test_tabular_true_values_are_the_greedy_policy_q(self):
        # an env at gamma 0.9 and an agent that discounts by 0.8: the true
        # values are its greedy policy's, at its own gamma, and draw nothing
        mdp = random_mdp(4, 2, gamma=0.9, seed=3)
        agent = TabularAgent(4, 2, TabularConfig(gamma=0.8))
        agent.q_table[:] = np.random.default_rng(5).normal(size=(4, 2))
        states, actions = np.repeat(np.arange(4), 2), np.tile(np.arange(2), 4)
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        rec = compute_bias(agent, TabularEnv(mdp), states, actions, rng, horizon=1)
        q = policy_q(replace(mdp, gamma=0.8), greedy_policy(agent.q_table))
        assert rec["true_mean"] == pytest.approx(q.mean(), abs=1e-12)
        assert rec["bias"] == pytest.approx(np.mean(q - agent.q_table), abs=1e-12)
        assert rec["tail_bound"] == 0.0
        assert rng.bit_generator.state == state

    def test_pendulum_pairs_run(self):
        env = PendulumEnv(rng=np.random.default_rng(3))
        obs = np.stack([env.reset() for _ in range(4)])
        agent = agents.SacAgent(3, 1, agents.SacConfig(hidden_dims=(8, 8)), seed=0)
        rec = compute_bias(agent, env, obs, np.zeros((4, 1)),
                           np.random.default_rng(4), horizon=300)
        assert rec["n_pairs"] == 4
        assert rec["true_mean"] <= 0.0  # every step costs
        assert rec["tail_bound"] == 0.99**300 * PendulumEnv.COST_BOUND / (1.0 - 0.99)
        assert rec["tail_bound"] < 100.0


class TestOracleSuite:
    def test_fresh_checkout_passes(self):
        report, ok = run_oracle_suite()
        assert ok
        names = {r["check"] for r in report}
        assert {"conjugate_inverse_identity", "fenchel_young",
                "value_fixed_point", "telescoping_identity", "dual_recovery_tv",
                "sum_tree_proportionality", "policy_q_matches_q_star"} <= names
        assert [r["kind"] for r in report if r["check"] == "value_fixed_point"] \
            == ["kl", "pearson_chi2"]
        for r in report:
            assert "tolerance" in r and "measured" in r

    def test_corrupted_conjugate_named_in_report(self, tmp_path):
        path = tmp_path / "report.json"
        report, ok = run_oracle_suite(corrupt_kind="kl", report_path=path)
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
        report, ok = run_oracle_suite()
        failed = [(r["check"], r.get("kind")) for r in report if not r["passed"]]
        assert failed == [("value_fixed_point", "pearson_chi2")]
        assert [r["measured"] for r in report if r["check"] == "value_fixed_point"
                and r["kind"] == "pearson_chi2"] == [pytest.approx(1.0)]


class TestSweep:
    def test_single_cell_equals_run_train(self, tmp_path):
        raw = base_raw(tmp_path, output_dir=str(tmp_path / "sweep"),
                       sweep=dict(grid={"tabular.learning_rate": [0.3]}))
        cfg = cmod.from_dict(raw)
        out = run_sweep(cfg)
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert len(summary["cells"]) == 1
        cell = summary["cells"][0]
        assert not cell["failed"]
        plain = run_train(cmod.from_dict(base_raw(
            tmp_path, output_dir=str(tmp_path / "plain"))))
        plain_summary = json.loads((plain / "summary.json").read_text())
        assert cell["mean_final_return"] == plain_summary["mean_final_return"]

    def test_identical_invocations_identical_bytes(self, tmp_path):
        def go(name):
            raw = base_raw(tmp_path, output_dir=str(tmp_path / name),
                           sweep=dict(grid={"tabular.epsilon": [0.1, 0.3]}))
            out = run_sweep(cmod.from_dict(raw))
            return (out / "sweep_summary.json").read_bytes()

        assert go("s1") == go("s2")

    def test_loss_temperature_grid_emits_all_cells(self, tmp_path):
        raw = base_raw(
            tmp_path, scheme="roer", output_dir=str(tmp_path / "beta-sweep"),
            scheme_config=dict(lam=0.01, beta=1.0, min_priority_clip=1e-3),
            sweep=dict(grid={"scheme_config.beta": [0.4, 1.0, 4.0]}),
        )
        out = run_sweep(cmod.from_dict(raw))
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert [c["cell"] for c in summary["cells"]] == [
            "scheme_config.beta=0.4", "scheme_config.beta=1.0",
            "scheme_config.beta=4.0"]
        assert all(not c["failed"] for c in summary["cells"])
        tsv = (out / "sweep_summary.tsv").read_text().splitlines()
        assert len(tsv) == 4  # header + three cells

    def test_failed_cell_recorded_and_sweep_continues(self, tmp_path):
        raw = base_raw(tmp_path, output_dir=str(tmp_path / "sweep"),
                       sweep=dict(grid={"tabular.learning_rate": [-1.0, 0.3]}))
        # negative lr doesn't fail validation but a bogus env id would; use
        # an override that raises inside the run instead
        raw["sweep"]["grid"] = {"buffer_capacity": [0, 300]}
        cfg = cmod.from_dict(raw)
        out = run_sweep(cfg)
        cells = json.loads((out / "sweep_summary.json").read_text())["cells"]
        assert [c["failed"] for c in cells] == [True, False]

    def test_each_cell_trains_its_value_net_at_its_own_beta(self, tmp_path,
                                                           monkeypatch):
        # the value loss reads the cell's scheme_config and the scheme's
        # divergence, and every cell writes below the directory that
        # `roer sweep --output-dir` names
        seen = []
        real = losses.extreme_v_loss

        def recording(residuals, beta, grad_clip, div):
            seen.append((div.name, beta, grad_clip))
            return real(residuals, beta, grad_clip, div)

        monkeypatch.setattr(losses, "extreme_v_loss", recording)
        raw = dict(env="pendulum", scheme="roer", seeds=[0], total_steps=260,
                   train_start_step=200, eval_period=130, eval_episodes=1,
                   env_horizon=50, agent=dict(profile="test", hidden_dims=[16, 16]),
                   scheme_config=dict(beta=1.0, grad_clip=5.0),
                   output_dir=str(tmp_path / "in-file"),
                   sweep=dict(grid={"scheme_config.beta": [0.5, 2.0]}))
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "flag-out"
        assert main(["sweep", "-c", str(path), "--output-dir", str(out)]) == 0
        assert not (tmp_path / "in-file").exists()
        cells = json.loads((out / "sweep_summary.json").read_text())["cells"]
        assert not any(c["failed"] for c in cells)
        updates = 61  # steps 200..260
        assert seen == ([("kl", 0.5, 5.0)] * updates
                        + [("kl", 2.0, 5.0)] * updates)
        metrics = [(out / f"scheme_config.beta={b}" / "seed_0" / "metrics.jsonl")
                   .read_bytes() for b in (0.5, 2.0)]
        assert metrics[0] != metrics[1]

        seen.clear()
        raw.update(scheme="roer_chi2", sweep=dict(grid={"scheme_config.beta": [3.0]}))
        run_sweep(cmod.from_dict(raw))
        assert seen == [("pearson_chi2", 3.0, 5.0)] * updates
