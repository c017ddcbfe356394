import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from roer import config as cmod
from roer import divergences, harness, schemes
from roer.agents import TabularAgent, TabularConfig
from roer.config import seed_streams
from roer.envs import TabularEnv, TabularMdp, gridworld_mdp
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
from roer.oracles import value_iteration
from roer.replay import PriorityBuffer
from roer.schemes import ConfigError


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

    @pytest.mark.parametrize("key", ["bogus", "priority_refresh",
                                     "full_refresh_period",
                                     "refresh_offline_priorities"])
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

    def test_constraints(self, tmp_path):
        with pytest.raises(ConfigError):
            cmod.from_dict(base_raw(tmp_path, total_steps=50,
                                    train_start_step=100))
        with pytest.raises(ConfigError):
            cmod.from_dict(base_raw(tmp_path, seeds=[]))

    def test_roer_knobs_copied_into_value_loss(self, tmp_path):
        cfg = cmod.from_dict(base_raw(
            tmp_path, scheme="roer",
            scheme_config=dict(beta=4.0, grad_clip=5.0),
        ))
        assert cfg.sac.value_beta == 4.0
        assert cfg.sac.value_grad_clip == 5.0
        chi = cmod.from_dict(base_raw(tmp_path, scheme="roer_chi2"))
        assert chi.sac.value_loss_kind == "pearson"

    def test_env_var_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROER_OUTPUT_DIR", str(tmp_path / "elsewhere"))
        monkeypatch.setenv("ROER_WORKERS", "3")
        cfg = cmod.from_dict(base_raw(tmp_path))
        assert cfg.output_dir == str(tmp_path / "elsewhere")
        assert cfg.workers == 3

    def test_seed_streams_disjoint_and_deterministic(self):
        a = seed_streams(7)
        b = seed_streams(7)
        assert set(a) == {"env", "agent", "buffer", "init", "eval"}
        for k in a:
            assert a[k].random() == b[k].random()
        fresh = seed_streams(7)
        draws = [fresh[k].random() for k in sorted(fresh)]
        assert len(set(draws)) == len(draws)


class TestMetricsStream:
    def test_append_only_and_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        w = MetricsWriter(path)
        w.write({"step": 1, "x": 1.5})
        w.write({"step": 2, "x": float("nan")})
        w.close()
        with open(path, "a") as fh:
            fh.write('{"step": 3, "x":')  # torn record, no newline
        assert [r["step"] for r in read_metrics(path)] == [1, 2]
        assert read_metrics(path)[1]["x"] is None  # nan persisted as null
        w2 = MetricsWriter(path)
        w2.write({"step": 3, "x": 0.0})
        w2.close()
        assert [r["step"] for r in read_metrics(path)] == [1, 2, 3]


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
        path = tmp_path / "offline.npz"
        np.savez(path, states=np.zeros(5, dtype=int), actions=np.zeros(5, dtype=int),
                 rewards=np.zeros(5), next_states=np.zeros(6, dtype=int),
                 terminals=np.zeros(5, dtype=bool))
        with pytest.raises(ConfigError, match="next_states"):
            harness.load_offline_dataset(path)

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
                           np.random.default_rng(1), horizon=50, discrete=True)
        assert rec["bias"] == pytest.approx(-4.0)
        assert rec["true_mean"] == 0.0

    def test_series_length_matches_checkpoints(self, tmp_path):
        cfg = cmod.from_dict(base_raw(
            tmp_path, total_steps=300, checkpoint_period=100,
            bias_eval_pairs=8, bias_eval_horizon=30,
        ))
        out = run_train(cfg)
        series = estimate_bias(out / "seed_0", cfg)
        # checkpoints at 100, 200, 300 plus the final one
        assert [r["step"] for r in series] == [100, 200, 300, 300]

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
                           np.random.default_rng(3), horizon=400, discrete=True)
        assert abs(rec["bias"]) <= 1e-5 + rec["tail_bound"]


class TestOracleSuite:
    def test_fresh_checkout_passes(self):
        report, ok = run_oracle_suite()
        assert ok
        names = {r["check"] for r in report}
        assert {"conjugate_inverse_identity", "fenchel_young",
                "telescoping_identity", "dual_recovery_tv",
                "sum_tree_proportionality"} <= names
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
            sweep=dict(grid={"roer.beta": [0.4, 1.0, 4.0]}),
        )
        out = run_sweep(cmod.from_dict(raw))
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert [c["cell"] for c in summary["cells"]] == [
            "roer.beta=0.4", "roer.beta=1.0", "roer.beta=4.0"]
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
