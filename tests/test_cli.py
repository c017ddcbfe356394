import gc
import json
import os
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import roer
from roer import agents, binio, config as cmod, envs, nn, oracles
from roer.agents import SacAgent, SacConfig
from roer.binio import FormatError
from roer.cli import main
from roer.divergences import SPECS
from roer.replay import PriorityBuffer


nan, inf = float("nan"), float("inf")


def write_config(tmp_path, **overrides):
    raw = dict(
        env="chain-4", scheme="uniform", seeds=[0], total_steps=200,
        train_start_step=50, eval_period=100, eval_episodes=1,
        buffer_capacity=200, env_horizon=40,
        tabular=dict(batch_size=8),
        output_dir=str(tmp_path / "run"),
    )
    raw.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def diverging_config(tmp_path):
    """A chain-5 run whose Q table overflows at lr 0.3; LaBER's surrogates
    are the first values to turn non-finite."""
    return write_config(tmp_path, env="chain-5", scheme="laber", total_steps=3000,
                        buffer_capacity=2000, env_horizon=100,
                        scheme_config=dict(large_batch=256),
                        tabular=dict(learning_rate=0.3))


class TestTrainCommand:
    def test_train_succeeds(self, tmp_path, capsys):
        code = main(["train", "-c", str(write_config(tmp_path))])
        assert code == 0
        assert (tmp_path / "run" / "seed_0" / "metrics.jsonl").exists()
        assert "run complete" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, scheme="bogus")
        assert main(["train", "-c", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "-c", str(tmp_path / "nope.yaml")]) == 2

    @pytest.mark.parametrize("overrides, message", [
        (dict(eval_episodes=0), "eval_episodes must be >= 1"),
        (dict(tabular=dict(gamma=1.5)), "gamma must be in (0, 1), got 1.5"),
        (dict(tabular=dict(batch_size=0)), "batch_size must be >= 1, got 0"),
        (dict(env="chain-x"), "unknown environment id 'chain-x'"),
        (dict(env="cartpole"), "unknown environment id 'cartpole'"),
        (dict(scheme="laber", scheme_config=dict(large_batch=16),
              tabular=dict(batch_size=64)), "large_batch 16 smaller than minibatch 64"),
        (dict(buffer_capacity=4), "buffer_capacity 4 smaller than minibatch 8"),
        (dict(scheme="roer", buffer_capacity=8, tabular=dict(batch_size=16)),
         "buffer_capacity 8 smaller than minibatch 16"),
        (dict(env="pendulum", buffer_capacity=63), "buffer_capacity 63 smaller than minibatch 64"),
        (dict(workers=0), "workers must be >= 1, got 0"),
        (dict(workers=-3), "workers must be >= 1, got -3"),
        (dict(env_horizon=0), "env_horizon must be >= 1 or null, got 0"),
        (dict(env_horizon=-5), "env_horizon must be >= 1 or null, got -5"),
        # non-finite and out-of-range knobs, NaN included
        (dict(env="pendulum", agent=dict(init_temperature=-1)),
         "init_temperature must be positive and finite, got -1"),
        (dict(env="pendulum", agent=dict(init_temperature=0.0)),
         "init_temperature must be positive and finite, got 0.0"),
        (dict(env="pendulum", agent=dict(init_temperature=nan)),
         "init_temperature must be positive and finite, got nan"),
        (dict(env="pendulum", agent=dict(learning_rate=inf)),
         "learning_rate must be positive and finite, got inf"),
        (dict(env="pendulum", agent=dict(penalty_coef=nan)),
         "penalty_coef must be >= 0 and finite, got nan"),
        (dict(env="pendulum", agent=dict(target_entropy=nan)),
         "target_entropy must be None or finite, got nan"),
        (dict(tabular=dict(learning_rate=nan)),
         "learning_rate must be positive and finite, got nan"),
        (dict(tabular=dict(soft_temperature=inf)),
         "soft_temperature must be positive and finite, got inf"),
        (dict(scheme="roer", scheme_config=dict(grad_clip=nan)),
         "grad_clip must be positive and finite, got nan"),
        (dict(scheme="roer", scheme_config=dict(grad_clip=inf)),
         "grad_clip must be positive and finite, got inf"),
        (dict(scheme="roer_chi2", scheme_config=dict(min_priority_clip=nan)),
         "min_priority_clip must be >= 0 and finite, got nan"),
        (dict(scheme="per", scheme_config=dict(alpha=nan)),
         "alpha must be >= 0 and finite, got nan"),
        (dict(scheme="per", scheme_config=dict(min_priority=inf)),
         "min_priority must be positive and finite, got inf"),
        # counts are ints: not floats, integral or not, and not bools
        (dict(tabular=dict(batch_size=8.5)), "batch_size must be an integer, got 8.5"),
        (dict(tabular=dict(batch_size=8.0)), "batch_size must be an integer, got 8.0"),
        (dict(env="pendulum", agent=dict(batch_size=64.0)),
         "batch_size must be an integer, got 64.0"),
        (dict(total_steps=200.5), "total_steps must be an integer, got 200.5"),
        (dict(train_start_step=50.0), "train_start_step must be an integer, got 50.0"),
        (dict(eval_period=100.5), "eval_period must be an integer, got 100.5"),
        (dict(eval_episodes=True), "eval_episodes must be an integer, got True"),
        (dict(buffer_capacity=200.0), "buffer_capacity must be an integer, got 200.0"),
        (dict(checkpoint_period=50.5), "checkpoint_period must be an integer, got 50.5"),
        (dict(bias_eval_pairs=4.5), "bias_eval_pairs must be an integer, got 4.5"),
        (dict(bias_eval_horizon=20.5), "bias_eval_horizon must be an integer, got 20.5"),
        (dict(workers=True), "workers must be an integer, got True"),
        (dict(env_horizon=40.5), "env_horizon must be an integer or null, got 40.5"),
        (dict(env="pendulum", agent=dict(hidden_dims=[64.5, 64])),
         "hidden_dims must be integers, got (64.5, 64)"),
        (dict(scheme="laber", scheme_config=dict(large_batch=16.5)),
         "large_batch must be an integer, got 16.5"),
        # seeds are not truncated to an int
        (dict(seeds=[0.5]), "seeds must be integers >= 0, got (0.5,)"),
        (dict(seeds=[0, 1.0]), "seeds must be integers >= 0, got (0, 1.0)"),
        (dict(seeds=[-1]), "seeds must be integers >= 0, got (-1,)"),
        # a negative period is not a period; a bias probe of no pairs
        # reports NaN, and one of zero-step rollouts measures nothing
        (dict(checkpoint_period=-200), "checkpoint_period must be >= 0, got -200"),
        (dict(bias_eval_pairs=0), "bias_eval_pairs must be >= 1, got 0"),
        (dict(bias_eval_horizon=0), "bias_eval_horizon must be >= 1, got 0"),
        # two runs into one directory: a seed twice, or two grid values
        # that name one sweep cell
        (dict(seeds=[0, 0], workers=2), "seeds must be distinct, got (0, 0)"),
        (dict(scheme="roer", sweep=dict(grid={"scheme_config.beta": [1.0, 1.0]})),
         "sweep.grid['scheme_config.beta'] gives two cells one name: [1.0, 1.0]"),
        (dict(sweep=dict(grid={"offline_dataset": ["a/b", "a_b"]})),
         "sweep.grid['offline_dataset'] gives two cells one name"),
        # a removed key, which every config.yaml of an earlier version holds
        (dict(sampling_mode="proportional"), "unknown config keys: ['sampling_mode']"),
        # the removed mean-square mode, and its limit
        (dict(env="pendulum", agent=dict(huber_k=None)),
         "huber_k must be a real number, got None"),
        (dict(env="pendulum", agent=dict(huber_k=float("inf"))),
         "huber_k must be positive and finite, got inf"),
        # a knob of another type fails its type rule before a range rule
        # compares it
        (dict(env="pendulum", agent=dict(learning_rate=None)),
         "learning_rate must be a real number, got None"),
        (dict(scheme="roer", scheme_config=dict(beta=None)),
         "beta must be a real number, got None"),
        (dict(tabular=dict(epsilon=None)), "epsilon must be a real number, got None"),
        (dict(total_steps="300"), "total_steps must be an integer, got '300'"),
        # a section that is no mapping, and a list that is no list, are named
        # before any conversion
        (dict(seeds=5), "seeds must be a list, got 5"),
        (dict(seeds="01"), "seeds must be a list, got '01'"),
        (dict(agent=5), "agent must be a mapping, got 5"),
        (dict(agent=[1]), "agent must be a mapping, got [1]"),
        (dict(env="pendulum", agent=dict(hidden_dims=None)),
         "hidden_dims must be a list, got None"),
        (dict(env="pendulum", agent=dict(hidden_dims=64)), "hidden_dims must be a list, got 64"),
        (dict(env="pendulum", agent=dict(profile=[1])), "unknown agent profile [1]"),
        (dict(scheme_config=5), "scheme_config must be a mapping, got 5"),
        (dict(tabular=[1]), "tabular must be a mapping, got [1]"),
        (dict(sweep=5), "sweep must be a mapping, got 5"),
        (dict(scheme=[1]), "unknown scheme [1]"),
        (dict(output_dir=5), "output_dir must be a string, got 5"),
        (dict(offline_dataset=5), "offline_dataset must be a string or null, got 5"),
    ])
    def test_bad_value_exits_before_the_run(self, tmp_path, capsys,
                                            overrides, message):
        path = write_config(tmp_path, **overrides)
        assert main(["train", "-c", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_output_dir_and_workers_flags(self, tmp_path):
        # the flags replace the file's output_dir and workers
        path = write_config(tmp_path, seeds=[0, 1], workers=1)
        out = tmp_path / "flag-out"
        assert main(["train", "-c", str(path), "--output-dir", str(out),
                     "--workers", "2"]) == 0
        assert not (tmp_path / "run").exists()
        written = yaml.safe_load((out / "config.yaml").read_text())
        assert (written["output_dir"], written["workers"]) == (str(out), 2)
        assert (out / "seed_1" / "metrics.jsonl").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--workers", "0"], "workers must be >= 1, got 0"),
        (["--workers", "-2"], "workers must be >= 1, got -2"),
        (["--output-dir", ""], "--output-dir is empty")])
    def test_every_given_flag_is_checked(self, tmp_path, capsys, flags, message):
        # a falsy flag is passed on too, not dropped for the file's value
        path = write_config(tmp_path, workers=1)
        assert main(["train", "-c", str(path), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_diverging_tabular_run_is_a_run_error(self, tmp_path, capsys):
        per = tmp_path / "per"
        per.mkdir()
        # a PER run whose priorities |delta|^400 overflow: its own values
        per_path = write_config(per, env="chain-5", scheme="per", total_steps=3000,
                                buffer_capacity=2000, env_horizon=100,
                                scheme_config=dict(alpha=400.0),
                                tabular=dict(learning_rate=0.3, batch_size=16))
        cases = [(diverging_config(tmp_path),
                  "surrogate_priorities contains non-finite values"),
                 (per_path, "priorities must be positive and finite")]
        for path, message in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                assert main(["train", "-c", str(path)]) == 1
            err = capsys.readouterr().err
            assert f"run error: {message}" in err
            assert "Traceback" not in err
            assert not list((path.parent / "run").rglob("summary.json"))

    def test_run_error_closes_the_metrics_file(self, tmp_path, capsys):
        # its metrics.jsonl is closed on the error exit, not left to the collector
        path = diverging_config(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with np.errstate(over="ignore", invalid="ignore"):
                assert main(["train", "-c", str(path)]) == 1
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert (tmp_path / "run" / "seed_0" / "metrics.jsonl").exists()

    def test_resolved_form_sections_exit_code(self, tmp_path, capsys):
        # the sections an older config.yaml held in place of agent/scheme_config
        path = write_config(tmp_path, scheme="roer", roer=dict(beta=2.0))
        assert main(["train", "-c", str(path)]) == 2
        assert "unknown config keys: ['roer']" in capsys.readouterr().err

    def test_written_config_reproduces_the_run(self, tmp_path):
        cfg_path = write_config(
            tmp_path, scheme="roer", checkpoint_period=100,
            bias_eval_pairs=4, bias_eval_horizon=20,
            scheme_config=dict(lam=0.05, beta=2.0, min_priority_clip=1e-3))
        assert main(["train", "-c", str(cfg_path)]) == 0
        run, again = tmp_path / "run", tmp_path / "again"
        assert main(["train", "-c", str(run / "config.yaml"),
                     "--output-dir", str(again)]) == 0
        for name in ("seed_0/metrics.jsonl", "seed_0/summary.json",
                     "summary.json"):
            assert (run / name).read_bytes() == (again / name).read_bytes(), name
        assert main(["bias", str(run / "seed_0"),
                     "-c", str(run / "config.yaml")]) == 0

    def test_bad_offline_rows_exit_code(self, tmp_path, capsys):
        n = 10
        rewards = np.zeros(n)
        rewards[-1] = np.nan
        data = tmp_path / "data.npz"
        np.savez(data, states=np.zeros(n, dtype=np.int64),
                 actions=np.zeros(n, dtype=np.int64), rewards=rewards,
                 next_states=np.ones(n, dtype=np.int64),
                 terminals=np.zeros(n, dtype=bool))
        path = write_config(tmp_path, offline_dataset=str(data))
        assert main(["train", "-c", str(path)]) == 2
        assert "rewards contains non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "run" / "seed_0" / "metrics.jsonl").exists()

    def test_complex_offline_rewards_exit_code(self, tmp_path, capsys):
        # refused, where a cast to float64 would drop the imaginary part
        n = 10
        data = tmp_path / "data.npz"
        np.savez(data, states=np.zeros(n, dtype=np.int64),
                 actions=np.zeros(n, dtype=np.int64), rewards=np.full(n, 1 + 5j),
                 next_states=np.ones(n, dtype=np.int64),
                 terminals=np.zeros(n, dtype=bool))
        path = write_config(tmp_path, offline_dataset=str(data))
        assert main(["train", "-c", str(path)]) == 2
        assert capsys.readouterr().err == (
            "input error: rewards must hold real numbers, got dtype complex128\n")
        assert not (tmp_path / "run" / "seed_0" / "metrics.jsonl").exists()

    @pytest.mark.parametrize("defect", ["text", "directory", "truncated", "npy",
                                        "objects", "crc"])
    def test_unreadable_offline_dataset_exit_code(self, tmp_path, capsys, defect):
        n = 10
        columns = dict(states=np.zeros(n, dtype=np.int64),
                       actions=np.zeros(n, dtype=np.int64), rewards=np.zeros(n),
                       next_states=np.ones(n, dtype=np.int64),
                       terminals=np.zeros(n, dtype=bool))
        data = tmp_path / "data.npz"
        if defect == "text":
            data.write_text("states,actions,rewards\n0,0,0.0\n")
        elif defect == "directory":
            data.mkdir()
        elif defect == "truncated":
            np.savez(data, **columns)
            data.write_bytes(data.read_bytes()[:200])
        elif defect == "npy":
            data = tmp_path / "data.npy"
            np.save(data, columns["rewards"])
        elif defect == "crc":
            # one byte of the first member's array data, past its .npy header
            np.savez(data, **columns)
            raw = bytearray(data.read_bytes())
            raw[raw.index(b"\n", raw.index(b"\x93NUMPY")) + 1] ^= 1
            data.write_bytes(bytes(raw))
        else:
            np.savez(data, **dict(columns, rewards=columns["rewards"].astype(object)))
        path = write_config(tmp_path, offline_dataset=str(data))
        assert main(["train", "-c", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: offline dataset {str(data)!r} is not "
                              "a readable .npz: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "run" / "seed_0" / "metrics.jsonl").exists()

    @pytest.mark.parametrize("field, bound", [("states", 64), ("actions", 4),
                                              ("next_states", 64)])
    @pytest.mark.parametrize("excess", [0, 2**40])
    def test_offline_index_beyond_the_env_exit_code(self, tmp_path, capsys,
                                                     field, bound, excess):
        # grid-8x8 has 64 states and 4 actions, the counts of the run's buffer
        n = 10
        columns = dict(states=np.arange(n) % 64, actions=np.arange(n) % 4,
                       rewards=np.zeros(n), next_states=np.arange(n) % 64,
                       terminals=np.zeros(n, dtype=bool))
        columns[field][3] = bound + excess
        data = tmp_path / "data.npz"
        np.savez(data, **columns)
        path = write_config(tmp_path, env="grid-8x8", offline_dataset=str(data))
        assert main(["train", "-c", str(path)]) == 2
        err = capsys.readouterr().err
        kind = field.removeprefix("next_")
        assert (f"{field} holds index {bound + excess}, but the buffer has {bound} {kind}"
                in err)
        assert not (tmp_path / "run" / "seed_0" / "metrics.jsonl").exists()

    def test_offline_dataset_at_the_env_bounds_runs(self, tmp_path):
        n = 10
        data = tmp_path / "data.npz"
        np.savez(data, states=np.full(n, 63), actions=np.full(n, 3),
                 rewards=np.zeros(n), next_states=np.full(n, 63),
                 terminals=np.zeros(n, dtype=bool))
        path = write_config(tmp_path, env="grid-8x8", offline_dataset=str(data))
        assert main(["train", "-c", str(path)]) == 0


class TestOracleCommand:
    def test_pass_exit_zero(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["oracle", "--report", str(report)]) == 0
        assert json.loads(report.read_text())["passed"] is True
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "tolerance" in out

    def test_corrupt_exit_one(self, tmp_path, capsys):
        assert main(["oracle", "--corrupt", "kl"]) == 1
        assert "FAIL" in capsys.readouterr().out

    # f*' + 1e-6 fails every name's identity row. Under kl the dual
    # minimizer also stalls on uniform data (residual 3.7e-7); on d* data it
    # converges, and the unit ratio's deviation (7.7e-9) passes its 0.05.
    # The value fixed point passes: its loss and its ratio read the same f*'.
    @pytest.mark.parametrize("kind", list(SPECS))
    def test_corrupt_names_the_kind(self, kind, capsys):
        assert main(["oracle", "--corrupt", kind]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        assert [line.split(":")[0] for line in failed] == (
            [f"FAIL  conjugate_inverse_identity [{kind}]"]
            + (["FAIL  dual_recovery_tv"] if kind == "kl" else []))

    def test_stalled_minimizer_is_a_fail_row(self, tmp_path, monkeypatch, capsys):
        def stalled(*args, **kwargs):
            raise oracles.ConvergenceError("dual minimization did not converge", 1.0)

        monkeypatch.setattr(oracles, "dual_minimize", stalled)
        report = tmp_path / "r.json"
        assert main(["oracle", "--report", str(report)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("FAIL")] == [
            f"FAIL  {check}: measured inf (tolerance 5.000e-02), "
            "dual minimization did not converge (residual 1.000e+00)"
            for check in ("dual_recovery_tv", "dual_matched_unit_ratio")]
        assert out[-1] == "oracle suite: CHECKS FAILED"

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        saved = json.loads(report.read_text(), parse_constant=refuse)
        assert saved["passed"] is False
        assert len(saved["checks"]) == 18  # the rows after them still ran
        stalled_rows = [r for r in saved["checks"] if not r["passed"]]
        assert [(r["check"], r["measured"]) for r in stalled_rows] == [
            ("dual_recovery_tv", None), ("dual_matched_unit_ratio", None)]

    @pytest.mark.parametrize("name", ["klx", "KL", ""])
    def test_corrupt_unknown_name_exit_code(self, name, capsys):
        # a mistyped negative control would corrupt nothing and pass
        assert main(["oracle", "--corrupt", name]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "config error: --corrupt must be one of kl, reverse_kl, pearson_chi2, "
            f"neyman_chi2, squared_hellinger, got {name!r}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_report_exit_code(self, tmp_path, capsys, where):
        report = tmp_path if where == "directory" else tmp_path / "nope" / "r.json"
        assert main(["oracle", "--report", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: --report {report} cannot be written")
        assert captured.err.count("\n") == 1
        assert captured.out == ""  # refused before the suite ran


class TestBiasCommand:
    def test_bias_series(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, bias_eval_pairs=8,
                                bias_eval_horizon=30)
        assert main(["train", "-c", str(cfg_path)]) == 0
        out_file = tmp_path / "bias.json"
        code = main(["bias", str(tmp_path / "run" / "seed_0"),
                     "-c", str(cfg_path), "--out", str(out_file)])
        assert code == 0
        series = json.loads(out_file.read_text())
        assert len(series) == 1  # final checkpoint only
        assert "bias" in series[0]

    def test_config_yaml_of_an_earlier_run_exit_code(self, tmp_path, capsys):
        # every config.yaml written before the key was removed echoes
        # sampling_mode: proportional
        assert main(["train", "-c", str(write_config(tmp_path))]) == 0
        written = tmp_path / "run" / "config.yaml"
        written.write_text(written.read_text() + "sampling_mode: proportional\n")
        capsys.readouterr()
        assert main(["bias", str(tmp_path / "run" / "seed_0"), "-c", str(written)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: unknown config keys: ['sampling_mode']\n"
        assert captured.out == ""

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["bias", str(tmp_path), "-c", str(cfg_path), "--seed", "-1"]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["train", "-c", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["bias", str(tmp_path / "run" / "seed_0"), "-c", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: --out {tmp_path} cannot be written")
        assert captured.err.count("\n") == 1
        assert captured.out == ""  # refused before the series was computed

    def test_failed_bias_leaves_no_out_file(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "bias.json"
        assert main(["bias", str(tmp_path), "-c", str(cfg_path), "--out", str(out)]) == 2
        assert "holds no (checkpoint, buffer) pair" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("total_steps, removed, named, step", [
        # a scheduled checkpoint without its buffer; the final pair duplicates
        # the one at step 400
        (400, ["buffer_00000200.bin", "checkpoint.bin"], "buffer_00000200.bin", 200),
        # the final pair, with no scheduled one at the last step
        (250, ["buffer.bin"], "buffer.bin", 250),
        (250, ["checkpoint.bin"], "checkpoint.bin", 250),
    ])
    def test_half_pair_exit_code(self, tmp_path, capsys, total_steps, removed, named,
                                 step):
        cfg_path = write_config(tmp_path, total_steps=total_steps, checkpoint_period=100,
                                bias_eval_pairs=4, bias_eval_horizon=10)
        assert main(["train", "-c", str(cfg_path)]) == 0
        seed_dir = tmp_path / "run" / "seed_0"
        for name in removed:
            (seed_dir / name).unlink()
        capsys.readouterr()
        assert main(["bias", str(seed_dir), "-c", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"input error: {seed_dir / named} is missing: "
                                f"the step-{step} pair is half\n")
        assert captured.out == ""

    def test_cut_run_exit_code(self, tmp_path, capsys):
        # a run cut before its last step leaves no final pair: the series
        # must not stop at the last scheduled pair as if it were whole
        cfg_path = write_config(tmp_path, total_steps=250, checkpoint_period=100,
                                bias_eval_pairs=4, bias_eval_horizon=10)
        assert main(["train", "-c", str(cfg_path)]) == 0
        seed_dir = tmp_path / "run" / "seed_0"
        for name in ("checkpoint.bin", "buffer.bin"):
            (seed_dir / name).unlink()
        capsys.readouterr()
        assert main(["bias", str(seed_dir), "-c", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"input error: {seed_dir / 'checkpoint.bin'} is missing: "
                                "the step-250 pair is absent\n")
        assert captured.out == ""

    @pytest.mark.parametrize("case", ["deleted", "shortened", "copied"])
    def test_pair_off_its_schedule_exit_code(self, tmp_path, capsys, case):
        # the config schedules the pairs: a 300-step run writes them at 100,
        # 200 and 300, and each must have been taken at its own step
        run = dict(total_steps=300, checkpoint_period=100, bias_eval_pairs=4,
                   bias_eval_horizon=10)
        cfg_path = write_config(tmp_path, **run)
        assert main(["train", "-c", str(cfg_path)]) == 0
        seed_dir = tmp_path / "run" / "seed_0"
        if case == "deleted":
            for kind in ("checkpoint", "buffer"):
                (seed_dir / f"{kind}_00000200.bin").unlink()
            message = (f"{seed_dir / 'checkpoint_00000200.bin'} is missing: "
                       "the step-200 pair is absent")
        elif case == "shortened":
            (tmp_path / "short").mkdir()
            cfg_path = write_config(tmp_path / "short", **{**run, "total_steps": 250})
            message = f"{seed_dir / 'buffer.bin'} was taken at step 300, not 250"
        else:
            for kind in ("checkpoint", "buffer"):
                (seed_dir / f"{kind}_00000200.bin").write_bytes(
                    (seed_dir / f"{kind}_00000100.bin").read_bytes())
            message = f"{seed_dir / 'buffer_00000200.bin'} was taken at step 100, not 200"
        capsys.readouterr()
        assert main(["bias", str(seed_dir), "-c", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"input error: {message}\n"
        assert captured.out == ""

    def test_a_pendulum_pair_off_its_schedule_is_refused_before_any_rollout(
            self, tmp_path, capsys, monkeypatch):
        # the pairs at 100 and 200 pass every check: a 250-step config's
        # final pair (buffer.bin, taken at 300) is refused before either of
        # them spends its Monte-Carlo rollouts
        run = dict(env="pendulum", scheme="uniform", total_steps=300,
                   checkpoint_period=100, env_horizon=20, bias_eval_pairs=4,
                   bias_eval_horizon=10,
                   agent=dict(profile="test", hidden_dims=[8, 8], batch_size=8))
        cfg_path = write_config(tmp_path, **run)
        assert main(["train", "-c", str(cfg_path)]) == 0
        (tmp_path / "short").mkdir()
        short_path = write_config(tmp_path / "short", **{**run, "total_steps": 250})
        rollouts = []
        real = envs.PendulumEnv.batch_rollout

        def counted(self, *args, **kwargs):
            rollouts.append(args[0].shape)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(envs.PendulumEnv, "batch_rollout", counted)
        seed_dir = tmp_path / "run" / "seed_0"
        assert main(["bias", str(seed_dir), "-c", str(cfg_path)]) == 0
        assert len(rollouts) == 3  # one batch for each pair of the run's own config
        rollouts.clear()
        capsys.readouterr()
        assert main(["bias", str(seed_dir), "-c", str(short_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"input error: {seed_dir / 'buffer.bin'} was taken at "
                                "step 300, not 250\n")
        assert captured.out == ""
        assert rollouts == []

    def test_snapshot_with_a_negative_state_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["train", "-c", str(cfg_path)]) == 0
        # the file holds its indices as int64, whatever the width in memory
        path = tmp_path / "run" / "seed_0" / "buffer.bin"
        data = bytearray(path.read_bytes())
        name = struct.pack("<I", 6) + b"states"
        at = data.index(name) + len(name)
        assert data[at : at + 2] == bytes([1, 1])  # int64, one dimension
        data[at + 10 : at + 18] = struct.pack("<q", -3)
        path.write_bytes(bytes(data))
        assert main(["bias", str(path.parent), "-c", str(cfg_path)]) == 2
        assert "states holds an index below 0" in capsys.readouterr().err

    @pytest.mark.parametrize("env, states", [("chain-10", 10), ("chain-3", 3)])
    def test_config_of_another_chain_exit_code(self, tmp_path, capsys, env, states):
        # a chain-4 run: its Q table is (4, 2)
        assert main(["train", "-c", str(write_config(tmp_path))]) == 0
        other = tmp_path / "other"
        other.mkdir()
        code = main(["bias", str(tmp_path / "run" / "seed_0"),
                     "-c", str(write_config(other, env=env))])
        assert code == 2
        assert (f"checkpoint dims (4, 2) are not the environment's ({states}, 2)"
                in capsys.readouterr().err)

    def test_checkpoint_of_other_dims_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, env="pendulum", scheme="uniform",
                                agent=dict(profile="test", hidden_dims=[8, 8],
                                           batch_size=8))
        seed_dir = tmp_path / "seed_0"
        seed_dir.mkdir()
        # a SAC agent of (obs 4, action 2) beside a pendulum buffer
        cfg = cmod.load(cfg_path)
        SacAgent(4, 2, cfg.sac, seed=0).save(seed_dir / "checkpoint.bin")
        buf = PriorityBuffer(8, 3, 1)
        buf.push(np.zeros(3), np.zeros(1), 0.0, np.zeros(3), False)
        buf.snapshot(seed_dir / "buffer.bin")
        assert main(["bias", str(seed_dir), "-c", str(cfg_path)]) == 2
        assert ("checkpoint dims (4, 2) are not the environment's (3, 1)"
                in capsys.readouterr().err)

    def test_buffer_of_another_kind_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["train", "-c", str(cfg_path)]) == 0
        buf = PriorityBuffer(8, 3, 1)
        buf.push(np.zeros(3), np.zeros(1), 0.0, np.zeros(3), False)
        buf.snapshot(tmp_path / "run" / "seed_0" / "buffer.bin")
        assert main(["bias", str(tmp_path / "run" / "seed_0"), "-c", str(cfg_path)]) == 2
        assert ("buffer (state_dim, action_dim, discrete) (3, 1, False) is not the "
                "environment's (4, 2, True)" in capsys.readouterr().err)

    def test_buffers_of_another_tabular_problem_exit_code(self, tmp_path, capsys):
        # a grid-3x3 run whose buffer files are a chain-5 run's: each loads,
        # and its counts name the problem it holds
        run = dict(checkpoint_period=150, bias_eval_pairs=8, bias_eval_horizon=30)
        grid, chain = tmp_path / "grid", tmp_path / "chain"
        grid.mkdir()
        chain.mkdir()
        cfg_path = write_config(grid, env="grid-3x3", **run)
        assert main(["train", "-c", str(cfg_path)]) == 0
        assert main(["train", "-c", str(write_config(chain, env="chain-5", **run))]) == 0
        seed_dir = grid / "run" / "seed_0"
        names = sorted(p.name for p in seed_dir.glob("buffer*.bin"))
        assert names == ["buffer.bin", "buffer_00000150.bin"]
        for name in names:
            (seed_dir / name).write_bytes((chain / "run" / "seed_0" / name).read_bytes())
        capsys.readouterr()
        assert main(["bias", str(seed_dir), "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == ("input error: buffer (state_dim, action_dim, discrete) "
                       "(5, 2, True) is not the environment's (9, 4, True)\n")

    @pytest.mark.parametrize("column, bound", [("states", 4), ("actions", 2),
                                               ("next_states", 4)])
    def test_buffer_index_beyond_the_env_exit_code(self, tmp_path, capsys,
                                                   column, bound):
        cfg_path = write_config(tmp_path)
        assert main(["train", "-c", str(cfg_path)]) == 0
        path = tmp_path / "run" / "seed_0" / "buffer.bin"
        buf = PriorityBuffer.load(path)
        buf.columns[column][3] = bound
        buf.snapshot(path)
        assert main(["bias", str(path.parent), "-c", str(cfg_path)]) == 2
        assert (f"{column} holds index {bound}, but the buffer has {bound} "
                f"{column.removeprefix('next_')}" in capsys.readouterr().err)

    def test_empty_buffer_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["train", "-c", str(cfg_path)]) == 0
        path = tmp_path / "run" / "seed_0" / "buffer.bin"
        PriorityBuffer(200, 4, 2, discrete=True).snapshot(path)
        assert main(["bias", str(path.parent), "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "input error: buffer holds no transitions" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [nan, inf, -inf])
    def test_nonfinite_q_table_exit_code(self, tmp_path, capsys, value):
        cfg_path = write_config(tmp_path)
        assert main(["train", "-c", str(cfg_path)]) == 0
        path = tmp_path / "run" / "seed_0" / "checkpoint.bin"
        arrays = nn.load_checkpoint(path)
        arrays["q_table"] = arrays["q_table"].copy()
        arrays["q_table"][1, 0] = value
        nn.save_checkpoint(path, arrays)
        assert main(["bias", str(path.parent), "-c", str(cfg_path)]) == 2
        assert ("checkpoint entry 'q_table' must hold finite values, got 1 non-finite"
                in capsys.readouterr().err)

    def test_directory_without_a_pair_exit_code(self, tmp_path, capsys):
        # the run root, not its seed directory: none of the pairs at 100 and
        # 200 is there, which is no pair rather than a missing one
        cfg_path = write_config(tmp_path, checkpoint_period=100)
        assert main(["train", "-c", str(cfg_path)]) == 0
        assert main(["bias", str(tmp_path / "run"), "-c", str(cfg_path)]) == 2
        assert "holds no (checkpoint, buffer) pair" in capsys.readouterr().err

    def test_checkpoint_of_other_nets_exit_code(self, tmp_path, capsys):
        run = dict(env="pendulum", scheme="uniform", total_steps=40,
                   train_start_step=30, eval_period=40, env_horizon=20,
                   bias_eval_pairs=4, bias_eval_horizon=10)
        cfg_path = write_config(tmp_path, **run,
                                agent=dict(profile="test", hidden_dims=[8, 8],
                                           batch_size=8))
        assert main(["train", "-c", str(cfg_path)]) == 0
        full = tmp_path / "full"
        full.mkdir()
        # the full profile's batch of 256 needs as many buffer slots
        full_path = write_config(full, **run, agent=dict(profile="full"),
                                 buffer_capacity=256)
        assert main(["bias", str(tmp_path / "run" / "seed_0"),
                     "-c", str(full_path)]) == 2
        assert "'critic1.w0'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, index, value", [
        ("opt.critic2.scalars", 0, 7), ("alpha_opt", 2, 2.5), ("meta", 2, -4),
        ("target1.w1", (0, 0), nan)])
    def test_checkpoint_value_rule_exit_code(self, tmp_path, capsys, key, index, value):
        cfg_path = write_config(tmp_path, env="pendulum", scheme="uniform",
                                total_steps=40, train_start_step=30, eval_period=40,
                                env_horizon=20, bias_eval_pairs=4, bias_eval_horizon=10,
                                agent=dict(profile="test", hidden_dims=[8, 8],
                                           batch_size=8))
        assert main(["train", "-c", str(cfg_path)]) == 0
        seed_dir = tmp_path / "run" / "seed_0"
        path = seed_dir / "checkpoint.bin"
        arrays = nn.load_checkpoint(path)
        arrays[key] = arrays[key].copy()
        arrays[key][index] = value
        nn.save_checkpoint(path, arrays)
        assert main(["bias", str(seed_dir), "-c", str(cfg_path)]) == 2
        assert f"checkpoint entry '{key}'" in capsys.readouterr().err


class TestReplayInspect:
    def test_inspect_output(self, tmp_path, capsys):
        buf = PriorityBuffer(8, 2, 1, discrete=True)
        for i in range(4):
            buf.push(i % 2, 0, 0.0, 0, False)
        buf.update_priorities([0, 1], [2.0, 3.0])
        path = tmp_path / "buf.bin"
        buf.snapshot(path)
        assert main(["replay-inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "size 4" in out
        # a tabular buffer's dims are its table's counts
        assert "discrete True  state_dim 2  action_dim 1" in out
        assert "implied distribution" in out

    def test_a_table_past_the_ceiling_exits_2(self, tmp_path, capsys):
        # a snapshot whose 2^16 x 2^16 table's pass would take 64 GiB
        path = tmp_path / "buf.bin"
        buf = PriorityBuffer(8, 1, 1, discrete=True)
        buf.push(0, 0, 0.0, 0, False)
        buf.snapshot(path)
        arrays = binio.payload_to_arrays(binio.read_envelope(path, binio.KIND_BUFFER))
        arrays = {name: arr.copy() for name, arr in arrays.items()}
        arrays["meta"][3:5] = 1 << 16
        binio.write_envelope(path, binio.KIND_BUFFER, binio.arrays_to_payload(arrays))
        assert main(["replay-inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: a buffer of 8 slots and dims (65536, 65536) ")
        assert "above the ceiling" in err

    def test_inspect_lists_ties_in_state_action_order(self, tmp_path, capsys):
        # first slots in the order (2, 1), (0, 1), (1, 0), (0, 0): the equal
        # cells are listed by state, then action, below the largest
        buf = PriorityBuffer(8, 3, 2, discrete=True)
        for s, a in [(2, 1), (0, 1), (1, 0), (0, 0)]:
            buf.push(s, a, 0.0, 0, False)
        buf.update_priorities([2], [2.0])
        path = tmp_path / "buf.bin"
        buf.snapshot(path)
        assert main(["replay-inspect", str(path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-4:] == ["implied distribution (top buckets):",
                                         "  state 1 action 0: 0.4000",
                                         "  state 0 action 0: 0.2000",
                                         "  state 0 action 1: 0.2000"]

    @pytest.mark.parametrize("column, count", [("states", 5), ("actions", 2),
                                               ("next_states", 5)])
    def test_index_at_its_count_exit_code(self, tmp_path, capsys, column, count):
        buf = PriorityBuffer(8, 5, 2, discrete=True)
        for i in range(4):
            buf.push(i, i % 2, 0.0, i + 1, False)
        buf.columns[column][2] = count
        path = tmp_path / "buffer.bin"
        buf.snapshot(path)
        assert main(["replay-inspect", str(path)]) == 2
        kind = column.removeprefix("next_")
        assert capsys.readouterr().err == (f"input error: {column} holds index {count}, "
                                           f"but the buffer has {count} {kind}\n")

    @pytest.mark.parametrize("dims", [(1, 1, True), (3, 1, False)],
                             ids=["tabular", "vector"])
    def test_empty_snapshot(self, tmp_path, capsys, dims):
        path = tmp_path / "buf.bin"
        PriorityBuffer(8, *dims).snapshot(path)
        assert main(["replay-inspect", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "capacity 8  size 0  cursor 0"
        assert out[2:] == ["empty buffer: no priorities"]

    def test_negative_top_exit_code(self, tmp_path, capsys):
        path = tmp_path / "buf.bin"
        PriorityBuffer(8, 1, 1, discrete=True).snapshot(path)
        assert main(["replay-inspect", str(path), "--top", "-1"]) == 2
        assert "--top must be >= 0, got -1" in capsys.readouterr().err
        assert main(["replay-inspect", str(path), "--top", "0"]) == 0

    def test_nan_priority_exit_code(self, tmp_path, capsys):
        buf = PriorityBuffer(8, 1, 1, discrete=True)
        buf.push(0, 0, 0.0, 0, False)
        path = tmp_path / "buffer.bin"
        buf.snapshot(path)
        data = path.read_bytes()
        one = struct.pack("<d", 1.0)
        assert data.endswith(one)  # the priorities column ends the payload
        path.write_bytes(data[:-8] + struct.pack("<d", float("nan")))
        assert main(["replay-inspect", str(path)]) == 2
        assert "priorities must be positive and finite" in capsys.readouterr().err

    def test_truncated_snapshot_exit_code(self, tmp_path, capsys):
        buf = PriorityBuffer(8, 1, 1, discrete=True)
        buf.push(0, 0, 0.0, 0, False)
        path = tmp_path / "buffer.bin"
        buf.snapshot(path)
        path.write_bytes(path.read_bytes()[:-3])
        assert main(["replay-inspect", str(path)]) == 2
        assert "truncated" in capsys.readouterr().err


def declare_shape(path, field, dims):
    """Rewrite the declared dimensions of one array in a binio file."""
    data = bytearray(path.read_bytes())
    name = field.encode()
    at = data.index(struct.pack("<I", len(name)) + name) + 4 + len(name)
    ndim = data[at + 1]
    assert ndim == len(dims)
    data[at + 2:at + 2 + 8 * ndim] = struct.pack(f"<{ndim}Q", *dims)
    path.write_bytes(bytes(data))


# A dimension of 2**61 once overflowed the byte count (OverflowError), and
# 2**32 x 2**32 wrapped it to 0 bytes (ValueError in reshape); an empty
# array may still declare a dimension numpy refuses.
CORRUPT_SHAPES = {"rewards": [(2**61,)], "states": [(2**61, 1), (2**32, 2**32),
                                                         (0, 2**63)]}
CORRUPT_CHECKPOINT_SHAPES = {"critic1.b0": [(2**61,)],
                             "critic1.w0": [(2**61, 1), (2**32, 2**32), (0, 2**63)]}


def buffer_snapshot(path):
    buf = PriorityBuffer(8, 3, 1)
    for i in range(4):
        buf.push(np.full(3, i), np.zeros(1), 0.0, np.zeros(3), False)
    buf.snapshot(path)
    return path


class TestCorruptShapes:
    @pytest.mark.parametrize("field, dims", [
        (f, d) for f, shapes in CORRUPT_SHAPES.items() for d in shapes])
    def test_buffer_snapshot(self, tmp_path, capsys, field, dims):
        path = buffer_snapshot(tmp_path / "buffer.bin")
        declare_shape(path, field, dims)
        with pytest.raises(FormatError):
            PriorityBuffer.load(path)
        assert main(["replay-inspect", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("field, dims", [
        (f, d) for f, shapes in CORRUPT_CHECKPOINT_SHAPES.items() for d in shapes])
    def test_checkpoint(self, tmp_path, field, dims):
        config = SacConfig(hidden_dims=(4,))
        path = tmp_path / "checkpoint.bin"
        SacAgent(3, 1, config, seed=0).save(path)
        declare_shape(path, field, dims)
        with pytest.raises(FormatError):
            SacAgent.load(path, config)


def test_cli_import_loads_no_scipy():
    # scipy takes most of a second to import; only the oracle suite, the
    # dual minimizer and sweeps use it. The process pool's modules cost a
    # single-seed run about 1 MB; only a multi-seed run_train uses them.
    code = ("import sys, roer.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'multiprocessing', 'concurrent')))")
    src = str(Path(roer.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=os.environ | {"PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


PENDULUM_RUN = dict(env="pendulum", scheme="roer", total_steps=60,
                    train_start_step=30, eval_period=60, env_horizon=20,
                    agent=dict(profile="test", hidden_dims=[8, 8], batch_size=8))


class TestPairThreadHygiene:
    def test_threaded_train_leaves_no_thread_and_the_same_files(
            self, tmp_path, monkeypatch):
        serial = tmp_path / "serial"
        serial.mkdir()
        assert main(["train", "-c", str(write_config(serial, **PENDULUM_RUN))]) == 0
        monkeypatch.setattr(agents, "PAIR_THREAD_WORK", 0)
        monkeypatch.setattr(agents, "PAIR_THREAD_CPUS", 1)
        starts = []
        start = threading.Thread.start

        def counting_start(thread):
            starts.append(thread)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        count = threading.active_count()
        assert main(["train", "-c", str(write_config(tmp_path, **PENDULUM_RUN))]) == 0
        # the agent's one pair helper, which ended with the agent
        assert len(starts) == 1 and not starts[0].is_alive()
        assert threading.active_count() == count
        for name in ("metrics.jsonl", "checkpoint.bin", "buffer.bin", "summary.json"):
            assert (tmp_path / "run" / "seed_0" / name).read_bytes() == \
                (serial / "run" / "seed_0" / name).read_bytes()

    def test_forked_seeds_after_a_threaded_update_finish(self, tmp_path):
        # the pool forks this process while its agent's pair helper is alive
        # and idle: each child starts a helper of its own, and both finish
        path = write_config(tmp_path, **PENDULUM_RUN, seeds=[0, 1], workers=2)
        starts = tmp_path / "helper_starts"
        code = ("import os, sys, threading, numpy as np; "
                "from roer import cli, agents; "
                # every SAC agent from here on runs its pairs on two threads
                "agents.PAIR_THREAD_WORK, agents.PAIR_THREAD_CPUS = 0, 0; "
                # each process appends its pid when it starts a pair helper
                "start = agents._PairHelper.__init__; "
                "agents._PairHelper.__init__ = lambda self: (open(sys.argv[2], 'a')"
                ".write(f'{os.getpid()}\\n'), start(self))[1]; "
                "from roer.schemes import RoerConfig; "
                "from roer.replay import PriorityBuffer; "
                "agent = agents.SacAgent(3, 1, agents.SacConfig(hidden_dims=(8,), "
                "batch_size=4), 0); assert agent.pair_threads; "
                "rng = np.random.default_rng(0); buf = PriorityBuffer(8, 3, 1); "
                "buf.fill_offline(dict(states=rng.normal(size=(8, 3)), "
                "actions=rng.normal(size=(8, 1)), rewards=rng.normal(size=8), "
                "next_states=rng.normal(size=(8, 3)), terminals=np.zeros(8, bool))); "
                "m = agent.update(buf.sample_uniform(4, rng), np.ones(4), rng, RoerConfig()); "
                "assert not m.aborted and threading.active_count() == 2; "
                "print(os.getpid()); "
                "sys.exit(cli.main(['train', '-c', sys.argv[1]]))")
        src = str(Path(roer.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code, str(path), str(starts)],
                             check=True, timeout=120, capture_output=True, text=True,
                             env=os.environ | {"PYTHONPATH": src})
        for seed in (0, 1):
            assert (tmp_path / "run" / f"seed_{seed}" / "summary.json").is_file()
        # one helper in the parent, and one in each of two children
        pids = starts.read_text().split()
        assert pids[0] == out.stdout.split()[0] and len(set(pids)) == len(pids) == 3


class TestSweepCommand:
    def test_sweep_runs(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, output_dir=str(tmp_path / "sweep"),
            sweep=dict(grid={"tabular.epsilon": [0.1, 0.2]}),
        )
        assert main(["sweep", "-c", str(cfg_path)]) == 0
        summary = json.loads(
            (tmp_path / "sweep" / "sweep_summary.json").read_text()
        )
        assert len(summary["cells"]) == 2
