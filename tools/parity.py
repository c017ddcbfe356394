"""Byte parity of this tree's `roer` against another tree's, over a fixed
matrix of short runs.

    git archive HEAD~1 --prefix=roer-parent/ | tar -x -C ..
    python3 tools/parity.py --against ../roer-parent

Both trees run the same 19 configs, each `roer train` in a fresh process
with that tree's `src` on PYTHONPATH:
- chain-5 (the tabular agent) and pendulum (SAC, `test` profile), each
  under every scheme of this tree's schemes.SCHEME_CONFIGS: 10 runs;
- a grid-3x3 `roer` run: chain-5 is deterministic, so only a stochastic
  MDP shows a change to tabular evaluation or bias;
- a chain-300 `roer` run, whose state indices are held as uint16, and
  whose last evaluation's 600 live slots fill its 300 x 2 table;
- three chain-5 `roer` runs whose buffers are prefilled from an offline
  dataset (fixed .npz files this script writes once): one larger than the
  buffer, whose fill wraps the ring, one smaller, and one whose last
  terminal is 2, which the fill refuses after copying every other column
  (`input error`, exit 2, and no metrics.jsonl);
- a pendulum `roer` run with the `full` profile, whose split twin pairs
  run their two lanes on two threads where the process may use two CPUs;
- the same run under `per` and under `laber`, which train no value
  network: `per`'s critics take their input gradients as a pair of their
  own, and `laber`'s `td_surrogates` runs the target pair;
- the same run with seeds [0, 1] and `workers: 2`: with two seed
  processes on fewer than four CPUs, each runs its two lanes in turn on
  one thread.
Every run takes scheduled checkpoints: the chain runs' last one at the
last step, the pendulum runs' before it. Then `roer bias` runs on each
seed directory and the run's config.yaml, and `roer replay-inspect` on each
seed's final buffer, each in a fresh process too. Beside the configs, both
trees run the oracle suite: `roer oracle --report <file>`, and the negative
control `roer oracle --corrupt <name>` once for each divergence name of this
tree's divergences.SPECS, so a name that one tree does not know shows as a
difference in exit code and stderr.

For each config, and for the oracle suite's report, it compares every file
the runs wrote, but timing.json (wall time) and config.yaml's output_dir;
for config.yaml and a JSON file (metrics.jsonl, summary.json, bias_*.json,
report.json) it names the keys that differ, dotted below the top level,
with a list's items compared in order under the list's key. It also
compares each command's exit code, the first line of its stderr and its
stdout (printing the first line that differs), with the run's own
directory replaced by a placeholder. It prints each difference and exits 1 on any, 0 when the
two trees agree. The whole matrix takes about a minute on a 2-vCPU VM.
BLAS runs one thread per process, as in perfbench/run.py.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from roer.divergences import SPECS  # noqa: E402
from roer.schemes import SCHEME_CONFIGS  # noqa: E402

COMMAND_TIMEOUT_S = 600
JOBS = 2  # configs run at once, one process each
PLACEHOLDER = "<run>"


def _chain(scheme: str) -> dict:
    return dict(env="chain-5", scheme=scheme, seeds=[0],
                total_steps=600, train_start_step=50, eval_period=200,
                eval_episodes=2, buffer_capacity=256, env_horizon=50,
                checkpoint_period=200, bias_eval_pairs=8, bias_eval_horizon=50,
                tabular=dict(batch_size=16))


def _pendulum(scheme: str) -> dict:
    # about 900 updates: fewer leave every ROER value TD error below 0, and
    # so every priority at 1
    return dict(env="pendulum", scheme=scheme, seeds=[0],
                total_steps=1200, train_start_step=256, eval_period=200,
                eval_episodes=1, buffer_capacity=2048, env_horizon=50,
                checkpoint_period=1000, bias_eval_pairs=8, bias_eval_horizon=50,
                agent=dict(profile="test"))


def matrix(work: Path) -> dict[str, dict]:
    """name -> config, in the file schema of roer.config; the offline
    datasets are write_datasets' files in work."""
    configs = {}
    for scheme in SCHEME_CONFIGS:
        configs[f"chain-{scheme}"] = _chain(scheme)
        configs[f"pendulum-{scheme}"] = _pendulum(scheme)
    configs["grid-roer"] = {**_chain("roer"), "env": "grid-3x3"}
    configs["chain-300-roer"] = {**_chain("roer"), "env": "chain-300",
                                 "buffer_capacity": 1024}
    for name, file in (("chain-roer-offline", "offline.npz"),
                       ("chain-roer-offline-small", "offline-small.npz"),
                       ("chain-roer-offline-bad", "offline-bad.npz")):
        configs[name] = {**_chain("roer"), "offline_dataset": str(work / file)}
    configs["pendulum-roer-full"] = {**_pendulum("roer"),
                                     "total_steps": 320, "checkpoint_period": 288,
                                     "agent": dict(profile="full")}
    configs["pendulum-roer-full-workers"] = {**configs["pendulum-roer-full"],
                                             "seeds": [0, 1], "workers": 2}
    for scheme in ("per", "laber"):
        configs[f"pendulum-{scheme}-full"] = {**configs["pendulum-roer-full"],
                                              "scheme": scheme}
    return configs


def write_datasets(work: Path) -> None:
    """Random chain-5 transitions into work: 600 in offline.npz, more than
    the runs' 256 slots, and 100 in offline-small.npz, fewer; and
    offline-bad.npz, offline-small.npz's rows with the last terminal 2."""
    for file, n in (("offline.npz", 600), ("offline-small.npz", 100),
                    ("offline-bad.npz", 100)):
        rng = np.random.default_rng(0)
        rows = dict(states=rng.integers(0, 5, n), actions=rng.integers(0, 2, n),
                    rewards=rng.normal(size=n), next_states=rng.integers(0, 5, n),
                    terminals=rng.random(n) < 0.05)
        if file == "offline-bad.npz":
            rows["terminals"] = rows["terminals"].astype(np.int64)
            rows["terminals"][-1] = 2
        np.savez(work / file, **rows)


def _command(src: Path, args: list[str], cwd: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "roer.cli", *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    lines = proc.stderr.splitlines()
    return {"exit": proc.returncode, "stderr": lines[0] if lines else "",
            "stdout": proc.stdout}


def _without_run_dir(results: dict, run_dir: Path) -> dict:
    """results with run_dir replaced by PLACEHOLDER in each stderr and stdout."""
    for result in results.values():
        for key in ("stderr", "stdout"):
            result[key] = result[key].replace(str(run_dir), PLACEHOLDER)
    return results


def run_oracle(src: Path, run_dir: Path) -> dict:
    """The oracle suite with the tree at src, its report written to run_dir,
    and its negative control on each divergence; the commands' results."""
    run_dir.mkdir(parents=True)
    report = str(run_dir / "report.json")
    return _without_run_dir({
        "oracle": _command(src, ["oracle", "--report", report], run_dir),
        **{f"oracle --corrupt {name}": _command(src, ["oracle", "--corrupt", name], run_dir)
           for name in SPECS},
    }, run_dir)


def run_config(src: Path, run_dir: Path, cfg: dict) -> dict:
    """Train one config with the tree at src, then bias and replay-inspect
    on each seed's outputs; the commands' results, run_dir as PLACEHOLDER."""
    run_dir.mkdir(parents=True)
    path = run_dir.parent / f"{run_dir.name}.yaml"
    path.write_text(yaml.safe_dump({**cfg, "output_dir": str(run_dir)}))
    results = {"train": _command(src, ["train", "-c", str(path)], run_dir.parent)}
    for seed in cfg["seeds"]:
        seed_dir = run_dir / f"seed_{seed}"
        results[f"bias seed_{seed}"] = _command(
            src, ["bias", str(seed_dir), "-c", str(run_dir / "config.yaml"),
                  "--out", str(run_dir / f"bias_{seed}.json")], run_dir.parent)
        results[f"replay-inspect seed_{seed}"] = _command(
            src, ["replay-inspect", str(seed_dir / "buffer.bin")], run_dir.parent)
    return _without_run_dir(results, run_dir)


def _keys(x, y, key: str = "") -> set[str]:
    """The dotted keys under which two parsed JSON values differ; the items
    of a list are compared in order, under the list's own key."""
    if isinstance(x, dict) and isinstance(y, dict):
        return set().union(*(_keys(x.get(k, ...), y.get(k, ...), f"{key}.{k}" if key else k)
                             for k in x.keys() | y.keys()))
    if isinstance(x, list) and isinstance(y, list):
        keys = set().union(*(_keys(p, q, key) for p, q in zip(x, y)))
        if len(x) != len(y):
            keys.add(f"{key or '<list>'}: {len(x)} vs {len(y)} items")
        return keys
    return set() if x == y else {key or "<value>"}


def _json_keys(a: Path, b: Path) -> list[str]:
    """The keys whose values differ between two JSON files, or two JSON
    Lines streams (read as lists of records)."""
    def load(path):
        if path.suffix == ".jsonl":
            return [json.loads(line) for line in path.read_text().splitlines()]
        return json.loads(path.read_text())
    return sorted(_keys(load(a), load(b)))


def _config_yaml(path: Path) -> dict:
    data = yaml.safe_load(path.read_text())
    data.pop("output_dir", None)
    return data


def compare_dirs(a: Path, b: Path) -> list[str]:
    """Each difference between two run directories, as one line: a file in
    one only, or one whose contents differ, with the differing keys of
    config.yaml or a JSON file (timing.json is skipped, and config.yaml
    compared without output_dir)."""
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diffs = []
    for rel in sorted(names):
        pa, pb = a / rel, b / rel
        if rel.name == "timing.json":
            continue
        if not (pa.exists() and pb.exists()):
            diffs.append(f"{rel}: only in {'this tree' if pa.exists() else 'the other'}")
        elif rel.name == "config.yaml":
            keys = sorted(_keys(_config_yaml(pa), _config_yaml(pb)))
            if keys:
                diffs.append(f"{rel}: keys differ: {', '.join(keys)}")
        elif pa.read_bytes() != pb.read_bytes():
            if rel.suffix in (".json", ".jsonl"):
                keys = ", ".join(_json_keys(pa, pb)) or "none, formatting only"
                diffs.append(f"{rel}: keys differ: {keys}")
            else:
                diffs.append(f"{rel}: bytes differ")
    return diffs


def compare_results(a: dict, b: dict) -> list[str]:
    """One line per command result that differs between two run_config
    results: the exit code, the first stderr line, or the first stdout line
    that differs."""
    diffs = []
    for cmd in a:
        for key in ("exit", "stderr", "stdout"):
            x, y = a[cmd][key], b[cmd][key]
            if x != y and key == "stdout":
                x, y = next((p, q) for p, q in itertools.zip_longest(
                    x.splitlines(), y.splitlines()) if p != q)
            if x != y:
                diffs.append(f"roer {cmd}: {key} {x!r} vs {y!r}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True,
                        help="root of the other tree (holds src/roer)")
    parser.add_argument("--keep", help="a new directory to write the runs to "
                        "and keep, to inspect a difference")
    args = parser.parse_args(argv)
    other = Path(args.against).resolve()
    if not (other / "src" / "roer" / "cli.py").is_file():
        print(f"parity: {other} holds no src/roer/cli.py", file=sys.stderr)
        return 2
    if args.keep and Path(args.keep).exists():
        print(f"parity: --keep {args.keep} exists already", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    work = Path(args.keep or tempfile.mkdtemp(prefix="roer-parity-")).resolve()
    work.mkdir(parents=True, exist_ok=True)
    try:
        write_datasets(work)
        configs = matrix(work)
        trees = {"this": ROOT / "src", "other": other / "src"}
        with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
            futures = {(side, name): pool.submit(run_config, src, work / side / name, cfg)
                       for name, cfg in configs.items() for side, src in trees.items()}
            futures |= {(side, "oracle"): pool.submit(run_oracle, src, work / side / "oracle")
                        for side, src in trees.items()}
            results = {key: f.result() for key, f in futures.items()}
        n_diffs = 0
        for name in [*configs, "oracle"]:
            diffs = (compare_results(results["this", name], results["other", name])
                     + compare_dirs(work / "this" / name, work / "other" / name))
            n_diffs += len(diffs)
            for line in diffs:
                print(f"DIFF {name}: {line}")
        print(f"parity: {len(configs)} configs and the oracle suite, {n_diffs} differences "
              f"({time.monotonic() - t0:.0f} s)")
        return 1 if n_diffs else 0
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
