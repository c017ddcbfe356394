"""In-process A/B timing of one update step: another tree's roer against this one.

    git worktree add ../roer-parent HEAD~1
    python3 tools/ab_update.py ../roer-parent/src --profile test
    python3 tools/ab_update.py ../roer-parent/src --profile chain
    python3 tools/ab_update.py ../roer-parent/src --profile offline

The first argument is the `src` directory of the other tree (the "parent").
Both trees' `roer` packages are loaded side by side in this one process,
under the names `roer_parent` and `roer_change`, so that host drift hits
both sides alike.

The `test` and `full` profiles time one SAC update. Each side builds the
same SacAgent (pendulum's obs 3, action 1, and the SacConfig fields that
this tree's `config.SAC_PROFILES[profile]` sets) and the same batches: its own
PriorityBuffer holds one fixed set of random transitions (seed 0) and
draws them uniformly. The script then alternates
blocks of updates (20 per side at the test profile, 2 at full) between the
two agents, parent first in odd blocks and change first in even ones;
every update of block b, step i gets the same generator seed on both
sides, and runs under a ROER scheme with positive weights.

It prints each side's p50 update time, the fraction of blocks in which the
change's block median was lower, and the median over blocks of the ratio
change / parent of block medians. It also prints the CPUs each side may
run on, whether each agent runs its twin pairs on two threads (an agent
without the `pair_threads` attribute never does), and the hypervisor's
steal time over the blocks from /proc/stat (read only): a ratio near 1.0
with steal time high says the second CPU was busy elsewhere, not that the
threads gained nothing. It exits 1 unless every update's StepMetrics (the
four losses, both TD-error vectors, the clip count and the abort flag)
are byte-equal on the two sides, and so are both agents' checkpoint
arrays at the end; 0 otherwise.

The `chain` profile times one step of the chain-roer benchmark workload's
training loop less its env step and push: one proportional draw, one
tabular update and one ROER priority rewrite. This tree first runs the
workload's config (perfbench/workloads.py, seed 0) for its first 5,000
steps, where its 5,000-slot buffer first fills; each side loads that
run's final Q table and buffer and trains on from there with the
workload's knobs, pushing nothing. Blocks hold 200 steps per side; every
step of block b draws from the same generator state on both sides.

The `offline` profile times one step of the offline-per benchmark
workload's training loop less its env step: one push, one proportional
draw, one tabular update and one PER priority rewrite. Each side builds
the workload's run (its config at seed 0, its agent and its 2^20-slot
buffer) and fills the buffer with the workload's offline dataset
(perfbench/workloads.py's offline_dataset, 2^18 rows); each step then
pushes the dataset's next row. Blocks hold 200 steps per side.

The chain and offline profiles compare only what no sum-tree layout
decides: they exit 1 unless every step's StepMetrics and drawn slots are
byte-equal, and so are the Q tables and the priorities at the end. The
priority totals are printed beside them: two layouts add the same
priorities in different orders, so they may differ in the last bits, and
the profiles exit 1 unless they agree within TOTAL_RTOL.

BLAS is pinned to one thread unless OPENBLAS_NUM_THREADS is already set,
and freed heap is kept in the process as `roer train` does.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the BLAS thread pin)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
from workloads import CHAIN_SCHEME, CHAIN_TABULAR, WORKLOADS, offline_dataset  # noqa: E402

OBS_DIM, ACTION_DIM = 3, 1
POOL_ROWS = 4096
BATCHES = 20
SEED = 0
BLOCK_UPDATES = {"test": 20, "full": 2, "chain": 200, "offline": 200}  # per side and block
CHAIN_STEPS = 5_000  # where the chain-roer run's 5,000-slot buffer first fills
PUSHED_ROWS = 1 << 16  # the offline steps push the dataset's first rows, cycling
TOTAL_RTOL = 1e-12  # the chain and offline profiles' bound on the totals' difference
METRIC_FIELDS = ("critic_loss", "value_loss", "actor_loss", "alpha_loss",
                 "value_td_errors", "critic_td_errors", "value_clip_count", "aborted")


def load_package(name: str, src: Path):
    """Import src/roer as a top-level package called name."""
    init = src / "roer" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab_update: no roer package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("agents", "cli", "config", "harness", "replay", "schemes"):
        importlib.import_module(f"{name}.{sub}")
    return module


class SacSide:
    """One tree's SAC agent, batches and recorded update times."""

    def __init__(self, pkg, fields: dict, pool: dict):
        agents, replay = pkg.agents, pkg.replay
        self.config = agents.SacConfig(**fields)
        self.agent = agents.SacAgent(OBS_DIM, ACTION_DIM, self.config, SEED)
        self.roer = pkg.schemes.RoerConfig()
        n = self.config.batch_size
        rng = np.random.default_rng(SEED + 1)
        # each tree's own buffer holds the pool and draws the batches
        buffer = replay.PriorityBuffer(POOL_ROWS, OBS_DIM, ACTION_DIM)
        buffer.fill_offline(pool)
        self.batches = [buffer.sample_uniform(n, rng) for _ in range(BATCHES)]
        self.weights = [rng.uniform(0.5, 2.0, size=n) for _ in range(BATCHES)]
        self.times_ns: list[int] = []
        self.metrics: dict[tuple[int, int], bytes] = {}  # (block, i) -> digest

    def run_block(self, block: int, updates: int) -> list[int]:
        clock, agent, out = time.perf_counter_ns, self.agent, []
        for i in range(updates):
            k = (block * updates + i) % BATCHES
            rng = np.random.default_rng((block, i))
            t0 = clock()
            m = agent.update(self.batches[k], self.weights[k], rng, self.roer)
            out.append(clock() - t0)
            if m.aborted:
                raise SystemExit("ab_update: an update aborted")
            self.metrics[block, i] = metrics_digest(m)
        self.times_ns += out
        return out

    def state(self) -> dict[str, bytes]:
        return {k: v.tobytes() for k, v in self.agent.checkpoint_arrays().items()}


class TreeSide:
    """One tree's tabular agent and buffer, and its recorded step times;
    its state is what no sum-tree layout decides."""

    def state(self) -> dict[str, bytes]:
        return {"q_table": self.agent.q_table.tobytes(),
                "priorities": self.buffer.priorities.tobytes()}


class ChainSide(TreeSide):
    """One tree's chain-roer agent and buffer."""

    def __init__(self, pkg, checkpoint: Path, snapshot: Path):
        self.agent = pkg.agents.TabularAgent.load(
            checkpoint, pkg.agents.TabularConfig(**CHAIN_TABULAR))
        self.buffer = pkg.replay.PriorityBuffer.load(snapshot)
        self.roer = pkg.schemes.RoerConfig(**CHAIN_SCHEME)
        self.div = pkg.schemes.ROER_DIVERGENCES["roer"]
        self.roer_update = pkg.schemes.roer_update
        self.weights = np.ones(CHAIN_TABULAR["batch_size"])
        self.times_ns: list[int] = []
        self.metrics: dict[tuple[int, int], bytes] = {}

    def run_block(self, block: int, updates: int) -> list[int]:
        clock, agent, buffer, out = time.perf_counter_ns, self.agent, self.buffer, []
        n, rng = len(self.weights), np.random.default_rng((SEED, block))
        for i in range(updates):
            t0 = clock()
            batch = buffer.sample_proportional(n, rng)
            m = agent.update(batch, self.weights)
            buffer.update_priorities(batch.indices, self.roer_update(
                m.value_td_errors, batch.priorities, self.roer, self.div))
            out.append(clock() - t0)
            self.metrics[block, i] = metrics_digest(m, batch.indices)
        self.times_ns += out
        return out


class OfflineSide(TreeSide):
    """One tree's offline-per agent and prefilled buffer."""

    def __init__(self, pkg, raw: dict, out_dir: Path):
        cfg = pkg.config.from_dict(raw)
        run = pkg.harness._SeedRun(cfg, SEED, out_dir)
        pkg.harness.load_offline_dataset(cfg.offline_dataset, run.buffer)
        self.agent, self.buffer = run.agent, run.buffer
        self.per, self.per_priority = cfg.scheme_config, pkg.schemes.per_priority
        with np.load(cfg.offline_dataset) as data:
            self.rows = list(zip(*(data[name][:PUSHED_ROWS].tolist()
                                   for name in pkg.replay.PriorityBuffer.DATA)))
        self.weights = np.ones(run.agent.config.batch_size)
        self.times_ns: list[int] = []
        self.metrics: dict[tuple[int, int], bytes] = {}

    def run_block(self, block: int, updates: int) -> list[int]:
        clock, agent, buffer, out = time.perf_counter_ns, self.agent, self.buffer, []
        n, rng = len(self.weights), np.random.default_rng((SEED, block))
        for i in range(updates):
            step = block * updates + i
            row = self.rows[step % len(self.rows)]
            t0 = clock()
            buffer.push(*row, insert_step=step + 1)
            batch = buffer.sample_proportional(n, rng)
            m = agent.update(batch, self.weights)
            buffer.update_priorities(batch.indices,
                                     self.per_priority(m.critic_td_errors, self.per))
            out.append(clock() - t0)
            self.metrics[block, i] = metrics_digest(m, batch.indices)
        self.times_ns += out
        return out


def chain_run(pkg, out_dir: Path) -> Path:
    """The seed directory of pkg's chain-roer run cut at CHAIN_STEPS."""
    raw = WORKLOADS["chain-roer"].config(SEED, None)
    raw.update(total_steps=CHAIN_STEPS, output_dir=str(out_dir))
    return pkg.harness.run_train(pkg.config.from_dict(raw)) / f"seed_{SEED}"


def transitions() -> dict:
    rng = np.random.default_rng(SEED)
    return dict(
        states=rng.normal(size=(POOL_ROWS, OBS_DIM)),
        actions=np.tanh(rng.normal(size=(POOL_ROWS, ACTION_DIM))),
        rewards=rng.normal(size=POOL_ROWS),
        next_states=rng.normal(size=(POOL_ROWS, OBS_DIM)),
        terminals=rng.random(POOL_ROWS) < 0.01,
    )


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs so far, from /proc/stat's cpu line."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal guest guest_nice; the
    # guest times are already counted in user and nice
    return fields[7], sum(fields[:8])


def metrics_digest(m, slots=None) -> bytes:
    """One update's StepMetrics, and the slots its batch was drawn from."""
    digest = hashlib.sha256()
    for name in METRIC_FIELDS:
        digest.update(np.asarray(getattr(m, name)).tobytes())
    if slots is not None:
        digest.update(np.asarray(slots, dtype=np.int64).tobytes())
    return digest.digest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path,
                        help="the src directory of the tree to compare against")
    parser.add_argument("--profile", choices=tuple(BLOCK_UPDATES), default="test")
    parser.add_argument("--blocks", type=int, default=100)
    args = parser.parse_args(argv)
    per_block = BLOCK_UPDATES[args.profile]

    parent_pkg = load_package("roer_parent", args.parent_src.resolve())
    change_pkg = load_package("roer_change", HERE.parent / "src")
    change_pkg.cli._keep_freed_memory()
    if args.profile == "chain":
        with tempfile.TemporaryDirectory() as tmp:
            seed_dir = chain_run(change_pkg, Path(tmp))
            files = seed_dir / "checkpoint.bin", seed_dir / "buffer.bin"
            parent, change = ChainSide(parent_pkg, *files), ChainSide(change_pkg, *files)
    elif args.profile == "offline":
        sys.path.insert(0, str(HERE.parent / "src"))  # offline_dataset imports roer.envs
        with tempfile.TemporaryDirectory() as tmp:
            raw = WORKLOADS["offline-per"].config(SEED, str(offline_dataset(Path(tmp), SEED)))
            parent, change = (OfflineSide(pkg, raw, Path(tmp) / name)
                              for name, pkg in (("parent", parent_pkg), ("change", change_pkg)))
    else:
        pool = transitions()
        # the parent tree may predate SAC_PROFILES: both sides take this tree's fields
        fields = change_pkg.config.SAC_PROFILES[args.profile]
        parent = SacSide(parent_pkg, fields, pool)
        change = SacSide(change_pkg, fields, pool)

    ticks = cpu_ticks()
    ratios = []
    for block in range(args.blocks):
        order = (parent, change) if block % 2 == 0 else (change, parent)
        medians = {id(side): statistics.median(side.run_block(block, per_block))
                   for side in order}
        ratios.append(medians[id(change)] / medians[id(parent)])

    end_ticks = cpu_ticks()
    identical = parent.state() == change.state()
    mismatched = sum(parent.metrics[k] != change.metrics[k] for k in parent.metrics)
    p50 = {name: statistics.median(side.times_ns) / 1e3
           for name, side in (("parent", parent), ("change", change))}
    print(f"profile {args.profile}: {args.blocks} blocks of {per_block} updates per side")
    print(f"parent p50 {p50['parent']:.1f} us   change p50 {p50['change']:.1f} us")
    print(f"change faster in {sum(r < 1.0 for r in ratios)}/{len(ratios)} blocks; "
          f"median ratio change/parent {statistics.median(ratios):.3f}")
    for name, side in (("parent", parent), ("change", change)):
        if args.profile in ("test", "full"):
            print(f"{name}: {len(os.sched_getaffinity(0))} CPUs, twin pairs on two "
                  f"threads: {getattr(side.agent, 'pair_threads', False)}")
    if ticks is not None and end_ticks is not None:
        steal, total = (end - start for end, start in zip(end_ticks, ticks))
        print(f"steal time over the blocks: {steal} of {total} CPU ticks "
              f"({steal / max(total, 1):.1%})")
    print(f"update metrics byte-equal: {len(parent.metrics) - mismatched}"
          f"/{len(parent.metrics)}")
    print(f"final state byte-equal: {identical}")
    if isinstance(parent, TreeSide):
        totals = [side.buffer.total_priority() for side in (parent, change)]
        rel = abs(totals[1] - totals[0]) / totals[0]
        print(f"priority totals: parent {totals[0]!r}, change {totals[1]!r} "
              f"(relative difference {rel:.3g})")
        identical = identical and rel <= TOTAL_RTOL
    return 0 if identical and not mismatched else 1


if __name__ == "__main__":
    sys.exit(main())
