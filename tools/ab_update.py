"""In-process A/B timing of one SAC update: another tree's roer against this one.

    git worktree add ../roer-parent HEAD~1
    python3 tools/ab_update.py ../roer-parent/src --profile test

The first argument is the `src` directory of the other tree (the "parent").
Both trees' `roer` packages are loaded side by side in this one process,
under the names `roer_parent` and `roer_change`, so that host drift hits
both sides alike. Each side builds the same SacAgent (pendulum's obs 3,
action 1, and the SacConfig fields that this tree's
`config.SAC_PROFILES[profile]` sets) and the same batches: its own
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
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the BLAS thread pin)

HERE = Path(__file__).resolve().parent
OBS_DIM, ACTION_DIM = 3, 1
POOL_ROWS = 4096
BATCHES = 20
SEED = 0
BLOCK_UPDATES = {"test": 20, "full": 2}  # updates per side and block
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
    for sub in ("agents", "cli", "config", "replay", "schemes"):
        importlib.import_module(f"{name}.{sub}")
    return module


class Side:
    """One tree's agent, batches and recorded update times."""

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


def metrics_digest(m) -> bytes:
    digest = hashlib.sha256()
    for name in METRIC_FIELDS:
        digest.update(np.asarray(getattr(m, name)).tobytes())
    return digest.digest()


def same_state(a, b) -> bool:
    arrays_a, arrays_b = a.checkpoint_arrays(), b.checkpoint_arrays()
    return (arrays_a.keys() == arrays_b.keys()
            and all(arrays_a[k].tobytes() == arrays_b[k].tobytes() for k in arrays_a))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path,
                        help="the src directory of the tree to compare against")
    parser.add_argument("--profile", choices=("test", "full"), default="test")
    parser.add_argument("--blocks", type=int, default=100)
    args = parser.parse_args(argv)
    per_block = BLOCK_UPDATES[args.profile]

    parent_pkg = load_package("roer_parent", args.parent_src.resolve())
    change_pkg = load_package("roer_change", HERE.parent / "src")
    change_pkg.cli._keep_freed_memory()
    pool = transitions()
    # the parent tree may predate SAC_PROFILES: both sides take this tree's fields
    fields = change_pkg.config.SAC_PROFILES[args.profile]
    parent = Side(parent_pkg, fields, pool)
    change = Side(change_pkg, fields, pool)

    ticks = cpu_ticks()
    ratios = []
    for block in range(args.blocks):
        order = (parent, change) if block % 2 == 0 else (change, parent)
        medians = {id(side): statistics.median(side.run_block(block, per_block))
                   for side in order}
        ratios.append(medians[id(change)] / medians[id(parent)])

    end_ticks = cpu_ticks()
    identical = same_state(parent.agent, change.agent)
    mismatched = sum(parent.metrics[k] != change.metrics[k] for k in parent.metrics)
    p50 = {name: statistics.median(side.times_ns) / 1e3
           for name, side in (("parent", parent), ("change", change))}
    print(f"profile {args.profile}: {args.blocks} blocks of {per_block} updates per side")
    print(f"parent p50 {p50['parent']:.0f} us   change p50 {p50['change']:.0f} us")
    print(f"change faster in {sum(r < 1.0 for r in ratios)}/{len(ratios)} blocks; "
          f"median ratio change/parent {statistics.median(ratios):.3f}")
    for name, side in (("parent", parent), ("change", change)):
        print(f"{name}: {len(os.sched_getaffinity(0))} CPUs, twin pairs on two threads: "
              f"{getattr(side.agent, 'pair_threads', False)}")
    if ticks is not None and end_ticks is not None:
        steal, total = (end - start for end, start in zip(end_ticks, ticks))
        print(f"steal time over the blocks: {steal} of {total} CPU ticks "
              f"({steal / max(total, 1):.1%})")
    print(f"update metrics byte-equal: {len(parent.metrics) - mismatched}"
          f"/{len(parent.metrics)}")
    print(f"checkpoint arrays byte-equal: {identical}")
    return 0 if identical and not mismatched else 1


if __name__ == "__main__":
    sys.exit(main())
