"""Span recording around roer's public functions, and the arithmetic that
turns recorded spans into per-layer metrics.

Recording runs inside a traced `roer train` process (see child.py). Each
op in OPS is replaced, at every place callers look it up, by a wrapper
that appends one span (name, start, end, parent) to in-memory columns and
feeds optional counters. Nothing under src/ is edited: the wrappers are
installed at runtime and uninstall() puts every original back.

The analysis half (self_times, percentile, op_stats) needs only numpy, so
run.py and the tests use it without importing roer.
"""

from __future__ import annotations

import functools
import importlib
import math
import struct
import time
from array import array
from collections import Counter

import numpy as np

# span name -> the places the op is looked up, as "module:Attr.path".
# The first site is where the function is defined; later sites are
# modules that bound the same function with `from ... import`.
OPS: dict[str, tuple[str, ...]] = {
    "replay.push": ("roer.replay:PriorityBuffer.push",),
    "replay.fill_offline": ("roer.replay:PriorityBuffer.fill_offline",),
    "replay.sample_proportional": ("roer.replay:PriorityBuffer.sample_proportional",),
    "replay.update_priorities": ("roer.replay:PriorityBuffer.update_priorities",),
    "replay.SumTree.set_many": ("roer.replay:SumTree.set_many",),
    "replay.SumTree.find_prefix": ("roer.replay:SumTree.find_prefix",),
    "replay.implied_distribution": ("roer.replay:PriorityBuffer.implied_distribution",),
    "replay.snapshot": ("roer.replay:PriorityBuffer.snapshot",),
    "schemes.roer_update": ("roer.schemes:roer_update",),
    "schemes.per_priority": ("roer.schemes:per_priority",),
    "agents.SacAgent.update": ("roer.agents:SacAgent.update",),
    "agents.SacAgent.act": ("roer.agents:SacAgent.act",),
    "agents.TabularAgent.update": ("roer.agents:TabularAgent.update",),
    "agents.TabularAgent.act": ("roer.agents:TabularAgent.act",),
    "nn.forward_cache": ("roer.nn:forward_cache",),
    "nn.backward": ("roer.nn:backward",),
    "nn.input_gradient": ("roer.nn:input_gradient",),
    "nn.input_gradient_param_backward": ("roer.nn:input_gradient_param_backward",),
    "nn.AdamState.step": ("roer.nn:AdamState.step",),
    "nn.polyak": ("roer.nn:polyak",),
    "losses.weighted_huber_critic_loss": ("roer.losses:weighted_huber_critic_loss",),
    "losses.gradient_penalty": ("roer.losses:gradient_penalty",),
    "losses.extreme_v_loss": ("roer.losses:extreme_v_loss",),
    "losses.td_error": ("roer.losses:td_error",),
    "envs.PendulumEnv.step": ("roer.envs:PendulumEnv.step",),
    "envs.TabularEnv.step": ("roer.envs:TabularEnv.step",),
    "oracles.value_iteration": ("roer.oracles:value_iteration",
                                "roer.harness:value_iteration"),
    "oracles.occupancy": ("roer.oracles:occupancy", "roer.harness:occupancy"),
    "oracles.kl_divergence_to_implied": ("roer.oracles:kl_divergence_to_implied",
                                         "roer.harness:kl_divergence_to_implied"),
    # evaluation has no public function; _evaluate is its only boundary
    "harness.eval": ("roer.harness:_SeedRun._evaluate",),
    "harness.MetricsWriter.write": ("roer.harness:MetricsWriter.write",),
    "binio.write_envelope": ("roer.binio:write_envelope",),
    # the whole seed run: its self time is the loop's untraced residual
    "harness.loop_residual": ("roer.harness:_SeedRun.run",),
}

# ops whose per-call latency distribution is reported
LATENCY_OPS = ("replay.sample_proportional", "replay.update_priorities",
               "agents.SacAgent.update", "agents.TabularAgent.update")

# nn ops that do matrix products, with their FLOP count per batch row
# given the per-layer weight sizes (out * in); 2 FLOPs per multiply-add.
def _flops_forward(sizes):
    return 2 * sum(sizes)


def _flops_backward(sizes):
    return 4 * sum(sizes)          # g.T @ hidden and g @ W per layer


def _flops_input_gradient(sizes):
    return 2 * sum(sizes)          # g @ W per layer


def _flops_input_gradient_param_backward(sizes):
    # tangent pass (all but the last layer), u.T @ tangent per layer,
    # and u @ W for every layer but the first
    return 2 * (sum(sizes[:-1]) + sum(sizes) + sum(sizes[1:]))


MATMUL_OPS = {
    "nn.forward_cache": _flops_forward,
    "nn.backward": _flops_backward,
    "nn.input_gradient": _flops_input_gradient,
    "nn.input_gradient_param_backward": _flops_input_gradient_param_backward,
}


# ----------------------------------------------------------------------
# counters fed from the arguments and results of single calls

def _count_flops(flops_per_row):
    def observe(counters, args, result):
        params, x = args[0], args[1]
        sizes = [w.size for w in params.weights]
        counters["nn.flops"] += len(x) * flops_per_row(sizes)
    return observe


def _observe_update_priorities(counters, args, result):
    counters["replay.priority_rows"] += len(args[1])


def _observe_roer_update(counters, args, result):
    delta = np.asarray(args[0], dtype=np.float64)
    cfg = args[2]
    # the immediate weight exactly as schemes.roer_update forms it
    w = np.exp(np.minimum(delta / cfg.beta, 700.0))
    counters["schemes.roer_update.rows"] += delta.size
    counters["schemes.roer_update.clipped"] += int(np.count_nonzero(w > cfg.max_exp_clip))
    counters["schemes.rows"] += result.size
    if cfg.min_priority_clip > 0.0:
        counters["schemes.floor_rows"] += int(np.count_nonzero(result <= cfg.min_priority_clip))


def _observe_per_priority(counters, args, result):
    cfg = args[1]
    counters["schemes.rows"] += result.size
    counters["schemes.floor_rows"] += int(np.count_nonzero(result <= cfg.min_priority))


def _observe_sac_update(counters, args, result):
    counters["agents.aborted"] += int(result.aborted)


_ENVELOPE_HEADER = 8 + struct.calcsize("<HHI")   # magic, version, kind, length


def _observe_write_envelope(counters, args, result):
    counters["binio.bytes_written"] += _ENVELOPE_HEADER + len(args[2])


OBSERVERS = {
    "replay.update_priorities": _observe_update_priorities,
    "schemes.roer_update": _observe_roer_update,
    "schemes.per_priority": _observe_per_priority,
    "agents.SacAgent.update": _observe_sac_update,
    "binio.write_envelope": _observe_write_envelope,
    **{name: _count_flops(fn) for name, fn in MATMUL_OPS.items()},
}


# ----------------------------------------------------------------------
# recording

def resolve(site: str):
    """'module:Attr.path' -> (owner object, attribute name)."""
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span columns plus the patches that feed them.

    Span i has name id name_ids[i], parent span index parents[i] (-1 for
    a root), and perf_counter_ns start/end stamps. Spans are numbered in
    start order, so a parent always precedes its children.
    """

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)
        stack, counters, clock = self._stack, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return wrapper

    def install(self, ops: dict[str, tuple] | None = None) -> None:
        """Patch every site of every op. A site is a 'module:Attr.path'
        string or an (owner, attribute) pair."""
        for name, sites in (OPS if ops is None else ops).items():
            resolved = [resolve(s) if isinstance(s, str) else s for s in sites]
            owner, attr = resolved[0]
            original = vars(owner)[attr]
            wrapper = self.wrap(name, original, OBSERVERS.get(name))
            for owner, attr in resolved:
                if vars(owner)[attr] is not original:
                    raise RuntimeError(
                        f"{owner.__name__}.{attr} is not the function the "
                        f"benchmark traces as {name}; update tracer.OPS")
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))

    def uninstall(self) -> bool:
        """Restore every original; True when each site holds it again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original
                       for owner, attr, original in self._patches)
        self._patches.clear()
        return restored

    def spans(self) -> dict:
        return spans_from_columns(self.names, self.name_ids, self.parents,
                                  self.starts, self.ends, self.run_id)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_ids=np.asarray(self.name_ids),
                 parents=np.asarray(self.parents), starts=np.asarray(self.starts),
                 ends=np.asarray(self.ends), run_id=self.run_id)


# ----------------------------------------------------------------------
# analysis

def spans_from_columns(names, name_ids, parents, starts, ends, run_id=0) -> dict:
    return {
        "names": [str(n) for n in names],
        "name_ids": np.asarray(name_ids, dtype=np.int64),
        "parents": np.asarray(parents, dtype=np.int64),
        "starts": np.asarray(starts, dtype=np.int64),
        "ends": np.asarray(ends, dtype=np.int64),
        "run_id": int(run_id),
    }


def load_spans(path) -> dict:
    with np.load(path) as data:
        return spans_from_columns(data["names"], data["name_ids"], data["parents"],
                                  data["starts"], data["ends"], data["run_id"])


def self_times(parents, starts, ends) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so a span's children never overlap each
    other and their durations sum to the part of the span they cover.
    """
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
    return dur - covered


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it; 0.0 for no samples."""
    ordered = np.sort(np.asarray(values))
    if ordered.size == 0:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * ordered.size))
    return float(ordered[rank - 1])


def op_stats(spans: dict) -> dict[str, dict]:
    """Per op name: calls, self seconds, and inclusive durations in ns."""
    selfs = self_times(spans["parents"], spans["starts"], spans["ends"])
    dur = spans["ends"] - spans["starts"]
    out = {}
    for nid, name in enumerate(spans["names"]):
        mask = spans["name_ids"] == nid
        out[name] = {
            "calls": int(mask.sum()),
            "self_s": float(selfs[mask].sum()) / 1e9,
            "durations_ns": dur[mask],
        }
    return out
