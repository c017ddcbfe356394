"""Tests of the benchmark's span arithmetic and span recording.

    python3 -m pytest perfbench/test_spans.py
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, op_stats, percentile, self_times, spans_from_columns  # noqa: E402


def synthetic():
    # a [0,100] holds b [10,30] and c [40,90]; c holds d [50,60];
    # e [200,210] is a second root
    names = ["a", "b", "c", "d", "e"]
    return spans_from_columns(
        names, name_ids=[0, 1, 2, 3, 4], parents=[-1, 0, 0, 2, -1],
        starts=[0, 10, 40, 50, 200], ends=[100, 30, 90, 60, 210])


def test_self_time_subtracts_direct_children_only():
    s = synthetic()
    got = self_times(s["parents"], s["starts"], s["ends"])
    np.testing.assert_array_equal(got, [30, 20, 40, 10, 10])


def test_self_times_sum_to_root_durations():
    s = synthetic()
    assert self_times(s["parents"], s["starts"], s["ends"]).sum() == 100 + 10


def test_op_stats_groups_repeated_names():
    s = spans_from_columns(["outer", "inner"], name_ids=[0, 1, 1, 0],
                           parents=[-1, 0, 0, -1], starts=[0, 1, 5, 20],
                           ends=[10, 3, 9, 25])
    stats = op_stats(s)
    assert stats["outer"]["calls"] == 2
    assert stats["inner"]["calls"] == 2
    assert stats["outer"]["self_s"] == (10 - 2 - 4 + 5) / 1e9
    assert stats["inner"]["self_s"] == 6 / 1e9
    np.testing.assert_array_equal(stats["outer"]["durations_ns"], [10, 5])


def test_percentile_is_nearest_rank_over_every_sample():
    values = np.arange(1, 201)[::-1]          # 200 samples, unsorted
    assert percentile(values, 50) == 100
    assert percentile(values, 99) == 198      # two samples lie above it
    assert percentile([7.0], 99) == 7.0
    assert percentile([], 50) == 0.0


class Toy:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i


def test_recorded_spans_nest_and_wrappers_are_restored():
    originals = dict(vars(Toy))
    tracer = Tracer(run_id=7)
    tracer.install({"toy.outer": ((Toy, "outer"),), "toy.inner": ((Toy, "inner"),)})
    assert Toy().outer(3) == 3
    assert tracer.uninstall()
    assert all(vars(Toy)[k] is originals[k] for k in ("outer", "inner"))

    s = tracer.spans()
    assert s["run_id"] == 7
    assert [s["names"][i] for i in s["name_ids"]] == ["toy.outer"] + ["toy.inner"] * 3
    np.testing.assert_array_equal(s["parents"], [-1, 0, 0, 0])
    assert np.all(s["ends"] >= s["starts"])
    selfs = self_times(s["parents"], s["starts"], s["ends"])
    assert selfs.sum() == s["ends"][0] - s["starts"][0]
    assert op_stats(s)["toy.inner"]["calls"] == 3
