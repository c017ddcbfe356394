import bisect
import dataclasses
import io
import itertools
import re
import struct
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from scipy import stats

from roer import binio, harness, nn
from roer.agents import SacAgent, SacConfig, TabularAgent, TabularConfig
from roer.binio import FormatError
from roer.harness import load_offline_dataset
from roer.oracles import OccupancyTable, kl_divergence_to_implied
from roer.replay import (
    EmptyBufferError,
    InvalidTransitionError,
    PriorityBuffer,
    SampledBatch,
    SumTree,
    UnsupportedModeError,
)


def make_transition(s=0, a=0, r=0.0, s2=1, terminal=False, step=0):
    """push's arguments for one transition."""
    return (s, a, r, s2, terminal, step)


def allocated_bytes(buf):
    """What a buffer's constructor allocated: its columns and the tree's
    nodes and prefix."""
    return (sum(col.nbytes for col in buf.columns.values()) + buf.tree.nodes.nbytes
            + buf.tree.prefix.nbytes)


def table_pass_bytes(buf):
    """What the byte ceiling counts beyond the allocation: a tabular buffer's
    implied_distribution table pass, a first slot and a sum for each cell."""
    return 16 * buf.state_dim * buf.action_dim if buf.discrete else 0


def tabular_buffer(capacity=8, counts=(16, 8)):
    """A buffer of a tabular problem with counts' (states, actions)."""
    return PriorityBuffer(capacity, *counts, discrete=True)


def vector_buffer(capacity=8, ds=3, da=2):
    return PriorityBuffer(capacity, state_dim=ds, action_dim=da)


# the largest float below 1, the largest that Generator.random draws
TOP_UNIFORM = 1 - 2.0**-53


class Uniforms:
    """A generator stub whose random(n) hands out the first n given floats."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, n):
        return self.values[:n]


class TestSumTree:
    def test_set_and_total(self):
        t = SumTree(4)
        t.set_many(np.array([0, 1, 2]), np.array([1.0, 2.0, 3.0]))
        assert t.total() == 6.0
        assert t.leaves(3)[1] == 2.0

    def test_find_prefix_deterministic(self):
        t = SumTree(4)
        t.set_many(np.array([0, 1, 2]), np.array([1.0, 2.0, 3.0]))
        # cumulative intervals: [0,1) -> 0, [1,3) -> 1, [3,6) -> 2
        found = t.find_prefix(np.array([0.0, 0.99, 1.0, 2.9, 3.0, 5.9]))
        assert list(found) == [0, 0, 1, 1, 2, 2]

    @pytest.mark.parametrize("capacity, depth, width", [
        (1 << 20, 2, 4096), (10**5, 2, 391), (5000, 1, 313), (4097, 1, 257),
        (4096, 0, 4096), (1, 0, 1)])
    def test_levels_under_the_prefix(self, capacity, depth, width):
        # the fewest 16-way levels that bring the top level to at most
        # PREFIX_WIDTH nodes; the leaves pad the capacity to whole subtrees
        tree = SumTree(capacity)
        assert (tree._depth, len(tree.prefix) - 1) == (depth, width)
        assert len(tree.leaves()) == width * 16**depth >= capacity
        assert len(tree.nodes) == width * sum(16**k for k in range(depth + 1))
        assert SumTree.nbytes(capacity) == tree.nodes.nbytes + tree.prefix.nbytes

class TestPush:
    def test_push_into_empty(self):
        buf = tabular_buffer()
        buf.push(*make_transition())
        assert len(buf) == 1
        assert buf.total_priority() == 1.0

    def test_byte_ceiling(self):
        # a 2^20-slot tabular buffer: 20 bytes a row (three uint8 index
        # columns, a bool flag, a float64 reward and an int64 insert step)
        # plus a tree of 2^20 leaves, 2^16 and 2^12 nodes above them, and a
        # prefix of 2^12 + 1 running sums
        buf = PriorityBuffer(1 << 20, 1, 1, discrete=True)
        assert allocated_bytes(buf) == (20 << 20) + 8 * ((1 << 20) + (1 << 16)
                                                         + 2 * (1 << 12) + 1)
        # and its 1 x 1 table's pass, 16 bytes
        assert table_pass_bytes(buf) == 16
        with pytest.raises(ValueError, match="ceiling"):
            PriorityBuffer(2**40, 3, 2)

    @pytest.mark.parametrize("args", [(1000, 1, 1, True), (1000, 3, 2, False),
                                      (1, 5, 4, False), (1000, 300, 2, True)])
    def test_ceiling_counts_what_is_allocated(self, monkeypatch, args):
        # a buffer that needs exactly MAX_BYTES (its allocation, and a tabular
        # one's table pass) fits, and one byte less refuses it
        buf = PriorityBuffer(*args)
        needed = allocated_bytes(buf) + table_pass_bytes(buf)
        monkeypatch.setattr(PriorityBuffer, "MAX_BYTES", needed)
        assert allocated_bytes(PriorityBuffer(*args)) == needed - table_pass_bytes(buf)
        monkeypatch.setattr(PriorityBuffer, "MAX_BYTES", needed - 1)
        with pytest.raises(ValueError, match=f"needs {needed} bytes"):
            PriorityBuffer(*args)

    @pytest.mark.parametrize("counts", [(1 << 32, 1), (1, (1 << 32) + 1), (1 << 16, 1 << 16),
                                        (1 << 28, 1), (2**41, 3)])
    def test_a_table_past_the_ceiling_is_refused(self, counts):
        # 16 bytes a cell: 2^28 cells take the whole 4 GiB, before the
        # columns and the tree; the table is counted, never allocated
        with pytest.raises(ValueError, match="above the ceiling"):
            PriorityBuffer(8, *counts, discrete=True)
        # a snapshot of such a buffer, its one row's indices below its counts
        buf = tabular_buffer(8, (1, 1))
        buf.push(*make_transition(s2=0))
        arrays = snapshot_arrays(buf)
        arrays["meta"][3:5] = counts
        with pytest.raises(FormatError, match="above the ceiling"):
            PriorityBuffer.load(envelope(arrays))
        # the largest table that fits one slot's buffer, whose states are
        # held as uint32, as those of 2^20 states are
        cells = (PriorityBuffer.MAX_BYTES
                 - allocated_bytes(PriorityBuffer(1, 1 << 20, 1, True))) // 16
        assert PriorityBuffer(1, cells, 1, discrete=True).state_dim == cells
        with pytest.raises(ValueError, match="above the ceiling"):
            PriorityBuffer(1, cells + 1, 1, discrete=True)

    @pytest.mark.parametrize("discrete", [True, False])
    def test_columns_are_the_row_layout(self, discrete):
        # every column but the tree's priorities, in the table's order and
        # dtypes; terminals held as bool, and the indices of counts (16, 8),
        # written as int64, held as uint8
        buf = tabular_buffer(5) if discrete else vector_buffer(5)
        layout = PriorityBuffer._row_layout(buf.state_dim, buf.action_dim, discrete)
        held = {name: (col.dtype, col.shape) for name, col in buf.columns.items()}
        assert list(layout) == [*held, "priorities"]
        assert list(PriorityBuffer.DATA) == list(held)[:5]
        # gather fills SampledBatch positionally
        assert [f.name for f in dataclasses.fields(SampledBatch)] == [
            "indices", *PriorityBuffer.DATA, "priorities"]
        narrow = {"terminals": np.dtype(bool)}
        if discrete:
            for name in ("states", "actions", "next_states"):
                assert layout[name][0] == np.int64, name
                narrow[name] = np.dtype(np.uint8)
        for name, (dtype, row) in layout.items():
            if name in held:
                assert held[name] == (narrow.get(name, dtype), (5, *row)), name

    def test_priority_additivity(self):
        buf = tabular_buffer()
        for i in range(3):
            buf.push(*make_transition(s=i))
        buf.update_priorities([0, 1, 2], [1.0, 2.0, 3.0])
        assert buf.total_priority() == 6.0

    def test_ring_overwrite(self):
        buf = tabular_buffer(capacity=4)
        for i in range(5):
            buf.push(*make_transition(s=i))
        assert len(buf) == 4
        assert int(buf.columns["states"][0]) == 4  # slot 0 overwritten by the 5th push
        assert buf.write_cursor == 1

    def test_rejects_a_negative_insert_step(self):
        # load's rule for the int64 columns: a snapshot holds no step below 0
        buf = tabular_buffer()
        with pytest.raises(InvalidTransitionError, match="insert_step -1"):
            buf.push(0, 0, 0.0, 1, False, insert_step=-1)
        assert len(buf) == 0

    # push's rules as Python tests: load's 0/1 flag rule for terminals, and
    # the index rule's integer test for the insert step
    @pytest.mark.parametrize("terminal, step, message", [
        ("yes", 2, "terminal 'yes' is not 0 or 1"), (0.5, 2, "terminal 0.5"),
        (7, 2, "terminal 7"), (np.nan, 2, "terminal nan"), (None, 2, "terminal None"),
        (False, 2.7, "insert_step 2.7 is not an integer"),
        (False, True, "insert_step True is not an integer"),
        (False, np.float64(3.0), r"insert_step np.float64\(3.0\) is not an integer")])
    def test_rejects_a_terminal_or_insert_step_without_its_rule(self, terminal, step,
                                                                message):
        buf = tabular_buffer()
        with pytest.raises(InvalidTransitionError, match=message):
            buf.push(0, 0, 0.0, 1, terminal, insert_step=step)
        assert len(buf) == 0
        for terminal, step in ((1, np.int32(2)), (0.0, 3), (np.bool_(True), 4)):
            buf.push(0, 0, 0.0, 1, terminal, insert_step=step)
        assert buf.columns["terminals"][:3].tolist() == [True, False, True]
        assert buf.columns["insert_steps"][:3].tolist() == [2, 3, 4]

    def test_rejects_nonfinite(self):
        buf = vector_buffer()
        with pytest.raises(InvalidTransitionError):
            buf.push(np.full(3, np.nan), np.zeros(2), 0.0,
                     np.zeros(3), False)
        with pytest.raises(InvalidTransitionError):
            buf.push(np.zeros(3), np.zeros(2), float("inf"),
                     np.zeros(3), False)

    # push and fill_offline take the same tabular indices: integers >= 0,
    # below the counts (16, 8)
    @pytest.mark.parametrize("index, valid", [
        (0, True), (5, True), (np.int64(7), True), (np.uint8(3), True),
        (2.7, False), (np.float64(2.0), False), (True, False), (np.bool_(True), False),
        (-3, False), (np.int64(-1), False)])
    @pytest.mark.parametrize("field", ["state", "action", "next_state"])
    def test_one_index_rule_for_push_and_offline_fill(self, field, index, valid):
        pushed, filled = tabular_buffer(), tabular_buffer()
        parts = dict(state=0, action=0, next_state=1)
        parts[field] = index
        column = dict(states=parts["state"], actions=parts["action"],
                      next_states=parts["next_state"])
        rows = dict({k: np.array([v]) for k, v in column.items()},
                    rewards=np.zeros(1), terminals=np.zeros(1, dtype=bool))
        if valid:
            pushed.push(parts["state"], parts["action"], 0.0,
                        parts["next_state"], False)
            filled.fill_offline(rows)
            assert buffer_state(pushed) == buffer_state(filled)
            return
        with pytest.raises(InvalidTransitionError, match=field):
            pushed.push(parts["state"], parts["action"], 0.0,
                        parts["next_state"], False)
        with pytest.raises(InvalidTransitionError, match=field):
            filled.fill_offline(rows)
        assert len(pushed) == len(filled) == 0

    @pytest.mark.parametrize("field", ["state", "action", "next_state"])
    def test_an_index_at_its_count_is_refused(self, field):
        # counts (16, 8): count - 1 is the last index each field takes
        buf = tabular_buffer(capacity=2)
        count = 8 if field == "action" else 16
        for index in (count - 1, np.int64(count - 1)):
            parts = dict(state=0, action=0, next_state=0)
            parts[field] = index
            buf.push(parts["state"], parts["action"], 0.0, parts["next_state"], False)
        before = buffer_state(buf)
        for index in (count, np.int64(count), 2**62):
            parts[field] = index
            message = f"{field} {index!r} is not an index in [0, {count})"
            with pytest.raises(InvalidTransitionError, match=f"^{re.escape(message)}$"):
                buf.push(parts["state"], parts["action"], 0.0, parts["next_state"], False)
            assert buffer_state(buf) == before

    @pytest.mark.parametrize("counts", [(0, 1), (1, 0), (-1, 4)])
    def test_a_tabular_count_below_one_is_refused(self, counts):
        with pytest.raises(ValueError, match=r"counts .* must be >= 1"):
            tabular_buffer(counts=counts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["state", "action", "reward", "next_state"])
    def test_rejects_each_nonfinite_field_before_any_write(self, field, bad):
        buf = vector_buffer(capacity=2)
        for k in range(2):  # full: the next push overwrites live slot 0
            buf.push(np.full(3, k), np.full(2, k), float(k), np.full(3, k), False)
        before = buffer_state(buf)
        parts = {"state": np.full(3, 5.0), "action": np.full(2, 5.0), "reward": 5.0,
                 "next_state": np.full(3, 5.0)}
        if field == "reward":
            parts["reward"] = bad
        else:
            parts[field][-1] = bad
        with pytest.raises(InvalidTransitionError, match=field):
            buf.push(**parts, terminal=False)
        assert buffer_state(buf) == before

    def test_rejects_wrong_shape(self):
        buf = vector_buffer(ds=3)
        with pytest.raises(InvalidTransitionError):
            buf.push(np.zeros(4), np.zeros(2), 0.0, np.zeros(3), False)

    def test_new_entries_get_unit_priority(self):
        buf = tabular_buffer(capacity=4)
        for i in range(3):
            buf.push(*make_transition(s=i))
        buf.update_priorities([0, 1, 2], [9.0, 9.0, 9.0])
        buf.push(*make_transition(s=3))
        assert buf.priorities[3] == 1.0
        for i in range(2):  # wrap and evict
            buf.push(*make_transition(s=10 + i))
        assert buf.priorities[0] == 1.0


class TestSampling:
    def test_proportional_frequencies(self):
        buf = tabular_buffer()
        for i in range(3):
            buf.push(*make_transition(s=i))
        buf.update_priorities([0, 1, 2], [1.0, 2.0, 3.0])
        rng = np.random.default_rng(2024)
        batch = buf.sample_proportional(60_000, rng)
        freqs = np.bincount(batch.indices, minlength=3) / 60_000
        expect = np.array([1 / 6, 1 / 3, 1 / 2])
        assert np.all(np.abs(freqs - expect) < 0.01)

    def test_single_entry(self):
        buf = tabular_buffer()
        buf.push(*make_transition(s=7))
        batch = buf.sample_proportional(100, np.random.default_rng(0))
        assert np.all(batch.indices == 0)
        assert np.all(batch.states == 7)

    def test_equal_priorities_chi2_uniform(self):
        buf = tabular_buffer(capacity=10)
        for i in range(10):
            buf.push(*make_transition(s=i))
        rng = np.random.default_rng(5)
        batch = buf.sample_proportional(10_000, rng)
        counts = np.bincount(batch.indices, minlength=10)
        expected = 1_000.0
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.ppf(0.999, df=9)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_the_largest_draw_is_clamped_to_the_last_live_slot(self, monkeypatch, depth):
        # with 16-way levels under the prefix, the leaves' row sums to more
        # than its running sums reach (np.add.reduce pairs the children), so
        # the descent for the largest target passes every child of the row
        # and takes its last, slot 15, past slot 3, the last live one
        monkeypatch.setattr(SumTree, "PREFIX_WIDTH", 1)
        buf = tabular_buffer(capacity={1: 5, 2: 20}[depth])
        assert buf.tree._depth == depth
        for i in range(4):
            buf.push(*make_transition(s=i))
        buf.update_priorities([0, 1, 2, 3], [0.1, 0.2, 1 / 3, 3.0])
        assert buf.tree.find_prefix([buf.total_priority() * TOP_UNIFORM]).tolist() == [15]
        batch = buf.sample_proportional(1, Uniforms([TOP_UNIFORM]))
        assert batch.indices.tolist() == [3]
        assert batch.priorities.tolist() == [3.0]

    def test_empty_buffer_errors(self):
        with pytest.raises(EmptyBufferError):
            tabular_buffer().sample_proportional(1, np.random.default_rng(0))

    def test_uniform_draw_carries_its_slots_priorities(self):
        # a uniform draw (LaBER's large batch, roer bias's probe) ignores the
        # priorities, but its batch carries those of the slots it drew
        buf = tabular_buffer()
        for i in range(4):
            buf.push(*make_transition(s=i))
        buf.update_priorities([0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0])
        batch = buf.sample_uniform(100, np.random.default_rng(1))
        assert np.array_equal(batch.priorities, batch.indices + 1.0)
        assert np.array_equal(batch.priorities, buf.priorities[batch.indices])

    def test_proportional_equals_uniform_when_priorities_equal(self):
        # with all-ones priorities the two sampling paths induce the same
        # distribution over slots (chi-squared on each against uniform)
        buf = tabular_buffer(capacity=10)
        for i in range(10):
            buf.push(*make_transition(s=i))
        rng = np.random.default_rng(31)
        crit = stats.chi2.ppf(0.999, df=9)
        for draw in (buf.sample_proportional, buf.sample_uniform):
            counts = np.bincount(draw(10_000, rng).indices, minlength=10)
            chi2 = ((counts - 1_000.0) ** 2 / 1_000.0).sum()
            assert chi2 < crit

    def test_batch_fields_consistent(self):
        buf = vector_buffer()
        rng = np.random.default_rng(3)
        for i in range(5):
            buf.push(rng.normal(size=3), rng.normal(size=2),
                     float(i), rng.normal(size=3), i % 2 == 0,
                     insert_step=i)
        batch = buf.sample_proportional(8, rng)
        assert len(batch) == 8
        cols = buf.columns
        for name in PriorityBuffer.DATA:
            assert np.array_equal(getattr(batch, name), cols[name][batch.indices])
        assert np.array_equal(cols["insert_steps"][batch.indices], batch.indices)


class TestUpdatePriorities:
    def test_replace_not_accumulate(self):
        buf = tabular_buffer()
        for i in range(3):
            buf.push(*make_transition(s=i))
        buf.update_priorities([0], [5.0])
        assert buf.total_priority() == 7.0
        buf.update_priorities([0], [5.0])
        assert buf.total_priority() == 7.0

    def test_zero_priority_rejected(self):
        # a priority the run computed: its own bad value, not a bad input
        buf = tabular_buffer()
        buf.push(*make_transition())
        with pytest.raises(FloatingPointError):
            buf.update_priorities([0], [0.0])
        with pytest.raises(FloatingPointError):
            buf.update_priorities([0], [float("nan")])

    @pytest.mark.parametrize("slots, values", [
        ([0], [float("nan")]), ([1], [float("inf")]), ([0], [float("-inf")]),
        ([1], [0.0]), ([0], [-0.0]), ([0, 1], [1.0, -2.0]),
        ([-1], [1.0]), ([2], [1.0]), ([0, 7], [1.0, 1.0]),
    ])
    def test_bad_write_rejected_before_any_change(self, slots, values):
        buf = tabular_buffer()
        buf.push(*make_transition())
        buf.push(*make_transition(s=1))
        before = buf.tree.nodes.tobytes()
        # a slot outside the two live ones is a bad call; a bad value is the run's own
        live = all(0 <= slot < 2 for slot in slots)
        error = FloatingPointError if live else InvalidTransitionError
        with pytest.raises(error):
            buf.update_priorities(slots, values)
        assert buf.tree.nodes.tobytes() == before

    def test_empty_write_accepted(self):
        buf = tabular_buffer()
        buf.push(*make_transition())
        before = buf.tree.nodes.tobytes()
        buf.update_priorities([], [])
        buf.update_priorities(np.zeros(0, dtype=np.int64), np.zeros(0))
        assert buf.tree.nodes.tobytes() == before

    def test_noop_update_bit_identical(self):
        buf = tabular_buffer()
        for i in range(3):
            buf.push(*make_transition(s=i))
        buf.update_priorities([0, 1, 2], [0.3, 0.7, 1.9])
        before = buf.total_priority()
        buf.update_priorities([0, 1, 2], [0.3, 0.7, 1.9])
        assert buf.total_priority() == before  # exact, not approx

    def test_duplicate_slot_keeps_its_last_value(self):
        buf = tabular_buffer(capacity=16)
        for i in range(16):
            buf.push(*make_transition(s=i))
        buf.update_priorities([3, 7, 3, 3, 7, 12], [2.0, 5.0, 0.5, 4.0, 1.5, 3.0])
        assert (buf.priorities[3], buf.priorities[7], buf.priorities[12]) == (4.0, 1.5, 3.0)
        assert buf.total_priority() == 13 + 4.0 + 1.5 + 3.0

    @pytest.mark.parametrize("depth", [0, 3])
    def test_duplicate_slots_leave_the_tree_a_fresh_rebuild_gives(self, depth):
        capacity = 5000
        cls = narrow_tree(capacity, depth)
        tree = cls(capacity)
        rng = np.random.default_rng(5)
        for _ in range(20):
            # a batch of 64 draws over 10 slots: every slot repeats
            slots = rng.choice(rng.integers(0, capacity, 10), size=64)
            tree.set_many(slots, rng.random(64) * 10.0 ** rng.integers(-8, 9, 64))
        ref = cls(capacity)
        ref.set_range(0, capacity, tree.leaves(capacity))
        assert tree.nodes.tobytes() == ref.nodes.tobytes()
        assert tree.total() == ref.total()
        assert tree.prefix.tobytes() == ref.prefix.tobytes()

class TestImpliedDistribution:
    def test_two_entry_weights(self):
        buf = tabular_buffer()
        buf.push(*make_transition(s=0, a=0))
        buf.push(*make_transition(s=1, a=0))
        buf.update_priorities([0, 1], [1.0, 3.0])
        dist = buf.implied_distribution()
        assert (dist.shape, dist.dtype) == ((16, 8), np.float64)
        assert (dist[0, 0], dist[1, 0]) == (0.25, 0.75)
        assert np.count_nonzero(dist) == 2

    def test_uniform_over_distinct_pairs(self):
        buf = tabular_buffer(capacity=12)
        for s in range(3):
            for a in range(2):
                buf.push(*make_transition(s=s, a=a))
        dist = buf.implied_distribution()
        assert np.count_nonzero(dist) == 6
        assert dist[:3, :2].tolist() == [[1 / 6] * 2] * 3
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), capacity=st.integers(1, 48), counts=st.tuples(
        st.integers(1, 12), st.integers(1, 6)))
    def test_the_table_is_the_running_sum_and_keeps_the_kl_bits(self, data, capacity,
                                                                  counts):
        # S x A (1 to 72 cells) on either side of the live size (1 to 48
        # slots); priorities over many binades, so that a total added in
        # another order than the cells' first slots rounds differently
        buf = tabular_buffer(capacity, counts)
        n = data.draw(st.integers(1, 2 * capacity))
        rows = data.draw(dataset(buf, n))
        # pairs that repeat, in any order of first slots
        pairs = data.draw(st.lists(st.tuples(st.integers(0, counts[0] - 1),
                                             st.integers(0, counts[1] - 1)),
                                   min_size=1, max_size=6))
        picks = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, len(pairs) - 1)))
        rows["states"] = np.array([pairs[k][0] for k in picks])
        rows["actions"] = np.array([pairs[k][1] for k in picks])
        buf.fill_offline(rows)
        buf.update_priorities(np.arange(len(buf)), data.draw(hnp.arrays(
            np.float64, len(buf), elements=st.floats(1e-8, 1e8) | st.floats(1.0, 2.0),
            fill=st.nothing())))
        table = buf.implied_distribution()
        assert_implied_is_the_reference(buf, table)
        # a target occupancy with zero cells, on held and unheld cells alike
        weights = data.draw(hnp.arrays(np.float64, counts,
                                       elements=st.sampled_from((0.0, 0.5, 1.0, 3.0))
                                       | st.floats(1e-3, 1e3)))
        if not weights.any():
            weights[0, 0] = 1.0
        target = OccupancyTable(weights / weights.sum())
        assert (kl_divergence_to_implied(target, table)
                == kl_reference(target, implied_reference(buf)))

    def test_continuous_requires_bucketing(self):
        buf = vector_buffer()
        buf.push(np.zeros(3), np.zeros(2), 0.0, np.zeros(3), False)
        with pytest.raises(UnsupportedModeError):
            buf.implied_distribution()


def written_columns(buf):
    """The buffer's live columns as a snapshot writes them: each in its
    _row_layout dtype, whatever the dtype it is held in."""
    layout = PriorityBuffer._row_layout(buf.state_dim, buf.action_dim, buf.discrete)
    return {name: column.astype(layout[name][0])
            for name, column in buf._live_columns().items()}


def snapshot_bytes(buf):
    stream = io.BytesIO()
    buf.snapshot(stream)
    return stream.getvalue()


def snapshot_arrays(buf):
    """The snapshot's arrays, as copies that a test may change."""
    payload = binio.read_envelope(io.BytesIO(snapshot_bytes(buf)), binio.KIND_BUFFER)
    return {name: arr.copy() for name, arr in binio.payload_to_arrays(payload).items()}


def envelope(arrays):
    stream = io.BytesIO()
    binio.write_envelope(stream, binio.KIND_BUFFER, binio.arrays_to_payload(arrays))
    stream.seek(0)
    return stream


def reference_envelope(kind, arrays):
    """An envelope as one bytes object, built field by field from the layout
    in binio's docstring: the bytes a streamed payload must write."""
    codes = {"<f8": 0, "<i8": 1, "|u1": 2}
    out = [struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        dtype = arr.dtype.newbyteorder("<")
        nb = name.encode("utf-8")
        out += [struct.pack("<I", len(nb)), nb,
                struct.pack("<BB", codes[dtype.str], arr.ndim),
                *(struct.pack("<Q", d) for d in arr.shape),
                arr.astype(dtype).tobytes()]
    payload = b"".join(out)
    return binio.MAGIC + struct.pack("<HHI", binio.VERSION, kind, len(payload)) + payload


class TestEnvelope:
    def test_read_arrays_are_read_only_views_of_the_payload(self):
        arrays = {"a": np.arange(5.0), "b": np.eye(2), "c": np.zeros((0, 3))}
        stream = io.BytesIO()
        nn.save_checkpoint(stream, arrays)
        stream.seek(0)
        payload = binio.read_envelope(stream, binio.KIND_CHECKPOINT)
        loaded = binio.payload_to_arrays(payload)
        for name, arr in arrays.items():
            assert np.array_equal(loaded[name], arr)
            assert not loaded[name].flags.writeable
        assert np.shares_memory(loaded["a"], np.frombuffer(payload, np.uint8))
        with pytest.raises(ValueError, match="read-only"):
            loaded["a"][0] = 1.0

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_an_array_written_in_another_dtype_equals_its_cast(self, data):
        # narrow integers and flags written as int64 or uint8, in pieces of
        # binio.PIECE_BYTES: sizes on both sides of a piece's boundary
        piece = binio.PIECE_BYTES // 8
        arrays, dtypes = {}, {}
        for name in data.draw(st.lists(st.text(max_size=4), max_size=3, unique=True)):
            held = data.draw(st.sampled_from(["u1", "<u2", ">u4", "<u8", "?"]))
            size = data.draw(st.sampled_from([0, 1, piece - 1, piece, piece + 1,
                                              3 * piece + 5]))
            arrays[name] = data.draw(hnp.arrays(held, size, elements=(
                st.booleans() if held == "?" else st.integers(0, 255))))
            dtypes[name] = np.dtype(data.draw(st.sampled_from(["<i8", "u1"])))
        want = reference_envelope(binio.KIND_BUFFER, {
            name: arr.astype(dtypes[name]) for name, arr in arrays.items()})
        payload = binio.arrays_to_payload(arrays, dtypes)
        assert len(payload) == len(want) - 16
        stream = io.BytesIO()
        binio.write_envelope(stream, binio.KIND_BUFFER, payload)
        assert stream.getvalue() == want

    @pytest.mark.parametrize("kind", [binio.KIND_BUFFER, binio.KIND_CHECKPOINT])
    def test_written_bytes_are_header_plus_payload(self, kind, tmp_path):
        arrays = {"a": np.arange(5.0), "b": np.eye(2)}
        payload = binio.arrays_to_payload(arrays)
        want = reference_envelope(kind, arrays)
        assert len(payload) == len(want) - 16
        stream = io.BytesIO()
        binio.write_envelope(stream, kind, payload)
        path = tmp_path / "envelope.bin"
        binio.write_envelope(path, kind, payload)
        assert stream.getvalue() == want
        assert path.read_bytes() == want

    @settings(max_examples=100, deadline=None)
    @given(arrays=st.dictionaries(
        st.text(max_size=6),
        hnp.arrays(st.sampled_from(["<f8", ">f8", "<i8", ">i8", "u1"]),
                   hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
        max_size=4),
        transpose=st.booleans())
    def test_streamed_checkpoint_equals_the_bytes_reference(self, arrays, transpose):
        # any byte order, zero-size and 0-d arrays, and (transposed) arrays
        # that are not contiguous
        if transpose:
            arrays = {name: arr.T for name, arr in arrays.items()}
        want = reference_envelope(binio.KIND_CHECKPOINT, arrays)
        stream = io.BytesIO()
        nn.save_checkpoint(stream, arrays)
        assert len(binio.arrays_to_payload(arrays)) == len(want) - 16
        assert stream.getvalue() == want
        stream.seek(0)
        loaded = nn.load_checkpoint(stream)
        assert list(loaded) == list(arrays)
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.astype(loaded[name].dtype).tobytes()


PAYLOAD_DEFECTS = ("short meta", "v1 layout", "missing column",
                   "size above capacity", "cursor at capacity",
                   "cursor apart from size", "short column", "wide rows",
                   "float steps", "huge capacity", "huge state dim")


def break_payload(arrays, defect):
    """Damage the snapshot arrays of a full buffer of capacity 8."""
    meta = arrays["meta"]
    if defect == "short meta":
        arrays["meta"] = meta[:5]
    elif defect == "v1 layout":
        # meta with the next entry id and the stale-write count, plus ids
        capacity, size, cursor, sdim, adim, discrete = meta
        arrays["meta"] = np.array([capacity, size, cursor, size, sdim, adim,
                                   discrete, 0])
        arrays["entry_ids"] = np.arange(size)
    elif defect == "missing column":
        del arrays["rewards"]
    elif defect == "size above capacity":
        meta[1] = meta[0] + 1
    elif defect == "cursor at capacity":
        meta[2] = meta[0]
    elif defect == "cursor apart from size":
        # one row short of full, so the next push must go to slot size
        meta[1] -= 1
        for name in arrays:
            if name != "meta":
                arrays[name] = arrays[name][:-1]
    elif defect == "short column":
        arrays["priorities"] = arrays["priorities"][:-1]
    elif defect == "wide rows":
        arrays["states"] = np.concatenate([arrays["states"]] * 2, axis=1)
    elif defect == "float steps":
        arrays["insert_steps"] = arrays["insert_steps"].astype(np.float64)
    elif defect == "huge capacity":
        # consistent meta and columns, but 2^40 slots: refused, not allocated
        meta[0] = 2**40
        meta[2] = meta[1]
    else:
        # the columns keep 3 state entries per row; nothing is allocated
        meta[3] = 2**40


def trained_files():
    """(loader, bytes) of a buffer snapshot, a SAC checkpoint and a tabular
    checkpoint, each written after some training-like writes."""
    rng = np.random.default_rng(5)
    buf = vector_buffer(capacity=8)
    for i in range(11):
        buf.push(rng.normal(size=3), rng.normal(size=2), float(i), rng.normal(size=3),
                 i % 3 == 0, insert_step=i)
    buf.update_priorities(np.arange(4), rng.uniform(0.5, 2.0, size=4))
    sac_config = SacConfig(hidden_dims=(4,), batch_size=4)
    sac = SacAgent(3, 2, sac_config, seed=6)
    sac.update(buf.sample_uniform(4, rng), np.ones(4), rng)
    tabular_config = TabularConfig()
    tabular = TabularAgent(5, 2, tabular_config)
    tabular.q_table[:] = rng.normal(size=(5, 2))
    files = {}
    for name, obj, load in (
            ("buffer", buf, PriorityBuffer.load),
            ("sac", sac, lambda f: SacAgent.load(f, sac_config)),
            ("tabular", tabular, lambda f: TabularAgent.load(f, tabular_config))):
        stream = io.BytesIO()
        (obj.snapshot if name == "buffer" else obj.save)(stream)
        files[name] = load, stream.getvalue()
    return files


TRAINED_FILES = trained_files()


class TestTruncation:
    @pytest.mark.parametrize("kind", sorted(TRAINED_FILES))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_truncation_is_a_format_error(self, kind, data):
        load, whole = TRAINED_FILES[kind]
        load(io.BytesIO(whole))  # the whole file loads
        cut = data.draw(st.integers(0, len(whole) - 1))
        with pytest.raises(FormatError):
            load(io.BytesIO(whole[:cut]))

    @pytest.mark.parametrize("kind", sorted(TRAINED_FILES))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_header_byte_change_is_a_format_error(self, kind, data):
        # magic, version, payload kind and payload length: bytes 0..15
        load, whole = TRAINED_FILES[kind]
        at = data.draw(st.integers(0, 15))
        changed = bytearray(whole)
        changed[at] = data.draw(st.integers(0, 255).filter(lambda b: b != whole[at]))
        with pytest.raises(FormatError):
            load(io.BytesIO(bytes(changed)))


class TestSnapshot:
    @pytest.mark.parametrize("buf", [tabular_buffer(), vector_buffer()],
                             ids=["tabular", "vector"])
    def test_empty_buffer_round_trip(self, buf):
        # every column has zero rows, and vector columns are (0, dim)
        data = snapshot_bytes(buf)
        assert data == reference_envelope(binio.KIND_BUFFER, {
            "meta": np.array([8, 0, 0, buf.state_dim, buf.action_dim,
                              int(buf.discrete)]), **written_columns(buf)})
        loaded = PriorityBuffer.load(io.BytesIO(data))
        assert buffer_state(loaded) == buffer_state(buf)
        assert all(loaded.columns[name].shape == column.shape
                   for name, column in buf.columns.items())

    def test_truncated_stream(self):
        buf = tabular_buffer()
        buf.push(*make_transition())
        stream = io.BytesIO()
        buf.snapshot(stream)
        data = stream.getvalue()
        with pytest.raises(FormatError):
            PriorityBuffer.load(io.BytesIO(data[: len(data) // 2]))

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            PriorityBuffer.load(io.BytesIO(b"NOTMAGIC" + b"\x00" * 32))

    def test_version_1_rejected(self):
        data = bytearray(snapshot_bytes(tabular_buffer()))
        data[8:10] = (1).to_bytes(2, "little")
        with pytest.raises(FormatError, match="unsupported format version 1"):
            PriorityBuffer.load(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize("defect", PAYLOAD_DEFECTS)
    def test_malformed_payload_rejected(self, defect):
        buf = vector_buffer(capacity=8)
        for i in range(10):
            buf.push(np.full(3, i), np.zeros(2), 0.0, np.zeros(3),
                     False, insert_step=i)
        arrays = snapshot_arrays(buf)
        break_payload(arrays, defect)
        with pytest.raises(FormatError):
            PriorityBuffer.load(envelope(arrays))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_priority_rejected(self, bad):
        # once loaded, a priority meets no later check: sampling and the loss
        # weights trust the tree
        buf = tabular_buffer()
        for i in range(3):
            buf.push(*make_transition(s=i))
        arrays = snapshot_arrays(buf)
        arrays["priorities"][1] = bad
        with pytest.raises(FormatError, match="priorities"):
            PriorityBuffer.load(envelope(arrays))

    @pytest.mark.parametrize("discrete, column, bad, message", [
        (True, "states", -3, "states holds an index below 0"),
        (True, "actions", -1, "actions holds an index below 0"),
        (True, "next_states", -2**62, "next_states holds an index below 0"),
        # the counts (16, 8) in the meta bound the index columns
        (True, "states", 16, "states holds index 16, but the buffer has 16 states"),
        (True, "actions", 8, "actions holds index 8, but the buffer has 8 actions"),
        (True, "next_states", 2**62,
         f"next_states holds index {2**62}, but the buffer has 16 states"),
        (True, "rewards", np.nan, "rewards contains non-finite values"),
        (False, "states", np.inf, "states contains non-finite values"),
        (False, "actions", np.nan, "actions contains non-finite values"),
        (False, "next_states", -np.inf, "next_states contains non-finite values"),
        (False, "rewards", np.inf, "rewards contains non-finite values"),
        (True, "terminals", 7, "terminals holds a flag other than 0 or 1"),
        (False, "terminals", 2, "terminals holds a flag other than 0 or 1"),
        (True, "insert_steps", -1, "insert_steps holds a step below 0")])
    def test_bad_column_value_rejected(self, discrete, column, bad, message):
        # one rule per kind of column: indices >= 0, floats finite, flags 0/1
        buf = tabular_buffer() if discrete else vector_buffer()
        for i in range(3):
            buf.push(*make_transition(s=i) if discrete else
                     (np.full(3, i), np.zeros(2), 0.0, np.zeros(3), False))
        arrays = snapshot_arrays(buf)
        arrays[column].reshape(-1)[-1] = bad
        with pytest.raises(FormatError, match=message):
            PriorityBuffer.load(envelope(arrays))

    @pytest.mark.parametrize("size", [0, 3])
    @pytest.mark.parametrize("at", [3, 4])
    def test_a_tabular_count_below_one_rejected(self, at, size):
        buf = tabular_buffer()
        for _ in range(size):
            buf.push(*make_transition(s2=0))
        arrays = snapshot_arrays(buf)
        arrays["meta"][at] = 0
        with pytest.raises(FormatError):
            PriorityBuffer.load(envelope(arrays))

    def test_unit_dims_of_an_older_tabular_snapshot_rejected(self):
        # tabular snapshots once held dims (1, 1) beside indices of any size:
        # an index of 1 or more breaks the meta's range
        buf = tabular_buffer()
        for i in range(3):
            buf.push(*make_transition(s=i, s2=0))
        arrays = snapshot_arrays(buf)
        arrays["meta"][3:5] = 1
        with pytest.raises(FormatError, match="states holds index 2, but the buffer "
                                              "has 1 states"):
            PriorityBuffer.load(envelope(arrays))

    def test_offline_fill_unit_priorities(self):
        n = 20
        buf = tabular_buffer(capacity=32, counts=(n + 1, 1))
        buf.fill_offline(dict(
            states=np.arange(n), actions=np.zeros(n, dtype=int),
            rewards=np.linspace(0, 1, n), next_states=np.arange(n) + 1,
            terminals=np.zeros(n, dtype=bool),
        ))
        assert np.all(buf.priorities == 1.0)


# ----------------------------------------------------------------------
# property tests

COLUMNS = ("states", "actions", "rewards", "next_states", "terminals")
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def implied_reference(buf):
    """Reference for implied_distribution: one running sum per slot, each
    pair's sum over the total of the sums in the order of their first slots,
    keyed by (state, action) in that order."""
    pri = buf.tree.leaves(buf.size)
    out = {}
    for i in range(buf.size):
        k = (int(buf.columns["states"][i]), int(buf.columns["actions"][i]))
        out[k] = out.get(k, 0.0) + pri[i]
    total = sum(out.values())
    return {k: v / total for k, v in out.items()}


def assert_implied_is_the_reference(buf, table):
    """table, implied_distribution's (S, A) float64 table, holds each
    reference pair's value at its cell, bit for bit, and +0.0 in every
    other cell."""
    want = np.zeros((buf.state_dim, buf.action_dim))
    for (s, a), value in implied_reference(buf).items():
        want[s, a] = value
    assert (table.shape, table.dtype) == (want.shape, np.float64)
    assert table.tobytes() == want.tobytes()


def kl_reference(d_target, implied: dict, eps: float = 1e-12) -> float:
    """KL(d_target || implied) over an implied distribution keyed by (state,
    action) pairs: the loop oracles.kl_divergence_to_implied ran when the
    buffer handed out a dict, whose bits the table must keep."""
    S, A = d_target.table.shape
    out = 0.0
    for s in range(S):
        for a in range(A):
            p = d_target.table[s, a]
            if p <= 0.0:
                continue
            q = max(implied.get((s, a), 0.0), eps)
            out += p * np.log(p / q)
    return float(out)


def buffer_state(buf):
    """What a reader of a buffer sees: its snapshot (counters, live slots
    and their priorities) and its sum tree, prefix included; not the bytes
    of slots past size, which nothing reads."""
    buf.total_priority()
    return [snapshot_bytes(buf), buf.tree.nodes.tobytes(), buf.tree.prefix.tobytes()]


def fresh_twin(buf):
    return PriorityBuffer(buf.capacity, buf.state_dim, buf.action_dim, buf.discrete)


def assert_left_empty(buf):
    """What a rejected fill leaves: a buffer that reads as a fresh one."""
    assert (len(buf), buf.write_cursor, buf.total_priority()) == (0, 0, 0.0)
    assert buffer_state(buf) == buffer_state(fresh_twin(buf))


def npz(rows) -> io.BytesIO:
    """rows as an np.savez archive, in a stream the loader reads."""
    stream = io.BytesIO()
    np.savez(stream, **rows)
    stream.seek(0)
    return stream


# tabular counts: small ones, whose indices repeat, and the counts at which
# an index column's held dtype widens (uint8 up to 256, uint16 up to 2**16,
# uint32 above), or any; in pairs whose S x A table has at most TABLE_CELLS
# cells, so that a table pass takes at most 4 MiB. A count of 2**32 or
# more (uint64) makes a table past the byte ceiling, which the buffer
# refuses (TestPush.test_a_table_past_the_ceiling_is_refused).
INDEX_COUNTS = (1, 2, 5, 255, 256, 257, 1 << 16, (1 << 16) + 1)
TABLE_CELLS = 1 << 18


@st.composite
def table_counts(draw):
    """(states, actions): either count drawn first, the other drawn to fit."""
    def count(limit):
        return st.sampled_from([c for c in INDEX_COUNTS if c <= limit]) | st.integers(1, limit)
    first = draw(count(TABLE_CELLS))
    second = draw(count(TABLE_CELLS // first))
    return (first, second) if draw(st.booleans()) else (second, first)


@st.composite
def dataset(draw, buf: PriorityBuffer, n: int):
    """n rows that buf takes: indices below its counts, or vectors of its dims."""
    if buf.discrete:
        def index(count):
            return np.array(draw(st.lists(st.integers(0, count - 1), min_size=n,
                                          max_size=n)), dtype=np.int64)
        states, actions = index(buf.state_dim), index(buf.action_dim)
        next_states = index(buf.state_dim)
    else:
        states = draw(hnp.arrays(np.float64, (n, buf.state_dim), elements=finite))
        actions = draw(hnp.arrays(np.float64, (n, buf.action_dim), elements=finite))
        next_states = draw(hnp.arrays(np.float64, (n, buf.state_dim), elements=finite))
    return dict(states=states, actions=actions,
                rewards=draw(hnp.arrays(np.float64, n, elements=finite)),
                next_states=next_states,
                terminals=draw(hnp.arrays(np.bool_, n)))


@st.composite
def empty_buffers(draw, discrete: bool):
    """An empty buffer of a drawn capacity and counts: an offline fill
    fills only an empty buffer."""
    capacity, counts = draw(st.integers(1, 10)), draw(table_counts())
    return tabular_buffer(capacity, counts) if discrete else vector_buffer(capacity)


class TestOfflineFillProperties:
    @pytest.mark.parametrize("discrete", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bad_column_rejected_before_any_write(self, discrete, data):
        # the columns before the bad one may have been copied into slots
        # past size, but the buffer reads as empty, and a valid fill after
        # it is a fill into a fresh buffer
        buf = data.draw(empty_buffers(discrete))
        n = data.draw(st.integers(1, 12))
        rows = data.draw(dataset(buf, n))
        name = data.draw(st.sampled_from(COLUMNS))
        col = rows[name]
        defects = ["short", "wide", "complex", "structured", "string"]
        if col.dtype == np.float64:
            defects.append("non-finite")
        if discrete and name in ("states", "actions", "next_states"):
            defects += ["float index", "negative index", "index at its count"]
        if name == "terminals":
            defects.append("flag")
        defect = data.draw(st.sampled_from(defects))
        if defect == "short":
            rows[name] = col[:-1]
        elif defect == "wide":
            rows[name] = np.concatenate([col.reshape(n, -1)] * 2, axis=1)
        elif defect == "non-finite":
            col = col.copy()
            col.flat[data.draw(st.integers(0, col.size - 1))] = data.draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
            rows[name] = col
        elif defect == "negative index":
            col = col.copy()
            col.flat[data.draw(st.integers(0, col.size - 1))] = data.draw(
                st.integers(-2**40, -1))
            rows[name] = col
        elif defect == "index at its count":
            count = buf.action_dim if name == "actions" else buf.state_dim
            col = col.copy()
            col.flat[data.draw(st.integers(0, col.size - 1))] = data.draw(
                st.sampled_from([count, count + 1, 2**62]))
            rows[name] = col
        elif defect == "flag":  # load's rule: a terminal is 0 or 1
            col = col.astype(np.float64)
            col.flat[data.draw(st.integers(0, col.size - 1))] = data.draw(
                st.sampled_from([0.5, 7.0, np.nan, -1.0, 2.0]))
            rows[name] = col
        elif defect == "complex":  # the imaginary part would be dropped
            rows[name] = col + 5j
        elif defect == "structured":
            rows[name] = np.rec.fromarrays([col], names="value")
        elif defect == "string":
            rows[name] = col.astype(str)
        else:
            rows[name] = col.astype(np.float64)
        with pytest.raises(InvalidTransitionError, match=name):
            buf.fill_offline(rows)
        assert_left_empty(buf)
        valid = data.draw(dataset(buf, data.draw(st.integers(0, 2 * buf.capacity + 3))))
        buf.fill_offline(valid)
        ref = fresh_twin(buf)
        ref.fill_offline(valid)
        assert buffer_state(buf) == buffer_state(ref)

    @pytest.mark.parametrize("discrete", [True, False])
    @pytest.mark.parametrize("defect, message", [
        ("flag", "terminals holds a flag other than 0 or 1"),
        ("short", r"terminals has shape \(5,\), but rewards has 6 rows")])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_a_file_whose_last_column_breaks_a_rule_changes_nothing(
            self, discrete, defect, message, data):
        # the fill reads the file's last column after copying every other one
        buf = data.draw(empty_buffers(discrete))
        rows = data.draw(dataset(buf, 6))
        rows["terminals"] = (np.array([0, 1, 2, 0, 1, 0]) if defect == "flag"
                             else rows["terminals"][:5])
        with pytest.raises(InvalidTransitionError, match=message):
            load_offline_dataset(npz(rows), buf)
        assert_left_empty(buf)

    def test_the_loader_looks_up_each_member_once(self, monkeypatch):
        names = []
        lookup = harness._NpzColumns.__getitem__
        monkeypatch.setattr(harness._NpzColumns, "__getitem__",
                            lambda self, name: names.append(name) or lookup(self, name))
        buf, n = tabular_buffer(), 12
        rows = dict(zip(COLUMNS, (np.arange(n) % 16, np.arange(n) % 8, np.arange(n) / 2,
                                  np.arange(1, n + 1) % 16, np.arange(n) % 5 == 0)))
        load_offline_dataset(npz(rows), buf)
        assert names == ["rewards", "states", "actions", "next_states", "terminals"]
        ref = tabular_buffer()
        ref.fill_offline(rows)
        assert buffer_state(buf) == buffer_state(ref)


W = SumTree.PREFIX_WIDTH
F = SumTree.FANOUT


def prefix_of(level):
    """The prefix over a top level: a leading 0, then its running sums."""
    return np.concatenate(([0.0], np.add.accumulate(level)))


def reference_levels(leaves, width):
    """A plain F-way tree over leaves, built from scratch: each level, from
    the leaves up, padded with zeros to whole rows of F children, and above
    it a node per row, np.add.reduce of that row, up to the first level of
    at most width nodes. Each level is returned padded with zeros to F**k
    nodes for each top node, k levels up from it."""
    levels = [np.asarray(leaves, dtype=np.float64)]
    while len(levels[-1]) > width:
        level = levels[-1] = np.pad(levels[-1], (0, -len(levels[-1]) % F))
        levels.append(np.array([np.add.reduce(level[i:i + F])
                                for i in range(0, len(level), F)]))
    top, depth = len(levels[-1]), len(levels) - 1
    return [np.pad(level, (0, top * F ** (depth - k) - len(level)))
            for k, level in enumerate(levels)]


def reference_find_prefix(leaves, width, targets):
    """The slot each target lands in, one target and one level at a time:
    the last top-level node whose running sum is at most the target, then
    in each row below, the first child (of the first F - 1) whose running
    sum exceeds what is left of the target, else the row's last."""
    levels = reference_levels(leaves, width)
    prefix = prefix_of(levels[-1]).tolist()
    slots = []
    for t in np.asarray(targets, dtype=np.float64).tolist():
        j = min(bisect.bisect_right(prefix, t) - 1, len(levels[-1]) - 1)
        u = t - prefix[j]
        for level in reversed(levels[:-1]):
            sums = np.add.accumulate(level[j * F:(j + 1) * F]).tolist()
            child = next((k for k in range(F - 1) if sums[k] > u), F - 1)
            u -= sums[child - 1] if child else 0.0
            j = j * F + child
        slots.append(j)
    return np.array(slots, dtype=np.int64)


def capacity_leaves(leaves, capacity):
    """leaves, then zeros up to capacity."""
    return np.pad(np.asarray(leaves, dtype=np.float64), (0, capacity - len(leaves)))


def assert_tree_is_the_reference(tree, leaves, capacity):
    """tree's nodes and prefix are the bytes that a from-scratch reference
    tree of its class's prefix width gives over leaves (zeros past them, up
    to capacity), and its level views never leave its nodes."""
    assert all(rows.base is tree.nodes and up.base is tree.nodes
               for rows, up in tree._steps)
    levels = reference_levels(capacity_leaves(leaves, capacity), type(tree).PREFIX_WIDTH)
    assert tree.nodes.tobytes() == np.concatenate(levels).tobytes()
    tree.total()
    assert tree.prefix.tobytes() == prefix_of(levels[-1]).tobytes()


class TestTreeProperties:
    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 300) | st.sampled_from((W + 1, 3 * W)),
           width=st.sampled_from((1, 2, 8, 32, W)), data=st.data())
    def test_find_prefix_is_monotone_positive_and_the_reference_descent(
            self, capacity, width, data):
        # a narrow prefix puts several 16-way levels under it in a small tree
        tree = type("Tree", (SumTree,), {"PREFIX_WIDTH": width})(capacity)
        size = data.draw(st.integers(1, capacity))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # positive leaves over many binades, zeros past size
        leaves = (1.0 - rng.random(size)) * 10.0 ** rng.integers(-8, 9, size)
        tree.set_many(np.arange(size), leaves)
        assert_tree_is_the_reference(tree, leaves, capacity)
        total = tree.total()
        # each boundary, the exact running sum of the leaves, rounded once
        edges = np.array([float(c) for c in itertools.accumulate(map(Fraction, leaves))])
        targets = np.concatenate([
            rng.random(256) * total,
            data.draw(st.lists(st.floats(0.0, total, exclude_max=True), max_size=8)),
            # the floats on either side of each boundary
            np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
        targets = np.sort(targets[(targets >= 0.0) & (targets < total)])
        slots = tree.find_prefix(targets)
        assert (np.diff(slots) >= 0).all()
        clamped = np.minimum(slots, size - 1)
        assert (tree.leaves()[clamped] > 0.0).all()
        # a draw rounded up to the total stays inside the tree
        last = tree.find_prefix(np.array([total]))
        assert 0 <= last[0] < len(tree.leaves()) and tree.leaves()[min(last[0], size - 1)] > 0
        # the reference's descent, boundaries included (at most about 2,048
        # of the targets, which it takes one at a time)
        every = -(-len(targets) // 2048)
        assert np.array_equal(slots[::every], reference_find_prefix(
            capacity_leaves(leaves, capacity), width, targets[::every]))
        # the slot whose exact interval holds the target, except for targets
        # within 4 ulps of a boundary: the boundaries nearest a target are
        # the edges on either side of its place among them, and a float
        # difference that small is exact
        at = np.searchsorted(edges, targets)
        near = np.zeros(len(targets), dtype=bool)
        for k in (np.maximum(at - 1, 0), np.minimum(at, size - 1)):
            near |= np.abs(targets - edges[k]) <= 4 * np.spacing(edges[k])
        want = np.minimum(np.searchsorted(edges, targets, side="right"), size - 1)
        assert np.array_equal(clamped[~near], want[~near])


@st.composite
def tree_writes(draw, capacity):
    """set_many arguments: random batches, batches full of duplicates,
    empty writes and contiguous bulk writes that may wrap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    writes = []
    for kind in draw(st.lists(st.sampled_from(["batch", "duplicates", "empty", "bulk"]),
                              min_size=1, max_size=5)):
        if kind == "batch":
            idx = rng.integers(0, capacity, size=int(rng.integers(1, 129)))
        elif kind == "duplicates":
            idx = rng.integers(0, min(capacity, 3), size=64) * max(1, capacity // 3)
        elif kind == "empty":
            idx = np.zeros(0, dtype=np.int64)
        else:
            start = int(rng.integers(capacity))
            idx = (start + np.arange(int(rng.integers(1, capacity + 1)))) % capacity
        # magnitudes over many binades, so that additions round
        writes.append((idx, rng.random(len(idx)) * 10.0 ** rng.integers(-8, 9, len(idx))))
    return writes


class TestPrefixMark:
    """The prefix is accumulated up to the last top-level node written and
    filled past it; it must hold the full accumulate's bytes."""

    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_written_region_of_zeros(self, depth, zero):
        capacity = 1024
        tree = narrow_tree(capacity, depth)(capacity)
        tree.set_many(np.arange(10), np.full(10, zero))
        tree.set_range(10, 20, zero)
        tree.set(20, zero)
        # the level past the written nodes is filled, not accumulated
        assert tree._written < len(tree.prefix) - 1
        assert_tree_is_the_reference(tree, tree.leaves(capacity), capacity)
        assert tree.total() == 0.0


def narrow_tree(capacity, depth):
    """A SumTree class whose prefix sits `depth` 16-way levels above the
    leaves of a tree of this capacity, which must exceed F**(depth - 1)."""
    cls = type("Tree", (SumTree,), {"PREFIX_WIDTH": -(-capacity // F**depth)})
    assert cls._shape(capacity)[0] == depth
    return cls


@st.composite
def tree_capacities(draw, depth):
    """A capacity of more than F**(depth - 1) slots, so that a tree of it
    can have its prefix `depth` levels up, and at most 40 times that."""
    least = F ** (depth - 1) if depth else 1
    return draw(st.integers(least + (depth > 0), 40 * least))


class TestRangeWrite:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_set_many_over_the_same_slots(self, depth, data):
        # set, set_many and set_range each reduce whole child rows, so their
        # nodes agree bit for bit, with each other and with a fresh tree
        capacity = data.draw(tree_capacities(depth))
        cls = narrow_tree(capacity, depth)
        tree, ref = cls(capacity), cls(capacity)
        assert tree._depth == depth
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for idx, values in data.draw(tree_writes(capacity)):
            tree.set_many(idx, values)
            if len(idx) > 128:  # a bulk write
                ref.set_many(idx, values)
            else:  # one slot at a time, the last of a repeated slot's values winning
                for i, v in zip(idx.tolist(), values.tolist()):
                    ref.set(i, v)
        for _ in range(data.draw(st.integers(1, 4))):
            start = data.draw(st.integers(0, capacity))
            stop = data.draw(st.integers(start, capacity))
            # a scalar, as an offline fill writes, or one value per slot
            values = data.draw(st.sampled_from([
                1.0, rng.random(stop - start) * 10.0 ** rng.integers(-8, 9, stop - start)]))
            tree.set_range(start, stop, values)
            ref.set_many(np.arange(start, stop), values)
            assert tree.nodes.tobytes() == ref.nodes.tobytes()
            assert tree.total() == ref.total()
            assert tree.prefix.tobytes() == ref.prefix.tobytes()
        assert_tree_is_the_reference(tree, tree.leaves(capacity), capacity)


class TestNarrowIndices:
    """A tabular buffer holds each index column in the narrowest unsigned
    dtype that holds count - 1 (BufferMachine checks it at the counts where
    that dtype widens): an index that a narrow cast would wrap is refused,
    and the implied distribution's table pass runs over pieces of slots."""

    @pytest.mark.parametrize("index", [300, 2**16 + 7, 2**63 + 7])
    def test_an_index_that_a_narrow_cast_wraps_is_refused(self, index):
        # each is below 64 once narrowed to uint8 (44, 7 or 7)
        buf = tabular_buffer(4, (64, 4))
        states = np.array([1, index, 2], dtype=np.uint64 if index >= 2**63 else np.int64)
        rows = dict(zip(COLUMNS, (states, np.zeros(3, dtype=int), np.zeros(3),
                                  np.zeros(3, dtype=int), np.zeros(3, dtype=bool))))
        with pytest.raises(InvalidTransitionError,
                           match=f"^states holds index {index}, but the buffer has 64 states$"):
            buf.fill_offline(rows)
        assert_left_empty(buf)
        buf.push(*make_transition())
        arrays = snapshot_arrays(buf)
        arrays["states"][0] = index - 2**64 if index >= 2**63 else index
        with pytest.raises(FormatError, match="^states holds"):
            PriorityBuffer.load(envelope(arrays))

    @pytest.mark.parametrize("counts, n", [
        *(((64, 4), n) for n in (PriorityBuffer.PIECE_SLOTS - 1,
                                 PriorityBuffer.PIECE_SLOTS,
                                 PriorityBuffer.PIECE_SLOTS + 1)),
        # S x A past uint8's range, with uint8 indices: 99 * 3 + 2 = 299
        ((100, 3), 300), ((100, 3), 2 * PriorityBuffer.PIECE_SLOTS + 1),
        # uint16 states and uint8 actions, the whole table live
        ((257, 255), 257 * 255),
        # a table larger than the live slots: uint32 states
        (((1 << 16) + 1, 3), PriorityBuffer.PIECE_SLOTS + 1)])
    def test_implied_distribution_across_pieces(self, counts, n):
        rng = np.random.default_rng(n)
        states, actions = rng.integers(0, counts[0], n), rng.integers(0, counts[1], n)
        states[-1], actions[-1] = counts[0] - 1, counts[1] - 1
        buf = tabular_buffer(n, counts)
        buf.fill_offline(dict(zip(COLUMNS, (states, actions, np.zeros(n), states,
                                            np.zeros(n, dtype=bool)))))
        buf.update_priorities(np.arange(n), rng.random(n) + 1e-3)
        got = buf.implied_distribution()
        assert_implied_is_the_reference(buf, got)
        assert got[counts[0] - 1, counts[1] - 1] > 0.0


def held_itemsize(count):
    """The bytes of the narrowest unsigned dtype that holds count - 1."""
    return next(size for size in (1, 2, 4, 8) if count <= 1 << 8 * size)


def refused_index(count):
    """Indices that a buffer with this count refuses: at or past it, or below 0."""
    return st.sampled_from((count, count + 255)) | st.integers(-2**40, -1)


def index_message(name, index, count):
    """The value rule's message for a refused index (fill_offline's and load's)."""
    if index < 0:
        return f"{name} holds an index below 0"
    return f"{name} holds index {index}, but the buffer has {count} {name.removeprefix('next_')}"


def exactly(message):
    return f"^{re.escape(message)}$"


@settings(max_examples=100, stateful_step_count=20)
class BufferMachine(RuleBasedStateMachine):
    """Any sequence of pushes (refused ones too), priority writes, draws,
    offline fills and snapshot round trips on one PriorityBuffer, tabular or
    vector, checked after every step against a plain-Python model: its rows
    with their insert steps, their priorities, the cursor and the size,
    beside a plain 16-way reference tree built from scratch over the
    priorities (reference_levels), whose descent every draw must take. A
    prefix width of 1, 2 or 4 puts one 16-way level under the prefix of a
    tree of 5 to 16 slots, and one or two under that of a tree of 17 or 33;
    the width is set for the whole run, so a loaded tree has the same tiers."""

    @initialize(discrete=st.booleans(),
                capacity=st.integers(1, 12) | st.sampled_from((16, 17, 33)),
                width=st.sampled_from((1, 2, 4, W)), counts=table_counts(),
                vector_dims=st.tuples(st.integers(1, 3), st.integers(1, 3)))
    def start(self, discrete, capacity, width, counts, vector_dims):
        SumTree.PREFIX_WIDTH = width
        self.dims = counts if discrete else vector_dims
        self.buf = PriorityBuffer(capacity, *self.dims, discrete)
        # each index column's count (none in a vector buffer)
        self.counts = (dict(states=counts[0], actions=counts[1], next_states=counts[0])
                       if discrete else {})
        self.rows, self.priorities = [None] * capacity, [0.0] * capacity
        self.size = self.cursor = 0

    def teardown(self):
        SumTree.PREFIX_WIDTH = W

    def model_push(self, row):
        """push's effect: the row (its insert step last) and priority 1 at
        the cursor, which then moves on and wraps."""
        self.rows[self.cursor], self.priorities[self.cursor] = row, 1.0
        self.cursor = (self.cursor + 1) % self.buf.capacity
        self.size = min(self.size + 1, self.buf.capacity)

    def model_columns(self):
        """The live rows and priorities in _row_layout's dtypes: the columns
        a snapshot writes."""
        live = [(*row, p) for row, p in zip(self.rows[:self.size], self.priorities)]
        layout = PriorityBuffer._row_layout(*self.dims, self.buf.discrete)
        return {name: np.array([row[k] for row in live], dtype).reshape(self.size, *shape)
                for k, (name, (dtype, shape)) in enumerate(layout.items())}

    @rule(data=st.data())
    def push(self, data):
        # enough rows to wrap the ring
        self.push_rows(data, data.draw(st.integers(1, self.buf.capacity + 1)))

    def push_rows(self, data, n):
        """Push n drawn rows, with consecutive insert steps from any first
        one up to the int64 column's largest."""
        rows = data.draw(dataset(self.buf, n))
        first = data.draw(st.integers(0, 2**63 - n))
        for i in range(n):
            row, step = [rows[c][i] for c in COLUMNS], first + i
            assert self.buf.push(*row, insert_step=step) == self.cursor
            self.model_push([v.tolist() for v in row] + [step])

    @rule(data=st.data(), field=st.sampled_from(("state", "action", "reward",
                                                  "next_state", "insert_step")))
    def refused_push(self, data, field):
        """A row with one field out of its range changes nothing: an index at
        or past its count or below 0, a non-finite reward or vector entry (an
        int too large for a float among them), or an insert step outside the
        int64 column's range."""
        ds, da = self.dims
        # vectors as lists, which hold an int too large for a float
        row, step = ([0, 0, 0.0, 0, False] if self.buf.discrete else
                     [[0.0] * ds, [0.0] * da, 0.0, [0.0] * ds, False]), 0
        non_finite = st.sampled_from((np.nan, np.inf, -np.inf)) | st.integers(
            min_value=2**1024)
        if field == "insert_step":
            step = data.draw(st.integers(max_value=-1) | st.integers(min_value=2**63))
            message = f"insert_step {step!r} is not in [0, 2**63)"
        elif field == "reward":
            row[2] = data.draw(non_finite)
            message = f"reward {row[2]!r} is not finite"
        elif self.buf.discrete:
            count = self.counts[field + "s"]
            at = COLUMNS.index(field + "s")
            row[at] = data.draw(refused_index(count))
            message = f"{field} {row[at]!r} is not an index in [0, {count})"
        else:
            vector = row[COLUMNS.index(field + "s")]
            vector[data.draw(st.integers(0, len(vector) - 1))] = data.draw(non_finite)
            message = f"{field} contains non-finite values"
        before = buffer_state(self.buf)
        with pytest.raises(InvalidTransitionError, match=exactly(message)):
            self.buf.push(*row, insert_step=step)
        assert buffer_state(self.buf) == before

    def write_priorities(self, data, slots):
        """Write drawn priorities to slots (repeats allowed, the last write
        winning). The values span many binades or lie in one, each drawn on
        its own (no fill), so that their sums round and a write path that
        adds a row in another order than np.add.reduce shows."""
        values = data.draw(hnp.arrays(np.float64, len(slots),
                                      elements=st.floats(1e-8, 1e8) | st.floats(1.0, 2.0),
                                      fill=st.nothing()))
        self.buf.update_priorities(slots, values)
        for slot, value in zip(slots.tolist(), values.tolist()):
            self.priorities[slot] = value

    @rule(data=st.data())
    def update_priorities(self, data):
        # one or two writes before the next read of the prefix; an empty
        # buffer takes an empty write
        for _ in range(data.draw(st.integers(1, 2))):
            self.write_priorities(data, data.draw(hnp.arrays(
                np.int64, st.integers(0, 2 * self.buf.capacity if self.size else 0),
                elements=st.integers(0, max(self.size - 1, 0)))))

    @rule(data=st.data())
    def rewrite_a_row_then_push(self, data):
        """Every live slot of the row of FANOUT slots that holds the cursor
        takes a new priority, then one push lands in that row: set, which
        only a push calls, adds up the row's written values again, so a set
        that adds them in another order than np.add.reduce shows."""
        start = self.cursor - self.cursor % SumTree.FANOUT
        self.write_priorities(data, np.arange(start, min(start + SumTree.FANOUT,
                                                         self.size)))
        self.push_rows(data, 1)

    @rule(proportional=st.booleans(), n=st.integers(1, 8), data=st.data())
    def sample(self, proportional, n, data):
        if proportional:
            # drawn uniforms, 0 and the largest among them
            rng = Uniforms(data.draw(st.lists(
                st.sampled_from((0.0, TOP_UNIFORM)) | st.floats(0.0, 1.0, exclude_max=True),
                min_size=n, max_size=n)))
            draw = self.buf.sample_proportional
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            draw = self.buf.sample_uniform
        if not self.size:
            with pytest.raises(EmptyBufferError):
                draw(n, rng)
            return
        batch = draw(n, rng)
        assert batch.indices.dtype == np.int64
        assert all(0 <= i < self.size and self.priorities[i] > 0
                   for i in batch.indices.tolist())
        if proportional:
            # the reference's descent for each target, clamped to the live slots
            targets = rng.values[:n] * float(self.reference_prefix()[-1])
            want = self.reference_find_prefix(targets)
            assert batch.indices.tolist() == np.minimum(want, self.size - 1).tolist()
        columns = self.model_columns()
        for name in (*PriorityBuffer.DATA, "priorities"):
            got, want = getattr(batch, name), columns[name][batch.indices]
            # indices come back as int64; terminals as the bools they are held as
            assert got.dtype == (bool if name == "terminals" else want.dtype), name
            assert np.array_equal(got, want), name

    def reference_prefix(self):
        levels = reference_levels(self.priorities, SumTree.PREFIX_WIDTH)
        return prefix_of(levels[-1])

    def reference_find_prefix(self, targets):
        return reference_find_prefix(self.priorities, SumTree.PREFIX_WIDTH, targets)

    @rule(data=st.data())
    def find_prefix_at_the_boundaries(self, data):
        """The tree's descent is the reference's at every running sum of the
        live priorities, the floats on either side of it and any target in
        [0, total): at the boundaries, a child whose running sum equals what
        is left of the target is passed, not taken."""
        if not self.size:
            return
        total = self.reference_prefix()[-1]
        edges = np.array(list(itertools.accumulate(self.priorities[:self.size])))
        targets = np.concatenate([
            np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf),
            data.draw(st.lists(st.floats(0.0, total, exclude_max=True), max_size=8))])
        targets = targets[(targets >= 0.0) & (targets < total)]
        assert (self.buf.tree.find_prefix(targets).tolist()
                == self.reference_find_prefix(targets).tolist())

    def spoil(self, data, columns):
        """Put one value out of its column's range into one row of columns (a
        dataset's or a snapshot's): an index at or past its count or below
        0, or a non-finite float. Returns the value rule's message."""
        if self.counts:
            name = data.draw(st.sampled_from(sorted(self.counts)))
            bad = data.draw(refused_index(self.counts[name]))
            message = index_message(name, bad, self.counts[name])
        else:
            name = data.draw(st.sampled_from(("states", "actions", "rewards", "next_states")))
            bad = data.draw(st.sampled_from((np.nan, np.inf, -np.inf)))
            message = f"{name} contains non-finite values"
        columns[name].flat[data.draw(st.integers(0, columns[name].size - 1))] = bad
        return message

    @rule(data=st.data(), from_npz=st.booleans())
    def fill_offline(self, data, from_npz):
        buf, cap = self.buf, self.buf.capacity
        # below, at and above capacity: rows that wrap the ring or cover it
        n = data.draw(st.sampled_from((0, 1, cap - 1, cap, cap + 1, 2 * cap + 3)))
        rows = data.draw(dataset(buf, n))
        message = self.spoil(data, rows) if n and data.draw(st.booleans()) else None
        if self.size:
            message = f"fill_offline fills an empty buffer, but this one holds {self.size} rows"
        fill = ((lambda: load_offline_dataset(npz(rows), buf)) if from_npz
                else (lambda: buf.fill_offline(rows)))
        if message is None:
            fill()
            for i in range(n):
                self.model_push([rows[c][i].tolist() for c in COLUMNS] + [0])
            return
        # refused: the buffer reads as it did, which an empty one (as the
        # invariants hold) reads as a fresh one
        before = buffer_state(buf)
        with pytest.raises(ValueError, match=exactly(message)):
            fill()
        assert buffer_state(buf) == before

    @rule(to_file=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def snapshot_and_load(self, to_file, seed, data):
        """The snapshot is the bytes reference's envelope of the model, and
        the same with one value out of its column's range is refused; the
        loaded buffer writes the same bytes, makes the same draws from one
        generator state, and goes on in the old one's place."""
        meta = np.array([self.buf.capacity, self.size, self.cursor, *self.dims,
                         int(self.buf.discrete)], dtype=np.int64)
        arrays = {"meta": meta, **self.model_columns()}
        want = reference_envelope(binio.KIND_BUFFER, arrays)
        if self.size:
            with pytest.raises(FormatError, match=exactly(self.spoil(data, arrays))):
                PriorityBuffer.load(envelope(arrays))
        if to_file:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "buffer.bin"
                self.buf.snapshot(path)
                assert path.read_bytes() == want
                loaded = PriorityBuffer.load(path)
        else:
            assert snapshot_bytes(self.buf) == want
            loaded = PriorityBuffer.load(io.BytesIO(want))
        assert snapshot_bytes(loaded) == want
        if self.size:
            assert np.array_equal(
                *(buf.sample_proportional(16, np.random.default_rng(seed)).indices
                  for buf in (self.buf, loaded)))
        self.buf = loaded

    @invariant()
    def counters_match(self):
        assert (len(self.buf), self.buf.write_cursor) == (self.size, self.cursor)

    @invariant()
    def live_columns_match(self):
        # the priorities column is the tree's live leaves
        got, want = written_columns(self.buf), self.model_columns()
        assert list(got) == list(want)
        for name, column in want.items():
            assert (got[name].shape, got[name].tobytes()) == (column.shape,
                                                               column.tobytes()), name

    @invariant()
    def indices_held_narrow_below_their_counts(self):
        for name, count in self.counts.items():
            column = self.buf.columns[name]
            assert (column.dtype.kind, column.dtype.itemsize) == ("u", held_itemsize(count))
            assert column.max() < count, name

    @invariant()
    def tree_matches_the_reference(self):
        # every level the from-scratch reference's, and the prefix the
        # accumulate of its top level
        assert_tree_is_the_reference(self.buf.tree, self.priorities, self.buf.capacity)

    @invariant()
    def implied_distribution_is_the_running_sum(self):
        if not self.size:
            with pytest.raises(EmptyBufferError):
                self.buf.implied_distribution()
        elif not self.buf.discrete:
            with pytest.raises(UnsupportedModeError):
                self.buf.implied_distribution()
        else:
            assert_implied_is_the_reference(self.buf, self.buf.implied_distribution())


TestBufferMachine = BufferMachine.TestCase


class TestBulkPathMemory:
    """What the bulk paths allocate beyond the buffer, as tracemalloc sees
    it (numpy reports its array allocations to it), on a full 2^16-slot
    tabular buffer: less than 2.5 int64 columns of the live size, and for
    the implied distribution (beyond its S x A table) and the snapshot's
    widened index columns a bound that does not grow with it."""

    N = 1 << 16
    BOUND = 2.5 * 8 * N

    @staticmethod
    def traced(call) -> tuple[int, int]:
        """Peak traced bytes during call(), and those still held after it,
        both above those traced before it."""
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            held, peak = tracemalloc.get_traced_memory()
            return peak - before, held - before
        finally:
            if not tracing:
                tracemalloc.stop()

    @classmethod
    def traced_peak(cls, call) -> int:
        return cls.traced(call)[0]

    @pytest.fixture(scope="class")
    def rows(self):
        # grid-8x8's index ranges: 64 states, 4 actions
        rng = np.random.default_rng(3)
        n = self.N
        return dict(states=rng.integers(0, 64, n), actions=rng.integers(0, 4, n),
                    rewards=rng.normal(size=n), next_states=rng.integers(0, 64, n),
                    terminals=rng.random(n) < 0.01)

    @pytest.fixture
    def full(self, rows):
        buf = tabular_buffer(self.N, (64, 4))
        buf.fill_offline(rows)
        rng = np.random.default_rng(4)
        buf.update_priorities(np.arange(self.N), rng.random(self.N) + 0.5)
        return buf

    def test_offline_fill(self, rows):
        buf = tabular_buffer(self.N, (64, 4))
        assert self.traced_peak(lambda: buf.fill_offline(rows)) < self.BOUND
        assert len(buf) == self.N

    def test_offline_fill_from_a_file(self, rows, tmp_path):
        # the loader and the fill hold one column of the file at a time
        path = tmp_path / "data.npz"
        np.savez(path, **rows)
        buf, ref = tabular_buffer(self.N, (64, 4)), tabular_buffer(self.N, (64, 4))
        peak = self.traced_peak(lambda: load_offline_dataset(path, buf))
        assert peak < 1.5 * 8 * self.N
        ref.fill_offline(rows)
        assert buffer_state(buf) == buffer_state(ref)

    def test_implied_distribution(self, full):
        # four pieces of int64 slot temporaries, and 32 bytes a cell of the
        # 64 x 4 table: its first slots and sums (the sums become the
        # result), the held mask, and the held cells' first slots and offsets
        out = []
        bound = 4 * 8 * PriorityBuffer.PIECE_SLOTS + 32 * 64 * 4
        assert bound < 8 * self.N
        assert self.traced_peak(lambda: out.append(full.implied_distribution())) < bound
        assert_implied_is_the_reference(full, out[0])

    def test_snapshot_to_a_file(self, full, tmp_path):
        path = tmp_path / "buffer.bin"
        assert self.traced_peak(lambda: full.snapshot(path)) < self.BOUND
        loaded = PriorityBuffer.load(path)
        assert buffer_state(loaded) == buffer_state(full)

    def test_snapshot_widens_the_narrow_columns_piece_by_piece(self, full, tmp_path):
        # the uint8 index columns are written as int64 a piece at a time:
        # two pieces, where one int64 copy of a column takes 8 * N bytes
        assert full.columns["states"].dtype == np.uint8
        path = tmp_path / "buffer.bin"
        assert self.traced_peak(lambda: full.snapshot(path)) < 2 * binio.PIECE_BYTES
        assert binio.PIECE_BYTES < 8 * self.N
        assert snapshot_arrays(PriorityBuffer.load(path))["states"].dtype == np.int64

    def test_load_from_a_file(self, full, tmp_path):
        # every array is a view of the one payload, copied once into the
        # buffer: beyond the buffer, load holds about the file's bytes
        path = tmp_path / "buffer.bin"
        full.snapshot(path)
        out = []
        peak, held = self.traced(lambda: out.append(PriorityBuffer.load(path)))
        assert peak - held < path.stat().st_size + self.BOUND / 5
        assert buffer_state(out[0]) == buffer_state(full)
        assert all(col.flags.writeable for col in out[0]._live_columns().values())
