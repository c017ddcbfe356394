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
from scipy import stats

from roer import binio, harness, nn
from roer.agents import SacAgent, SacConfig, TabularAgent, TabularConfig
from roer.binio import FormatError
from roer.harness import load_offline_dataset
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
    """What a buffer's constructor allocated: its columns and the tree's nodes."""
    return sum(col.nbytes for col in buf.columns.values()) + buf.tree.nodes.nbytes


def tabular_buffer(capacity=8, counts=(16, 8)):
    """A buffer of a tabular problem with counts' (states, actions)."""
    return PriorityBuffer(capacity, *counts, discrete=True)


def vector_buffer(capacity=8, ds=3, da=2):
    return PriorityBuffer(capacity, state_dim=ds, action_dim=da)


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

    def test_random_interleaving_consistency(self):
        rng = np.random.default_rng(42)
        cap = 64
        t = SumTree(cap)
        ref = np.zeros(cap)
        for _ in range(10_000):
            i = int(rng.integers(cap))
            v = float(rng.uniform(1e-3, 10.0))
            t.set(i, v)
            ref[i] = v
        assert t.total() == pytest.approx(ref.sum(), rel=1e-9)


class TestPush:
    def test_push_into_empty(self):
        buf = tabular_buffer()
        buf.push(*make_transition())
        assert len(buf) == 1
        assert buf.total_priority() == 1.0

    def test_byte_ceiling(self):
        # a 2^20-slot tabular buffer: 20 bytes a row (three uint8 index
        # columns, a bool flag, a float64 reward and an int64 insert step)
        # plus a 2^21-node tree
        buf = PriorityBuffer(1 << 20, 1, 1, discrete=True)
        assert allocated_bytes(buf) == (3 + 1 + 8 + 8 + 16) << 20
        with pytest.raises(ValueError, match="ceiling"):
            PriorityBuffer(2**40, 3, 2)

    @pytest.mark.parametrize("args", [(1000, 1, 1, True), (1000, 3, 2, False),
                                      (1, 5, 4, False)])
    def test_ceiling_counts_what_is_allocated(self, monkeypatch, args):
        # a buffer of exactly MAX_BYTES fits, and one byte less refuses it
        allocated = allocated_bytes(PriorityBuffer(*args))
        monkeypatch.setattr(PriorityBuffer, "MAX_BYTES", allocated)
        assert allocated_bytes(PriorityBuffer(*args)) == allocated
        monkeypatch.setattr(PriorityBuffer, "MAX_BYTES", allocated - 1)
        with pytest.raises(ValueError, match=f"needs {allocated} bytes"):
            PriorityBuffer(*args)

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

    def test_empty_buffer_errors(self):
        with pytest.raises(EmptyBufferError):
            tabular_buffer().sample_proportional(1, np.random.default_rng(0))

    def test_uniform_mode_weights(self):
        # the weighted mode draws uniformly and weights by the priorities
        # the batch carries: those of its slots
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
        buf = tabular_buffer()
        buf.push(*make_transition())
        with pytest.raises(InvalidTransitionError):
            buf.update_priorities([0], [0.0])
        with pytest.raises(InvalidTransitionError):
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
        with pytest.raises(InvalidTransitionError):
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
        capacity = 200
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

    def test_eviction_preserves_consistency(self):
        rng = np.random.default_rng(9)
        buf = tabular_buffer(capacity=16)
        for step in range(2_000):
            buf.push(*make_transition(s=step % 5, step=step))
            if len(buf) > 1 and step % 3 == 0:
                i = int(rng.integers(len(buf)))
                buf.update_priorities([i], [float(rng.uniform(0.1, 4.0))])
        leaves = buf.tree.leaves(len(buf))
        assert np.all(leaves > 0)
        assert buf.total_priority() == pytest.approx(leaves.sum(), rel=1e-9)


class TestImpliedDistribution:
    def test_two_entry_weights(self):
        buf = tabular_buffer()
        buf.push(*make_transition(s=0, a=0))
        buf.push(*make_transition(s=1, a=0))
        buf.update_priorities([0, 1], [1.0, 3.0])
        dist = buf.implied_distribution()
        assert dist[(0, 0)] == pytest.approx(0.25)
        assert dist[(1, 0)] == pytest.approx(0.75)

    def test_uniform_over_distinct_pairs(self):
        buf = tabular_buffer(capacity=12)
        for s in range(3):
            for a in range(2):
                buf.push(*make_transition(s=s, a=a))
        dist = buf.implied_distribution()
        assert len(dist) == 6
        for v in dist.values():
            assert v == pytest.approx(1 / 6)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

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
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, data):
        buf = data.draw(reachable_buffers(discrete=data.draw(st.booleans())))
        loaded = PriorityBuffer.load(io.BytesIO(snapshot_bytes(buf)))
        assert buffer_state(loaded) == buffer_state(buf)
        assert ((loaded.capacity, loaded.state_dim, loaded.action_dim,
                 loaded.discrete)
                == (buf.capacity, buf.state_dim, buf.action_dim, buf.discrete))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_streamed_snapshot_equals_the_bytes_reference(self, data):
        buf = data.draw(reachable_buffers(discrete=data.draw(st.booleans())))
        meta = np.array([buf.capacity, buf.size, buf.write_cursor, buf.state_dim,
                         buf.action_dim, int(buf.discrete)], dtype=np.int64)
        want = reference_envelope(binio.KIND_BUFFER, {"meta": meta, **written_columns(buf)})
        assert snapshot_bytes(buf) == want
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "buffer.bin"
            buf.snapshot(path)
            assert path.read_bytes() == want

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
BUFFER_FIELDS = ("states", "actions", "rewards", "next_states", "terminals",
                 "insert_steps")
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def push_rows(buf, states, actions, rewards, next_states, terminals):
    """Reference for fill_offline: the per-row push sequence it replaces."""
    for i in range(len(rewards)):
        buf.push(state=states[i], action=actions[i],
                 reward=float(rewards[i]), next_state=next_states[i],
                 terminal=bool(terminals[i]), insert_step=0)


def implied_reference(buf):
    """Reference for implied_distribution: one running sum per slot."""
    pri = buf.tree.leaves(buf.size)
    out = {}
    for i in range(buf.size):
        k = (int(buf.columns["states"][i]), int(buf.columns["actions"][i]))
        out[k] = out.get(k, 0.0) + pri[i]
    total = sum(out.values())
    return {k: v / total for k, v in out.items()}


def buffer_state(buf):
    """Every stored byte and counter of a buffer, for exact comparison."""
    return ([buf.columns[name].tobytes() for name in BUFFER_FIELDS]
            + [buf.tree.nodes.tobytes(), buf.size, buf.write_cursor])


def filled_state(buf):
    """buffer_state, and the sum tree's prefix as the next draw reads it."""
    buf.total_priority()
    return buffer_state(buf) + [buf.tree.prefix.tobytes()]


def observed_state(buf):
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
    assert observed_state(buf) == observed_state(fresh_twin(buf))


def npz(rows) -> io.BytesIO:
    """rows as an np.savez archive, in a stream the loader reads."""
    stream = io.BytesIO()
    np.savez(stream, **rows)
    stream.seek(0)
    return stream


# a tabular buffer's (states, actions) counts: small ones, whose indices
# repeat and reach count - 1, or any up to 2**41
COUNT = st.integers(1, 5) | st.integers(1, 2**41)
COUNTS = st.tuples(COUNT, COUNT)


@st.composite
def dataset(draw, buf: PriorityBuffer, n: int):
    """n rows that buf takes: indices below its counts, or vectors of its dims."""
    if buf.discrete:
        def index(count):
            return draw(hnp.arrays(np.int64, n, elements=st.integers(0, count - 1)))
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
def empty_pairs(draw, discrete: bool):
    """Two empty buffers (the one under test, a reference twin) of a drawn
    capacity and counts: an offline fill fills only an empty buffer."""
    capacity, counts = draw(st.integers(1, 10)), draw(COUNTS)
    return [tabular_buffer(capacity, counts) if discrete else vector_buffer(capacity)
            for _ in range(2)]


@st.composite
def reachable_buffers(draw, discrete: bool):
    """A buffer after an offline fill of a drawn number of rows (maybe none)
    into it, then a drawn sequence of pushes (which may wrap) and priority
    writes; the pushes carry any insert steps."""
    buf, _ = draw(empty_pairs(discrete))
    capacity = buf.capacity
    buf.fill_offline(draw(dataset(buf, draw(st.integers(0, 2 * capacity)))))
    for op in draw(st.lists(st.sampled_from(["push", "update"]), max_size=6)):
        if op == "update":
            if len(buf):
                idx = draw(hnp.arrays(np.int64, st.integers(0, 2 * capacity),
                                      elements=st.integers(0, len(buf) - 1)))
                buf.update_priorities(idx, draw(hnp.arrays(
                    np.float64, len(idx), elements=st.floats(0.01, 100.0))))
            continue
        rows = draw(dataset(buf, draw(st.integers(0, 2 * capacity))))
        for i in range(len(rows["rewards"])):
            buf.push(*(rows[c][i] for c in COLUMNS),
                     insert_step=draw(st.integers(0, 2**40)))
    return buf


class TestOfflineFillProperties:
    @pytest.mark.parametrize("discrete", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_columnar_fill_equals_per_row_pushes(self, discrete, data):
        buf, ref = data.draw(empty_pairs(discrete))
        # below, equal to and above capacity
        n = data.draw(st.sampled_from([0, buf.capacity // 2, buf.capacity,
                                       buf.capacity + 1, 2 * buf.capacity + 3]))
        rows = data.draw(dataset(buf, n))
        buf.fill_offline(rows)
        push_rows(ref, **rows)
        assert buffer_state(buf) == buffer_state(ref)

    @pytest.mark.parametrize("discrete", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bad_column_rejected_before_any_write(self, discrete, data):
        # the columns before the bad one may have been copied into slots
        # past size, but the buffer reads as empty, and a valid fill after
        # it is a fill into a fresh buffer
        buf, _ = data.draw(empty_pairs(discrete))
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
        assert observed_state(buf) == observed_state(ref)

    @pytest.mark.parametrize("discrete", [True, False])
    @pytest.mark.parametrize("defect, message", [
        ("flag", "terminals holds a flag other than 0 or 1"),
        ("short", r"terminals has shape \(5,\), but rewards has 6 rows")])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_a_file_whose_last_column_breaks_a_rule_changes_nothing(
            self, discrete, defect, message, data):
        # the fill reads the file's last column after copying every other one
        buf, _ = data.draw(empty_pairs(discrete))
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


class TestIndexCounts:
    """Every place an index enters a tabular buffer holds it below its
    count: an index column whose maximum is count - 1 passes push,
    fill_offline and load, and one at count (or past it) is refused there,
    naming the column, and leaves the buffer as it read before."""

    @pytest.mark.parametrize("name", ["states", "actions", "next_states"])
    @pytest.mark.parametrize("at_count", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_count_minus_one_passes_and_count_is_refused(self, name, at_count, data):
        buf, ref = data.draw(empty_pairs(discrete=True))
        count = buf.action_dim if name == "actions" else buf.state_dim
        n = data.draw(st.integers(1, 12))
        rows = data.draw(dataset(buf, n))
        k = data.draw(st.integers(0, n - 1))
        rows[name][k] = count if at_count else count - 1
        # the offline fill: the whole dataset, or nothing
        if at_count:
            with pytest.raises(InvalidTransitionError,
                               match=f"^{name} holds index {count}, but the buffer has "
                                     f"{count} {name.removeprefix('next_')}$"):
                buf.fill_offline(rows)
            assert_left_empty(buf)
        else:
            buf.fill_offline(rows)
        # push, row by row: the row at its count changes no slot
        field = name.removesuffix("s")
        for i in range(n):
            row = [rows[c][i] for c in COLUMNS]
            if at_count and i == k:
                before = buffer_state(ref)
                with pytest.raises(InvalidTransitionError,
                                   match=rf"^{field} .* is not an index in \[0, {count}\)$"):
                    ref.push(*row, insert_step=0)
                assert buffer_state(ref) == before
            else:
                ref.push(*row, insert_step=0)
        if not at_count:
            assert buffer_state(ref) == buffer_state(buf)
        # load: the snapshot's meta holds the counts
        if len(ref) == 0:
            ref.push(*make_transition(s2=0))
        arrays = snapshot_arrays(ref)
        arrays[name][data.draw(st.integers(0, len(ref) - 1))] = (
            count if at_count else count - 1)
        if at_count:
            with pytest.raises(FormatError, match=f"^{name} holds index {count}, "):
                PriorityBuffer.load(envelope(arrays))
        else:
            loaded = PriorityBuffer.load(envelope(arrays))
            assert snapshot_arrays(loaded)[name].tobytes() == arrays[name].tobytes()


W = SumTree.PREFIX_WIDTH
# trees whose leaf level is below, at and above the prefix width, up to
# one with several binary levels under it (2^17 leaves)
TREE_CAPACITIES = (1, 2, 5, W - 1, W, W + 1, 2 * W, 2 * W + 1, 4 * W + 3,
                   (1 << 14) + 1, 70_000)


def tiers(tree):
    """(P, n): the width of the level under the prefix, and the leaf count."""
    return len(tree.prefix) - 1, len(tree.nodes) // 2


def prefix_of(level):
    """The prefix over a P-level: a leading 0, then its running sums."""
    return np.concatenate(([0.0], np.add.accumulate(level)))


def reference_set_many(nodes, indices, values):
    """A full binary tree's per-level fancy-index repair: SumTree.set_many
    carried on up to the root."""
    n = len(nodes) // 2
    idx = np.asarray(indices, dtype=np.int64) + n
    nodes[idx] = values
    for _ in range(n.bit_length() - 1):
        idx = idx >> 1
        nodes[idx] = nodes[2 * idx] + nodes[2 * idx + 1]


def reference_find_prefix(nodes, targets):
    """The binary descent from the root of a reference_set_many tree."""
    n = len(nodes) // 2
    u = np.array(targets, dtype=np.float64)
    idx = np.ones(len(u), dtype=np.int64)
    for _ in range(n.bit_length() - 1):
        left = idx * 2
        left_sum = nodes[left]
        go_right = u >= left_sum
        u -= left_sum * go_right
        idx = left + go_right
    return idx - n


class TestTreeProperties:
    @settings(max_examples=100, deadline=None)
    @given(capacity=st.integers(1, 40) | st.sampled_from((W - 1, W + 1, 3 * W)),
           data=st.data())
    def test_every_node_is_the_sum_of_its_children(self, capacity, data):
        tree = SumTree(capacity)
        batches = data.draw(st.lists(
            hnp.arrays(np.int64, st.integers(0, 80),
                       elements=st.integers(0, capacity - 1)),
            max_size=6))
        for idx in batches:
            tree.set_many(idx, data.draw(hnp.arrays(
                np.float64, len(idx), elements=st.floats(0.0, 1e6))))
        nodes, (p, n) = tree.nodes, tiers(tree)
        # exact: each maintained node is the sum of its two children, and
        # the prefix holds the running sums of the P-level
        assert np.array_equal(nodes[p:n], nodes[2 * p::2] + nodes[2 * p + 1::2])
        assert tree.total() == pytest.approx(tree.leaves().sum(), rel=1e-12)
        assert tree.prefix.tobytes() == prefix_of(nodes[p:2 * p]).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 300) | st.sampled_from((W + 1, 3 * W)),
           width=st.sampled_from((1, 2, 8, 32, W)), data=st.data())
    def test_find_prefix_is_monotone_positive_and_the_binary_descent(
            self, capacity, width, data):
        # a narrow prefix puts several binary levels under it in a small tree
        tree = type("Tree", (SumTree,), {"PREFIX_WIDTH": width})(capacity)
        size = data.draw(st.integers(1, capacity))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # positive leaves over many binades, zeros past size
        leaves = (1.0 - rng.random(size)) * 10.0 ** rng.integers(-8, 9, size)
        tree.set_many(np.arange(size), leaves)
        ref = np.zeros_like(tree.nodes)
        reference_set_many(ref, np.arange(size), leaves)
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
        # the old descent, except for targets within 4 ulps of a boundary:
        # the boundaries nearest a target are the edges on either side of
        # its place among them, and a float difference that small is exact
        at = np.searchsorted(edges, targets)
        near = np.zeros(len(targets), dtype=bool)
        for k in (np.maximum(at - 1, 0), np.minimum(at, size - 1)):
            near |= np.abs(targets - edges[k]) <= 4 * np.spacing(edges[k])
        want = np.minimum(reference_find_prefix(ref, targets), size - 1)
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


class TestTwoTierLayout:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_nodes_match_per_level_repair_bytewise(self, data):
        capacity = data.draw(st.sampled_from(TREE_CAPACITIES))
        self.check_per_level_repair(SumTree(capacity), data.draw(tree_writes(capacity)))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_nodes_match_per_level_repair_bytewise_eight_levels_deep(self, data):
        # offline-per's depth: 2^20 leaves under a 4096-node prefix level
        capacity = data.draw(tree_capacities(8))
        tree = narrow_tree(capacity, 8)(capacity)
        assert tree._depth == 8
        self.check_per_level_repair(tree, data.draw(tree_writes(capacity)))

    @staticmethod
    def check_per_level_repair(tree, writes):
        p, _ = tiers(tree)
        ref = tree.nodes.copy()
        nodes = tree.nodes
        for idx, values in writes:
            tree.set_many(idx, values)
            reference_set_many(ref, idx, values)
            # the levels from the leaves up to the P-level are the full
            # tree's; the prefix is the accumulate of the P-level
            assert tree.nodes[p:].tobytes() == ref[p:].tobytes()
            tree.total()
            assert tree.prefix.tobytes() == prefix_of(ref[p:2 * p]).tobytes()
        assert tree.nodes is nodes

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_loaded_tree_samples_the_same_slots(self, data):
        capacity = data.draw(st.sampled_from(TREE_CAPACITIES))
        buf = tabular_buffer(capacity)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = int(rng.integers(1, 2 * capacity + 1))
        buf.fill_offline(dict(zip(COLUMNS, (
            rng.integers(0, 9, n), rng.integers(0, 3, n), rng.normal(size=n),
            rng.integers(0, 9, n), rng.random(n) < 0.1))))
        for idx, values in data.draw(tree_writes(capacity)):
            buf.update_priorities(idx % len(buf), values + 1e-9)
        p, _ = tiers(buf.tree)
        ref = np.zeros_like(buf.tree.nodes)
        reference_set_many(ref, np.arange(len(buf)), buf.priorities)
        loaded = PriorityBuffer.load(io.BytesIO(snapshot_bytes(buf)))
        assert loaded.total_priority() == buf.total_priority()
        assert loaded.tree.nodes.tobytes() == buf.tree.nodes.tobytes()
        assert buf.tree.nodes[p:].tobytes() == ref[p:].tobytes()
        assert (loaded.tree.prefix.tobytes() == buf.tree.prefix.tobytes()
                == prefix_of(ref[p:2 * p]).tobytes())
        targets = rng.random(256) * buf.total_priority()
        assert np.array_equal(loaded.tree.find_prefix(targets),
                              buf.tree.find_prefix(targets))


class TestPrefixMark:
    """The prefix is accumulated up to the last P-level node written and
    filled past it; it must hold the full accumulate's bytes."""

    @staticmethod
    def assert_full_prefix(tree):
        p, _ = tiers(tree)
        tree.total()
        assert tree.prefix.tobytes() == prefix_of(tree.nodes[p:2 * p]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_the_accumulate_of_the_whole_level(self, data):
        capacity = data.draw(st.sampled_from(TREE_CAPACITIES))
        buf = tabular_buffer(capacity)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ops = data.draw(st.lists(st.sampled_from(["push", "fill", "write", "zeros", "load"]),
                                 min_size=1, max_size=6))
        for op in ops:
            if op == "push":
                # past capacity, pushes wrap the ring
                for _ in range(int(rng.integers(1, 40))):
                    buf.push(*make_transition(s=int(rng.integers(9))))
            elif op == "fill" and not len(buf):
                n = int(rng.choice([1, capacity + 1, 2 * capacity + 3]))
                buf.fill_offline(dict(zip(COLUMNS, (
                    rng.integers(0, 9, n), rng.integers(0, 3, n), rng.normal(size=n),
                    rng.integers(0, 9, n), rng.random(n) < 0.1))))
            elif op == "write" and len(buf):
                k = int(rng.integers(1, 65))
                buf.update_priorities(rng.integers(0, len(buf), k),
                                      rng.random(k) * 10.0 ** rng.integers(-8, 9, k) + 1e-12)
            elif op == "zeros" and len(buf) < capacity:
                # zeros of either sign past the live slots grow the mark
                k = int(rng.integers(1, 65))
                buf.tree.set_many(rng.integers(len(buf), capacity, k),
                                  rng.choice([0.0, -0.0], k))
            elif op == "load":
                buf = PriorityBuffer.load(io.BytesIO(snapshot_bytes(buf)))
            self.assert_full_prefix(buf.tree)

    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_written_region_of_zeros(self, depth, zero):
        capacity = 64
        tree = narrow_tree(capacity, depth)(capacity)
        tree.set_many(np.arange(10), np.full(10, zero))
        tree.set_range(10, 20, zero)
        tree.set(20, zero)
        # the level past the written nodes is filled, not accumulated
        assert tree._written < tiers(tree)[0]
        self.assert_full_prefix(tree)
        assert tree.total() == 0.0


def narrow_tree(capacity, depth):
    """A SumTree class whose prefix sits `depth` binary levels above the
    leaves of a tree of this capacity."""
    n = 1 << (capacity - 1).bit_length()
    return type("Tree", (SumTree,), {"PREFIX_WIDTH": max(1, n >> depth)})


@st.composite
def tree_capacities(draw, depth):
    """A capacity whose tree has at least 2**depth leaves, rounded up from
    anywhere in its power-of-two bracket."""
    n = 1 << draw(st.integers(depth, depth + 5))
    return draw(st.integers(n // 2 + 1, n))


class TestRangeWrite:
    @pytest.mark.parametrize("depth", [0, 1, 2, 4])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_set_many_over_the_same_slots(self, depth, data):
        capacity = data.draw(tree_capacities(depth))
        cls = narrow_tree(capacity, depth)
        tree, ref = cls(capacity), cls(capacity)
        assert tree._depth == depth
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for idx, values in data.draw(tree_writes(capacity)):
            tree.set_many(idx, values)
            ref.set_many(idx, values)
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

    @pytest.mark.parametrize("depth", [0, 1, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_offline_fill_tree_equals_set_many_over_its_slots(self, depth, data):
        capacity = data.draw(tree_capacities(depth))
        buf = tabular_buffer(capacity, data.draw(COUNTS))
        buf.tree = narrow_tree(capacity, depth)(capacity)
        ref = narrow_tree(capacity, depth)(capacity)
        # below, at and above capacity: runs that wrap the ring or cover it
        n = data.draw(st.sampled_from([0, 1, capacity - 1, capacity, capacity + 1,
                                       2 * capacity + 3]))
        buf.fill_offline(data.draw(dataset(buf, n)))
        kept = min(n, capacity)
        # row k's slot, k % capacity, for the kept rows
        ref.set_many(np.arange(n - kept, n) % capacity, 1.0)
        assert buf.tree.nodes.tobytes() == ref.nodes.tobytes()
        assert buf.total_priority() == ref.total()

    @pytest.mark.parametrize("discrete", [True, False])
    @pytest.mark.parametrize("start", ["fresh", "non-empty"])
    @pytest.mark.parametrize("depth", [0, 3])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_fill_from_an_npz_equals_the_fill_from_its_arrays(self, discrete, start,
                                                              depth, data):
        capacity = data.draw(tree_capacities(depth))
        counts = data.draw(COUNTS)
        pair = [tabular_buffer(capacity, counts) if discrete else vector_buffer(capacity)
                for _ in range(2)]
        for buf in pair:
            buf.tree = narrow_tree(capacity, depth)(capacity)
        n = data.draw(st.sampled_from([0, 1, capacity - 1, capacity, capacity + 1,
                                       2 * capacity + 3]))
        rows = data.draw(dataset(pair[0], n))
        if start == "fresh":
            load_offline_dataset(npz(rows), pair[0])
            pair[1].fill_offline(rows)
            assert filled_state(pair[0]) == filled_state(pair[1])
            return
        # a buffer that holds rows is refused by both, and left as it was
        pushed = data.draw(dataset(pair[0], data.draw(st.integers(1, 2 * capacity))))
        written = data.draw(hnp.arrays(np.float64, min(len(pushed["rewards"]), capacity),
                                       elements=st.floats(0.01, 100.0)))
        for buf, fill in zip(pair, (lambda: load_offline_dataset(npz(rows), pair[0]),
                                    lambda: pair[1].fill_offline(rows))):
            push_rows(buf, **pushed)
            buf.update_priorities(np.arange(len(written)), written)
            before = filled_state(buf)
            with pytest.raises(ValueError, match="^fill_offline fills an empty buffer, "
                                                 f"but this one holds {len(buf)} rows$"):
                fill()
            assert filled_state(buf) == before


class TestImpliedDistributionProperties:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_running_sum_reference(self, data):
        buf = data.draw(reachable_buffers(discrete=True))
        if len(buf) == 0:
            buf.push(*make_transition(s2=0))
        # a few repeated pairs make buckets hold several slots
        pairs = data.draw(st.lists(st.tuples(st.integers(0, min(5, buf.state_dim - 1)),
                                             st.integers(0, min(2, buf.action_dim - 1))),
                                   max_size=3 * buf.capacity))
        for s, a in pairs:
            buf.push(*make_transition(s=s, a=a, s2=0))
        buf.update_priorities(np.arange(len(buf)), data.draw(hnp.arrays(
            np.float64, len(buf), elements=st.floats(1e-3, 1e3))))
        got, want = buf.implied_distribution(), implied_reference(buf)
        assert list(got.items()) == list(want.items())
        assert all(type(s) is int and type(a) is int for s, a in got)

    @pytest.mark.parametrize("dense", [True, False],
                             ids=["key range within size", "wider key range"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_running_sum_reference_on_both_sides_of_the_key_range(
            self, dense, data):
        # the key range is the S x A table: counts whose product is at most
        # the size, or above it, with counts up to 2**41
        n = data.draw(st.integers(1, 40))
        s_count = data.draw(st.integers(1, n) if dense else COUNT)
        a_count = data.draw(st.integers(1, n // s_count) if dense
                            else st.integers(n // s_count + 1, 2**41))
        assert (s_count * a_count <= n) == dense

        def indices(count):
            # a window of at most n indices anywhere in the count, so pairs repeat
            span = data.draw(st.integers(1, min(count, n)))
            base = data.draw(st.integers(0, count - span))
            return base + data.draw(hnp.arrays(np.int64, n,
                                               elements=st.integers(0, span - 1)))
        states, actions = indices(s_count), indices(a_count)
        buf = tabular_buffer(n, (s_count, a_count))
        buf.fill_offline(dict(zip(COLUMNS, (states, actions, np.zeros(n), states,
                                            np.zeros(n, dtype=bool)))))
        buf.update_priorities(np.arange(n), data.draw(hnp.arrays(
            np.float64, n, elements=st.floats(1e-3, 1e3))))
        got, want = buf.implied_distribution(), implied_reference(buf)
        assert list(got.items()) == list(want.items())
        assert all(type(s) is int and type(a) is int for s, a in got)


# the counts at which an index column's held dtype widens: uint8 up to 256,
# uint16 up to 2**16, uint32 up to 2**32, uint64 above
EDGE_COUNTS = (1, 255, 256, 257, 1 << 16, (1 << 16) + 1, 1 << 32, (1 << 32) + 1)


def held_itemsize(count):
    return next(size for size, top in ((1, 1 << 8), (2, 1 << 16), (4, 1 << 32), (8, None))
                if top is None or count <= top)


class TestNarrowIndices:
    """A tabular buffer holds each index column in the narrowest unsigned
    dtype that holds count - 1, and hands its indices out and writes them
    as int64: at the counts where that dtype widens, and at any up to 2**41."""

    @settings(max_examples=60, deadline=None)
    @given(counts=st.tuples(st.sampled_from(EDGE_COUNTS) | COUNT,
                            st.sampled_from(EDGE_COUNTS) | COUNT),
           data=st.data())
    def test_edge_indices_round_trip_as_int64(self, counts, data):
        s_count, a_count = counts
        buf, ref = tabular_buffer(6, counts), tabular_buffer(6, counts)
        for name, count in (("states", s_count), ("actions", a_count),
                            ("next_states", s_count)):
            dtype = buf.columns[name].dtype
            assert (dtype.kind, dtype.itemsize) == ("u", held_itemsize(count)), name

        # 0 and count - 1 in every index column, then drawn indices
        def edge(count):
            return st.sampled_from([0, count - 1]) | st.integers(0, count - 1)
        rows = {name: np.array([0, count - 1, count - 1, 0]
                               + [data.draw(edge(count)) for _ in range(2)],
                               dtype=np.int64)
                for name, count in (("states", s_count), ("actions", a_count),
                                    ("next_states", s_count))}
        rows.update(rewards=np.arange(6.0), terminals=np.arange(6) % 2 == 0)
        push_rows(buf, **rows)
        ref.fill_offline(rows)
        assert buffer_state(ref) == buffer_state(buf)
        batch = buf.gather(np.arange(6))
        arrays = snapshot_arrays(buf)
        for name in ("states", "actions", "next_states"):
            gathered = getattr(batch, name)
            assert gathered.dtype == arrays[name].dtype == np.int64
            assert gathered.tolist() == arrays[name].tolist() == rows[name].tolist()
        loaded = PriorityBuffer.load(io.BytesIO(snapshot_bytes(buf)))
        assert snapshot_bytes(loaded) == snapshot_bytes(buf)
        assert buffer_state(loaded) == buffer_state(buf)

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
        ((257, 255), 257 * 255)])
    def test_implied_distribution_across_pieces(self, counts, n):
        assert counts[0] * counts[1] <= n  # the table pass
        rng = np.random.default_rng(n)
        states, actions = rng.integers(0, counts[0], n), rng.integers(0, counts[1], n)
        states[-1], actions[-1] = counts[0] - 1, counts[1] - 1
        buf = tabular_buffer(n, counts)
        buf.fill_offline(dict(zip(COLUMNS, (states, actions, np.zeros(n), states,
                                            np.zeros(n, dtype=bool)))))
        buf.update_priorities(np.arange(n), rng.random(n) + 1e-3)
        got, want = buf.implied_distribution(), implied_reference(buf)
        assert list(got.items()) == list(want.items())
        assert (counts[0] - 1, counts[1] - 1) in got


class TestBulkPathMemory:
    """What the bulk paths allocate beyond the buffer, as tracemalloc sees
    it (numpy reports its array allocations to it), on a full 2^16-slot
    tabular buffer: less than 2.5 int64 columns of the live size, and for
    the implied distribution and the snapshot's widened index columns a
    bound that does not grow with it."""

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
        # four pieces of int64 slot temporaries, the S x A table's first
        # slots and sums (16 bytes a cell), and the 256-key result
        out = {}
        bound = 4 * 8 * PriorityBuffer.PIECE_SLOTS + 16 * 64 * 4 + 64 * 1024
        assert bound < 8 * self.N
        assert self.traced_peak(lambda: out.update(full.implied_distribution())) < bound
        assert list(out.items()) == list(implied_reference(full).items())

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
