"""Fixed-capacity transition storage with proportional sampling.

A ring buffer of transitions, its columns laid out by one table
(PriorityBuffer._row_layout), plus a sum tree over per-transition priorities
d(s, a). New transitions always enter with priority 1; priority schemes
rewrite the leaves afterwards. The sum tree has two tiers: binary partial
sums from the leaves up to a level of at most SumTree.PREFIX_WIDTH nodes,
where a write repairs only the written leaves' ancestors, and one running
prefix sum over that level, rebuilt once after any number of writes.
Sampling searches the prefix and descends the binary levels below it,
vectorized over the batch.

Values are checked where they enter, one rule per kind of column (a tabular
buffer's dims are its table's counts, which its indices stay below); a
rejected one raises InvalidTransitionError (FormatError at load): a bad
input, not the FloatingPointError that signals a run's own non-finite values.
A tabular buffer holds its indices in the narrowest unsigned dtype that
holds count - 1, and hands them out and writes them as int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import binio


class EmptyBufferError(RuntimeError):
    pass


class InvalidTransitionError(ValueError):
    pass


class UnsupportedModeError(RuntimeError):
    pass


class SumTree:
    """Partial priority sums in two tiers.

    Lower tier: a flat binary tree (node i has children 2i and 2i + 1, the
    n leaves in nodes[n:2n]) kept up to the level of P = min(n,
    PREFIX_WIDTH) nodes: each node of nodes[P:n] is fl(left + right), and
    nodes[:P] are unused. A write repairs the written leaves' ancestors up
    to the P-level, one gather of child pairs per level, and marks the
    prefix stale. Upper tier: `prefix`, a 0 and then the P running sums of
    that level. The next total() or find_prefix rebuilds it with one
    np.add.accumulate up to the last P-level node ever written, so one
    step's writes share it; the nodes past that are still zeros, and their
    running sums are the last one plus 0.0, as a full accumulate gives.
    """

    # Width of the level under the prefix. 2048 and 8192 ran within 2% of
    # 4096 on 5,000- and 2^20-slot buffers (BENCH_prefix_tree.json).
    PREFIX_WIDTH = 4096

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._n = n = 1 << (capacity - 1).bit_length()
        self._width = width = min(n, self.PREFIX_WIDTH)
        # binary levels between the leaves and the prefix's level
        self._depth = (n // width).bit_length() - 1
        # never rebound: _pairs views it, row i holding node i's children
        self.nodes = np.zeros(2 * n, dtype=np.float64)
        self._pairs = self.nodes.reshape(n, 2)
        self.prefix = np.zeros(width + 1, dtype=np.float64)
        # P-level nodes [0, _written) may have been written; the rest are 0
        self._written = 0
        self._stale = False

    def _fresh_prefix(self) -> np.ndarray:
        if self._stale:
            w, m, prefix = self._width, self._written, self.prefix
            np.add.accumulate(self.nodes[w : w + m], out=prefix[1 : m + 1])
            # adding the unwritten zeros leaves each sum, but makes -0.0 +0.0
            prefix[m + 1 :] = prefix[m] + 0.0
            self._stale = False  # cleared last, once the prefix is whole
        return self.prefix

    def total(self) -> float:
        return float(self._fresh_prefix()[-1])

    def leaves(self, count: int | None = None) -> np.ndarray:
        end = self._n if count is None else count
        return self.nodes[self._n : self._n + end]

    def set_many(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Replace leaf values and repair their ancestors up to the P-level;
        duplicate parents in a level write identical sums."""
        idx = np.asarray(indices, dtype=np.int64) + self._n
        nodes, pairs = self.nodes, self._pairs
        nodes[idx] = values
        for _ in range(self._depth):
            idx >>= 1
            kids = pairs.take(idx, axis=0)
            nodes[idx] = kids[:, 0] + kids[:, 1]
        # idx now holds P-level nodes
        self._written = max(self._written, int(idx.max(initial=0)) + 1 - self._width)
        self._stale = True

    def set_range(self, start: int, stop: int, values) -> None:
        """Replace the leaves of slots [start, stop) with values (a scalar
        or stop - start values) and repair their ancestors up to the
        P-level, one slice per level: the sums set_many would write, with
        no index arrays."""
        lo, hi = start + self._n, stop + self._n
        nodes = self.nodes
        nodes[lo:hi] = values
        for _ in range(self._depth):
            lo, hi = lo >> 1, (hi + 1) >> 1
            np.add(nodes[2 * lo : 2 * hi : 2], nodes[2 * lo + 1 : 2 * hi : 2],
                   out=nodes[lo:hi])
        self._written = max(self._written, hi - self._width)
        self._stale = True

    def set(self, index: int, value: float) -> None:
        i = index + self._n
        nodes = self.nodes
        nodes[i] = value
        for _ in range(self._depth):
            i >>= 1
            nodes[i] = nodes[2 * i] + nodes[2 * i + 1]
        self._written = max(self._written, i + 1 - self._width)
        self._stale = True

    def find_prefix(self, targets: np.ndarray) -> np.ndarray:
        """The leaves whose cumulative-sum intervals hold the targets, which
        must lie in [0, total): the last P-level node whose running sum is at
        most the target (so nodes that sum to zero are skipped), then a
        binary descent from it."""
        prefix = self._fresh_prefix()
        t = np.asarray(targets, dtype=np.float64)
        j = prefix.searchsorted(t, side="right") - 1
        # a target rounded up to the total lands in the last node
        np.minimum(j, self._width - 1, out=j)
        u = t - prefix[j]
        idx = j + self._width
        nodes = self.nodes
        for _ in range(self._depth):
            left = idx * 2
            left_sum = nodes[left]
            go_right = u >= left_sum
            u -= left_sum * go_right
            idx = left + go_right
        return idx - self._n


@dataclass
class SampledBatch:
    """A minibatch drawn from the buffer, stored columnar for speed; the
    priorities are those of its slots when it was drawn."""

    indices: np.ndarray
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    terminals: np.ndarray
    priorities: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


class PriorityBuffer:
    """Ring buffer (_row_layout's columns) + sum-tree of priorities d(s, a).
    A tabular (discrete) buffer's state_dim and action_dim are its S x A
    table's counts, at least 1 each, and every index it holds is in [0, count),
    held in the narrowest unsigned dtype that holds count - 1.

    Single-writer, multiple-reader: push/update_priorities need exclusive
    access; sampling and implied_distribution may run concurrently with
    each other but not with writes.
    """

    INITIAL_PRIORITY = 1.0
    # the columns a transition brings: push's fields and SampledBatch's
    DATA = ("states", "actions", "rewards", "next_states", "terminals")
    # Ceiling on what one buffer allocates (its columns plus the sum tree):
    # 4 GiB, room for 2^26 tabular or 2^25 pendulum slots. A 2^20-slot
    # tabular buffer whose counts fit uint8 (36 bytes a slot) takes 36 MiB,
    # and 2^26 such slots take 2.25 GiB.
    MAX_BYTES = 1 << 32
    # slots a piece of implied_distribution's table pass covers
    PIECE_SLOTS = 1 << 13

    def __init__(self, capacity: int, state_dim: int, action_dim: int,
                 discrete: bool = False):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if discrete and min(state_dim, action_dim) < 1:
            raise ValueError(f"a tabular buffer's counts ({state_dim}, {action_dim}) "
                             "must be >= 1")
        layout = self._row_layout(state_dim, action_dim, discrete)
        del layout["priorities"]  # the sum tree's leaves
        layout["terminals"] = (np.dtype(bool), ())  # written as their uint8 bytes
        for name, count in self._counts(state_dim, action_dim, discrete).items():
            # the narrowest unsigned dtype that holds count - 1; written as int64
            layout[name] = (np.min_scalar_type(count - 1), ())
        # the columns, and the tree's float64 nodes (2 per leaf)
        nbytes = (capacity * sum(dtype.itemsize * math.prod(row)
                                 for dtype, row in layout.values())
                  + 16 * (1 << (capacity - 1).bit_length()))
        if nbytes > self.MAX_BYTES:
            raise ValueError(f"a buffer of {capacity} slots needs {nbytes} bytes, "
                             f"above the ceiling of {self.MAX_BYTES}")
        self.capacity = capacity
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.discrete = discrete
        self.columns = {name: np.zeros((capacity, *row), dtype)
                        for name, (dtype, row) in layout.items()}
        self.tree = SumTree(capacity)
        self.size = 0
        self.write_cursor = 0

    def __len__(self) -> int:
        return self.size

    @property
    def priorities(self) -> np.ndarray:
        return self.tree.leaves(self.size)

    def total_priority(self) -> float:
        return self.tree.total()

    def _coerce(self, value, dim: int, what: str) -> np.ndarray | int:
        if self.discrete:
            # fill_offline's and load's index rule: an integer in [0, dim), not a bool
            if (type(value) is not int and not isinstance(value, np.integer)
                    or not 0 <= value < dim):
                raise InvalidTransitionError(f"{what} {value!r} is not an index in [0, {dim})")
            return int(value)
        arr = np.asarray(value, dtype=np.float64).reshape(-1)
        if arr.shape != (dim,):
            raise InvalidTransitionError(f"{what} has shape {arr.shape}, expected ({dim},)")
        if not np.isfinite(arr).all():
            raise InvalidTransitionError(f"{what} contains non-finite values")
        return arr

    def push(self, state, action, reward: float, next_state, terminal: bool,
             insert_step: int = 0) -> int:
        """Store one transition at the write cursor with priority 1; evicts
        the oldest entry once full. Returns the slot index. States and
        actions are float vectors, or integer indices in tabular mode.

        Every field is checked before anything is written: once the buffer
        is full, the slot holds the live oldest entry."""
        if not math.isfinite(reward):
            raise InvalidTransitionError(f"reward {reward!r} is not finite")
        # load's 0/1 flag rule and _coerce's integer rule, as plain Python tests
        if terminal not in (0, 1):
            raise InvalidTransitionError(f"terminal {terminal!r} is not 0 or 1")
        if type(insert_step) is not int and not isinstance(insert_step, np.integer):
            raise InvalidTransitionError(f"insert_step {insert_step!r} is not an integer")
        if insert_step < 0:
            raise InvalidTransitionError(f"insert_step {insert_step!r} is below 0")
        state = self._coerce(state, self.state_dim, "state")
        next_state = self._coerce(next_state, self.state_dim, "next_state")
        action = self._coerce(action, self.action_dim, "action")
        i = self.write_cursor
        cols = self.columns
        cols["states"][i], cols["next_states"][i], cols["actions"][i] = (
            state, next_state, action)
        cols["rewards"][i] = float(reward)
        cols["terminals"][i] = bool(terminal)
        cols["insert_steps"][i] = int(insert_step)
        self.tree.set(i, self.INITIAL_PRIORITY)
        self.write_cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        return i

    def gather(self, idx: np.ndarray) -> SampledBatch:
        """The transitions in slots idx (SampledBatch's fields are in DATA's
        order), a tabular buffer's indices as int64."""
        cols = self.columns
        batch = {name: cols[name][idx] for name in self.DATA}
        for name in self._counts(self.state_dim, self.action_dim, self.discrete):
            batch[name] = batch[name].astype(np.int64)
        priorities = self.tree.leaves(self.capacity)[idx]
        return SampledBatch(idx, **batch, priorities=priorities)

    def sample_proportional(self, n: int, rng: np.random.Generator) -> SampledBatch:
        """Draw n slots, each with probability priority / root_sum."""
        if self.size == 0:
            raise EmptyBufferError("cannot sample from an empty buffer")
        total = self.tree.total()
        targets = rng.random(n) * total
        idx = self.tree.find_prefix(targets)
        # prefix rounding at the right edge can land past the live slots
        np.minimum(idx, self.size - 1, out=idx)
        return self.gather(idx)

    def sample_uniform(self, n: int, rng: np.random.Generator) -> SampledBatch:
        """Draw n slots uniformly, whatever their priorities."""
        if self.size == 0:
            raise EmptyBufferError("cannot sample from an empty buffer")
        return self.gather(rng.integers(0, self.size, size=n))

    def update_priorities(self, indices, new_priorities) -> None:
        """Replace priorities at the given slots.

        A slot named k times (drawn k times in one batch) ends at the last
        of its k values, and its ancestors at the sums a fresh set_range
        over the leaves gives: every duplicate writes the same sums."""
        idx = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(new_priorities, dtype=np.float64)
        if idx.shape != vals.shape:
            raise InvalidTransitionError("indices and priorities length mismatch")
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self.size:
            raise InvalidTransitionError("slot index out of range")
        self._check_values("priorities", vals)
        self.tree.set_many(idx, vals)

    def implied_distribution(self) -> dict:
        """Priority-weighted empirical distribution over the (state, action)
        index pairs of a discrete buffer; values sum to 1 within 1e-12.

        Keys are Python-int pairs in the order of their first slot. Each
        bucket adds its priorities in slot order, and the total adds the
        buckets in key order, exactly as a running per-slot sum would.

        When the S x A table has at most as many cells as live slots, a
        pair's offset s * A + a in it is its bucket: the slots go in pieces
        of PIECE_SLOTS through one minimum.at and one add.at into the table,
        so beyond the table the temporaries do not grow with the live size.
        A larger table falls back to sorting the pairs into dense ranks and
        one bincount.
        """
        if self.size == 0:
            raise EmptyBufferError("buffer is empty")
        if not self.discrete:
            raise UnsupportedModeError(
                "continuous buffers have no (state, action) buckets"
            )
        n, adim = self.size, self.action_dim
        states, actions = self.columns["states"][:n], self.columns["actions"][:n]
        leaves = self.tree.leaves(n)
        cells = self.state_dim * adim  # Python ints
        # add.at and bincount both add each bucket's priorities in slot order
        if cells <= n:
            first, sums = np.full(cells, n), np.zeros(cells)
            for lo in range(0, n, self.PIECE_SLOTS):
                hi = min(lo + self.PIECE_SLOTS, n)
                # int64 first: a narrow dtype times adim stays narrow
                bucket = states[lo:hi].astype(np.int64) * adim
                bucket += actions[lo:hi]
                np.minimum.at(first, bucket, np.arange(lo, hi))
                np.add.at(sums, bucket, leaves[lo:hi])
            first = first[first < n]
            # each bucket's first slot, in slot order
            first.sort()
            sums = sums[states[first].astype(np.int64) * adim + actions[first]]
        else:
            # dense ranks keep the pair key below n**2, whatever the counts
            _, s_rank = np.unique(states, return_inverse=True)
            _, a_rank = np.unique(actions, return_inverse=True)
            _, first, bucket = np.unique(s_rank * n + a_rank, return_index=True,
                                         return_inverse=True)
            first.sort()
            sums = np.bincount(bucket, weights=leaves)[bucket[first]]
        total = sum(sums)
        return {
            (s, a): v / total
            for s, a, v in zip(states[first].tolist(), actions[first].tolist(), sums)
        }

    @staticmethod
    def _row_layout(state_dim: int, action_dim: int,
                    discrete: bool) -> dict[str, tuple[np.dtype, tuple[int, ...]]]:
        """The buffer's columns in snapshot order, name -> (dtype, shape of
        one row): the one table that allocation, the byte ceiling, gather,
        fill_offline, snapshot and load read."""
        f8, i8 = np.dtype(np.float64), np.dtype(np.int64)
        if discrete:
            states = actions = (i8, ())
        else:
            states, actions = (f8, (state_dim,)), (f8, (action_dim,))
        return {"states": states, "actions": actions, "rewards": (f8, ()),
                "next_states": states, "terminals": (np.dtype(np.uint8), ()),
                "insert_steps": (i8, ()), "priorities": (f8, ())}

    @staticmethod
    def _counts(sdim: int, adim: int, discrete: bool) -> dict[str, int]:
        """Each index column's count, which its indices stay below (none if vector)."""
        return {"states": sdim, "actions": adim, "next_states": sdim} if discrete else {}

    # Snapshot format: binio envelope (magic, version, kind=1) wrapping
    # meta = [capacity, size, write_cursor, state_dim, action_dim, discrete]
    # and the live slots of every column of _row_layout in slot order, each
    # in _row_layout's dtype, whatever the dtype it is held in.
    def _live_columns(self) -> dict[str, np.ndarray]:
        n = self.size
        live = {name: column[:n] for name, column in self.columns.items()}
        live["priorities"] = self.tree.leaves(n)
        return live

    def snapshot(self, path_or_stream) -> None:
        """Write the snapshot; a column held narrower than its _row_layout
        dtype is widened in binio's pieces as it is written, never whole."""
        meta = np.array([self.capacity, self.size, self.write_cursor,
                         self.state_dim, self.action_dim, int(self.discrete)],
                        dtype=np.int64)
        layout = self._row_layout(self.state_dim, self.action_dim, self.discrete)
        payload = binio.arrays_to_payload(
            {"meta": meta, **self._live_columns()},
            {name: dtype for name, (dtype, _) in layout.items()})
        binio.write_envelope(path_or_stream, binio.KIND_BUFFER, payload)

    @classmethod
    def load(cls, path_or_stream) -> "PriorityBuffer":
        """Rebuild a snapshot; a payload that does not describe a valid
        buffer raises binio.FormatError.

        Every column of _row_layout is checked against the meta (its counts
        too), and under its kind's value rule, before anything is allocated.
        A meta naming a buffer above MAX_BYTES (4 GiB) is refused."""
        payload = binio.read_envelope(path_or_stream, binio.KIND_BUFFER)
        arrays = binio.payload_to_arrays(payload)
        meta = binio.checked(arrays, "meta", (6,), np.int64)
        capacity, size, cursor, sdim, adim, discrete = (int(v) for v in meta)
        if (capacity < 1 or not 0 <= size <= capacity or not 0 <= cursor < capacity
                or (size < capacity and cursor != size)
                or sdim < 0 or adim < 0 or discrete not in (0, 1)):
            raise binio.FormatError(f"inconsistent buffer meta {meta.tolist()}")
        counts = cls._counts(sdim, adim, discrete)
        for name, (dtype, row) in cls._row_layout(sdim, adim, discrete).items():
            column = binio.checked(arrays, name, (size, *row), dtype)
            cls._check_values(name, column, counts.get(name), binio.FormatError)
        try:
            buf = cls(capacity, sdim, adim, discrete=bool(discrete))
        except ValueError as exc:
            raise binio.FormatError(str(exc)) from None
        buf.size, buf.write_cursor = size, cursor
        # the indices are checked below their counts, so narrowing keeps them
        for name, dest in buf._live_columns().items():
            dest[...] = arrays[name]
        # the leaves now hold the priorities; set_range also sums their parents
        buf.tree.set_range(0, size, arrays["priorities"])
        return buf

    def fill_offline(self, columns) -> None:
        """Bulk-load an offline dataset into an empty buffer (one that holds
        rows raises ValueError): columns maps each DATA name to its rows, as
        a dict of arrays or an open archive whose every lookup reads one
        member (harness.load_offline_dataset's).

        The result is that of pushing the rows in order with insert step 0:
        row k lands in slot k % capacity with priority 1, so a dataset
        larger than the buffer keeps its last `capacity` rows. A tabular
        buffer's index columns must be integers below its counts, as push's
        indices are, and are copied into the narrow columns that hold them.

        One pass holds one column at a time: it looks up each column once
        (rewards first, for the row count), checks it under every rule and
        copies it into its slots. Size, cursor and tree change only after
        the last column passes, and nothing reads a slot past size, so a
        rejected dataset leaves the buffer empty. No insert step is written:
        every slot holds the constructor's 0.
        """
        if self.size:
            raise ValueError(f"fill_offline fills an empty buffer, but this one "
                             f"holds {self.size} rows")
        column = np.asarray(columns["rewards"])
        if column.ndim != 1:
            raise InvalidTransitionError(f"rewards has shape {column.shape}, "
                                         "expected one value a row")
        n, cap = len(column), self.capacity
        kept = min(n, cap)
        # the kept rows fill slots [0, kept): from the first one's slot up,
        # and from slot 0 once they wrap the ring
        start = (n - kept) % cap
        counts = self._counts(self.state_dim, self.action_dim, self.discrete)
        for name in ("rewards", *(k for k in self.DATA if k != "rewards")):
            if name != "rewards":
                column = np.asarray(columns[name])
            dest, count = self.columns[name], counts.get(name)
            row_shape = dest.shape[1:]
            if column.shape[:1] != (n,):
                raise InvalidTransitionError(f"{name} has shape {column.shape}, "
                                             f"but rewards has {n} rows")
            if math.prod(column.shape[1:]) != math.prod(row_shape):
                raise InvalidTransitionError(f"{name} rows have shape {column.shape[1:]}, "
                                             f"expected {row_shape}")
            # index columns take integers only (push's rule); flags bools too
            index, flag = count is not None, dest.dtype == bool
            if column.dtype.kind not in ("iu" if index else "biuf" if flag else "iuf"):
                what = "integer indices" if index else "real numbers"
                raise InvalidTransitionError(f"{name} must hold {what}, "
                                             f"got dtype {column.dtype}")
            # the flag rule, before the cast to bool hides a value other than 0 or 1
            if flag and not (column == column.astype(bool)).all():
                raise InvalidTransitionError(f"{name} holds a flag other than 0 or 1")
            # indices in their own dtype: a narrow cast would wrap 300 to 44,
            # and a cast to int64 would turn 2**63 + 7 negative
            self._check_values(
                name, column if index else column.astype(dest.dtype, copy=False), count)
            # the assignment casts to the held dtype, which holds every
            # value the check passed
            column = column.reshape((n, *row_shape))
            dest[start:kept] = column[n - kept : n - start]
            dest[:start] = column[n - start :]
            del column  # before the next lookup reads its member
        self.tree.set_range(0, kept, self.INITIAL_PRIORITY)
        self.write_cursor = n % cap
        self.size = kept

    @staticmethod
    def _check_values(name: str, arr: np.ndarray, count: int | None = None,
                      error=InvalidTransitionError) -> None:
        """One value rule per kind of column: priorities positive and finite,
        an index column (one _counts names, of any integer dtype) in [0,
        count), steps (int64) >= 0, flags (uint8) 0 or 1, other float64
        values finite. A bool column needs no rule."""
        if not arr.size or arr.dtype.kind == "b":
            return
        # min and max are nan when any value is, which fails every float test
        if name == "priorities":
            ok = arr.min() > 0.0 and arr.max() < np.inf
            rule = "must be positive and finite"
        elif count is not None:
            ok, rule = arr.min() >= 0, "holds an index below 0"
            if ok:
                top = arr.max()
                ok = top < count
                rule = (f"holds index {top}, but the buffer has {count} "
                        f"{name.removeprefix('next_')}")
        elif arr.dtype.kind == "i":
            ok, rule = arr.min() >= 0, "holds a step below 0"
        elif arr.dtype.kind == "u":
            ok, rule = arr.max() <= 1, "holds a flag other than 0 or 1"
        else:
            ok = np.isfinite([arr.min(), arr.max()]).all()
            rule = "contains non-finite values"
        if not ok:
            raise error(f"{name} {rule}")
