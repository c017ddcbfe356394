"""Versioned little-endian binary envelope shared by buffer snapshots and
parameter checkpoints.

Layout (all little-endian):

    bytes 0..7    magic  b"ROERBIN\\0"
    bytes 8..9    u16 format version
    bytes 10..11  u16 payload kind (1 = replay buffer, 2 = checkpoint)
    bytes 12..15  u32 payload byte length
    bytes 16..    payload

Payloads are a u32 array count, then that many tagged numpy arrays, each
u32 name length, name bytes (utf-8), u8 dtype code, u8 ndim, u64 per
dimension, then the raw array bytes. dtype codes: 0 = float64, 1 = int64,
2 = uint8. arrays_to_payload describes them without copying the arrays'
bytes, and an array may be written in another dtype than it is held in,
converted piece by piece as it is written; payload_to_arrays reads them
back as read-only views of the one payload, so a loader copies each
array once, into its own memory.
"""

from __future__ import annotations

import math
import struct

import numpy as np

MAGIC = b"ROERBIN\x00"
VERSION = 2
KIND_BUFFER = 1
KIND_CHECKPOINT = 2
# the most bytes of an array that one write passes to the stream
PIECE_BYTES = 1 << 16

_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<i8"), 2: np.dtype("u1")}
_CODES = {v: k for k, v in _DTYPES.items()}


class FormatError(ValueError):
    """Raised for bad magic, version mismatch, or a truncated stream."""


def _read_exact(stream, n: int) -> bytes:
    data = stream.read(n)
    if len(data) != n:
        raise FormatError(f"truncated stream: wanted {n} bytes, got {len(data)}")
    return data


def _array_parts(name: str, arr: np.ndarray,
                 dtype: np.dtype | None = None) -> tuple[bytes, np.ndarray, np.dtype]:
    """One tagged array, written in dtype (arr's own by default): its tag,
    arr flattened (a copy only if arr is not contiguous), and the
    little-endian dtype its bytes are written in."""
    arr = np.ascontiguousarray(arr)
    written = arr.dtype if dtype is None else np.dtype(dtype)
    code = _CODES.get(written.newbyteorder("<"))
    if code is None:
        raise FormatError(f"unsupported dtype {written} for field {name!r}")
    nb = name.encode("utf-8")
    tag = (struct.pack("<I", len(nb)) + nb + struct.pack("<BB", code, arr.ndim)
           + struct.pack(f"<{arr.ndim}Q", *arr.shape))
    return tag, arr.reshape(-1), _DTYPES[code]


class _Cursor:
    """A read position in one payload's bytes."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> int:
        """Step over the next n bytes; returns where they start."""
        left = len(self.data) - self.pos
        if n > left:
            raise FormatError(f"truncated stream: wanted {n} bytes, got {left}")
        self.pos += n
        return self.pos - n

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self.take(struct.calcsize(fmt)))


def _read_array(cur: _Cursor) -> tuple[str, np.ndarray]:
    """The next tagged array, as a read-only view of the payload."""
    (nlen,) = cur.unpack("<I")
    start = cur.take(nlen)
    name = str(cur.data[start:start + nlen], "utf-8")
    code, ndim = cur.unpack("<BB")
    if code not in _DTYPES:
        raise FormatError(f"unknown dtype code {code} for field {name!r}")
    shape = cur.unpack(f"<{ndim}Q")
    dtype = _DTYPES[code]
    count = math.prod(shape)   # Python ints: no overflow
    left = len(cur.data) - cur.pos
    if dtype.itemsize * count > left:
        raise FormatError(f"field {name!r} of shape {shape} needs "
                          f"{dtype.itemsize * count} bytes, but {left} remain")
    start = cur.take(dtype.itemsize * count)
    try:
        arr = np.frombuffer(cur.data, dtype, count, start).reshape(shape)
    except ValueError as exc:   # an empty array with a dimension numpy refuses
        raise FormatError(f"field {name!r} has bad shape {shape}: {exc}") from None
    return name, arr


class _Payload:
    """An envelope payload of tagged arrays that refers to the arrays' own
    memory: len() is its byte count, and write_to streams each array in
    pieces of at most PIECE_BYTES, each a view of the array when it is
    written in its own little-endian dtype and a converted copy otherwise,
    so the payload is never joined into one buffer."""

    def __init__(self, arrays: dict[str, np.ndarray], dtypes: dict[str, np.dtype]):
        self._count = struct.pack("<I", len(arrays))
        self._arrays = [_array_parts(name, arr, dtypes.get(name))
                        for name, arr in arrays.items()]
        self._nbytes = len(self._count) + sum(len(tag) + flat.size * dtype.itemsize
                                              for tag, flat, dtype in self._arrays)

    def __len__(self) -> int:
        return self._nbytes

    def write_to(self, stream) -> None:
        stream.write(self._count)
        for tag, flat, dtype in self._arrays:
            stream.write(tag)
            step = PIECE_BYTES // dtype.itemsize
            for lo in range(0, flat.size, step):
                stream.write(flat[lo : lo + step].astype(dtype, copy=False))


def write_envelope(path_or_stream, kind: int, payload: _Payload) -> None:
    """Write the header, then stream the payload's parts."""
    header = MAGIC + struct.pack("<HHI", VERSION, kind, len(payload))
    if hasattr(path_or_stream, "write"):
        path_or_stream.write(header)
        payload.write_to(path_or_stream)
    else:
        with open(path_or_stream, "wb") as fh:
            fh.write(header)
            payload.write_to(fh)


def read_envelope(path_or_stream, expected_kind: int) -> bytes:
    """The payload of an envelope of the expected kind, as one bytes object."""
    if hasattr(path_or_stream, "read"):
        stream = path_or_stream
    else:
        stream = open(path_or_stream, "rb")
    try:
        magic = _read_exact(stream, 8)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        version, kind, length = struct.unpack("<HHI", _read_exact(stream, 8))
        if version != VERSION:
            raise FormatError(f"unsupported format version {version}")
        if kind != expected_kind:
            raise FormatError(f"payload kind {kind} != expected {expected_kind}")
        payload = _read_exact(stream, length)
    finally:
        if stream is not path_or_stream:
            stream.close()
    return payload


def arrays_to_payload(arrays: dict[str, np.ndarray],
                      dtypes: dict[str, np.dtype] | None = None) -> _Payload:
    """The payload of these arrays, in order, each written in its dtypes
    entry (its own dtype if none); it holds views of them, so write it
    before they change."""
    return _Payload(arrays, dtypes or {})


def payload_to_arrays(payload: bytes) -> dict[str, np.ndarray]:
    """The payload's arrays, in order, as read-only views of its bytes; copy
    one to change it."""
    cur = _Cursor(payload)
    (count,) = cur.unpack("<I")
    return dict(_read_array(cur) for _ in range(count))


def checked(arrays: dict[str, np.ndarray], name: str, shape: tuple,
            dtype) -> np.ndarray:
    """arrays[name], which must exist with the given shape and dtype;
    FormatError naming the field otherwise."""
    arr = arrays.get(name)
    if arr is None or arr.shape != tuple(shape) or arr.dtype != dtype:
        found = "missing" if arr is None else f"{arr.dtype} {arr.shape}"
        raise FormatError(f"field {name!r} is {found}, "
                          f"expected {np.dtype(dtype)} {tuple(shape)}")
    return arr
