"""Compact binary serialization of summaries (``.ldmeb``).

The text format in :mod:`repro.graph.io` is debuggable; this module is the
storage-oriented counterpart: a varint-coded binary layout whose size is
what :func:`repro.metrics.summary_size_bits` models. Layout (all integers
LEB128 varints):

```
magic "LDMB" | version | num_nodes | num_edges
num_supernodes | per supernode: id, member_count, gap-coded sorted members
num_superedges | gap-coded sorted (a, b) pairs (loops included)
|C+| | gap-coded sorted pairs
|C-| | gap-coded sorted pairs
crc32 (4 bytes LE, over everything above) | magic "LDMZ"     [version >= 2]
```

Gap coding: pairs are sorted lexicographically; the first component is
delta-coded against the previous pair's first component, the second stored
raw. This keeps real summaries a fraction of the text format's size.

Corruption safety (version 2, the default): the trailing footer carries a
CRC32 of the entire preceding byte stream, so a truncated download, a
torn write, or a flipped bit raises a typed
:class:`~repro.errors.CorruptSummaryError` instead of deserializing
garbage. Version-1 files (no footer) remain readable. Writes to a path go
through :func:`repro.ioutil.atomic_write`, so an interrupted write never
clobbers a previous good file.

The codec works on whole streams, not on single values: the writer
builds every value of the file as one int64 array and encodes it in one
pass (:func:`encode_varints`), and the reader decodes every varint at
once (:class:`VarintReader`); only its walk over the supernode headers is
a loop. Values must fit a signed 64-bit integer, so a varint longer than
ten bytes is rejected as ``"varint too long"``, and a header whose member
counts cannot cover ``num_nodes`` is rejected before anything that large
is allocated.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import IO, List, Tuple, Union

import numpy as np

from .core.pairs import edge_array, edge_list, pair_keys
from .core.partition import SupernodePartition
from .core.summary import CorrectionSet, Summarization
from .errors import CorruptSummaryError
from .ioutil import atomic_write

__all__ = [
    "write_summary_binary",
    "read_summary_binary",
    "encode_varints",
    "VarintReader",
    "CorruptSummaryError",
]

MAGIC = b"LDMB"
FOOTER_MAGIC = b"LDMZ"
VERSION = 2
#: Versions this reader understands.
SUPPORTED_VERSIONS = (1, 2)

_CRC = struct.Struct("<I")
FOOTER_BYTES = _CRC.size + len(FOOTER_MAGIC)

Edge = Tuple[int, int]
PathLike = Union[str, "os.PathLike[str]"]
#: Destination/source: a filesystem path or an open binary file object
#: (``io.BytesIO``, a socket makefile, a pipe...).
FileOrPath = Union[PathLike, IO[bytes]]


# ----------------------------------------------------------------------
# varint codec: whole int64 streams at once
# ----------------------------------------------------------------------
#: Longest varint the reader accepts. Ten bytes hold 70 bits; the reader
#: also rejects a tenth byte that would carry bit 63 or above, so every
#: decoded value fits a signed 64-bit integer.
MAX_VARINT_BYTES = 10


def encode_varints(values: np.ndarray) -> bytes:
    """LEB128-encode a stream of non-negative int64 values."""
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("varints encode non-negative integers")
    lengths = np.ones(values.size, dtype=np.int64)
    for k in range(1, 9):       # a non-negative int64 needs <= 9 bytes
        lengths += values >= (1 << (7 * k))
    starts = np.cumsum(lengths) - lengths
    out = np.empty(int(lengths.sum()), dtype=np.uint8)
    live = np.arange(values.size)      # varints with a byte at offset j
    for j in range(int(lengths.max()) if lengths.size else 0):
        if j:
            live = live[lengths[live] > j]
        byte = (values[live] >> (7 * j)) & 0x7F
        byte[lengths[live] > j + 1] |= 0x80
        out[starts[live] + j] = byte
    return out.tobytes()


class VarintReader:
    """Every varint of a byte string, decoded at once, read in order.

    Decoding stops at the first varint that is too long; :meth:`take`
    then raises :class:`~repro.errors.CorruptSummaryError` for a value
    past that point with ``"varint too long"``, or with
    ``"truncated varint"`` when the bytes simply ran out.
    """

    def __init__(self, data: bytes, path: str = "<data>") -> None:
        buf = np.frombuffer(data, dtype=np.uint8)
        ends = np.flatnonzero(buf < 0x80) + 1
        lengths = np.diff(ends, prepend=0)
        too_long = np.flatnonzero(
            (lengths > MAX_VARINT_BYTES)
            | ((lengths == MAX_VARINT_BYTES) & (buf[ends - 1] != 0))
        )
        self._stop = "truncated varint"
        if too_long.size:
            ends, lengths = ends[:too_long[0]], lengths[:too_long[0]]
            self._stop = "varint too long"
        elif buf.size - (ends[-1] if ends.size else 0) > MAX_VARINT_BYTES:
            self._stop = "varint too long"   # unterminated and too long
        starts = ends - lengths
        values = (buf[starts] & 0x7F).astype(np.int64)
        live = np.flatnonzero(lengths > 1)     # the multi-byte varints
        for j in range(1, int(lengths.max()) if lengths.size else 0):
            live = live[lengths[live] > j]
            values[live] |= (buf[starts[live] + j].astype(np.int64)
                             & 0x7F) << (7 * j)
        self.values = values
        self.path = path
        self.pos = 0                    # index of the next unread value
        self._ends = ends

    def need(self, end: int) -> None:
        """Raise unless values ``[0, end)`` were decoded."""
        if end > self.values.size:
            raise CorruptSummaryError(self.path, self._stop)

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` values."""
        self.need(self.pos + count)
        self.pos += count
        return self.values[self.pos - count:self.pos]

    @property
    def offset(self) -> int:
        """Bytes consumed by the values read so far."""
        return int(self._ends[self.pos - 1]) if self.pos else 0


def _pairs_stream(pairs: List[Edge]) -> np.ndarray:
    """Count, then the lexsorted pairs with first components gap-coded."""
    arr = edge_array(pairs)
    arr = arr[np.argsort(pair_keys(arr)[0])]
    arr[:, 0] = np.diff(arr[:, 0], prepend=0)
    return np.concatenate([[len(pairs)], arr.ravel()])


def _supernodes_stream(partition) -> np.ndarray:
    """Per supernode, by id: ``sid``, member count, gap-coded members."""
    node2super = partition.node2super
    members = np.argsort(node2super, kind="stable")   # by (sid, node)
    owners = node2super[members]
    opens = np.diff(owners, prepend=-1) != 0
    first = np.flatnonzero(opens)
    gaps = np.diff(members, prepend=0)
    gaps[first] = members[first]
    stream = np.empty(2 * first.size + members.size, dtype=np.int64)
    heads = first + 2 * np.arange(first.size)
    stream[heads] = owners[first]
    stream[heads + 1] = np.diff(first, append=members.size)
    stream[np.arange(members.size) + 2 * np.cumsum(opens)] = gaps
    return stream


def _payload(summary: Summarization) -> bytes:
    """Everything up to the footer: magic plus the one varint stream."""
    stream = np.concatenate([
        [VERSION, summary.num_nodes, summary.num_edges,
         summary.num_supernodes],
        _supernodes_stream(summary.partition),
        _pairs_stream(summary.superedges),
        _pairs_stream(summary.corrections.additions),
        _pairs_stream(summary.corrections.deletions),
    ]).astype(np.int64)
    return MAGIC + encode_varints(stream)


def _write_payload(summary: Summarization, raw: IO[bytes]) -> None:
    payload = _payload(summary)
    raw.write(payload + _CRC.pack(zlib.crc32(payload)) + FOOTER_MAGIC)


def write_summary_binary(summary: Summarization, dest: FileOrPath) -> int:
    """Serialize ``summary``; returns the number of bytes written.

    ``dest`` may be a path or any open binary file object (which is left
    open, written from its current position). Path destinations are
    written atomically (temp file + fsync + rename), so a crash mid-write
    leaves any previous file at that path intact.
    """
    if hasattr(dest, "write"):
        out: IO[bytes] = dest  # type: ignore[assignment]
        start = out.tell() if out.seekable() else None
        _write_payload(summary, out)
        if start is not None:
            return out.tell() - start
        return -1           # unseekable sink: size unknown
    path = os.fspath(dest)
    with atomic_write(path, "wb") as out:
        _write_payload(summary, out)
    return os.path.getsize(path)


def _check_footer(data: bytes, path: str) -> bytes:
    """Validate the version-2 footer; returns the payload bytes."""
    if len(data) < FOOTER_BYTES:
        raise CorruptSummaryError(path, "file too short for checksum footer")
    if data[-len(FOOTER_MAGIC):] != FOOTER_MAGIC:
        raise CorruptSummaryError(
            path, "missing footer magic (truncated or torn write)"
        )
    payload = data[:-FOOTER_BYTES]
    (stored,) = _CRC.unpack(data[-FOOTER_BYTES:-len(FOOTER_MAGIC)])
    actual = zlib.crc32(payload)
    if stored != actual:
        raise CorruptSummaryError(
            path,
            f"checksum mismatch (stored {stored:#010x}, "
            f"computed {actual:#010x})",
        )
    return payload


def read_summary_binary(source: FileOrPath) -> Summarization:
    """Deserialize a summary written by :func:`write_summary_binary`.

    ``source`` may be a path or an open binary file object; a file
    object is consumed to EOF (the format is self-delimiting only via
    the trailing-bytes check, matching the path behaviour).

    Raises :class:`~repro.errors.CorruptSummaryError` (a
    :class:`ValueError` subclass) on any malformed, truncated, or
    checksum-failing input.
    """
    if hasattr(source, "read"):
        data = source.read()  # type: ignore[union-attr]
        path: str = getattr(source, "name", "<stream>")
    else:
        path = os.fspath(source)
        with open(path, "rb") as fh:
            data = fh.read()
    if data[:4] != MAGIC:
        raise CorruptSummaryError(path, "not an LDMB summary file")
    version = VarintReader(data[4:5 + MAX_VARINT_BYTES], path).take(1)
    if version[0] not in SUPPORTED_VERSIONS:
        raise CorruptSummaryError(
            path, f"unsupported version {int(version[0])}")
    payload = _check_footer(data, path) if version[0] >= 2 else data
    stream = VarintReader(memoryview(payload)[4:], path)
    _, num_nodes, num_edges, num_supers = stream.take(4).tolist()
    # The one sequential step: each supernode header's offset depends on
    # the previous supernode's member count.
    values = stream.values
    heads = []
    pos = stream.pos
    for _ in range(num_supers):
        stream.need(pos + 2)
        heads.append(pos)
        pos += 2 + int(values[pos + 1])
    stream.need(pos)
    stream.pos = pos
    heads_at = np.array(heads, dtype=np.int64)
    sids = values[heads_at]
    counts = values[heads_at + 1]
    offsets = np.cumsum(counts) - counts
    gaps = values[np.repeat(heads_at + 2 - offsets, counts)
                  + np.arange(int(counts.sum()))]
    running = np.cumsum(gaps)
    flat = (running - np.repeat(
        np.concatenate([[0], running])[offsets], counts)).tolist()
    members = {
        sid: flat[start:start + count]
        for sid, start, count in zip(
            sids.tolist(), offsets.tolist(), counts.tolist())
    }
    sections = []
    for _ in range(3):
        pairs = stream.take(2 * int(stream.take(1)[0])).reshape(-1, 2)
        sections.append(edge_list(np.column_stack(
            [np.cumsum(pairs[:, 0]), pairs[:, 1]])))
    superedges, additions, deletions = sections
    trailing = len(payload) - 4 - stream.offset
    if trailing:
        raise CorruptSummaryError(path, f"{trailing} trailing bytes")
    del stream, values, data, payload   # release before building objects
    try:
        return Summarization(
            num_nodes=num_nodes,
            num_edges=num_edges,
            partition=SupernodePartition.from_members(num_nodes, members),
            superedges=superedges,
            corrections=CorrectionSet(additions, deletions),
            algorithm="loaded-binary",
        )
    except ValueError as exc:
        # Checksum-valid bytes can still describe an impossible summary
        # (hand-crafted or version-1 bit rot); keep the error typed.
        raise CorruptSummaryError(path, f"invalid summary structure: {exc}") \
            from exc
