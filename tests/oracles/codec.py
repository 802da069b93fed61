"""Scalar LEB128 codec and the byte-at-a-time summary writer/reader."""

import io
import struct
import zlib
from typing import IO, List, Tuple

from repro.binaryio import FOOTER_BYTES, FOOTER_MAGIC, MAGIC, SUPPORTED_VERSIONS
from repro.core.summary import CorrectionSet, Summarization
from repro.errors import CorruptSummaryError

Edge = Tuple[int, int]
VERSION = 2


def write_varint(out: IO[bytes], value: int) -> None:
    if value < 0:
        raise ValueError("varints encode non-negative integers")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes([byte | 0x80]))
        else:
            out.write(bytes([byte]))
            return


def read_varint(data: bytes, pos: int,
                path: str = "<data>") -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CorruptSummaryError(path, "truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def write_pairs(out: IO[bytes], pairs: List[Edge]) -> None:
    """Sorted pair list with first components gap-coded."""
    ordered = sorted(pairs)
    write_varint(out, len(ordered))
    previous = 0
    for a, b in ordered:
        write_varint(out, a - previous)
        write_varint(out, b)
        previous = a


def read_pairs(data: bytes, pos: int,
               path: str = "<data>") -> Tuple[List[Edge], int]:
    count, pos = read_varint(data, pos, path)
    pairs: List[Edge] = []
    previous = 0
    for _ in range(count):
        gap, pos = read_varint(data, pos, path)
        b, pos = read_varint(data, pos, path)
        a = previous + gap
        pairs.append((a, b))
        previous = a
    return pairs, pos


def write_summary_bytes(summary: Summarization) -> bytes:
    """The whole version-2 file, one varint and one CRC update at a time."""
    raw = io.BytesIO()
    crc = 0

    class _CrcWriter:
        def write(self, data: bytes) -> None:
            nonlocal crc
            crc = zlib.crc32(data, crc)
            raw.write(data)

    out = _CrcWriter()
    out.write(MAGIC)
    write_varint(out, VERSION)
    write_varint(out, summary.num_nodes)
    write_varint(out, summary.num_edges)
    sids = summary.supernode_ids()
    write_varint(out, len(sids))
    for sid in sids:
        write_varint(out, sid)
        members = sorted(summary.members(sid))
        write_varint(out, len(members))
        previous = 0
        for member in members:
            write_varint(out, member - previous)
            previous = member
    write_pairs(out, list(summary.superedges))
    write_pairs(out, list(summary.corrections.additions))
    write_pairs(out, list(summary.corrections.deletions))
    raw.write(struct.pack("<I", crc))
    raw.write(FOOTER_MAGIC)
    return raw.getvalue()


def read_summary_bytes(data: bytes, path: str = "<data>") -> Summarization:
    """Parse a file varint by varint, as the reader once did."""
    if data[:4] != MAGIC:
        raise CorruptSummaryError(path, "not an LDMB summary file")
    version, pos = read_varint(data, 4, path)
    if version not in SUPPORTED_VERSIONS:
        raise CorruptSummaryError(path, f"unsupported version {version}")
    payload = data
    if version >= 2:
        payload = data[:-FOOTER_BYTES]
        (stored,) = struct.unpack("<I", data[-FOOTER_BYTES:-4])
        if data[-4:] != FOOTER_MAGIC or stored != zlib.crc32(payload):
            raise CorruptSummaryError(path, "bad footer")
    num_nodes, pos = read_varint(payload, pos, path)
    num_edges, pos = read_varint(payload, pos, path)
    num_supers, pos = read_varint(payload, pos, path)
    members = {}
    for _ in range(num_supers):
        sid, pos = read_varint(payload, pos, path)
        count, pos = read_varint(payload, pos, path)
        mem: List[int] = []
        previous = 0
        for _ in range(count):
            gap, pos = read_varint(payload, pos, path)
            previous += gap
            mem.append(previous)
        members[sid] = mem
    superedges, pos = read_pairs(payload, pos, path)
    additions, pos = read_pairs(payload, pos, path)
    deletions, pos = read_pairs(payload, pos, path)
    if pos != len(payload):
        raise CorruptSummaryError(path, f"{len(payload) - pos} trailing bytes")
    return Summarization.from_members(
        num_nodes=num_nodes,
        members=members,
        superedges=superedges,
        corrections=CorrectionSet(additions, deletions),
        num_edges=num_edges,
        algorithm="loaded-binary",
    )
