"""Tests for the compact binary summary format."""

import contextlib
import io
import struct
import zlib

import pytest

from repro.binaryio import (
    FOOTER_MAGIC,
    MAGIC,
    VarintReader,
    encode_varints,
    read_summary_binary,
    write_summary_binary,
)
from repro.core.ldme import LDME
from repro.core.reconstruct import reconstruct
from repro.errors import CorruptSummaryError
from repro.graph.io import write_summary


@pytest.fixture
def summary(small_web):
    return LDME(k=5, iterations=8, seed=0).summarize(small_web)


class TestRoundtrip:
    def test_reconstruction_preserved(self, tmp_path, small_web, summary):
        path = tmp_path / "s.ldmeb"
        write_summary_binary(summary, path)
        loaded = read_summary_binary(path)
        assert reconstruct(loaded) == small_web

    def test_counts_preserved(self, tmp_path, summary):
        path = tmp_path / "s.ldmeb"
        write_summary_binary(summary, path)
        loaded = read_summary_binary(path)
        assert loaded.num_nodes == summary.num_nodes
        assert loaded.num_edges == summary.num_edges
        assert loaded.num_supernodes == summary.num_supernodes
        assert loaded.objective == summary.objective
        assert sorted(loaded.superedges) == sorted(summary.superedges)

    def test_returns_file_size(self, tmp_path, summary):
        path = tmp_path / "s.ldmeb"
        size = write_summary_binary(summary, path)
        assert size == path.stat().st_size
        assert size > 4


class TestFileObjects:
    def test_bytesio_roundtrip(self, small_web, summary):
        import io

        buf = io.BytesIO()
        size = write_summary_binary(summary, buf)
        assert size == buf.tell() > 4
        buf.seek(0)
        loaded = read_summary_binary(buf)
        assert reconstruct(loaded) == small_web

    def test_file_object_matches_path_bytes(self, tmp_path, summary):
        import io

        path = tmp_path / "s.ldmeb"
        write_summary_binary(summary, path)
        buf = io.BytesIO()
        write_summary_binary(summary, buf)
        assert buf.getvalue() == path.read_bytes()

    def test_write_from_current_position(self, summary):
        import io

        buf = io.BytesIO()
        buf.write(b"HDR!")
        size = write_summary_binary(summary, buf)
        assert size == buf.tell() - 4
        buf.seek(4)
        assert read_summary_binary(buf).num_nodes == summary.num_nodes

    def test_open_file_handles(self, tmp_path, summary):
        path = tmp_path / "s.ldmeb"
        with open(path, "wb") as fh:
            write_summary_binary(summary, fh)
        with open(path, "rb") as fh:
            loaded = read_summary_binary(fh)
        assert loaded.num_edges == summary.num_edges

    def test_stream_errors_name_the_stream(self):
        import io

        with pytest.raises(ValueError, match="not an LDMB"):
            read_summary_binary(io.BytesIO(b"NOPE" + b"\x00" * 8))

    def test_empty_summary_roundtrip(self):
        """The degenerate summary (no nodes at all) survives the format."""
        import io

        from repro.core.summary import CorrectionSet, Summarization

        empty = Summarization.from_members(
            num_nodes=0, members={}, superedges=[],
            corrections=CorrectionSet([], []), num_edges=0,
        )
        buf = io.BytesIO()
        size = write_summary_binary(empty, buf)
        assert size == buf.tell()
        buf.seek(0)
        loaded = read_summary_binary(buf)
        assert loaded.num_nodes == 0
        assert loaded.num_edges == 0
        assert loaded.num_supernodes == 0
        assert list(loaded.superedges) == []
        assert loaded.corrections.size == 0

    def test_empty_summary_roundtrip_via_path(self, tmp_path):
        from repro.core.summary import CorrectionSet, Summarization

        empty = Summarization.from_members(
            num_nodes=0, members={}, superedges=[],
            corrections=CorrectionSet([], []), num_edges=0,
        )
        path = tmp_path / "empty.ldmeb"
        write_summary_binary(empty, path)
        assert read_summary_binary(path).num_nodes == 0


class TestCompactness:
    def test_smaller_than_text_format(self, tmp_path, summary):
        binary_path = tmp_path / "s.ldmeb"
        text_path = tmp_path / "s.summary"
        binary_size = write_summary_binary(summary, binary_path)
        write_summary(summary, text_path)
        assert binary_size < text_path.stat().st_size


class TestErrorHandling:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(ValueError, match="not an LDMB"):
            read_summary_binary(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v99.bin"
        path.write_bytes(b"LDMB" + bytes([99]))
        with pytest.raises(ValueError, match="version"):
            read_summary_binary(path)

    def test_trailing_bytes_detected(self, tmp_path, summary):
        path = tmp_path / "s.ldmeb"
        write_summary_binary(summary, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            read_summary_binary(path)

    def test_truncated_varint(self):
        with pytest.raises(ValueError, match="truncated"):
            VarintReader(b"\x80").take(1)


class TestVarintLayer:
    def test_roundtrip_values(self, tmp_path):
        for value in (0, 1, 127, 128, 300, 2**20, 2**40):
            data = encode_varints([value])
            reader = VarintReader(data)
            decoded, pos = int(reader.take(1)[0]), reader.offset
            assert decoded == value
            assert pos == len(data)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varints([-1])


class TestFuzzTruncation:
    def test_truncated_files_raise_cleanly(self, tmp_path, summary):
        """A summary file cut at any prefix must raise ValueError (or
        produce a detectable structural problem), never crash oddly."""
        import numpy as np

        path = tmp_path / "full.ldmeb"
        write_summary_binary(summary, path)
        data = path.read_bytes()
        rng = np.random.default_rng(0)
        cuts = sorted(set(rng.integers(0, len(data), size=25).tolist()))
        for cut in cuts:
            trunc = tmp_path / "trunc.ldmeb"
            trunc.write_bytes(data[:cut])
            try:
                loaded = read_summary_binary(trunc)
            except ValueError:
                continue  # clean rejection
            except IndexError:
                continue  # member list validation failure path
            # A short prefix can decode only if it is structurally valid;
            # it must then fail summary validation or differ from the
            # original.
            from repro.core.validate import check_summary

            assert cut == len(data) or loaded.objective != summary.objective \
                or check_summary(loaded)


#: SHA-256 of ``write_summary_binary`` output. The serial golden cases
#: are ``tests/kernels/test_golden.py``'s ``SERIAL_GOLDEN`` summaries.
SERIAL_GOLDEN_SHA256 = {
    ("CN", 5, 5, 7):
        "30442fc7214805f0c3839971c319623066e69db76efb3dab31a0dd21dfab90ef",
    ("IN", 20, 4, 3):
        "a8ae2979828d912cff1ccb9b9fa5b660862d74f8f3d93c0cd7f219d31240c121",
}
EMPTY_SHA256 = \
    "7b00097e37f77a2a0b1cfa216f016145acf5d1bfdb1d43e18496f55c9ba9c382"
HAND_BUILT_SHA256 = \
    "9a681afedbdabf31632acdd5e3e41f588df2b0ac3a0fa288894040583a368488"


def _sha256(summary):
    import hashlib
    import io

    buf = io.BytesIO()
    write_summary_binary(summary, buf)
    return hashlib.sha256(buf.getvalue()).hexdigest()


class TestBytePins:
    @pytest.mark.parametrize("case", sorted(SERIAL_GOLDEN_SHA256))
    def test_serial_golden_bytes(self, case):
        from repro.graph import datasets

        name, k, iterations, seed = case
        summary = LDME(k=k, iterations=iterations,
                       seed=seed).summarize(datasets.load(name))
        assert _sha256(summary) == SERIAL_GOLDEN_SHA256[case]

    def test_empty_summary_bytes(self):
        from repro.core.summary import CorrectionSet, Summarization

        empty = Summarization.from_members(
            num_nodes=0, members={}, superedges=[],
            corrections=CorrectionSet([], []), num_edges=0,
        )
        assert _sha256(empty) == EMPTY_SHA256

    def test_hand_built_summary_bytes(self):
        """A superloop, unsorted superedges and members, C- entries and
        a node id past 2**35 (a six-byte varint)."""
        from repro.core.summary import CorrectionSet, Summarization

        hand = Summarization.from_members(
            num_nodes=7,
            members={0: [2, 0, 1], 3: [4, 3], 5: [5], 6: [6]},
            superedges=[(0, 3), (0, 0)],
            corrections=CorrectionSet(
                additions=[(5, 2), (6, 2**35 + 3)],
                deletions=[(1, 2), (0, 4)],
            ),
            num_edges=2**36 + 1,
        )
        assert _sha256(hand) == HAND_BUILT_SHA256


@contextlib.contextmanager
def _address_space_cap(headroom=512 * 2**20):
    """Cap this process's address space a little above its current size,
    so an allocation sized by a corrupt header fails fast instead of
    paging the host; the old limit is restored on exit."""
    resource = pytest.importorskip("resource")
    try:
        with open("/proc/self/status") as fh:
            vm_kb = next(int(line.split()[1]) for line in fh
                         if line.startswith("VmSize:"))
    except (OSError, StopIteration):
        pytest.skip("address-space size not readable on this platform")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = vm_kb * 1024 + headroom
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _v2_file(stream):
    """A CRC-valid version-2 file around a hand-made varint stream."""
    payload = MAGIC + stream
    return payload + struct.pack("<I", zlib.crc32(payload)) + FOOTER_MAGIC


class TestImpossibleHeaders:
    """A header can declare sizes the file cannot back; the reader must
    reject it with the typed error before allocating anything that big."""

    def test_v1_huge_node_count(self):
        # version 1, 2**40 nodes, 0 edges, no supernodes, empty sections
        data = MAGIC + encode_varints([1, 2**40, 0, 0, 0, 0, 0])
        with _address_space_cap():
            with pytest.raises(CorruptSummaryError, match="not covered"):
                read_summary_binary(io.BytesIO(data))

    def test_crc_valid_v2_huge_node_count(self):
        # one supernode {7}: the member counts sum to 1, not 2**40
        data = _v2_file(encode_varints([2, 2**40, 0, 1, 7, 1, 7, 0, 0, 0]))
        with _address_space_cap():
            with pytest.raises(CorruptSummaryError, match="not covered"):
                read_summary_binary(io.BytesIO(data))

    def test_varint_longer_than_ten_bytes(self):
        overlong = b"\xff" * 10 + b"\x01"          # eleven bytes
        v1 = MAGIC + b"\x01" + overlong             # as num_nodes
        v2 = _v2_file(b"\x02" + overlong)
        with _address_space_cap():
            for data in (v1, v2):
                with pytest.raises(CorruptSummaryError, match="too long"):
                    read_summary_binary(io.BytesIO(data))

    def test_ten_byte_varint_past_int64(self):
        # bit 63 set: a tenth byte of 1 no longer fits a signed int64
        with pytest.raises(CorruptSummaryError, match="too long"):
            VarintReader(b"\x80" * 9 + b"\x01").take(1)
        assert VarintReader(b"\xff" * 8 + b"\x7f").take(1)[0] == 2**63 - 1
