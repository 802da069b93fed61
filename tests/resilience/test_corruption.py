"""Corruption-safe I/O: checksummed binary format + serve-layer rejection.

A damaged summary file must raise a typed :class:`CorruptSummaryError`
(never silently decode to garbage), and a server asked to hot-swap to a
damaged file must reject it while the old index keeps serving.
"""

import struct
import zlib

import pytest

from repro.binaryio import (
    FOOTER_BYTES,
    FOOTER_MAGIC,
    MAGIC,
    VERSION,
    read_summary_binary,
    write_summary_binary,
)
from repro.core.ldme import LDME
from repro.errors import CorruptSummaryError
from repro.graph.generators import web_host_graph
from repro.resilience import flip_bit, partial_write, truncate_file


@pytest.fixture(scope="module")
def graph():
    return web_host_graph(num_hosts=4, host_size=8, seed=1)


@pytest.fixture(scope="module")
def summary(graph):
    return LDME(k=4, iterations=5, seed=0).summarize(graph)


@pytest.fixture
def binary_path(tmp_path, summary):
    path = tmp_path / "s.ldmeb"
    write_summary_binary(summary, path)
    return path


class TestFormatV2:
    def test_roundtrip(self, binary_path, summary):
        loaded = read_summary_binary(binary_path)
        # The binary format canonicalizes member order within supernodes.
        assert {
            sid: sorted(mem)
            for sid, mem in loaded.partition.members_map().items()
        } == {
            sid: sorted(mem)
            for sid, mem in summary.partition.members_map().items()
        }
        assert loaded.superedges == summary.superedges

    def test_footer_layout(self, binary_path):
        data = binary_path.read_bytes()
        assert data.startswith(MAGIC + bytes([VERSION]))
        assert data.endswith(FOOTER_MAGIC)
        crc = struct.unpack("<I", data[-FOOTER_BYTES:-4])[0]
        assert crc == zlib.crc32(data[:-FOOTER_BYTES])

    def test_bitflip_detected(self, binary_path):
        flip_bit(binary_path)
        with pytest.raises(CorruptSummaryError, match="checksum"):
            read_summary_binary(binary_path)

    def test_every_byte_protected(self, tmp_path, summary):
        # Flip each byte position in a small file: all must be caught.
        reference = tmp_path / "ref.ldmeb"
        write_summary_binary(summary, reference)
        size = reference.stat().st_size
        step = max(1, size // 23)
        for offset in range(0, size, step):
            victim = tmp_path / "victim.ldmeb"
            victim.write_bytes(reference.read_bytes())
            flip_bit(victim, byte_offset=offset)
            with pytest.raises((CorruptSummaryError, ValueError)):
                read_summary_binary(victim)

    def test_truncation_detected(self, binary_path):
        truncate_file(binary_path, keep_fraction=0.6)
        with pytest.raises(CorruptSummaryError):
            read_summary_binary(binary_path)

    def test_torn_write_detected(self, binary_path):
        data = binary_path.read_bytes()
        partial_write(binary_path, data, write_fraction=0.5)
        with pytest.raises(CorruptSummaryError):
            read_summary_binary(binary_path)

    def test_error_carries_path(self, binary_path):
        flip_bit(binary_path)
        with pytest.raises(CorruptSummaryError) as excinfo:
            read_summary_binary(binary_path)
        assert str(binary_path) in str(excinfo.value)
        assert excinfo.value.path == str(binary_path)

    def test_corrupt_error_is_valueerror(self):
        # Existing `except ValueError` sites keep working.
        assert issubclass(CorruptSummaryError, ValueError)


class TestFormatV1Compat:
    def test_v1_files_still_readable(self, binary_path, summary):
        # Strip the v2 footer and rewrite the version byte → a v1 file.
        data = bytearray(binary_path.read_bytes()[:-FOOTER_BYTES])
        data[len(MAGIC)] = 1
        v1_path = binary_path.with_suffix(".v1.ldmeb")
        v1_path.write_bytes(bytes(data))
        loaded = read_summary_binary(v1_path)
        assert loaded.superedges == summary.superedges
        assert loaded.corrections.additions == summary.corrections.additions


class TestServeRejection:
    def test_corrupt_reload_rejected_old_index_lives(
        self, tmp_path, graph, summary
    ):
        """Hot-swap to a corrupt file: typed error, no swap, old index
        keeps answering queries, rejection counted in metrics."""
        from repro.queries import SummaryIndex
        from repro.serve import (
            ErrorCode,
            ServerConfig,
            ServerError,
            ServerThread,
            SummaryClient,
        )

        bad_path = tmp_path / "bad.ldmeb"
        write_summary_binary(summary, bad_path)
        flip_bit(bad_path)

        truth = SummaryIndex(summary)
        config = ServerConfig(allow_reload=True)
        with ServerThread(summary, config) as handle:
            client = SummaryClient("127.0.0.1", handle.port)
            try:
                before = client.neighbors(0)
                with pytest.raises(ServerError) as excinfo:
                    client.reload(str(bad_path))
                assert excinfo.value.code == ErrorCode.BAD_REQUEST
                # Old index still live and correct.
                assert client.neighbors(0) == before == truth.neighbors(0)
                stats = client.stats()
                assert stats["generation"] == 0          # no swap happened
                assert stats["metrics"]["counters"].get(
                    "reload_rejected_total"
                ) == 1
            finally:
                client.close()

    def test_good_reload_after_rejection(self, tmp_path, graph, summary):
        from repro.serve import (
            ServerConfig,
            ServerError,
            ServerThread,
            SummaryClient,
        )

        bad_path = tmp_path / "bad.ldmeb"
        write_summary_binary(summary, bad_path)
        truncate_file(bad_path)
        good_path = tmp_path / "good.ldmeb"
        write_summary_binary(summary, good_path)

        config = ServerConfig(allow_reload=True)
        with ServerThread(summary, config) as handle:
            client = SummaryClient("127.0.0.1", handle.port)
            try:
                with pytest.raises(ServerError):
                    client.reload(str(bad_path))
                result = client.reload(str(good_path))
                assert result["generation"] == 1
            finally:
                client.close()
