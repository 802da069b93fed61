"""Unit tests for the deterministic fault-injection primitives."""

import os
import time

import pytest

from repro.resilience import (
    flip_bit,
    partial_write,
    torn_tail,
    truncate_file,
)


class TestFileCorruption:
    def test_flip_bit_changes_one_byte(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(bytes(range(64)))
        offset = flip_bit(path, byte_offset=10, bit=3)
        assert offset == 10
        data = path.read_bytes()
        assert data[10] == 10 ^ 0b1000
        assert data[:10] == bytes(range(10))
        assert data[11:] == bytes(range(11, 64))

    def test_flip_bit_default_middle(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"\x00" * 100)
        assert flip_bit(path) == 50

    def test_flip_bit_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            flip_bit(path)

    def test_flip_bit_bounds(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"abc")
        with pytest.raises(ValueError):
            flip_bit(path, byte_offset=3)
        with pytest.raises(ValueError):
            flip_bit(path, bit=8)

    def test_truncate(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x" * 100)
        assert truncate_file(path, keep_fraction=0.25) == 25
        assert path.stat().st_size == 25

    def test_partial_write(self, tmp_path):
        path = tmp_path / "f.bin"
        written = partial_write(path, b"abcdefgh", write_fraction=0.5)
        assert written == 4
        assert path.read_bytes() == b"abcd"


class TestTornTail:
    """WAL-aware tearing: cut mid-record, exactly at a frame boundary."""

    def build_segment(self, tmp_path, records=8, seal=False):
        from repro.ingest.wal import WalWriter, segment_path

        with WalWriter(tmp_path, fsync=False) as writer:
            writer.append([("+", i, i + 1) for i in range(records)])
            writer.close(seal=seal)
        return segment_path(tmp_path, 1)

    def test_tears_at_frame_boundary(self, tmp_path):
        from repro.ingest.wal import read_segment

        path = self.build_segment(tmp_path)
        size = torn_tail(path, keep_records=5)
        assert os.path.getsize(path) == size
        info = read_segment(path)
        assert len(info.records) == 5
        assert info.torn_bytes > 0

    def test_keep_zero_leaves_header_plus_garbage(self, tmp_path):
        from repro.ingest.wal import read_segment

        path = self.build_segment(tmp_path)
        torn_tail(path, keep_records=0)
        info = read_segment(path)
        assert info.records == []
        assert info.torn_bytes > 0

    def test_keep_all_appends_partial_next_record(self, tmp_path):
        from repro.ingest.wal import read_segment

        path = self.build_segment(tmp_path, records=4)
        before = os.path.getsize(path)
        size = torn_tail(path, keep_records=4)
        assert size == before + 3       # default torn_bytes
        info = read_segment(path)
        assert len(info.records) == 4
        assert info.torn_bytes == 3

    def test_sealed_segment_loses_its_footer(self, tmp_path):
        from repro.ingest.wal import read_segment

        path = self.build_segment(tmp_path, seal=True)
        torn_tail(path, keep_records=2)
        info = read_segment(path)
        assert not info.sealed
        assert len(info.records) == 2

    def test_rejects_impossible_keeps(self, tmp_path):
        path = self.build_segment(tmp_path, records=3)
        with pytest.raises(ValueError, match="cannot keep"):
            torn_tail(path, keep_records=4)
        with pytest.raises(ValueError, match="non-negative"):
            torn_tail(path, keep_records=-1)
        with pytest.raises(ValueError, match="positive"):
            torn_tail(path, keep_records=1, torn_bytes=0)
