"""Manifest round-trip and corruption rejection."""

import hashlib
import json
import os

import pytest

from repro.core.ldme import LDME
from repro.errors import CorruptSummaryError
from repro.graph.generators import rmat, web_host_graph
from repro.resilience import flip_bit
from repro.resilience.faults import _corruption_target, truncate_file
from repro.shard import (
    HashRing,
    load_manifest,
    load_serving_summaries,
    partition_graph,
    save_sharded,
    stitch_shards,
    summarize_sharded,
)


@pytest.fixture(scope="module")
def stitched_run():
    graph = web_host_graph(num_hosts=5, host_size=8, seed=4)
    sharded = partition_graph(graph, HashRing(3, seed=2))
    summaries = {
        s.shard_id: LDME(k=4, iterations=5, seed=s.shard_id).summarize(
            s.local_graph
        )
        for s in sharded.shards
    }
    report = stitch_shards(sharded, summaries, graph=graph)
    assert report.ok
    return sharded, report.summary


@pytest.fixture
def manifest_dir(stitched_run, tmp_path):
    sharded, stitched = stitched_run
    directory = tmp_path / "manifest"
    save_sharded(stitched, sharded, directory)
    return str(directory)


class TestRoundTrip:
    def test_layout(self, manifest_dir):
        names = sorted(os.listdir(manifest_dir))
        assert names == [
            "global.ldmeb", "manifest.json",
            "shard-0.ldmeb", "shard-1.ldmeb", "shard-2.ldmeb",
        ]

    def test_load_restores_ring_and_universe(self, stitched_run,
                                             manifest_dir):
        sharded, stitched = stitched_run
        manifest = load_manifest(manifest_dir)
        assert manifest.ring == sharded.ring
        assert manifest.num_nodes == sharded.num_nodes
        assert manifest.num_edges == sharded.num_edges
        assert manifest.shard_ids == [0, 1, 2]
        assert manifest.algorithm == stitched.algorithm

    def test_global_summary_round_trips(self, stitched_run,
                                        manifest_dir):
        _, stitched = stitched_run
        loaded = load_manifest(manifest_dir).load_global()
        assert loaded.num_nodes == stitched.num_nodes
        assert sorted(loaded.superedges) == sorted(stitched.superedges)

    def test_serving_summaries_load_per_shard(self, manifest_dir):
        manifest = load_manifest(manifest_dir)
        summaries = load_serving_summaries(manifest)
        assert sorted(summaries) == [0, 1, 2]
        for sid, summary in summaries.items():
            assert summary.num_supernodes == \
                manifest.entry(sid).num_supernodes

    def test_accepts_manifest_json_path(self, manifest_dir):
        direct = load_manifest(
            os.path.join(manifest_dir, "manifest.json")
        )
        assert direct.shard_ids == [0, 1, 2]
        assert direct.directory == manifest_dir


class TestCorruptionRejected:
    def test_flipped_shard_artifact_fails_verification(self,
                                                       manifest_dir):
        flip_bit(os.path.join(manifest_dir, "shard-1.ldmeb"))
        with pytest.raises(CorruptSummaryError, match="CRC"):
            load_manifest(manifest_dir)

    def test_flipped_global_fails_verification(self, manifest_dir):
        flip_bit(os.path.join(manifest_dir, "global.ldmeb"))
        with pytest.raises(CorruptSummaryError):
            load_manifest(manifest_dir)

    def test_truncated_artifact_fails_verification(self, manifest_dir):
        truncate_file(os.path.join(manifest_dir, "shard-0.ldmeb"))
        with pytest.raises(CorruptSummaryError):
            load_manifest(manifest_dir)

    def test_missing_artifact_fails_verification(self, manifest_dir):
        os.remove(os.path.join(manifest_dir, "shard-2.ldmeb"))
        with pytest.raises(CorruptSummaryError, match="missing"):
            load_manifest(manifest_dir)

    def test_verify_false_defers_to_read_time(self, manifest_dir):
        flip_bit(os.path.join(manifest_dir, "shard-1.ldmeb"))
        manifest = load_manifest(manifest_dir, verify=False)
        # The binary reader's own CRC footer still catches it on read.
        with pytest.raises(CorruptSummaryError):
            manifest.load_shard(1)

    def test_unsupported_version_rejected(self, manifest_dir):
        path = os.path.join(manifest_dir, "manifest.json")
        with open(path) as fh:
            data = json.load(fh)
        data["version"] = 99
        with open(path, "w") as fh:
            json.dump(data, fh)
        with pytest.raises(CorruptSummaryError, match="version"):
            load_manifest(manifest_dir)

    def test_ring_entry_mismatch_rejected(self, manifest_dir):
        path = os.path.join(manifest_dir, "manifest.json")
        with open(path) as fh:
            data = json.load(fh)
        data["ring"]["shards"] = [0, 1, 2, 3]
        with open(path, "w") as fh:
            json.dump(data, fh)
        with pytest.raises(CorruptSummaryError, match="ring shards"):
            load_manifest(manifest_dir, verify=False)


class TestCorruptionTarget:
    def test_plain_file_is_its_own_target(self, tmp_path):
        path = tmp_path / "x.ldmeb"
        path.write_bytes(b"abc")
        assert _corruption_target(str(path)) == str(path)

    def test_manifest_dir_targets_last_shard_artifact(self,
                                                      manifest_dir):
        assert _corruption_target(manifest_dir) == os.path.join(
            manifest_dir, "shard-2.ldmeb"
        )

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            _corruption_target(str(tmp_path))


#: SHA-256 of every file ``save_sharded`` writes for
#: ``summarize_sharded(rmat(scale=9, seed=1), shards=4, seed=1)``. The
#: on-disk bytes of the global, serving and local summaries (and the
#: manifest that records their CRCs) must not move when the writer, the
#: stitch or the serving cut is reimplemented.
SHARDED_FILE_SHA256 = {
    "global.ldmeb":
        "2317c19d3a61681db14bab16bd757ab0285f5baa248b2238aa3eda60cea2917a",
    "local-0.ldmeb":
        "76c3b3e00e1ca824cc5d152af0c4de7cfb18462e73c110dbfcfacf442a3d39a6",
    "local-1.ldmeb":
        "59774c19a5b49c983e720f3b67b753802515188e02ed0bcd8da817b76f113884",
    "local-2.ldmeb":
        "2b5146e69661da13b98d18cf7582dde296a8da9b7ee8f56b9ed8d1db29eb31ff",
    "local-3.ldmeb":
        "528911a442b5d8f1f3dc7ab71e8eb6236060800f60199f079edd484320e03936",
    "manifest.json":
        "307d2b4f5ce55486d3c0a68b32b3bafb87bca6de5e7a5d0682b3f8c91ea9142a",
    "shard-0.ldmeb":
        "e2034cae013b69bd03fee72a0524144b59a83b0746015b140dc13c67415dd943",
    "shard-1.ldmeb":
        "3b3f3dd5c382c3854192749216fd3ea61bf71bb55b8d05e8299c74a0a07187ad",
    "shard-2.ldmeb":
        "77ba860c97f0ca774ae46e5beabbe9f05ea08d98c5461735c71eed46406590db",
    "shard-3.ldmeb":
        "a4a2c41a1c1c9300e056b378e41bf362ada1bc3520e6f005f079628692ce6774",
}


class TestBytePins:
    def test_sharded_files_are_pinned(self, tmp_path):
        out = tmp_path / "job"
        summarize_sharded(rmat(scale=9, seed=1), shards=4, seed=1,
                          out_dir=str(out))
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out))
        }
        assert digests == SHARDED_FILE_SHA256
