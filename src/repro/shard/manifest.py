"""Shard manifest: the on-disk contract between stitcher and cluster.

A stitched run persists one directory::

    manifest.json        ring + universe + per-shard artifact table
    global.ldmeb         the stitched global summary (truth / validation)
    shard-<id>.ldmeb     per-shard serving summary, one per shard
    local-<id>.ldmeb     per-shard *local-space* summary (v2, optional)

The optional ``local-<id>.ldmeb`` artifacts (manifest version 2) are the
raw per-shard summaries in shard-local id space — exactly what
:func:`~repro.shard.stitch.stitch_shards` consumes. Persisting them
makes a manifest *re-stitchable*: an elastic re-shard
(:mod:`repro.shard.migrate`) reuses the unaffected shards' local
summaries verbatim and re-summarizes only the remapped shards. Version 1
manifests (no locals) still load; they just can't seed a targeted
rebuild.

Every ``.ldmeb`` is the CRC-footer binary format of :mod:`repro.binaryio`
(corruption inside a file raises
:class:`~repro.errors.CorruptSummaryError` at read time). The manifest
additionally records each artifact's whole-file CRC32 and byte size, so
a *swapped or stale* file — internally consistent but not the one the
manifest described — is rejected before a replica ever serves from it.
All writes are atomic (temp + fsync + rename), manifest last, so a crash
mid-save leaves either no manifest or a manifest whose files all exist.

The manifest embeds :meth:`HashRing.to_dict`, making the directory fully
self-describing: ``serve-cluster --manifest DIR`` rebuilds the exact
node → shard routing the partitioner used, with no side channel.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..binaryio import read_summary_binary, write_summary_binary
from ..core.summary import Summarization
from ..errors import CorruptSummaryError
from ..ioutil import atomic_write, file_crc32
from .hashring import HashRing
from .partitioner import ShardedGraph
from .stitch import shard_serving_summary, summary_pairs

__all__ = [
    "MANIFEST_NAME",
    "ShardEntry",
    "ShardManifest",
    "save_sharded",
    "load_manifest",
    "load_serving_summaries",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 2
SUPPORTED_VERSIONS = frozenset({1, 2})

PathLike = Union[str, "os.PathLike[str]"]


@dataclass
class ShardEntry:
    """One shard's serving artifact as the manifest records it."""

    shard_id: int
    path: str                         # relative to the manifest directory
    crc32: int
    size_bytes: int
    num_supernodes: int

    def to_dict(self) -> Dict[str, int]:
        """JSON-ready form of this entry (what ``manifest.json`` stores)."""
        return {
            "shard_id": self.shard_id,
            "path": self.path,
            "crc32": self.crc32,
            "size_bytes": self.size_bytes,
            "num_supernodes": self.num_supernodes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardEntry":
        return cls(
            shard_id=int(data["shard_id"]),        # type: ignore[arg-type]
            path=str(data["path"]),
            crc32=int(data["crc32"]),              # type: ignore[arg-type]
            size_bytes=int(data["size_bytes"]),    # type: ignore[arg-type]
            num_supernodes=int(data["num_supernodes"]),  # type: ignore[arg-type]
        )


@dataclass
class ShardManifest:
    """Parsed ``manifest.json`` plus the directory it lives in."""

    directory: str
    ring: HashRing
    num_nodes: int
    num_edges: int
    algorithm: str
    global_path: str                  # relative, the stitched summary
    global_crc32: int
    entries: List[ShardEntry] = field(default_factory=list)
    local_entries: List[ShardEntry] = field(default_factory=list)

    @property
    def num_shards(self) -> int:
        return len(self.entries)

    @property
    def shard_ids(self) -> List[int]:
        return sorted(e.shard_id for e in self.entries)

    def entry(self, shard_id: int) -> ShardEntry:
        """The entry for one shard id (``KeyError`` if absent)."""
        for entry in self.entries:
            if entry.shard_id == shard_id:
                return entry
        raise KeyError(f"no shard {shard_id} in manifest")

    def shard_file(self, shard_id: int) -> str:
        """Absolute path of one shard's serving artifact."""
        return os.path.join(self.directory, self.entry(shard_id).path)

    @property
    def has_locals(self) -> bool:
        """Whether this manifest carries local-space summaries (v2)."""
        return bool(self.local_entries)

    def local_entry(self, shard_id: int) -> ShardEntry:
        """The local-space entry for one shard (``KeyError`` if absent)."""
        for entry in self.local_entries:
            if entry.shard_id == shard_id:
                return entry
        raise KeyError(f"no local summary for shard {shard_id} in manifest")

    def local_file(self, shard_id: int) -> str:
        """Absolute path of one shard's local-space summary."""
        return os.path.join(self.directory, self.local_entry(shard_id).path)

    def load_local(self, shard_id: int) -> Summarization:
        """Read one shard's local-space summary (CRC-checked)."""
        return read_summary_binary(self.local_file(shard_id))

    def global_file(self) -> str:
        """Absolute path of the stitched global summary."""
        return os.path.join(self.directory, self.global_path)

    # ------------------------------------------------------------------
    def verify_files(self) -> None:
        """Check every artifact's size and whole-file CRC32.

        Raises :class:`~repro.errors.CorruptSummaryError` on the first
        mismatch — a missing, truncated, or substituted file.
        """
        checks = [(self.global_path, self.global_crc32)] + [
            (e.path, e.crc32) for e in self.entries + self.local_entries
        ]
        for rel, expected in checks:
            path = os.path.join(self.directory, rel)
            if not os.path.exists(path):
                raise CorruptSummaryError(path, "listed in manifest, missing")
            actual = file_crc32(path)
            if actual != expected:
                raise CorruptSummaryError(
                    path,
                    f"manifest CRC mismatch (manifest {expected:#010x}, "
                    f"file {actual:#010x})",
                )

    def load_global(self) -> Summarization:
        """Read the stitched global summary (CRC-checked)."""
        return read_summary_binary(self.global_file())

    def load_shard(self, shard_id: int) -> Summarization:
        """Read one shard's serving summary (CRC-checked)."""
        return read_summary_binary(self.shard_file(shard_id))

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form of the manifest (``manifest.json``'s body)."""
        return {
            "version": MANIFEST_VERSION,
            "ring": self.ring.to_dict(),
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "algorithm": self.algorithm,
            "global": {"path": self.global_path, "crc32": self.global_crc32},
            "shards": [e.to_dict() for e in sorted(
                self.entries, key=lambda e: e.shard_id)],
            "locals": [e.to_dict() for e in sorted(
                self.local_entries, key=lambda e: e.shard_id)],
        }


def save_sharded(
    stitched: Summarization,
    sharded: ShardedGraph,
    directory: PathLike,
    *,
    serving: Optional[Dict[int, Summarization]] = None,
    local_summaries: Optional[Dict[int, Summarization]] = None,
) -> ShardManifest:
    """Persist a stitched run as a manifest directory.

    Derives each shard's serving summary (unless precomputed ones are
    passed via ``serving``), writes all ``.ldmeb`` artifacts, then the
    manifest last. When ``local_summaries`` (shard id → local-space
    summary) is given, each one is persisted as ``local-<id>.ldmeb`` so
    the directory can seed a targeted re-shard later. Returns the
    in-memory :class:`ShardManifest`.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)

    global_rel = "global.ldmeb"
    global_abs = os.path.join(directory, global_rel)
    write_summary_binary(stitched, global_abs)

    entries: List[ShardEntry] = []
    pairs = None
    for shard in sharded.shards:
        sid = shard.shard_id
        summary = (serving or {}).get(sid)
        if summary is None:
            if pairs is None:
                pairs = summary_pairs(stitched)
            summary = shard_serving_summary(stitched, sharded, sid, pairs)
        rel = f"shard-{sid}.ldmeb"
        path = os.path.join(directory, rel)
        size = write_summary_binary(summary, path)
        entries.append(ShardEntry(
            shard_id=sid,
            path=rel,
            crc32=file_crc32(path),
            size_bytes=size,
            num_supernodes=summary.num_supernodes,
        ))

    local_entries: List[ShardEntry] = []
    if local_summaries:
        missing = (
            {s.shard_id for s in sharded.shards} - set(local_summaries)
        )
        if missing:
            raise ValueError(
                f"local_summaries missing shards {sorted(missing)}"
            )
        for shard in sharded.shards:
            sid = shard.shard_id
            rel = f"local-{sid}.ldmeb"
            path = os.path.join(directory, rel)
            size = write_summary_binary(local_summaries[sid], path)
            local_entries.append(ShardEntry(
                shard_id=sid,
                path=rel,
                crc32=file_crc32(path),
                size_bytes=size,
                num_supernodes=local_summaries[sid].num_supernodes,
            ))

    manifest = ShardManifest(
        directory=directory,
        ring=sharded.ring,
        num_nodes=sharded.num_nodes,
        num_edges=sharded.num_edges,
        algorithm=stitched.algorithm,
        global_path=global_rel,
        global_crc32=file_crc32(global_abs),
        entries=entries,
        local_entries=local_entries,
    )
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    with atomic_write(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_manifest(directory: PathLike, *, verify: bool = True) -> ShardManifest:
    """Parse ``manifest.json`` from a directory (or a direct file path).

    With ``verify=True`` (default) every listed artifact's size/CRC is
    checked up front, so a cluster never boots on a silently damaged
    shard set.
    """
    directory = os.fspath(directory)
    path = (
        directory if directory.endswith(".json")
        else os.path.join(directory, MANIFEST_NAME)
    )
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    version = int(data.get("version", 0))
    if version not in SUPPORTED_VERSIONS:
        raise CorruptSummaryError(path, f"unsupported manifest version {version}")
    manifest = ShardManifest(
        directory=os.path.dirname(path) or ".",
        ring=HashRing.from_dict(data["ring"]),
        num_nodes=int(data["num_nodes"]),
        num_edges=int(data["num_edges"]),
        algorithm=str(data.get("algorithm", "")),
        global_path=str(data["global"]["path"]),
        global_crc32=int(data["global"]["crc32"]),
        entries=[ShardEntry.from_dict(doc) for doc in data["shards"]],
        local_entries=[
            ShardEntry.from_dict(doc) for doc in data.get("locals", [])
        ],
    )
    ring_shards = set(manifest.ring.shards)
    entry_shards = set(manifest.shard_ids)
    if ring_shards != entry_shards:
        raise CorruptSummaryError(
            path,
            f"ring shards {sorted(ring_shards)} != "
            f"manifest shards {sorted(entry_shards)}",
        )
    if manifest.local_entries:
        local_shards = {e.shard_id for e in manifest.local_entries}
        if local_shards != entry_shards:
            raise CorruptSummaryError(
                path,
                f"local summary shards {sorted(local_shards)} != "
                f"manifest shards {sorted(entry_shards)}",
            )
    if verify:
        manifest.verify_files()
    return manifest


def load_serving_summaries(
    manifest: ShardManifest,
) -> Dict[int, Summarization]:
    """All per-shard serving summaries, keyed by shard id."""
    return {sid: manifest.load_shard(sid) for sid in manifest.shard_ids}
