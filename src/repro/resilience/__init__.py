"""Fault tolerance for long summarization runs (``repro.resilience``).

Three pillars, each usable on its own:

* :class:`CheckpointManager` / :func:`run_resumable` — atomic,
  checksummed iteration-boundary checkpoints; a killed run resumes
  bit-identical to an uninterrupted one.
* :class:`ClusterFaultPlan`, :class:`MigrationFaultPlan` and the file
  corruption helpers — deterministic replica faults, migration kills and
  on-disk damage for chaos testing.
* Corruption-safe I/O primitives re-exported from :mod:`repro.ioutil`
  and :mod:`repro.errors` (the binary formats themselves live in
  :mod:`repro.binaryio`).
"""

from ..errors import (
    CheckpointError,
    CorruptCheckpointError,
    CorruptSummaryError,
)
from ..ioutil import atomic_write, file_crc32
from .checkpoint import CheckpointInfo, CheckpointManager, LoadedCheckpoint
from .faults import (
    ClusterFaultPlan,
    MigrationFault,
    MigrationFaultPlan,
    ReplicaFault,
    flip_bit,
    partial_write,
    torn_tail,
    truncate_file,
)
from .resumable import (
    payload_to_state,
    run_fingerprint,
    run_resumable,
    state_to_payload,
)

__all__ = [
    # checkpointing
    "CheckpointManager",
    "CheckpointInfo",
    "LoadedCheckpoint",
    "run_resumable",
    "run_fingerprint",
    "state_to_payload",
    "payload_to_state",
    # fault injection
    "ReplicaFault",
    "ClusterFaultPlan",
    "MigrationFault",
    "MigrationFaultPlan",
    "flip_bit",
    "truncate_file",
    "partial_write",
    "torn_tail",
    # errors + safe I/O
    "CheckpointError",
    "CorruptCheckpointError",
    "CorruptSummaryError",
    "atomic_write",
    "file_crc32",
]
