"""Deterministic fault injection for resilience testing.

Everything here is *scheduled*, not random: a fault fires at an exact
query-progress mark, migration-journal step or byte offset, so chaos
tests are reproducible run-to-run. Three fault families:

* **Replica faults** — :class:`ClusterFaultPlan` schedules kill /
  restart / corrupt-swap actions against a
  :class:`~repro.serve.cluster.SummaryCluster` at exact query-progress
  marks of the load generator (:mod:`repro.serve.loadgen`), so a
  cluster chaos run replays the identical fault sequence every time.
* **Migration faults** — :class:`MigrationFaultPlan` kills a re-shard
  coordinator, or corrupts a staged artifact, right after a named
  journal step.
* **File corruption** — :func:`flip_bit` / :func:`truncate_file` /
  :func:`partial_write` / :func:`torn_tail` damage artifacts on disk the
  way real storage does (bit rot, torn writes, interrupted copies), for
  exercising the checksummed readers.
"""

from __future__ import annotations

import os
import threading
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

__all__ = [
    "ReplicaFault",
    "ClusterFaultPlan",
    "MigrationFault",
    "MigrationFaultPlan",
    "flip_bit",
    "truncate_file",
    "partial_write",
    "torn_tail",
]

PathLike = Union[str, "os.PathLike[str]"]

_REPLICA_ACTIONS = ("kill", "restart", "swap", "corrupt_swap")


@dataclass(frozen=True)
class ReplicaFault:
    """One scheduled fault against a serving replica set.

    Parameters
    ----------
    at_progress:
        Fire when the load generator's completed-query counter reaches
        this value (progress marks, not wall-clock — reproducible).
    replica:
        Target replica index (ignored by swap actions, which roll the
        whole fleet).
    action:
        ``"kill"`` (abrupt replica death — connections reset, no drain),
        ``"restart"`` (bring a killed replica back on its port),
        ``"swap"`` (rolling hot-swap to the summary at ``path``), or
        ``"corrupt_swap"`` (flip a bit in ``path`` first, then attempt
        the rolling swap — the checksummed loader must reject it before
        any replica is touched).
    path:
        Summary file for the swap actions. A shard-manifest *directory*
        also works against a sharded cluster: ``corrupt_swap`` then
        flips a bit in one shard artifact (the last ``shard-*.ldmeb``,
        deterministically) and the manifest CRC check must reject the
        whole swap.
    """

    at_progress: int
    replica: int = 0
    action: str = "kill"
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.at_progress < 0:
            raise ValueError("at_progress must be non-negative")
        if self.action not in _REPLICA_ACTIONS:
            raise ValueError(
                f"action must be one of {_REPLICA_ACTIONS}, "
                f"got {self.action!r}"
            )
        if self.action in ("swap", "corrupt_swap") and not self.path:
            raise ValueError(f"{self.action} faults need a summary path")


class ClusterFaultPlan:
    """A deterministic schedule of :class:`ReplicaFault` entries.

    Bound to a :class:`~repro.serve.cluster.SummaryCluster` (duck-typed:
    anything with ``kill`` / ``restart`` / ``rolling_swap``) and fed to
    :func:`repro.serve.loadgen.run_load` as its ``on_progress`` callback::

        plan = ClusterFaultPlan(cluster, [
            ReplicaFault(at_progress=100, replica=1, action="kill"),
            ReplicaFault(at_progress=300, replica=2,
                         action="corrupt_swap", path=str(bad)),
            ReplicaFault(at_progress=500, replica=1, action="restart"),
        ])
        report = run_load(..., on_progress=plan.on_progress)

    Each fault fires exactly once, in ``at_progress`` order, from
    whichever worker thread crosses the mark; firing is serialized so
    two workers never race the same fault. ``triggered`` records the
    sequence; ``swap_reports`` collects the outcome of swap actions;
    ``errors`` collects exceptions raised by fault actions (a fault that
    cannot fire must not take the load run down with it).
    """

    def __init__(self, cluster: object,
                 faults: List[ReplicaFault]) -> None:
        self.cluster = cluster
        self.faults = sorted(faults, key=lambda f: f.at_progress)
        self.triggered: List[Tuple[int, str, int]] = []
        self.swap_reports: List[object] = []
        self.errors: List[Exception] = []
        self._next = 0
        self._lock = threading.Lock()

    @property
    def exhausted(self) -> bool:
        """Whether every scheduled fault has fired."""
        with self._lock:
            return self._next >= len(self.faults)

    def on_progress(self, done: int) -> None:
        """Fire every not-yet-fired fault whose mark has been reached."""
        while True:
            with self._lock:
                if self._next >= len(self.faults):
                    return
                fault = self.faults[self._next]
                if done < fault.at_progress:
                    return
                self._next += 1
                self.triggered.append(
                    (fault.at_progress, fault.action, fault.replica)
                )
            self._fire(fault)

    def _fire(self, fault: ReplicaFault) -> None:
        try:
            if fault.action == "kill":
                self.cluster.kill(fault.replica)
            elif fault.action == "restart":
                self.cluster.restart(fault.replica)
            else:
                if fault.action == "corrupt_swap":
                    flip_bit(_corruption_target(fault.path))
                report = self.cluster.rolling_swap(str(fault.path))
                self.swap_reports.append(report)
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            self.errors.append(exc)


_MIGRATION_ACTIONS = ("kill", "corrupt")


@dataclass(frozen=True)
class MigrationFault:
    """One scheduled fault against a re-shard migration coordinator.

    Parameters
    ----------
    step:
        The migration-journal step to fire at (``"plan"``, ``"build"``,
        ``"built"``, ``"prepare"`` or ``"commit"``). The hook runs right
        after the coordinator *persists* that step — inside its crash
        window, when the journal already names the step but its work has
        not completed.
    action:
        ``"kill"`` raises
        :class:`~repro.shard.migrate.CoordinatorKilledError`, the
        in-process stand-in for SIGKILLing the coordinator: the
        coordinator never catches it, so whatever the journal and the
        generation store say at that instant is exactly what a resuming
        coordinator finds. ``"corrupt"`` flips a bit in ``path`` (a
        staged generation's shard artifact, or a manifest directory —
        same target rule as ``corrupt_swap``) and lets the migration run
        on into the damage, which the CRC checks must catch.
    path:
        Corruption target for ``"corrupt"`` faults.
    """

    step: str
    action: str = "kill"
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action not in _MIGRATION_ACTIONS:
            raise ValueError(
                f"action must be one of {_MIGRATION_ACTIONS}, "
                f"got {self.action!r}"
            )
        if self.action == "corrupt" and not self.path:
            raise ValueError("corrupt faults need a target path")


class MigrationFaultPlan:
    """A deterministic schedule of :class:`MigrationFault` entries.

    Pass :meth:`on_step` as a
    :class:`~repro.shard.migrate.MigrationCoordinator`'s ``on_step``
    hook::

        plan = MigrationFaultPlan([MigrationFault(step="prepare")])
        coord = MigrationCoordinator(store, on_step=plan.on_step)

    Each fault fires exactly once (the first time its step is reached),
    so a killed-then-resumed coordinator passes the same step again
    without re-dying — which is what lets one plan drive a whole
    kill/resume round trip. ``triggered`` records the firing order.
    """

    def __init__(self, faults: List[MigrationFault]) -> None:
        self.faults = list(faults)
        self.triggered: List[Tuple[str, str]] = []
        self._fired = [False] * len(self.faults)
        self._lock = threading.Lock()

    @property
    def exhausted(self) -> bool:
        """Whether every scheduled fault has fired."""
        with self._lock:
            return all(self._fired)

    def on_step(self, step: str) -> None:
        """Fire every not-yet-fired fault scheduled for ``step``."""
        for i, fault in enumerate(self.faults):
            with self._lock:
                if self._fired[i] or fault.step != step:
                    continue
                self._fired[i] = True
                self.triggered.append((step, fault.action))
            if fault.action == "corrupt":
                flip_bit(_corruption_target(fault.path))
            else:
                # Imported lazily: resilience is a lower layer than shard.
                from ..shard.migrate import CoordinatorKilledError

                raise CoordinatorKilledError(
                    f"injected coordinator kill at step {step!r}"
                )


def _corruption_target(path: PathLike) -> str:
    """The file a ``corrupt_swap`` fault damages.

    A plain summary file is damaged directly. A shard-manifest directory
    gets exactly one shard artifact damaged — the last ``shard-*.ldmeb``
    in sorted order, so the choice is deterministic run-to-run.
    """
    path = os.fspath(path)
    if not os.path.isdir(path):
        return path
    shard_files = sorted(
        name for name in os.listdir(path)
        if name.startswith("shard-") and name.endswith(".ldmeb")
    )
    if not shard_files:
        raise FileNotFoundError(
            f"{path}: no shard-*.ldmeb artifacts to corrupt"
        )
    return os.path.join(path, shard_files[-1])


# ----------------------------------------------------------------------
# on-disk corruption
# ----------------------------------------------------------------------
def flip_bit(path: PathLike, byte_offset: Optional[int] = None,
             bit: int = 0) -> int:
    """Flip one bit of the file in place; returns the byte offset used.

    With ``byte_offset=None`` the middle byte is flipped — deterministic
    and safely inside the payload of any non-trivial artifact.
    """
    if not 0 <= bit <= 7:
        raise ValueError("bit must be in [0, 7]")
    path = os.fspath(path)
    size = os.path.getsize(path)
    if size == 0:
        raise ValueError(f"{path}: cannot flip a bit in an empty file")
    offset = size // 2 if byte_offset is None else byte_offset
    if not 0 <= offset < size:
        raise ValueError(f"byte_offset {offset} outside file of {size}B")
    with open(path, "r+b") as fh:
        fh.seek(offset)
        original = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([original ^ (1 << bit)]))
    return offset


def truncate_file(path: PathLike, keep_fraction: float = 0.5) -> int:
    """Truncate the file to a fraction of its size; returns bytes kept.

    Simulates an interrupted copy or a partially-flushed non-atomic
    write.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError("keep_fraction must be in [0, 1)")
    path = os.fspath(path)
    keep = int(os.path.getsize(path) * keep_fraction)
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return keep


def partial_write(path: PathLike, data: bytes,
                  write_fraction: float = 0.5) -> int:
    """Write only a prefix of ``data`` to ``path`` (a torn write).

    This is the failure mode :func:`repro.ioutil.atomic_write` exists to
    prevent; tests use it to show what *non*-atomic writers would have
    left behind. Returns the number of bytes written.
    """
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction must be in [0, 1]")
    count = int(len(data) * write_fraction)
    with open(os.fspath(path), "wb") as fh:
        fh.write(data[:count])
    return count


def torn_tail(path: PathLike, keep_records: int,
              torn_bytes: int = 3) -> int:
    """Tear a WAL segment mid-record; returns the resulting file size.

    Keeps the header plus the first ``keep_records`` intact records, then
    appends ``torn_bytes`` bytes of the *next* record's frame (or, when no
    record follows, a garbage partial frame) — exactly what a crash
    between ``write()`` and ``fsync()`` leaves behind. Any sealed footer
    is removed in the process, so the segment reads as active-and-torn.
    Complements :func:`flip_bit` / :func:`truncate_file`: those damage
    *acknowledged* bytes (recovery must refuse), while a torn tail is
    the one damage class recovery repairs silently (the bytes were never
    acknowledged).
    """
    if keep_records < 0:
        raise ValueError("keep_records must be non-negative")
    if torn_bytes < 1:
        raise ValueError("torn_bytes must be positive")
    # Imported lazily: resilience is a lower layer than ingest, and this
    # helper is the one place the dependency points upward.
    from ..ingest import wal as wal_mod

    path = os.fspath(path)
    info = wal_mod.read_segment(path)
    if keep_records > len(info.records):
        raise ValueError(
            f"{path}: segment has {len(info.records)} records, "
            f"cannot keep {keep_records}"
        )
    with open(path, "rb") as fh:
        data = fh.read()
    # Re-walk the frames to find the byte offset after `keep_records`.
    offset = len(data)
    end = len(data) - (wal_mod.FOOTER_BYTES if info.sealed else 0)
    pos = wal_mod.header_end(data, path)
    for count in range(len(info.records) + 1):
        if count == keep_records:
            offset = pos
            break
        length = wal_mod.frame_length(data, pos)
        pos += length
    if offset + torn_bytes <= end:
        # Keep a partial prefix of the next frame: a genuine mid-record
        # tear whose CRC cannot match.
        tail = data[offset:offset + torn_bytes]
    else:
        tail = b"\xff" * torn_bytes
    with open(path, "wb") as fh:
        fh.write(data[:offset])
        fh.write(tail)
        fh.flush()
        os.fsync(fh.fileno())
    return offset + torn_bytes


def checksum_bytes(data: bytes) -> int:
    """CRC32 helper mirroring what the checkpoint/binary formats store."""
    return zlib.crc32(data)
