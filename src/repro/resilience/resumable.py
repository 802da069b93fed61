"""Checkpoint/resume for iterative summarization runs.

:func:`run_resumable` wraps any :class:`~repro.core.base.BaseSummarizer`
(LDME, SWeG, ...) with iteration-boundary checkpointing: after every
``checkpoint_every`` iterations the full loop state — partition (member
order preserved exactly), RNG bit-generator state, early-stop counter,
and accumulated stats — is persisted through a
:class:`~repro.resilience.checkpoint.CheckpointManager`. A process killed
at any point restarts from the last good checkpoint and produces a
summary **bit-identical** to the uninterrupted run: same supernodes, same
superedges, same correction sets.

A fingerprint of the algorithm configuration and the input graph is
stored with every checkpoint; resuming against a different configuration
or graph raises :class:`~repro.errors.CheckpointError` instead of
silently computing a wrong summary.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Any, Dict, Optional, Union

import numpy as np

from ..core.base import BaseSummarizer, IterationHook, ResumeState
from ..core.partition import SupernodePartition
from ..core.summary import IterationStats, RunStats, Summarization
from ..errors import CheckpointError
from ..graph.graph import Graph
from ..obs import trace as obs_trace
from .checkpoint import CheckpointManager

__all__ = [
    "run_resumable",
    "run_fingerprint",
    "state_to_payload",
    "payload_to_state",
]

PAYLOAD_KIND = "ldme-run"

#: Optional per-algorithm attributes folded into the fingerprint when
#: present (k for LDME, ...).
_OPTIONAL_FINGERPRINT_ATTRS = ("k", "merge_policy", "divide_weights")


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------
def run_fingerprint(algo: BaseSummarizer, graph: Graph) -> Dict[str, Any]:
    """Identity of (algorithm configuration, input graph) for a run.

    Two runs with equal fingerprints are guaranteed to walk the same
    iteration trajectory, so a checkpoint from one can seed the other.
    The graph contributes its shape plus a CRC32 over the CSR arrays —
    cheap relative to one LDME iteration, and it catches the
    "same-sized but different graph" foot-gun.
    """
    fp: Dict[str, Any] = {
        "class": type(algo).__name__,
        "name": algo.name,
        "iterations": algo.iterations,
        "epsilon": algo.epsilon,
        "seed": algo.seed,
        "encoder": algo.encoder,
        "cost_model": algo.cost_model,
        "early_stop_rounds": algo.early_stop_rounds,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "graph_crc32": _graph_crc32(graph),
    }
    for attr in _OPTIONAL_FINGERPRINT_ATTRS:
        if hasattr(algo, attr):
            fp[attr] = getattr(algo, attr)
    return fp


def _graph_crc32(graph: Graph) -> int:
    crc = zlib.crc32(np.ascontiguousarray(graph.indptr).tobytes())
    return zlib.crc32(np.ascontiguousarray(graph.indices).tobytes(), crc)


# ----------------------------------------------------------------------
# ResumeState <-> JSON payload
# ----------------------------------------------------------------------
def state_to_payload(
    state: ResumeState, fingerprint: Dict[str, Any]
) -> Dict[str, Any]:
    """Serialize live loop state to a JSON-safe checkpoint payload.

    Member lists and the supernode dict's insertion order are preserved
    verbatim — bit-identical resume depends on it (group formation and
    merge tie-breaking follow iteration order, not sorted order).
    """
    partition = state.partition
    stats = state.stats or RunStats()
    return {
        "kind": PAYLOAD_KIND,
        "fingerprint": fingerprint,
        "stalled": state.stalled,
        "rng_state": state.rng_state,
        "partition": {
            "num_nodes": partition.num_nodes,
            "members": {
                str(sid): list(mem)
                for sid, mem in partition.members_map().items()
            },
        },
        "stats": dataclasses.asdict(stats),
    }


def payload_to_state(payload: Dict[str, Any],
                     iteration: int) -> ResumeState:
    """Rebuild a :class:`~repro.core.base.ResumeState` from a payload."""
    part_doc = payload["partition"]
    members = {
        int(sid): [int(v) for v in mem]
        for sid, mem in part_doc["members"].items()
    }
    partition = SupernodePartition.from_members(
        int(part_doc["num_nodes"]), members
    )
    # Stats are timings and counters that never steer the trajectory, so
    # keys RunStats no longer defines (checkpoints written by older
    # versions) are dropped rather than rejected.
    stats_doc = dict(payload.get("stats") or {})
    iteration_docs = stats_doc.pop("iterations", [])
    known = {f.name for f in dataclasses.fields(RunStats)}
    stats = RunStats(
        **{key: value for key, value in stats_doc.items() if key in known},
        iterations=[IterationStats(**doc) for doc in iteration_docs],
    )
    return ResumeState(
        iteration=iteration,
        partition=partition,
        rng_state=payload.get("rng_state"),
        stalled=int(payload.get("stalled", 0)),
        stats=stats,
    )


# ----------------------------------------------------------------------
# the resumable runner
# ----------------------------------------------------------------------
def run_resumable(
    algo: BaseSummarizer,
    graph: Graph,
    checkpoints: Union[CheckpointManager, str],
    *,
    checkpoint_every: int = 1,
    resume: bool = True,
    iteration_hook: Optional[IterationHook] = None,
) -> Summarization:
    """Run ``algo`` on ``graph`` with iteration-boundary checkpointing.

    Parameters
    ----------
    checkpoints:
        A :class:`CheckpointManager` or a directory path (a manager with
        default retention is created for a path).
    checkpoint_every:
        Persist state after every N completed iterations (the final
        iteration is always checkpointed).
    resume:
        If the directory holds a good checkpoint whose fingerprint
        matches, continue from it; a fingerprint mismatch raises
        :class:`~repro.errors.CheckpointError`. With ``resume=False``
        any existing checkpoints are ignored (and overwritten as the
        fresh run progresses).
    iteration_hook:
        Optional extra per-iteration callback, invoked *after* the
        checkpoint for that iteration (if any) has been persisted — so a
        hook that raises still leaves a resumable state behind. Used by
        the fault-injection tests to simulate crashes at exact
        boundaries.

    Returns the summarization — bit-identical to ``algo.summarize(graph)``
    run uninterrupted, regardless of how many crash/resume cycles
    happened on the way.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    manager = (
        checkpoints
        if isinstance(checkpoints, CheckpointManager)
        else CheckpointManager(checkpoints)
    )
    fingerprint = run_fingerprint(algo, graph)
    resume_state: Optional[ResumeState] = None
    if resume:
        loaded = manager.load_latest()
        if loaded is not None:
            payload = loaded.payload
            if payload.get("kind") != PAYLOAD_KIND:
                raise CheckpointError(
                    f"{loaded.path}: not an {PAYLOAD_KIND!r} checkpoint "
                    f"(found {payload.get('kind')!r})"
                )
            if payload.get("fingerprint") != fingerprint:
                raise CheckpointError(
                    f"{loaded.path}: checkpoint was written by a different "
                    "run configuration or graph; pass resume=False (or a "
                    "fresh --checkpoint-dir) to start over"
                )
            resume_state = payload_to_state(payload, loaded.iteration)

    def _hook(state: ResumeState) -> None:
        final = state.iteration >= algo.iterations
        if final or state.iteration % checkpoint_every == 0:
            # The hook runs inside the driver's live iteration span, so
            # checkpoint persistence shows up as a child span keyed by
            # the iteration — and, because the key is explicit, a
            # resumed run emits identical checkpoint spans for the
            # iterations it actually executes.
            with obs_trace.span(
                "checkpoint", key=state.iteration,
                num_supernodes=state.partition.num_supernodes,
            ):
                manager.save(
                    state.iteration, state_to_payload(state, fingerprint)
                )
        if iteration_hook is not None:
            iteration_hook(state)

    return algo.summarize(
        graph, resume_state=resume_state, iteration_hook=_hook
    )
