"""Supernode partition: the mutable state every summarizer iterates on.

A :class:`SupernodePartition` maps each original node to its current
supernode and tracks member lists. Supernode ids are stable integers drawn
from the node id space (initially supernode ``v`` = {v}); a merge keeps the
id of the *larger* side and folds the smaller member list in, matching the
paper's ``W``-update rule which iterates the smaller hashtable.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

import numpy as np

from ..graph.graph import Graph
from .pairs import repeats

__all__ = ["SupernodePartition"]


class SupernodePartition:
    """Partition of ``0..n-1`` into supernodes.

    Parameters
    ----------
    num_nodes:
        Size of the node universe; the initial partition is all-singletons
        (line 1 of Algorithm 1).
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        self._node2super = np.arange(num_nodes, dtype=np.int64)
        self._members: Dict[int, List[int]] = {
            v: [v] for v in range(num_nodes)
        }

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_members(
        cls, num_nodes: int, members: Mapping[int, Iterable[int]]
    ) -> "SupernodePartition":
        """Build a partition from an explicit supernode → members mapping.

        The mapping must cover every node exactly once; supernode ids must
        be node ids of one of their members (any member works). The checks
        run over the concatenated members, and nothing of size
        ``num_nodes`` is allocated unless the members can cover it, so a
        corrupt header cannot ask for an impossible array.
        """
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        keys = list(members)
        lists = [list(map(int, mem)) for mem in members.values()]
        counts, flat = _flatten(lists)
        out_of_range = (flat < 0) | (flat >= num_nodes)
        repeated = np.zeros(flat.size, dtype=bool)
        repeated[~out_of_range] = repeats(flat[~out_of_range])
        empty, at = _first_fault(counts, out_of_range | repeated)
        if empty is not None:
            raise ValueError(f"supernode {keys[empty]} has no members")
        if at is not None:
            if out_of_range[at]:
                raise ValueError(f"member {flat[at]} out of range")
            raise ValueError(f"node {flat[at]} assigned to two supernodes")
        # In range and distinct; a node is uncovered if no list holds it
        # (the first gap in the sorted members) or its supernode id is
        # negative. node2super is allocated only once every node is
        # covered, so its size is backed by the members themselves.
        sids = np.array(keys, dtype=np.int64)
        unlabelled = np.repeat(sids < 0, counts)
        if flat.size != num_nodes or unlabelled.any():
            ranks = np.sort(flat)
            gaps = np.flatnonzero(ranks != np.arange(ranks.size))
            missing = min([int(gaps[0]) if gaps.size else int(ranks.size)]
                          + flat[unlabelled].tolist())
            raise ValueError(f"node {missing} not covered by any supernode")
        part = cls.__new__(cls)
        part._node2super = np.empty(num_nodes, dtype=np.int64)
        part._node2super[flat] = np.repeat(sids, counts)
        part._members = dict(zip(sids.tolist(), lists))
        return part

    @classmethod
    def from_labels(cls, labels) -> "SupernodePartition":
        """Build a partition from a node → cluster-label array.

        Labels are arbitrary hashables; each cluster's supernode id is its
        lowest member node id (so ids stay within the node space, matching
        the merge invariant). Interop helper for evaluation workflows.
        """
        label_list = list(labels)
        groups: Dict[object, List[int]] = {}
        for node, label in enumerate(label_list):
            groups.setdefault(label, []).append(node)
        members = {min(mem): mem for mem in groups.values()}
        return cls.from_members(len(label_list), members)

    def copy(self) -> "SupernodePartition":
        """Deep copy (used by experiments that fork a warm partition)."""
        dup = SupernodePartition.__new__(SupernodePartition)
        dup._node2super = self._node2super.copy()
        dup._members = {sid: list(mem) for sid, mem in self._members.items()}
        return dup

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Size of the underlying node universe."""
        return int(self._node2super.size)

    @property
    def num_supernodes(self) -> int:
        """Current number of supernodes ``|S|``."""
        return len(self._members)

    @property
    def node2super(self) -> np.ndarray:
        """The node → supernode id array (do not mutate)."""
        return self._node2super

    def supernode_of(self, v: int) -> int:
        """Supernode id currently containing node ``v``."""
        return int(self._node2super[v])

    def members(self, sid: int) -> List[int]:
        """Member node ids of supernode ``sid`` (a copy-safe list view)."""
        return self._members[sid]

    def size(self, sid: int) -> int:
        """``|A|`` — member count of supernode ``sid``."""
        return len(self._members[sid])

    def supernode_ids(self) -> Iterator[int]:
        """Iterate over current supernode ids."""
        return iter(self._members.keys())

    def __contains__(self, sid: int) -> bool:
        return sid in self._members

    def __len__(self) -> int:
        return self.num_supernodes

    def members_map(self) -> Dict[int, List[int]]:
        """Snapshot dict of supernode id → member list (copied)."""
        return {sid: list(mem) for sid, mem in self._members.items()}

    # ------------------------------------------------------------------
    # neighbourhood views
    # ------------------------------------------------------------------
    def neighborhood(self, graph: Graph, sid: int) -> np.ndarray:
        """``N_A``: sorted unique node ids adjacent to any member of ``sid``.

        This is exactly the support of the binarized supervector that the
        DOPH divide hashes.
        """
        rows = [graph.neighbors(v) for v in self._members[sid]]
        if not rows:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(rows))

    def supervector(self, graph: Graph, sid: int) -> Dict[int, int]:
        """``w(A, ·)``: node id → number of members of ``A`` adjacent to it.

        The weighted vector whose weighted-Jaccard similarity equals
        SuperJaccard (Section 3 of the paper).
        """
        weights: Dict[int, int] = {}
        for v in self._members[sid]:
            for u in graph.neighbors(v).tolist():
                weights[u] = weights.get(u, 0) + 1
        return weights

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def merge(self, a: int, b: int) -> Tuple[int, int]:
        """Merge supernodes ``a`` and ``b``.

        Returns ``(survivor, absorbed)``: the larger side's id survives
        (ties keep ``a``), and the absorbed side's members are relabelled.
        """
        if a == b:
            raise ValueError("cannot merge a supernode with itself")
        mem_a = self._members[a]
        mem_b = self._members[b]
        if len(mem_b) > len(mem_a):
            survivor, absorbed = b, a
            mem_s, mem_x = mem_b, mem_a
        else:
            survivor, absorbed = a, b
            mem_s, mem_x = mem_a, mem_b
        for v in mem_x:
            self._node2super[v] = survivor
        mem_s.extend(mem_x)
        del self._members[absorbed]
        return survivor, absorbed

    def extract(self, v: int) -> int:
        """Split node ``v`` out of its supernode into a fresh singleton.

        Returns the singleton's supernode id (always ``v`` itself; if the
        old supernode was labelled ``v``, the remainder is relabelled to one
        of its other members). Used by incremental summarizers (MoSSo).
        """
        sid = int(self._node2super[v])
        mem = self._members[sid]
        if len(mem) == 1:
            return sid
        mem.remove(v)
        if sid == v:
            # The departing node owned the label; hand it to a survivor.
            new_sid = mem[0]
            for u in mem:
                self._node2super[u] = new_sid
            self._members[new_sid] = mem
            del self._members[v]
        self._members[v] = [v]
        self._node2super[v] = v
        return v

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise if internal invariants are violated (used by tests).

        Reports the first failure a member-by-member walk in supernode
        order would meet: an empty supernode, a node seen twice, a node
        whose ``node2super`` entry disagrees, then an uncovered node.
        """
        sids = list(self._members)
        counts, flat = _flatten(list(self._members.values()))
        owner = np.repeat(np.array(sids, dtype=np.int64), counts)
        repeated = repeats(flat)
        empty, at = _first_fault(
            counts, repeated | (self._node2super[flat] != owner))
        if empty is not None:
            raise AssertionError(f"supernode {sids[empty]} is empty")
        if at is not None:
            v = flat[at]
            if repeated[at]:
                raise AssertionError(f"node {v} appears twice")
            raise AssertionError(
                f"node2super[{v}] = {self._node2super[v]} != {owner[at]}"
            )
        seen = np.zeros(self.num_nodes, dtype=bool)
        seen[flat] = True
        if not seen.all():
            missing = int(np.flatnonzero(~seen)[0])
            raise AssertionError(f"node {missing} not in any supernode")


def _flatten(lists: List[List[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-list lengths and the lists' concatenation, as int64 arrays."""
    counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    flat = np.fromiter(chain.from_iterable(lists), dtype=np.int64,
                       count=int(counts.sum()))
    return counts, flat


def _first_fault(counts: np.ndarray, bad: np.ndarray):
    """The first fault a walk over the lists meets, in list order.

    Returns ``(index of an empty list, None)``, ``(None, position of the
    first ``bad`` member)`` or ``(None, None)``.
    """
    failed = np.flatnonzero(bad)
    empty = np.flatnonzero(counts == 0)
    if empty.size and (not failed.size or empty[0] <= np.searchsorted(
            np.cumsum(counts), failed[0], side="right")):
        return int(empty[0]), None
    return None, (int(failed[0]) if failed.size else None)
