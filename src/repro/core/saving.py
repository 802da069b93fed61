"""Exact Saving computation — Algorithm 4 and the ``W`` structure.

LDME's merge phase replaces SWeG's SuperJaccard approximation with the true
``Saving(A, B, S)``: the relative drop in objective cost from merging A and
B. The enabler is a hashtable-of-hashtables ``W`` built per merge group:
``W[A][C]`` is the number of original edges between supernodes A and C, so
every pairwise edge count is an O(1) lookup and ``Saving`` costs only
``O(|W_A| + |W_B|)`` — supernode-level work, independent of |V|.

``GroupAdjacency`` owns ``W`` for one group, computes Saving/Cost under a
pluggable cost model through one loop, and applies the paper's post-merge update rules
(fold the smaller side's table into the larger, fix reverse entries).
Internal edges ``E_AA`` are stored under the self key ``W[A][A]``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..graph.graph import Graph
from ..kernels import wtable
from .cost import get_cost_model
from .partition import SupernodePartition

__all__ = ["GroupAdjacency", "saving_of_pair", "supernode_cost"]


class _Sizes(dict):
    """``sid -> |A|``, read through from the partition on first use.

    Only in-group supernodes change size while a group is merged;
    :meth:`GroupAdjacency.apply_merge` drops their entries.
    """

    __slots__ = ("_size",)

    def __init__(self, partition) -> None:
        super().__init__()
        self._size = partition.size

    def __missing__(self, sid: int) -> int:
        size = self[sid] = self._size(sid)
        return size


_NO_ROW: Dict[int, int] = {}


class GroupAdjacency:
    """The ``W`` hashtable-of-hashtables for one merge group.

    Parameters
    ----------
    graph:
        The original graph (edge counts are always against ``E``).
    partition:
        Current supernode partition; sizes are read from it.
    group_ids:
        Supernode ids forming this merge group; only these get first-level
        entries, but second-level keys may reference any adjacent supernode.
    cost_model:
        ``"exact"`` or ``"paper"`` (see :mod:`repro.core.cost`).
    table:
        An iteration-wide :class:`~repro.kernels.wtable.WTable` holding
        this group's rows; without one, a one-group table is built
        (:func:`repro.kernels.wtable.build_w_table`).
    """

    def __init__(
        self,
        graph: Graph,
        partition: SupernodePartition,
        group_ids: Iterable[int],
        cost_model: str = "exact",
        table: Optional[wtable.WTable] = None,
    ) -> None:
        get_cost_model(cost_model)  # validates the name
        self._paper = cost_model == "paper"
        self._sizes = _Sizes(partition)
        self._cost_cache: Dict[int, float] = {}
        group_ids = list(group_ids)
        if table is None:
            table = wtable.build_w_table(graph, partition, [group_ids])
        self.w: Dict[int, Dict[int, int]] = table.group_w(partition, group_ids)

    # ------------------------------------------------------------------
    def edge_count(self, a: int, c: int) -> int:
        """|E_AC| (or |E_AA| internal count when ``a == c``)."""
        return self.w[a].get(c, 0)

    def _cost_of(self, a: int, b: Optional[int] = None) -> float:
        """``Cost(A, S)``, or ``Cost(A ∪ B, ...)`` when ``b`` is given.

        The one Saving loop. Both cost models are the same arithmetic with
        different coefficients (values as in :mod:`repro.core.cost`;
        every term is an integer or half-integer, so sums are exact):

        * pair ``(X, C)``: ``min(e, base + scale·|C| − back·e)`` —
          exact ``min(e, 1 + |X||C| − e)``, paper ``min(e, |X|(|C|−1)/2)``;
        * superloop: ``min(i, pairs − back·i)`` with ``pairs =
          |X|(|X|−1)/2``.
        """
        sizes = self._sizes
        w_a = self.w[a]
        if b is None:
            w_b = _NO_ROW
            n = sizes[a]
            internal = w_a.get(a, 0)
        else:
            w_b = self.w[b]
            n = sizes[a] + sizes[b]
            internal = w_a.get(a, 0) + w_b.get(b, 0) + w_a.get(b, 0)
        if self._paper:
            pairs = n * (n - 1) / 2.0
            scale = n / 2.0
            base, back = -scale, 0
        else:
            pairs = n * (n - 1) // 2
            base, scale, back = 1, n, 1
        total = 0.0
        if internal:
            total += min(internal, pairs - back * internal)
        for c, e in w_a.items():
            if c == a or c == b:
                continue
            if c in w_b:
                e += w_b[c]
            x = base + scale * sizes[c] - back * e
            total += x if x < e else e
        for c, e in w_b.items():
            if c == a or c == b or c in w_a:
                continue
            x = base + scale * sizes[c] - back * e
            total += x if x < e else e
        return total

    def cost(self, sid: int) -> float:
        """``Cost(A, S)``: A's contribution to the objective.

        Cached between merges — a merge only invalidates the entries of the
        supernodes whose pair terms it touched (see :meth:`apply_merge`).
        """
        cached = self._cost_cache.get(sid)
        if cached is None:
            cached = self._cost_cache[sid] = self._cost_of(sid)
        return cached

    def merged_cost(self, a: int, b: int) -> float:
        """``Cost(A ∪ B, ...)``: cost of the hypothetical merged supernode."""
        return self._cost_of(a, b)

    def saving(self, a: int, b: int) -> float:
        """``Saving(A, B, S)`` — Algorithm 4 under the chosen cost model.

        Defined as 0 when both supernodes are cost-free (isolated), since
        merging them can neither help nor hurt the objective.
        """
        separate = self.cost(a) + self.cost(b)
        if separate == 0:
            return 0.0
        return 1.0 - self._cost_of(a, b) / separate

    def best_candidate(
        self, a: int, candidates: Iterable[int]
    ) -> Tuple[Optional[int], float]:
        """The candidate with maximal Saving against ``a`` (ties: first)."""
        cost, merged = self.cost, self._cost_of
        cost_a = cost(a)
        best: Optional[int] = None
        best_saving = float("-inf")
        for b in candidates:
            if b == a:
                continue
            separate = cost_a + cost(b)
            s = 1.0 - merged(a, b) / separate if separate else 0.0
            if s > best_saving:
                best, best_saving = b, s
        if best is None:
            return None, 0.0
        return best, best_saving

    # ------------------------------------------------------------------
    def apply_merge(self, survivor: int, absorbed: int) -> None:
        """Update ``W`` after ``absorbed`` was merged into ``survivor``.

        Implements the paper's two update rules: fold the absorbed table
        into the survivor's, then rewrite reverse entries ``W_C[absorbed]``
        for every in-group neighbour C. Must be called *after*
        :meth:`SupernodePartition.merge` relabelled the members.
        """
        w_s = self.w[survivor]
        w_x = self.w.pop(absorbed)
        neighbours = set(w_x).union(w_s)
        neighbours.discard(survivor)
        neighbours.discard(absorbed)
        # Invalidate cached costs touched by this merge: the survivor, the
        # absorbed supernode, and everything adjacent to either (their pair
        # terms reference the merged sizes/counts).
        cache = self._cost_cache
        cache.pop(survivor, None)
        cache.pop(absorbed, None)
        for c in neighbours:
            cache.pop(c, None)
        self._sizes.pop(survivor, None)
        self._sizes.pop(absorbed, None)
        internal = (
            w_s.get(survivor, 0) + w_x.get(absorbed, 0) + w_s.pop(absorbed, 0)
        )
        w_x.pop(absorbed, None)
        w_x.pop(survivor, None)
        if internal:
            w_s[survivor] = internal
        for c, edges in w_x.items():
            w_s[c] = w_s.get(c, 0) + edges
        # Rule (2): fix reverse entries of in-group neighbours of either side.
        for c in neighbours:
            w_c = self.w.get(c)
            if w_c is None:
                continue  # neighbour outside this group: no first-level entry
            moved = w_c.pop(absorbed, None)
            if moved is not None:
                w_c[survivor] = w_c.get(survivor, 0) + moved

    def validate_symmetry(self) -> None:
        """Check in-group symmetry ``W_A[B] == W_B[A]`` (test hook)."""
        for a, row in self.w.items():
            for c, edges in row.items():
                if c == a or c not in self.w:
                    continue
                if self.w[c].get(a, 0) != edges:
                    raise AssertionError(
                        f"W[{a}][{c}] = {edges} but W[{c}][{a}] = "
                        f"{self.w[c].get(a, 0)}"
                    )


def supernode_cost(
    graph: Graph,
    partition: SupernodePartition,
    sid: int,
    cost_model: str = "exact",
) -> float:
    """Standalone ``Cost(A, S)`` without building a group structure.

    Used by baselines (RANDOMIZED) and by tests as an independent oracle.
    """
    adjacency = GroupAdjacency(graph, partition, [sid], cost_model=cost_model)
    return adjacency.cost(sid)


def saving_of_pair(
    graph: Graph,
    partition: SupernodePartition,
    a: int,
    b: int,
    cost_model: str = "exact",
) -> float:
    """Standalone ``Saving(A, B, S)`` for a single pair (oracle/baselines)."""
    adjacency = GroupAdjacency(graph, partition, [a, b], cost_model=cost_model)
    return adjacency.saving(a, b)
