"""LDME — the paper's algorithm (Algorithm 1).

Weighted-LSH divide (DOPH, Algorithm 3) + exact-Saving merge (Algorithm 4)
+ sort-based encode (Algorithm 5). ``k`` trades compression for speed:
the paper's named settings are LDME5 (``k=5``) and LDME20 (``k=20``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..graph.graph import Graph
from ..kernels import wtable
from .base import BaseSummarizer
from .config import LDMEConfig
from .divide import DivideStats, lsh_divide
from .merge import MergeStats, merge_group_exact, merge_group_superjaccard
from .partition import SupernodePartition
from .summary import Summarization

__all__ = ["LDME", "ldme5", "ldme20", "summarize"]


class LDME(BaseSummarizer):
    """Locality-sensitive-hashing Divide, Merge and Encode.

    Parameters mirror :class:`repro.core.config.LDMEConfig`; either pass a
    config or individual keyword arguments.

    Examples
    --------
    >>> from repro.graph.generators import web_host_graph
    >>> g = web_host_graph(num_hosts=4, host_size=10, seed=1)
    >>> result = LDME(k=5, iterations=10, seed=7).summarize(g)
    >>> 0.0 <= result.compression <= 1.0
    True
    """

    name = "LDME"

    def __init__(
        self,
        k: int = 5,
        iterations: int = 20,
        epsilon: float = 0.0,
        seed: int = 0,
        cost_model: str = "exact",
        encoder: str = "sorted",
        merge_policy: str = "exact",
        early_stop_rounds: int = 0,
        divide_weights: str = "binary",
        track_compression: bool = False,
        kernels: str = "numpy",
        config: Optional[LDMEConfig] = None,
    ) -> None:
        if config is not None:
            k = config.k
            iterations = config.iterations
            epsilon = config.epsilon
            seed = config.seed
            cost_model = config.cost_model
            encoder = config.encoder
            kernels = config.kernels
        super().__init__(
            iterations=iterations,
            epsilon=epsilon,
            seed=seed,
            encoder=encoder,
            cost_model=cost_model,
            early_stop_rounds=early_stop_rounds,
            track_compression=track_compression,
            kernels=kernels,
        )
        if k < 1:
            raise ValueError("k must be >= 1")
        if merge_policy not in ("exact", "superjaccard"):
            raise ValueError("merge_policy must be 'exact' or 'superjaccard'")
        if divide_weights not in ("binary", "expanded"):
            raise ValueError("divide_weights must be 'binary' or 'expanded'")
        self.k = k
        self.merge_policy = merge_policy
        self.divide_weights = divide_weights
        self.name = f"LDME{k}"

    # ------------------------------------------------------------------
    def divide(
        self,
        graph: Graph,
        partition: SupernodePartition,
        rng: np.random.Generator,
    ) -> Tuple[List[List[int]], DivideStats]:
        """Weighted-LSH divide with a fresh DOPH hasher per iteration."""
        return lsh_divide(
            graph, partition, self.k, rng, weights=self.divide_weights,
            kernels=self.kernels,
        )

    def merge_context(
        self,
        graph: Graph,
        partition: SupernodePartition,
        groups: List[List[int]],
    ) -> Dict[str, Any]:
        """One ``W`` table over every mergeable group of the iteration.

        Exact policy with the numpy backend only; each group slices its
        rows from the table when its merge loop starts.
        """
        if self.merge_policy != "exact" or self.kernels != "numpy":
            return {}
        mergeable = [group for group in groups if len(group) >= 2]
        if not mergeable:
            return {}
        return {"table": wtable.build_w_table(graph, partition, mergeable)}

    def merge_one_group(
        self,
        graph: Graph,
        partition: SupernodePartition,
        group: List[int],
        threshold: float,
        rng: np.random.Generator,
        table: Optional[wtable.WTable] = None,
    ) -> MergeStats:
        """Merge loop over the group.

        The default policy computes exact Saving through the group's ``W``
        structure (the paper's contribution #2), read from the iteration's
        ``table`` when :meth:`merge_context` built one; ``merge_policy=
        "superjaccard"`` swaps in SWeG's approximation for ablations.
        """
        if self.merge_policy == "exact":
            return merge_group_exact(
                graph, partition, group, threshold, rng,
                cost_model=self.cost_model, kernels=self.kernels,
                table=table,
            )
        return merge_group_superjaccard(
            graph, partition, group, threshold, rng,
            cost_model=self.cost_model, kernels=self.kernels,
        )


def ldme5(iterations: int = 20, seed: int = 0, **kwargs) -> LDME:
    """The paper's high-compression setting (``k = 5``)."""
    return LDME(k=5, iterations=iterations, seed=seed, **kwargs)


def ldme20(iterations: int = 20, seed: int = 0, **kwargs) -> LDME:
    """The paper's high-speed setting (``k = 20``)."""
    return LDME(k=20, iterations=iterations, seed=seed, **kwargs)


def summarize(
    graph: Graph,
    k: int = 5,
    iterations: int = 20,
    epsilon: float = 0.0,
    seed: int = 0,
) -> Summarization:
    """One-call convenience API: summarize ``graph`` with LDME."""
    return LDME(
        k=k, iterations=iterations, epsilon=epsilon, seed=seed
    ).summarize(graph)
