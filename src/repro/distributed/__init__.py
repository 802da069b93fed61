"""Simulated distributed runtime (substitute for the paper's Spark/EMR)."""

from .parallel import DistributedResult, run_distributed
from .runtime import ClusterSpec, SimulatedCluster

__all__ = [
    "ClusterSpec",
    "SimulatedCluster",
    "DistributedResult",
    "run_distributed",
]
