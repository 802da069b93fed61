"""LDME — correction-set graph summarization with weighted LSH.

Reproduction of "Efficient Graph Summarization using Weighted LSH at
Billion-Scale" (SIGMOD 2021). The package provides:

* :class:`~repro.core.ldme.LDME` — the paper's algorithm (weighted-LSH
  divide, exact-Saving merge, sort-based encode) with the ``k`` tuning dial;
* the baselines it is evaluated against (:class:`~repro.baselines.SWeG`,
  :class:`~repro.baselines.MoSSo`, :class:`~repro.baselines.VoG`,
  :class:`~repro.baselines.Randomized`, :class:`~repro.baselines.SAGS`);
* the graph substrate (CSR graphs, generators, dataset surrogates, I/O);
* lossless reconstruction, lossy dropping, summary-resident queries, a
  simulated distributed runtime, and harnesses for every table/figure.

Quickstart
----------
>>> import repro
>>> g = repro.web_host_graph(num_hosts=5, host_size=12, seed=1)
>>> result = repro.summarize(g, k=5, iterations=10)
>>> repro.reconstruct(result) == g       # lossless by construction
True
"""

from .baselines import SAGS, MoSSo, Randomized, SWeG, VoG
from .core import (
    LDME,
    CorrectionSet,
    LDMEConfig,
    RunStats,
    Summarization,
    SupernodePartition,
    drop_edges,
    ldme5,
    ldme20,
    reconstruct,
    summarize,
    verify_error_bound,
    verify_lossless,
)
from .distributed import (
    ClusterSpec,
    DistributedResult,
    run_distributed,
)
from .evaluation import (
    PartitionAgreement,
    adjusted_rand_index,
    compare_partitions,
    normalized_mutual_information,
    purity,
)
from .metrics import SizeReport, size_report
from .binaryio import read_summary_binary, write_summary_binary
from .errors import (
    CheckpointError,
    CorruptCheckpointError,
    CorruptSummaryError,
    CorruptWALError,
    IngestOverloadError,
)
from .ingest import IngestService, WalWriter, recover_wal
from .ioutil import atomic_write
from .resilience import (
    CheckpointManager,
    run_resumable,
)
from .streaming import DynamicSummarizer, read_stream, write_stream
from .graph import (
    Graph,
    GraphBuilder,
    barabasi_albert,
    erdos_renyi,
    forest_fire,
    graph_stats,
    load_graph,
    powerlaw_cluster,
    read_summary,
    rmat,
    save_graph,
    stochastic_block_model,
    web_host_graph,
    write_summary,
)
from .queries import CompiledSummaryIndex, SummaryIndex
from .serve import ServerConfig, SummaryClient, SummaryServer

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "LDME",
    "LDMEConfig",
    "ldme5",
    "ldme20",
    "summarize",
    "Summarization",
    "CorrectionSet",
    "RunStats",
    "SupernodePartition",
    "reconstruct",
    "verify_lossless",
    "verify_error_bound",
    "drop_edges",
    # baselines
    "SWeG",
    "MoSSo",
    "VoG",
    "Randomized",
    "SAGS",
    # graph substrate
    "Graph",
    "GraphBuilder",
    "graph_stats",
    "load_graph",
    "save_graph",
    "read_summary",
    "write_summary",
    "erdos_renyi",
    "barabasi_albert",
    "rmat",
    "powerlaw_cluster",
    "stochastic_block_model",
    "web_host_graph",
    "forest_fire",
    # applications / runtime
    "SummaryIndex",
    "CompiledSummaryIndex",
    "SummaryServer",
    "SummaryClient",
    "ServerConfig",
    "ClusterSpec",
    "DistributedResult",
    "run_distributed",
    "SizeReport",
    "size_report",
    "read_summary_binary",
    "PartitionAgreement",
    "compare_partitions",
    "purity",
    "adjusted_rand_index",
    "normalized_mutual_information",
    "write_summary_binary",
    "DynamicSummarizer",
    "read_stream",
    "write_stream",
    # resilience
    "CheckpointManager",
    "run_resumable",
    "atomic_write",
    "CorruptSummaryError",
    "CheckpointError",
    "CorruptCheckpointError",
    # ingest
    "IngestService",
    "WalWriter",
    "recover_wal",
    "CorruptWALError",
    "IngestOverloadError",
]
