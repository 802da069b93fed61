"""Golden end-to-end fixtures guarding determinism across the kernels knob.

Summary shapes for fixed seeds on the bundled Table 1 surrogates, pinned
once and asserted under **both** kernel backends and under
``MultiprocessLDME``. A change to any hot-path kernel that shifts a single
merge decision, superedge or correction edge fails here.

The serial and multiprocess pins differ (the multiprocess planner works
against an iteration-start snapshot — the paper's Spark staleness
semantics), but each must be identical across ``kernels="python"`` and
``kernels="numpy"`` and stable across runs.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.ldme import LDME
from repro.core.reconstruct import verify_lossless
from repro.distributed.multiprocess import MultiprocessLDME
from repro.graph import datasets
from repro.queries.compiled import CompiledSummaryIndex

BACKENDS = ("python", "numpy")

#: (dataset, k, iterations, seed) → pinned
#: (objective, supernodes, superedges, additions, deletions)
SERIAL_GOLDEN = {
    ("CN", 5, 5, 7): (4449, 791, 3245, 1048, 258),
    ("IN", 20, 4, 3): (12572, 1894, 12551, 21, 0),
}

MULTIPROCESS_GOLDEN = {
    ("CN", 5, 5, 7): (4292, 771, 3000, 1050, 330),
    ("IN", 20, 4, 3): (12572, 1895, 12555, 17, 0),
}

#: Summary-native analytics pinned on the same fixture summaries:
#: (hist_bins, hist_sum, hist_bound, top_pagerank_node,
#:  top_rank@9dp, pagerank_bound@9dp, triangles@3dp,
#:  triangles_bound@3dp, modularity@9dp). Lossless fixtures, so the
#: degree-histogram bound is exactly 0.0 and hist_sum = num_nodes.
SERIAL_ANALYTICS_GOLDEN = {
    ("CN", 5, 5, 7): (
        34, 1200, 0.0, 510, 0.001879625, 0.000591717,
        15927.589, 16114.589, 0.02244534,
    ),
    ("IN", 20, 4, 3): (
        599, 2048, 0.0, 0, 0.02233245, 0.000591602,
        58221.752, 64.752, -0.003656053,
    ),
}

MULTIPROCESS_ANALYTICS_GOLDEN = {
    ("CN", 5, 5, 7): (
        34, 1200, 0.0, 510, 0.001879625, 0.000591717,
        16858.72, 17164.72, 0.025463664,
    ),
    ("IN", 20, 4, 3): (
        599, 2048, 0.0, 0, 0.02233245, 0.000591602,
        58223.083, 48.083, -0.003656046,
    ),
}

fork_available = "fork" in multiprocessing.get_all_start_methods()


def _analytics_pin(summary):
    """Compact analytics fingerprint of one summary (rounded floats)."""
    analytics = CompiledSummaryIndex(summary).analytics()
    hist, hist_bound = analytics.degree_histogram()
    rank, pr_bound = analytics.pagerank()
    top = int(np.lexsort((np.arange(rank.size), -rank))[0])
    triangles, tri_bound = analytics.triangles()
    mod, _ = analytics.modularity()
    return (
        int(hist.size), int(hist.sum()), float(hist_bound),
        top, round(float(rank[top]), 9), round(float(pr_bound), 9),
        round(triangles, 3), round(tri_bound, 3),
        round(mod, 9),
    )


def _shape(summary):
    return (
        summary.objective,
        summary.num_supernodes,
        len(summary.superedges),
        len(summary.corrections.additions),
        len(summary.corrections.deletions),
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(SERIAL_GOLDEN))
def test_serial_golden(dataset_cache, case, backend):
    name, k, iterations, seed = case
    graph = dataset_cache(name)
    summary = LDME(
        k=k, iterations=iterations, seed=seed, kernels=backend
    ).summarize(graph)
    assert _shape(summary) == SERIAL_GOLDEN[case]
    verify_lossless(graph, summary)


@pytest.mark.skipif(not fork_available, reason="fork start method required")
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(MULTIPROCESS_GOLDEN))
def test_multiprocess_golden(dataset_cache, case, backend):
    name, k, iterations, seed = case
    graph = dataset_cache(name)
    summary = MultiprocessLDME(
        num_workers=2, k=k, iterations=iterations, seed=seed,
        kernels=backend,
    ).summarize(graph)
    assert _shape(summary) == MULTIPROCESS_GOLDEN[case]
    verify_lossless(graph, summary)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(SERIAL_ANALYTICS_GOLDEN))
def test_serial_analytics_golden(dataset_cache, case, backend):
    """Summary-native analytics (values *and* bounds) pinned on the
    serial fixture summaries, identical across kernel backends."""
    name, k, iterations, seed = case
    graph = dataset_cache(name)
    summary = LDME(
        k=k, iterations=iterations, seed=seed, kernels=backend
    ).summarize(graph)
    assert _analytics_pin(summary) == SERIAL_ANALYTICS_GOLDEN[case]


@pytest.mark.skipif(not fork_available, reason="fork start method required")
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(MULTIPROCESS_ANALYTICS_GOLDEN))
def test_multiprocess_analytics_golden(dataset_cache, case, backend):
    """Same pins through the multiprocess planner: analytics (values and
    bounds) of its summaries match bit-for-bit."""
    name, k, iterations, seed = case
    graph = dataset_cache(name)
    summary = MultiprocessLDME(
        num_workers=2, k=k, iterations=iterations, seed=seed,
        kernels=backend,
    ).summarize(graph)
    assert _analytics_pin(summary) == MULTIPROCESS_ANALYTICS_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(SERIAL_GOLDEN))
def test_backends_bit_identical_end_to_end(dataset_cache, case):
    """Beyond the pinned shape: the full outputs must match element-wise."""
    name, k, iterations, seed = case
    graph = dataset_cache(name)
    ref = LDME(k=k, iterations=iterations, seed=seed,
               kernels="python").summarize(graph)
    ker = LDME(k=k, iterations=iterations, seed=seed,
               kernels="numpy").summarize(graph)
    assert ref.superedges == ker.superedges
    assert ref.corrections.additions == ker.corrections.additions
    assert ref.corrections.deletions == ker.corrections.deletions
    assert ref.partition.members_map() == ker.partition.members_map()
