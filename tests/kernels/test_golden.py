"""Golden end-to-end fixtures guarding the determinism of the kernels.

Summary shapes for fixed seeds on the bundled Table 1 surrogates, pinned
once. Each pin is asserted on the production kernels (``numpy``) and on
the plain-Python oracles swapped in (``python``, see
``tests/oracles/kernels.py``), so a change to any hot-path kernel that
shifts a single merge decision, superedge or correction edge fails here,
and so does an oracle that drifted from the pins.
"""

import numpy as np
import pytest

from repro.core.ldme import LDME
from repro.core.reconstruct import verify_lossless
from repro.queries.compiled import CompiledSummaryIndex

from ..oracles.kernels import KERNELS

#: (dataset, k, iterations, seed) → pinned
#: (objective, supernodes, superedges, additions, deletions)
SERIAL_GOLDEN = {
    ("CN", 5, 5, 7): (4449, 791, 3245, 1048, 258),
    ("IN", 20, 4, 3): (12572, 1894, 12551, 21, 0),
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


def _summarize(graph, case, kernels):
    name, k, iterations, seed = case
    with KERNELS[kernels]():
        return LDME(k=k, iterations=iterations, seed=seed).summarize(graph)


def _shape(summary):
    return (
        summary.objective,
        summary.num_supernodes,
        len(summary.superedges),
        len(summary.corrections.additions),
        len(summary.corrections.deletions),
    )


@pytest.mark.parametrize("kernels", KERNELS)
@pytest.mark.parametrize("case", sorted(SERIAL_GOLDEN))
def test_serial_golden(dataset_cache, case, kernels):
    graph = dataset_cache(case[0])
    summary = _summarize(graph, case, kernels)
    assert _shape(summary) == SERIAL_GOLDEN[case]
    verify_lossless(graph, summary)


@pytest.mark.parametrize("kernels", KERNELS)
@pytest.mark.parametrize("case", sorted(SERIAL_ANALYTICS_GOLDEN))
def test_serial_analytics_golden(dataset_cache, case, kernels):
    """Summary-native analytics (values *and* bounds) pinned on the
    serial fixture summaries, on the kernels and on the oracles."""
    summary = _summarize(dataset_cache(case[0]), case, kernels)
    assert _analytics_pin(summary) == SERIAL_ANALYTICS_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(SERIAL_GOLDEN))
def test_backends_bit_identical_end_to_end(dataset_cache, case):
    """Beyond the pinned shape: the kernels' full outputs must match the
    oracles' element-wise."""
    graph = dataset_cache(case[0])
    ref = _summarize(graph, case, "python")
    ker = _summarize(graph, case, "numpy")
    assert ref.superedges == ker.superedges
    assert ref.corrections.additions == ker.corrections.additions
    assert ref.corrections.deletions == ker.corrections.deletions
    assert ref.partition.members_map() == ker.partition.members_map()
