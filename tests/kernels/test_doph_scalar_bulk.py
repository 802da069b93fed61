"""Scalar-vs-bulk DOPH property tests (Algorithm 2).

``doph_signature`` applied to each node's vector must equal the
corresponding row of the bulk kernel and of its per-row oracle
(``tests/oracles/kernels.py``), including the all-``EMPTY`` isolated-node
sentinel (rows with no items). The scalar optimal densification must
terminate where its probe step shares a factor with ``k``
(``69_069 ≡ 0 mod 3``). The chunked scatter's ``chunk_rows`` seam is
checked at chunk sizes of 1, a small prime and beyond the entry count.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lsh.doph import (
    EMPTY,
    doph_densify,
    doph_scatter_min,
    doph_signature,
    doph_signatures_bulk,
)
from repro.lsh.permutation import random_permutation

from ..oracles import kernels as oracle

#: The bulk kernel and its per-row oracle, by parameter id.
BULKS = {"python": oracle.doph_signatures_bulk, "numpy": doph_signatures_bulk}


@st.composite
def bulk_inputs(draw):
    """Random (row_ids, item_ids, num_rows, perm, k, directions)."""
    n = draw(st.integers(min_value=1, max_value=30))
    k = draw(st.integers(min_value=1, max_value=9))
    num_rows = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    perm = random_permutation(n, rng)
    directions = rng.integers(0, 2, size=k).astype(np.int64)
    num_items = int(rng.integers(0, 5 * num_rows))
    row_ids = rng.integers(0, num_rows, size=num_items)
    item_ids = rng.integers(0, n, size=num_items)
    return row_ids, item_ids, num_rows, perm, k, directions


class TestScalarMatchesBulk:
    # Both bulks densify by rotation only; the id says so.
    @pytest.mark.parametrize("bulk", BULKS, ids="{}-rotation".format)
    @given(inputs=bulk_inputs())
    @settings(max_examples=60, deadline=None)
    def test_every_row_equals_scalar(self, bulk, inputs):
        row_ids, item_ids, num_rows, perm, k, directions = inputs
        signatures = BULKS[bulk](
            row_ids, item_ids, num_rows, perm, k, directions
        )
        assert signatures.shape == (num_rows, k)
        for r in range(num_rows):
            items = item_ids[row_ids == r]
            expected = doph_signature(items, perm, k, directions)
            assert np.array_equal(signatures[r], expected), (
                f"row {r} diverged under {bulk}"
            )

    @pytest.mark.parametrize("bulk", BULKS)
    def test_all_empty_rows_are_all_empty_sentinel(self, bulk):
        """Isolated supernodes (no items at all) keep the EMPTY sentinel."""
        perm = random_permutation(12, np.random.default_rng(0))
        directions = np.ones(4, dtype=np.int64)
        signatures = BULKS[bulk](
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            3, perm, 4, directions,
        )
        assert signatures.shape == (3, 4)
        assert np.all(signatures == EMPTY)

    @pytest.mark.parametrize("bulk", BULKS)
    def test_mixed_empty_and_populated_rows(self, bulk):
        """Empty rows stay EMPTY while neighbours densify normally."""
        rng = np.random.default_rng(3)
        perm = random_permutation(20, rng)
        directions = rng.integers(0, 2, size=5).astype(np.int64)
        row_ids = np.array([0, 0, 2], dtype=np.int64)   # row 1 has no items
        item_ids = np.array([4, 11, 7], dtype=np.int64)
        signatures = BULKS[bulk](row_ids, item_ids, 3, perm, 5, directions)
        assert np.all(signatures[1] == EMPTY)
        for r in (0, 2):
            expected = doph_signature(
                item_ids[row_ids == r], perm, 5, directions
            )
            assert np.array_equal(signatures[r], expected)
            assert np.all(signatures[r] >= 0)

    @pytest.mark.parametrize("k", (3, 6, 9))
    def test_optimal_terminates_when_k_divisible_by_three(self, k):
        """Regression: 69_069 ≡ 0 mod 3 used to freeze the hashed probe.

        The probe walk degrades to a bounded linear scan after k hashed
        attempts, so ks sharing a factor with the step terminate and
        every bin is filled from a populated one.
        """
        rng = np.random.default_rng(11)
        perm = random_permutation(6 * k, rng)
        for trial in range(20):
            directions = rng.integers(0, 2, size=k).astype(np.int64)
            items = rng.integers(0, 6 * k, size=2)
            scalar = doph_signature(items, perm, k, directions,
                                    densification="optimal")
            populated = doph_signature(items, perm, k, np.zeros(k, np.int64))
            assert np.all(scalar >= 0)
            assert set(scalar.tolist()) <= set(populated.tolist())


#: Chunk sizes for the scatter seam: one entry per chunk, a small prime
#: that leaves a ragged last chunk, and one chunk holding every entry.
CHUNK_ROWS = (1, 7, 10_000)


class TestChunkedScatter:
    @given(inputs=bulk_inputs())
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_matches_unchunked(self, inputs):
        row_ids, item_ids, num_rows, perm, k, _ = inputs
        unchunked = doph_scatter_min(row_ids, item_ids, num_rows, perm, k)
        for chunk_rows in CHUNK_ROWS:
            chunked = doph_scatter_min(
                row_ids, item_ids, num_rows, perm, k, chunk_rows=chunk_rows
            )
            assert np.array_equal(chunked, unchunked), chunk_rows

    @given(inputs=bulk_inputs())
    @settings(max_examples=60, deadline=None)
    def test_chunked_matches_python_reference(self, inputs):
        row_ids, item_ids, num_rows, perm, k, directions = inputs
        reference = oracle.doph_signatures_bulk(
            row_ids, item_ids, num_rows, perm, k, directions
        )
        for chunk_rows in CHUNK_ROWS:
            flat = doph_scatter_min(
                row_ids, item_ids, num_rows, perm, k, chunk_rows=chunk_rows
            )
            signatures = doph_densify(flat, num_rows, k, directions)
            assert np.array_equal(signatures, reference), chunk_rows
