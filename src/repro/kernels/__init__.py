"""Vectorized hot-path kernels.

LDME's claim to billion-scale rests on three phase-level speedups — the
DOPH divide (Algorithm 2/3), exact ``Saving`` over the ``W`` hashtable
(Algorithm 4) and the sort-based encode (Algorithm 5). Each has exactly
one implementation, and every caller runs it:

* :mod:`repro.kernels.wtable` — ``W`` construction for every mergeable
  group of an iteration as one CSR gather + key aggregation, read by
  :class:`repro.core.saving.GroupAdjacency`.
* :mod:`repro.kernels.encode` — Algorithm 5 over edge arrays: one packed
  key sort, run-length decisions and one segmented cross product for
  ``C−``; :func:`repro.core.encode.encode_sorted` and the shard stitch
  call it.
* The bulk DOPH kernel lives next to the scalar signature it must match,
  as :func:`repro.lsh.doph.doph_signatures_bulk`.

The plain-Python versions these kernels replaced are kept only as test
oracles in ``tests/oracles/kernels.py``; ``tests/kernels/`` checks the
kernels against them and ``benchmarks/test_kernels_regression.py``
records the speedups in ``BENCH_kernels.json``. See
``docs/performance.md``.
"""

from __future__ import annotations

__all__ = ["WTable", "build_w_table", "encode_edge_arrays"]

from .encode import encode_edge_arrays
from .wtable import WTable, build_w_table
