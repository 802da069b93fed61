"""Vectorized hot-path kernels.

LDME's claim to billion-scale rests on three phase-level speedups — the
DOPH divide (Algorithm 2/3), exact ``Saving`` over the ``W`` hashtable
(Algorithm 4) and the sort-based encode (Algorithm 5). This package holds
NumPy/CSR implementations of those hot paths:

* :mod:`repro.kernels.wtable` — ``W`` construction for every mergeable
  group of an iteration as one CSR gather + key aggregation (replaces the
  per-node dict loop in :class:`repro.core.saving.GroupAdjacency`).
* :mod:`repro.kernels.doph` — bulk DOPH signatures: batched bin-minimum
  scatter plus vectorized rotation/optimal densification, and the per-node
  scalar loop kept as the differential-testing reference.
* :mod:`repro.kernels.encode` — array-native ``encode_sorted``: lexsort +
  run-length group scan with no per-edge Python tuples on the hot path.
* :mod:`repro.kernels.shm` — :class:`~repro.kernels.shm.SharedGraphArena`:
  CSR/weight/signature arrays in ``multiprocessing.shared_memory``
  segments with a CRC-carrying descriptor, so the multiprocess driver's
  workers attach zero-copy instead of unpickling batches.

Every kernel is **bit-identical** to the pure-Python reference that stays
behind the ``kernels="python"`` knob (see :class:`repro.core.config.
LDMEConfig`); ``tests/kernels/`` machine-checks the equivalence and
``benchmarks/test_kernels_regression.py`` records the speedups in
``BENCH_kernels.json``. See ``docs/performance.md`` for the design and for
how to add a new benchmarked kernel.
"""

from __future__ import annotations

__all__ = [
    "KERNEL_BACKENDS",
    "resolve_backend",
    "WTable",
    "build_w_table",
    "doph_signatures_bulk_numpy",
    "doph_signatures_bulk_python",
    "encode_sorted_numpy",
    "ArenaDescriptor",
    "ArenaDescriptorError",
    "ArenaError",
    "SharedGraphArena",
    "shared_memory_available",
]

#: Valid values for the ``kernels`` knob threaded through the pipeline.
KERNEL_BACKENDS = ("python", "numpy")


def resolve_backend(name: str) -> str:
    """Validate and normalize a kernel-backend name."""
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"kernels must be one of {KERNEL_BACKENDS}, got {name!r}"
        )
    return name


from .doph import doph_signatures_bulk_numpy, doph_signatures_bulk_python  # noqa: E402
from .encode import encode_sorted_numpy  # noqa: E402
from .shm import (  # noqa: E402
    ArenaDescriptor,
    ArenaDescriptorError,
    ArenaError,
    SharedGraphArena,
    shared_memory_available,
)
from .wtable import WTable, build_w_table  # noqa: E402
