"""Bulk DOPH signatures (Algorithm 2, batched).

Two implementations of the same contract — an ``(num_rows, k)`` signature
matrix whose every row equals :func:`repro.lsh.doph.doph_signature` of the
corresponding binary vector:

* :func:`doph_signatures_bulk_numpy` — the production path: one
  ``minimum.at`` scatter computes all bin minima at once, then the
  rotation (or optimal-probing) densification is applied to every
  empty bin of every row with array ops only.
* :func:`doph_signatures_bulk_python` — the differential-testing
  reference: a per-row Python loop over the scalar signature.

All-zero rows come back as all-``EMPTY`` (the isolated-supernode sentinel
the divide step relies on) under both implementations and both
densification modes.

The numpy path runs in two stages:

* :func:`doph_scatter_min` — chunked, cache-blocked flat min-scatter of
  the ``(row, item)`` entries. Its ``chunk_rows`` keyword is the test
  seam for chunk boundaries; production calls use the fixed
  :data:`_AUTO_CHUNK_ROWS`.
* :func:`doph_densify` — rotation / optimal-probing densification of the
  scattered bin minima into final signatures.
"""

from __future__ import annotations

import numpy as np

from ..lsh.doph import EMPTY, doph_signature
from ..obs import profile

__all__ = [
    "SCATTER_EMPTY",
    "doph_scatter_min",
    "doph_densify",
    "doph_signatures_bulk_numpy",
    "doph_signatures_bulk_python",
]

#: Sentinel for never-written scatter slots (wins no minimum).
SCATTER_EMPTY = np.iinfo(np.int64).max

#: Entries per scatter chunk when ``chunk_rows`` is 0 (auto). Sized so the
#: chunk's gather/index temporaries (~3 arrays × 4 bytes) stay within a
#: typical L2 cache, which is where the old one-shot 2-D ``minimum.at``
#: lost its 1e6-scale throughput.
_AUTO_CHUNK_ROWS = 1 << 18


def _check_bulk_args(
    row_ids: np.ndarray,
    item_ids: np.ndarray,
    k: int,
    directions: np.ndarray,
) -> tuple:
    if k < 1:
        raise ValueError("k must be >= 1")
    if directions.shape != (k,):
        raise ValueError("directions must have length k")
    row_ids = np.asarray(row_ids, dtype=np.int64)
    item_ids = np.asarray(item_ids, dtype=np.int64)
    if row_ids.shape != item_ids.shape:
        raise ValueError("row_ids and item_ids must have equal length")
    return row_ids, item_ids


def doph_signatures_bulk_python(
    row_ids: np.ndarray,
    item_ids: np.ndarray,
    num_rows: int,
    perm: np.ndarray,
    k: int,
    directions: np.ndarray,
    densification: str = "rotation",
) -> np.ndarray:
    """Reference bulk path: one scalar :func:`doph_signature` per row."""
    row_ids, item_ids = _check_bulk_args(row_ids, item_ids, k, directions)
    sig = np.full((num_rows, k), EMPTY, dtype=np.int64)
    order = np.argsort(row_ids, kind="stable")
    sorted_rows = row_ids[order]
    sorted_items = item_ids[order]
    bounds = np.searchsorted(sorted_rows, np.arange(num_rows + 1))
    for r in range(num_rows):
        lo, hi = int(bounds[r]), int(bounds[r + 1])
        if lo == hi:
            continue
        sig[r] = doph_signature(
            sorted_items[lo:hi], perm, k, directions,
            densification=densification,
        )
    return sig


def doph_scatter_min(
    row_ids: np.ndarray,
    item_ids: np.ndarray,
    num_rows: int,
    perm: np.ndarray,
    k: int,
    chunk_rows: int = 0,
) -> np.ndarray:
    """Chunked cache-blocked bin-minimum scatter.

    Returns a flat ``(num_rows * k,)`` int64 array whose slot
    ``r * k + b`` holds the minimum offset seen in bin ``b`` of row ``r``,
    or :data:`SCATTER_EMPTY` when the bin never received an entry.
    Processing ``chunk_rows`` entries at a time (0 = :data:`_AUTO_CHUNK_ROWS`)
    keeps the gathered index/offset temporaries cache-resident, and the
    flat 1-D ``minimum.at`` takes numpy's fast indexed-loop path (the 2-D
    fancy-index form does not); together these are what recover the
    large-graph throughput the benchmark ladder tracks. Every chunking
    yields the same array.
    """
    n = perm.shape[0]
    bin_size = -(-n // k)  # ceil(n / k), matching the scalar kernel
    total = num_rows * k
    if item_ids.size == 0:
        return np.full(total, SCATTER_EMPTY, dtype=np.int64)
    if chunk_rows <= 0:
        chunk_rows = _AUTO_CHUNK_ROWS
    # int32 intermediates halve scatter bandwidth whenever the values fit;
    # integer minima are exact in either width so the result is identical.
    narrow = total < 2**31 and bin_size < 2**31
    value_dt = np.int32 if narrow else np.int64
    index_dt = np.int32 if total < 2**31 else np.int64
    value_sentinel = np.iinfo(value_dt).max
    # Per-item lookup tables: bin and offset of every universe element.
    item_bins = (perm // bin_size).astype(value_dt)
    item_offsets = (perm % bin_size).astype(value_dt)
    flat = np.full(total, value_sentinel, dtype=value_dt)
    for lo in range(0, item_ids.size, chunk_rows):
        hi = min(lo + chunk_rows, item_ids.size)
        chunk_items = item_ids[lo:hi]
        slots = (row_ids[lo:hi] * k).astype(index_dt)
        slots += item_bins[chunk_items].astype(index_dt)
        np.minimum.at(flat, slots, item_offsets[chunk_items])
    written = flat != value_sentinel
    return np.where(written, flat.astype(np.int64), SCATTER_EMPTY)


def doph_densify(
    filled_flat: np.ndarray,
    num_rows: int,
    k: int,
    directions: np.ndarray,
    densification: str = "rotation",
) -> np.ndarray:
    """Turn scattered bin minima into final signatures.

    ``filled_flat`` is the :func:`doph_scatter_min` output (consumed —
    treat it as scratch). Empty bins of populated rows are filled by the
    selected densification scheme; all-empty rows become all-``EMPTY``.
    """
    filled = filled_flat.reshape(num_rows, k)
    populated = filled != SCATTER_EMPTY
    sig = np.where(populated, filled, np.int64(EMPTY))
    needs_fill = ~populated.all(axis=1) & populated.any(axis=1)
    if not np.any(needs_fill):
        return sig
    sub_pop = populated[needs_fill]
    if densification == "rotation":
        source = _rotation_sources(sub_pop, k, directions)
    elif densification == "optimal":
        source = _optimal_sources(sub_pop, k, directions)
    else:
        raise ValueError("densification must be 'rotation' or 'optimal'")
    sub_sig = sig[needs_fill]
    sig[needs_fill] = np.take_along_axis(sub_sig, source, axis=1)
    return sig


@profile.profiled("doph_bulk")
def doph_signatures_bulk_numpy(
    row_ids: np.ndarray,
    item_ids: np.ndarray,
    num_rows: int,
    perm: np.ndarray,
    k: int,
    directions: np.ndarray,
    densification: str = "rotation",
) -> np.ndarray:
    """Vectorized bulk path: scatter bin minima, densify all rows at once.

    ``(row_ids[i], item_ids[i])`` pairs list the 1-bits of ``num_rows``
    binary vectors (duplicates are harmless — the signature is a minimum).
    This is the production path of LDME's divide step: no per-supernode
    Python work regardless of how many supernodes are hashed.
    """
    row_ids, item_ids = _check_bulk_args(row_ids, item_ids, k, directions)
    flat = doph_scatter_min(row_ids, item_ids, num_rows, perm, k)
    return doph_densify(flat, num_rows, k, directions, densification)


def _rotation_sources(
    sub_pop: np.ndarray, k: int, directions: np.ndarray
) -> np.ndarray:
    """Per-(row, bin) source column under rotation densification.

    For every empty bin, the nearest populated bin in the direction chosen
    by ``D`` with wraparound; populated bins map to themselves.
    """
    cols = np.arange(k, dtype=np.int64)
    # Nearest populated column <= j (or -1), then wrap to the row's last.
    left = np.maximum.accumulate(np.where(sub_pop, cols, -1), axis=1)
    last_pop = (k - 1) - np.argmax(sub_pop[:, ::-1], axis=1)
    left = np.where(left < 0, last_pop[:, None], left)
    # Nearest populated column >= j (or k), then wrap to the row's first.
    right_rev = np.maximum.accumulate(
        np.where(sub_pop[:, ::-1], cols, -1), axis=1
    )[:, ::-1]
    right = np.where(right_rev < 0, -1, (k - 1) - right_rev)
    first_pop = np.argmax(sub_pop, axis=1)
    right = np.where(right < 0, first_pop[:, None], right)
    return np.where(directions[None, :] == 1, right, left)


def _optimal_sources(
    sub_pop: np.ndarray, k: int, directions: np.ndarray
) -> np.ndarray:
    """Per-(row, bin) source column under optimal (probing) densification.

    Mirrors the scalar probe sequence exactly: empty bin ``i`` probes
    ``(1_000_003 * (i + 1) + 69_069 * attempt + seed_base) % k`` for
    ``attempt = 0, 1, ...`` until it hits a populated bin. The probe
    target depends only on the column and the attempt number, so one
    length-``k`` probe vector per attempt resolves every row at once.
    """
    seed_base = int.from_bytes(
        directions.astype(np.uint8).tobytes()[:8].ljust(8, b"\0"),
        "little",
    )
    cols = np.arange(k, dtype=np.int64)
    source = np.where(sub_pop, cols[None, :], np.int64(-1))
    unresolved = source < 0
    attempt = 0
    while np.any(unresolved):
        if attempt < k:
            probes = (1_000_003 * (cols + 1) + 69_069 * attempt + seed_base) % k
        else:
            probes = (1_000_003 * (cols + 1) + seed_base + attempt) % k
        hit = unresolved & sub_pop[:, probes]
        source[hit] = np.broadcast_to(probes[None, :], source.shape)[hit]
        unresolved &= ~hit
        attempt += 1
    return source
