"""Densified One Permutation Hashing (DOPH) — Algorithm 2 of the paper.

DOPH (Shrivastava & Li, UAI 2014) computes a length-``k`` minwise signature
from a *single* permutation: permute the universe, cut it into ``k`` equal
bins, take the first populated offset in each bin, and fill ("densify")
empty bins by copying the nearest populated bin to the left or right with
wraparound — the direction chosen per-bin by a random bit vector ``D``.

For sparse weighted vectors, hashing the *binarized* vector approximates
weighted-Jaccard collision probabilities (Shrivastava, NeurIPS 2016), which
is exactly how LDME uses it: Pr[sig(A) == sig(B)] ≈ SuperJaccard(A, B).

The signature of an all-zero vector is defined here as all ``EMPTY`` (−1);
callers (the divide step) treat such supernodes as their own group.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..obs import profile
from .permutation import random_permutation

__all__ = [
    "EMPTY",
    "DOPHHasher",
    "doph_signature",
    "doph_signatures_bulk",
    "doph_scatter_min",
    "doph_densify",
]

SeedLike = Union[int, np.random.Generator, None]

#: Sentinel signature value for bins that stay empty (all-zero input).
EMPTY = -1


def doph_signature(
    nonzero_indices: np.ndarray,
    perm: np.ndarray,
    k: int,
    directions: np.ndarray,
    densification: str = "rotation",
) -> np.ndarray:
    """One DOPH signature (Algorithm 2).

    Parameters
    ----------
    nonzero_indices:
        Indices of the 1-bits of the binary input vector ``I`` (i.e. the
        binarized supervector: the supernode's neighbour set).
    perm:
        Permutation array over the universe ``0..n-1``.
    k:
        Signature length / number of bins.
    directions:
        Length-``k`` 0/1 array: ``1`` borrows from the right, ``0`` from the
        left (line 8-12 of Algorithm 2).
    densification:
        ``"rotation"`` — the paper's scheme (nearest populated bin with
        wraparound, direction chosen by ``directions``).
        ``"optimal"`` — Shrivastava's 2017 refinement: each empty bin
        probes pseudo-random bins (seeded by the bin index and the
        direction bits) until it hits a populated one, which provably
        lowers the estimator's variance. Provided as a library extension;
        LDME's divide uses the paper's rotation scheme.

    Returns
    -------
    Length-``k`` int64 array. Each entry is the offset (0-based index within
    its bin) of the first populated slot, or a densified copy; all-``EMPTY``
    when the input has no non-zeros.
    """
    n = perm.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if directions.shape != (k,):
        raise ValueError("directions must have length k")
    sig = np.full(k, EMPTY, dtype=np.int64)
    idx = np.asarray(nonzero_indices, dtype=np.int64)
    if idx.size == 0:
        return sig
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError("nonzero indices out of universe range")
    # Line 1-2: permute, then split into k sequential bins of equal size
    # (conceptually right-padding with zeros when k does not divide n).
    bin_size = -(-n // k)  # ceil(n / k)
    permuted = perm[idx]
    bins = permuted // bin_size
    offsets = permuted % bin_size
    # Line 3-7: minimum offset per populated bin. Populated bins are seeded
    # with INT64_MAX (not the EMPTY sentinel, which would win every minimum).
    filled = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(filled, bins, offsets)
    populated = filled != np.iinfo(np.int64).max
    sig[populated] = filled[populated]
    if populated.all():
        return sig
    pop_idx = np.flatnonzero(populated)
    if densification == "rotation":
        # Line 8-12: densification with wraparound, direction chosen by D.
        for i in np.flatnonzero(~populated):
            if directions[i]:
                # first non-empty bin to the right (wrapping)
                pos = int(np.searchsorted(pop_idx, i))
                j = int(pop_idx[pos % pop_idx.size])
            else:
                # first non-empty bin to the left (wrapping)
                pos = int(np.searchsorted(pop_idx, i)) - 1
                j = int(pop_idx[pos])  # pos == -1 wraps to the last bin
            sig[i] = sig[j]
        return sig
    if densification == "optimal":
        # Universal-hash probing: each empty bin walks a pseudo-random
        # (but input-independent) probe sequence until a populated bin.
        # After k hashed probes the walk degrades to a linear scan from the
        # hashed start, which bounds termination at 2k attempts even when
        # the hash step shares a factor with k (69_069 ≡ 0 mod 3).
        seed_base = int.from_bytes(
            directions.astype(np.uint8).tobytes()[:8].ljust(8, b"\0"),
            "little",
        )
        for i in np.flatnonzero(~populated):
            attempt = 0
            while True:
                probe = _optimal_probe(int(i), attempt, seed_base, k)
                if populated[probe]:
                    sig[i] = sig[probe]
                    break
                attempt += 1
        return sig
    raise ValueError("densification must be 'rotation' or 'optimal'")


def _optimal_probe(i: int, attempt: int, seed_base: int, k: int) -> int:
    """Probe target for empty bin ``i`` at the given attempt number."""
    if attempt < k:
        return (1_000_003 * (i + 1) + 69_069 * attempt + seed_base) % k
    return (1_000_003 * (i + 1) + seed_base + attempt) % k


#: Sentinel for never-written scatter slots (wins no minimum).
SCATTER_EMPTY = np.iinfo(np.int64).max

#: Entries per scatter chunk when ``chunk_rows`` is 0 (auto). Sized so the
#: chunk's gather/index temporaries (~3 arrays × 4 bytes) stay within a
#: typical L2 cache, which is where the old one-shot 2-D ``minimum.at``
#: lost its 1e6-scale throughput.
_AUTO_CHUNK_ROWS = 1 << 18


@profile.profiled("doph_bulk")
def doph_signatures_bulk(
    row_ids: np.ndarray,
    item_ids: np.ndarray,
    num_rows: int,
    perm: np.ndarray,
    k: int,
    directions: np.ndarray,
) -> np.ndarray:
    """DOPH signatures for many binary vectors at once.

    ``(row_ids[i], item_ids[i])`` pairs list the 1-bits of ``num_rows``
    binary vectors (duplicates are harmless — the signature is a minimum).
    Returns an ``(num_rows, k)`` int64 matrix whose rows equal
    :func:`doph_signature` of the corresponding vector under rotation
    densification; all-zero rows are all ``EMPTY``.

    This is the production path of LDME's divide step, with no
    per-supernode Python work: a chunked cache-blocked ``minimum.at``
    scatter (:func:`doph_scatter_min`) fills every (row, bin) minimum,
    then :func:`doph_densify` fills the empty bins of every row at once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if directions.shape != (k,):
        raise ValueError("directions must have length k")
    row_ids = np.asarray(row_ids, dtype=np.int64)
    item_ids = np.asarray(item_ids, dtype=np.int64)
    if row_ids.shape != item_ids.shape:
        raise ValueError("row_ids and item_ids must have equal length")
    flat = doph_scatter_min(row_ids, item_ids, num_rows, perm, k)
    return doph_densify(flat, num_rows, k, directions)


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
) -> np.ndarray:
    """Turn scattered bin minima into final signatures.

    ``filled_flat`` is the :func:`doph_scatter_min` output (consumed —
    treat it as scratch). Empty bins of populated rows are filled by
    rotation densification; all-empty rows become all-``EMPTY``.
    """
    filled = filled_flat.reshape(num_rows, k)
    populated = filled != SCATTER_EMPTY
    sig = np.where(populated, filled, np.int64(EMPTY))
    needs_fill = ~populated.all(axis=1) & populated.any(axis=1)
    if not np.any(needs_fill):
        return sig
    source = _rotation_sources(populated[needs_fill], k, directions)
    sig[needs_fill] = np.take_along_axis(sig[needs_fill], source, axis=1)
    return sig


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


class DOPHHasher:
    """Reusable DOPH hasher: one permutation + direction vector per instance.

    LDME draws a fresh hasher every iteration (new ``h`` and ``D``); within
    an iteration the same hasher signs every supernode so equal signatures
    are comparable.
    """

    def __init__(self, universe_size: int, k: int, seed: SeedLike = None) -> None:
        if universe_size < 1:
            raise ValueError("universe_size must be >= 1")
        if k < 1:
            raise ValueError("k must be >= 1")
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self.universe_size = universe_size
        self.k = k
        self.perm = random_permutation(universe_size, rng)
        self.directions = rng.integers(0, 2, size=k).astype(np.int64)

    def signature(self, nonzero_indices: np.ndarray) -> np.ndarray:
        """Signature of the binary vector with the given 1-bit positions."""
        return doph_signature(nonzero_indices, self.perm, self.k, self.directions)

    def signature_key(self, nonzero_indices: np.ndarray) -> tuple:
        """The signature as a tuple, usable as a dict or set key."""
        return tuple(self.signature(nonzero_indices).tolist())
