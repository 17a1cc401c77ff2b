"""64-bit SimHash + Hamming-band keys (vectorized).

Second near-dup pass of the flagship pipeline (north rule): catches
high-overlap documents whose Jaccard sits just under the MinHash S-curve.
Standard construction (Charikar 2002): per document, sum the ±1 bit vectors of
its feature hashes; sign → bit. Banding: a 64-bit simhash split into
``blocks`` equal blocks; two docs within Hamming distance d share at least one
identical block when blocks > d (pigeonhole), so grouping on
(block_id, block_value) is a complete candidate generator for distance
<= blocks - 1.
"""

from __future__ import annotations

from math import comb

import numpy as np

from fuzzy_matcher_ray.functions.shingle import counts_to_offsets, doc_blocks

# _BYTE_BITS[v, k] = bit k of byte value v
_BYTE_BITS = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.float64)


def simhash_batch(hashes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(n_docs,) uint64 simhash per doc from concatenated shingle hashes.

    Zero-shingle docs get simhash 0 (callers exclude them from banding).
    """
    n_docs = len(counts)
    if hashes.size == 0:
        return np.zeros(n_docs, dtype=np.uint64)
    offs = counts_to_offsets(counts)
    lanes = np.ascontiguousarray(hashes, dtype="<u8").view(np.uint8).reshape(-1, 8)
    # per-bit sums from per-doc byte histograms: bit 8*l + k of a doc's sum
    # counts its shingles whose byte lane l has bit k set, i.e. its lane-l
    # histogram (one bincount over doc*256 + byte) times the byte→bit table.
    # The float matmul is exact: every sum is an integer below 2^53.
    sums = np.empty((n_docs, 64))
    for d0, d1 in doc_blocks(offs):
        lo, hi = offs[d0], offs[d1]
        nb = d1 - d0
        doc_base = np.repeat(np.arange(0, nb * 256, 256), counts[d0:d1])
        key = np.empty_like(doc_base)
        hist = np.empty((nb, 8, 256))
        for lane in range(8):
            np.add(doc_base, lanes[lo:hi, lane], out=key)
            hist[:, lane] = np.bincount(key, minlength=nb * 256).reshape(nb, 256)
        sums[d0:d1] = (hist.reshape(nb * 8, 256) @ _BYTE_BITS).reshape(nb, 64)
    bits = 2 * sums > counts[:, None]
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").ravel()


# Manku et al. (WWW'07) style block-combination keys: 64 bits split into 6
# pieces; every 3-piece combination (C(6,3)=20) forms a ~32-bit key. Hamming
# distance <= 3 damages <= 3 pieces ⇒ >= 3 pieces clean ⇒ at least one
# combination's key matches exactly (pigeonhole) — while 32-bit keys make
# random collisions ~2^16x rarer than 16-bit block keys.
_PIECE_WIDTHS = (11, 11, 11, 11, 10, 10)
# keys per doc from ``simhash_combo_keys`` at its default r = 3
COMBO_KEYS = comb(len(_PIECE_WIDTHS), 3)
_PIECE_OFFSETS = tuple(int(np.cumsum((0,) + _PIECE_WIDTHS[:-1])[i])
                       for i in range(6))


def simhash_combo_keys(sim: np.ndarray, r: int = 3) -> tuple[np.ndarray, int]:
    """(n, n_combos) int-keyed combination table for Hamming <= (6-r) // 1.

    Returns (keys, n_combos); combo index is the column. Guarantee: two
    simhashes within Hamming distance 6 - r share at least one column value.
    """
    from itertools import combinations
    pieces = [(sim >> np.uint64(off)) & np.uint64((1 << w) - 1)
              for off, w in zip(_PIECE_OFFSETS, _PIECE_WIDTHS)]
    cols = []
    for combo in combinations(range(6), r):
        k = np.zeros(len(sim), dtype=np.uint64)
        shift = 0
        for b in combo:
            k |= pieces[b] << np.uint64(shift)
            shift += _PIECE_WIDTHS[b]
        cols.append(k)
    return np.stack(cols, axis=1), len(cols)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a^b for uint64 arrays."""
    x = a ^ b
    # SWAR popcount
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)
