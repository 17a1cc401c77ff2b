"""Document fingerprints: content hash + winnowed window fingerprints.

- ``content_hash``: vectorized 64-bit position-sensitive hash of each string →
  exact-dedup key (≙ terminal-node ID set dedup, fuzzy_types/types.go:38).
  64-bit keys can collide at 10^12-doc scale, so the exact-dedup stage groups
  by (hash, length) and compares actual texts within each group — a collision
  costs a few extra bytes in one group, never a wrong dedup.
- ``winnow_batch``: Schleimer et al. winnowing — ``window``-char rolling
  hashes, keep the minimum of every ``winnow`` consecutive hashes. Any shared
  substring of length >= window + winnow - 1 yields at least one identical
  fingerprint in both documents → the shuffle-friendly half of the
  substring-dedup stage (groupby fingerprint co-locates candidates across
  partitions; ``stages/verify.py::SubstringVerifier`` then checks each pair
  for a common substring of at least ``substr_min_len`` bytes).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from fuzzy_matcher_ray.functions.shingle import (
    counts_to_offsets,
    gather_ranges,
    shingle_batch,
    splitmix64,
    string_buffer,
)

_K1 = np.uint64(0x9DDFEA08EB382D69)
_K2 = np.uint64(0xC2B2AE3D27D4EB4F)


def content_hash(texts: pa.Array | pa.ChunkedArray, seed: int = 0) -> np.ndarray:
    """Vectorized 64-bit hash per string (order- and length-sensitive).

    Each (byte, position-in-doc) is mixed independently, per-doc mixes are
    summed (order captured by position), then finalized with the doc length.
    One numpy pass over the concatenated batch buffer — no per-row loop.
    """
    data, offsets = string_buffer(texts)
    n = len(offsets) - 1
    lens = (offsets[1:] - offsets[:-1]).astype(np.uint64)
    if data.size == 0:
        return splitmix64(lens ^ np.uint64(seed))
    starts = offsets[:-1]
    pos = np.arange(len(data), dtype=np.uint64) - np.repeat(starts, lens.astype(np.int64)).astype(np.uint64)
    mixed = splitmix64(data.astype(np.uint64) * _K1 ^ (pos + np.uint64(1)) * _K2 ^ np.uint64(seed))
    sums = np.zeros(n, dtype=np.uint64)
    nonempty = lens > 0
    if nonempty.any():
        seg_starts = starts[nonempty]
        sums[nonempty] = np.add.reduceat(mixed, seg_starts)
    return splitmix64(sums ^ (lens * _K2))


# windows per chunk for _sliding_argmin: bounds its temporaries (a few
# 512 KB value arrays plus 64 KB index arrays at this size) so every level
# of the doubling runs out of L2 instead of streaming the batch through
# L3/DRAM
_ARGMIN_CHUNK = 1 << 16


def _sliding_argmin(h: np.ndarray, w: int) -> np.ndarray:
    """Global index of the (leftmost) minimum of every length-``w`` sliding
    window over ``h`` — O(n log w), chunked; see ``_argmin_offsets``."""
    m = h.size - w + 1
    # a window's argmin lies within w - 1 of its start, so indices are kept
    # modulo 2^bits in the smallest unsigned type that holds w - 1
    ramp = np.arange(min(m, _ARGMIN_CHUNK) + w - 1).astype(
        np.min_scalar_type(w - 1))
    out = np.arange(m, dtype=np.int64)
    for c0 in range(0, m, _ARGMIN_CHUNK):
        c1 = min(c0 + _ARGMIN_CHUNK, m)
        out[c0:c1] += _argmin_offsets(h[c0:c1 + w - 1], w, ramp)
    return out


def _argmin_offsets(h: np.ndarray, w: int, ramp: np.ndarray) -> np.ndarray:
    """Offset of the leftmost minimum from the start of each length-``w``
    window of ``h``, by doubling over (value, index) pairs: the windows of
    length 2s are the merge of two length-s windows s apart, and a ``w``
    window merges the saved levels of ``w``'s set bits (72 = 64 + 8).
    ``ramp[j]`` is ``j`` modulo the index type's range."""
    n = h.size
    v, idx = h, ramp[:n]
    saved = []
    s = 1
    for t in range(w.bit_length() - 1):
        if w >> t & 1:
            saved.append((s, v, idx))
        ln = n - 2 * s + 1
        v, idx = _merge_min(v[:ln], idx[:ln], v[s:s + ln], idx[s:s + ln])
        s *= 2
    for b, sv, si in reversed(saved):
        ln = n - (s + b) + 1
        v, idx = _merge_min(v[:ln], idx[:ln], sv[s:s + ln], si[s:s + ln])
        s += b
    return idx - ramp[:idx.size]


def _merge_min(lv: np.ndarray, li: np.ndarray, rv: np.ndarray,
               ri: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(min, argmin) of a left and the adjacent right window. Only a
    STRICTLY smaller right value wins, so ties keep the leftmost index. The
    index select is arithmetic (li + take * (ri - li), wrapping in the
    unsigned index type): ``np.where`` on a data-dependent mask is ~20x
    slower here."""
    take = rv < lv
    idx = np.subtract(ri, li)
    np.multiply(idx, take.view(np.uint8), out=idx)
    np.add(idx, li, out=idx)
    return np.minimum(lv, rv), idx


def _first_argmin(h: np.ndarray, starts: np.ndarray,
                  counts: np.ndarray) -> np.ndarray:
    """Global index of the leftmost minimum of every segment
    ``h[st:st + cnt]`` (all ``cnt > 0``): one ``minimum.reduceat`` over the
    gathered segments, then the first position equal to its segment's min."""
    g = gather_ranges(h, starts, counts)
    g_starts = counts_to_offsets(counts)[:-1]
    mins = np.minimum.reduceat(g, g_starts)
    hits = np.flatnonzero(g == np.repeat(mins, counts))
    return starts + hits[np.searchsorted(hits, g_starts)] - g_starts


def winnow_batch(texts: pa.Array | pa.ChunkedArray, window: int, winnow: int,
                 seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Winnowed fingerprints per document.

    Returns (fingerprints concat uint64, counts per doc, positions int64):
    the distinct minima of every ``winnow``-hash stretch of the doc's
    ``window``-gram rolling hashes (a doc with fewer hashes keeps its one
    minimum), sorted by value within each doc, each with the doc-relative
    char offset of its lowest selected position.
    """
    hashes, counts = shingle_batch(texts, k=window, seed=seed ^ 0x51A3)
    n_docs = len(counts)
    if hashes.size == 0:
        return (np.empty(0, np.uint64), np.zeros(n_docs, dtype=np.int64),
                np.empty(0, np.int64))
    offs = counts_to_offsets(counts)
    # TRUE winnowing, one vectorized pass over the whole batch: min of every
    # sliding window of `winnow` hashes — alignment-independent, so any
    # shared substring of length >= window + winnow - 1 selects at least one
    # identical fingerprint in both documents (Schleimer et al. guarantee).
    sel = np.empty(0, np.int64)
    if hashes.size >= winnow:
        pos = _sliding_argmin(hashes, winnow)
        # leftmost window argmins never decrease, so the windows sharing one
        # form a run of starts [r0, r1); keep a run's argmin iff the run
        # meets the starts of the windows inside the argmin's doc d,
        # [off[d], off[d] + max(cnt[d] - winnow + 1, 0))
        r0 = np.flatnonzero(np.concatenate(([True], pos[1:] != pos[:-1])))
        r1 = np.append(r0[1:], pos.size)
        sel = pos[r0]
        d = np.searchsorted(offs, sel, side="right") - 1
        d_end = offs[d] + np.maximum(counts[d] - winnow + 1, 0)
        sel = sel[np.maximum(r0, offs[d]) < np.minimum(r1, d_end)]
    small = np.flatnonzero((counts > 0) & (counts < winnow))
    if small.size:                       # docs with 0 < cnt < winnow
        sel = np.concatenate((sel, _first_argmin(hashes, offs[small],
                                                 counts[small])))
    doc_of = np.searchsorted(offs, sel, side="right") - 1
    fp_vals = hashes[sel]
    # per-doc dedup by fp value, keeping the first (lowest) position: the
    # sort is stable and a doc's positions are ascending in `sel`
    order = np.lexsort((fp_vals, doc_of))
    d_s, f_s, p_s = doc_of[order], fp_vals[order], sel[order]
    keep = np.empty(len(d_s), dtype=bool)
    keep[0] = True
    keep[1:] = (d_s[1:] != d_s[:-1]) | (f_s[1:] != f_s[:-1])
    d_k, f_k, p_k = d_s[keep], f_s[keep], p_s[keep]
    fp_counts = np.bincount(d_k, minlength=n_docs).astype(np.int64)
    positions = (p_k - offs[d_k]).astype(np.int64)  # doc-relative char offset
    return f_k, fp_counts, positions
