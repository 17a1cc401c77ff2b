"""Character k-gram shingling via a single vectorized rolling hash per batch.

Replaces the reference's per-string trie insertion
(``/root/reference/fuzzy_matcher_core/fuzzy_matcher_core.go:29-56``): instead
of materializing a global index, every batch of documents is shingled in one
numpy pass — all documents' bytes concatenated, one polynomial rolling hash
over the whole buffer, windows that cross document boundaries masked out.
No per-row Python loop anywhere in the hot path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# Polynomial base + splitmix64 finalizer constants (public-domain mixers).
_P = np.uint64(1099511628211)          # FNV prime as polynomial base
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64 wraparound arithmetic)."""
    x = (x + _SM_GAMMA).astype(np.uint64)
    return splitmix64_inplace(x)


def splitmix64_inplace(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 mixing of ``x + GAMMA`` done IN PLACE (x must be uint64,
    owned by the caller). One reusable scratch buffer instead of five 8-byte
    temporaries per element — hash stages are memory-bandwidth-bound, and
    allocator churn on multi-MB temporaries is what collapses throughput
    when many tasks share one bus.
    """
    if scratch is None or scratch.shape != x.shape:
        scratch = np.empty_like(x)
    np.right_shift(x, np.uint64(30), out=scratch)
    np.bitwise_xor(x, scratch, out=x)
    np.multiply(x, _SM_M1, out=x)
    np.right_shift(x, np.uint64(27), out=scratch)
    np.bitwise_xor(x, scratch, out=x)
    np.multiply(x, _SM_M2, out=x)
    np.right_shift(x, np.uint64(31), out=scratch)
    np.bitwise_xor(x, scratch, out=x)
    return x


# Per-process scratch buffers, keyed by role. Hash stages are
# memory-bandwidth-bound; reusing heap buffers instead of fresh multi-MB
# mmaps per batch removes the concurrent first-touch fault storm that
# collapses aggregate throughput when many tasks share one memory bus.
_SCRATCH: dict[str, np.ndarray] = {}


def _scratch_buf(key: str, n: int, dtype=np.uint64) -> np.ndarray:
    buf = _SCRATCH.get(key)
    if buf is None or buf.size < n or buf.dtype != dtype:
        buf = np.empty(max(n, 1), dtype)
        _SCRATCH[key] = buf
    return buf[:n]


def _poly_hash_doubling(data: np.ndarray, k: int, m: int) -> np.ndarray:
    """H_k[0:m] where H_k[i] = Σ data[i+j]·P^(k-1-j) (uint64 wraparound),
    via window doubling: H_{2w}[i] = H_w[i]·P^w + H_w[i+w], then one combine
    per set bit of k. Only O(log k) full passes over the buffer.

    Power-of-two k runs entirely on two reused ping-pong scratch buffers
    (no saved levels, no per-level allocation).
    """
    n = data.size
    if k & (k - 1) == 0 and k > 1:
        cur = _scratch_buf("poly_a", n)
        np.copyto(cur, data, casting="unsafe")
        nxt = _scratch_buf("poly_b", n)
        w = 1
        while w < k:
            nxt_len = n - 2 * w + 1
            dst = nxt[:nxt_len]
            np.multiply(cur[:nxt_len], np.uint64(pow(int(_P), w, 1 << 64)), out=dst)
            np.add(dst, cur[w: w + nxt_len], out=dst)
            cur, nxt = nxt, cur
            w *= 2
        return cur[:m]
    # split k into descending powers of two
    bits = [t for t in range(k.bit_length()) if k >> t & 1]
    # build H_{2^t} for all needed t, keeping each level (they're reused in
    # combines); level arrays shrink as windows grow
    levels: dict[int, np.ndarray] = {}
    cur = data.astype(np.uint64)            # H_1, length n
    max_t = bits[-1]
    for t in range(0, max_t + 1):
        if t in bits:
            levels[t] = cur
        if t == max_t:
            break
        w = 1 << t
        nxt_len = n - 2 * w + 1
        nxt = np.empty(nxt_len, dtype=np.uint64)
        np.multiply(cur[:nxt_len], np.uint64(pow(int(_P), w, 1 << 64)), out=nxt)
        np.add(nxt, cur[w: w + nxt_len], out=nxt)
        cur = nxt
    # combine descending: acc = H_a, then acc·P^b + H_b[i+a]
    ts = sorted(bits, reverse=True)
    a = 1 << ts[0]
    acc = levels[ts[0]][: n - a + 1].copy() if len(ts) > 1 else levels[ts[0]]
    for t in ts[1:]:
        b = 1 << t
        new_len = n - (a + b) + 1
        acc = acc[:new_len]
        np.multiply(acc, np.uint64(pow(int(_P), b, 1 << 64)), out=acc)
        np.add(acc, levels[t][a: a + new_len], out=acc)
        a += b
    assert a == k
    return acc[:m]


def string_buffer(arr: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(data bytes uint8, offsets int64) view of an Arrow string array.

    Zero-copy except for the cast to large_binary (offset widening). Nulls are
    treated as empty strings (their offsets are equal-valued in Arrow).
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = arr.cast(pa.large_binary())
    off_buf = arr.buffers()[1]
    data_buf = arr.buffers()[2]
    offsets = np.frombuffer(off_buf, dtype=np.int64, count=len(arr) + 1 + arr.offset)
    offsets = offsets[arr.offset: arr.offset + len(arr) + 1]
    data = (np.frombuffer(data_buf, dtype=np.uint8)
            if data_buf is not None else np.empty(0, np.uint8))
    # a SLICE of a larger array shares the parent's data buffer with nonzero
    # first offset — trim to the slice's own span (and rebase offsets) so
    # whole-buffer kernels (the rolling hash) scale with the slice, not the
    # parent: chunked shingling of an N-doc pool was O(N·pool_bytes/chunk)
    # before this trim
    lo, hi = int(offsets[0]), int(offsets[-1])
    if lo != 0 or hi != data.size:
        data = data[lo:hi]
        offsets = offsets - lo
    return data, offsets


def gather_ranges(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate values[starts[i]:starts[i]+counts[i]] for all i, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return values[:0]
    # index = arange(total) offset so each segment restarts at its own start
    seg_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    idx = np.arange(total, dtype=np.int64) + np.repeat(starts - seg_starts, counts)
    return values[idx]


def shingle_batch(texts: pa.Array | pa.ChunkedArray, k: int,
                  seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Rolling-hash char k-grams for a batch of strings.

    Returns (hashes, counts): ``hashes`` is one concatenated uint64 array of
    all documents' shingle hashes (multiset, in order), ``counts[i]`` the
    number of shingles of document i. Documents shorter than k get 0 shingles.
    """
    data, offsets = string_buffer(texts)
    n_docs = len(offsets) - 1
    counts = np.maximum(offsets[1:] - offsets[:-1] - (k - 1), 0).astype(np.int64)
    if data.size < k:
        return np.empty(0, np.uint64), counts
    # one rolling hash over the entire concatenated buffer — k Horner passes
    # of O(m) each (constant memory; never materializes an (m, k) window
    # matrix, which would be ~1 GB per batch at k=100). All passes run
    # IN PLACE on two preallocated buffers: hash stages are bandwidth-bound,
    # and per-pass multi-MB temporaries (the naive `raw * P + d64[j:j+m]`)
    # double the bus traffic and thrash the allocator under concurrency.
    m = data.size - k + 1
    scratch = _scratch_buf("sm_scratch", m)
    if k <= 8:
        raw = _scratch_buf("poly_a", m)
        raw[:] = 0
        for j in range(k):              # uint64 wraparound is intended
            np.multiply(raw, _P, out=raw)
            np.add(raw, data[j: j + m], out=raw, casting="unsafe")
    else:
        # doubling: H_{a+b}[i] = H_a[i]*P^b + H_b[i+a] — O(log k) passes over
        # the buffer instead of k (a 12x traffic cut at k=120; hash stages
        # are memory-bandwidth-bound). Identical values to the Horner loop.
        raw = _poly_hash_doubling(data, k, m)
    np.bitwise_xor(raw, np.uint64(seed & 0xFFFFFFFFFFFFFFFF), out=raw)
    np.add(raw, _SM_GAMMA, out=raw)     # identical values to splitmix64(raw^seed)
    raw = splitmix64_inplace(raw, scratch)
    # keep only windows fully inside one document
    starts = offsets[:-1]
    hashes = gather_ranges(raw, starts, counts)
    assert len(hashes) == counts.sum()
    return hashes, counts


def counts_to_offsets(counts: np.ndarray) -> np.ndarray:
    """[c0,c1,..] → [0, c0, c0+c1, ...] int64 offsets."""
    out = np.empty(len(counts) + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(counts, out=out[1:])
    return out


# Shingles per doc block for the sketch kernels (MinHash, SimHash): each
# block's hashes plus one scratch copy (2 x 512 KB) stay in L2 while every
# permutation / byte lane runs over it, instead of streaming the whole
# batch (~10 MB per 1,024 web pages) through L3/DRAM once per pass
DOC_BLOCK_SHINGLES = 1 << 16


def doc_blocks(offs: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive whole-doc ranges ``(d0, d1)`` over docs with shingle
    offsets ``offs``, cut at the first doc starting at or past each multiple
    of ``DOC_BLOCK_SHINGLES``: about one block of shingles per range, more
    when its last doc runs past the boundary."""
    n = len(offs) - 1
    cuts = np.unique(np.append(np.searchsorted(
        offs[:-1], np.arange(0, max(int(offs[-1]), 1), DOC_BLOCK_SHINGLES)), n))
    return list(zip(cuts[:-1].tolist(), cuts[1:].tolist()))


def unique_per_doc(hashes: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-document sorted-unique shingle sets (for exact Jaccard).

    Returns (uniq_hashes concatenated, uniq_counts per doc).

    Two regimes: for batches of up to ~64k docs, a per-segment ``np.unique``
    loop (sorting many ~1k-element runs is ~10x cheaper than one lexsort of
    the 2-key multi-million-row composite); beyond that, the single
    vectorized composite lexsort amortizes the per-call overhead.
    Both produce identical output.
    """
    if hashes.size == 0:
        return hashes, np.zeros_like(counts)
    n_docs = len(counts)
    if n_docs <= 65536:
        offs = counts_to_offsets(counts)
        segs = [np.unique(hashes[offs[i]: offs[i + 1]]) for i in range(n_docs)]
        uniq_counts = np.fromiter((len(s) for s in segs), dtype=np.int64,
                                  count=n_docs)
        return (np.concatenate(segs) if segs else hashes[:0]), uniq_counts
    doc_ids = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
    order = np.lexsort((hashes, doc_ids))
    h = hashes[order]
    d = doc_ids[order]
    keep = np.empty(len(h), dtype=bool)
    keep[0] = True
    keep[1:] = (h[1:] != h[:-1]) | (d[1:] != d[:-1])
    uh, ud = h[keep], d[keep]
    uniq_counts = np.bincount(ud, minlength=n_docs).astype(np.int64)
    return uh, uniq_counts


def segmented_intersection_counts(uh: np.ndarray, uc: np.ndarray,
                                  ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """|set(ia[p]) ∩ set(ib[p])| per pair p over per-doc sorted-unique sets.

    ``uh``/``uc`` are the concatenated per-doc sorted-unique hash sets (as
    returned by :func:`unique_per_doc`); ``ia``/``ib`` index docs per pair.
    """
    n = len(ia)
    if n == 0 or uh.size == 0:
        return np.zeros(n, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    starts = counts_to_offsets(uc)[:-1]
    # Per-pair binary search of the smaller set into the larger one. The two
    # sets (~10 KB) stay in L1/L2 — deliberately NOT a batch-global
    # vectorized join, whose rank remap + giant searchsorted generate
    # hundreds of MB of random traffic per task and collapse under
    # concurrent tasks sharing one memory bus (measured 11x slower at 19
    # concurrent tasks than this loop).
    ss = np.searchsorted
    ia_l, ib_l = ia.tolist(), ib.tolist()
    for p in range(n):
        da, db = ia_l[p], ib_l[p]
        ca, cb = uc[da], uc[db]
        if ca == 0 or cb == 0:
            continue
        if ca > cb:
            da, db, ca, cb = db, da, cb, ca
        small = uh[starts[da]: starts[da] + ca]
        big = uh[starts[db]: starts[db] + cb]
        pos = ss(big, small)
        np.minimum(pos, cb - 1, out=pos)
        out[p] = np.count_nonzero(big[pos] == small)
    return out
