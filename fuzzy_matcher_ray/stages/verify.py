"""Precise verification of candidate pairs.

≙ reference verify+score (``fuzzy_matcher_core.go:220-267``
CalculateSimilarity per field + threshold reject + weighted sum), re-expressed
as a batched numeric kernel over pair tables: exact 5-gram Jaccard for the
near-dup pipeline (one verify over the MinHash and SimHash candidates, each
row at its own pass's threshold; each batch's pairs intersected by an
anchor-grouped boolean-mask kernel), and for the substring pass an exact
">= min_len common substring" kernel (seed and sampled-probe-gram
alignments, all checked by one vectorized byte compare; a suffix array
only for highly repetitive pairs). Texts are attached by broadcast or
key-local lookup (``stages/joins.py``) — the per-batch kernels themselves are
pure numpy.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.functions.shingle import (
    _scratch_buf, counts_to_offsets, gather_ranges,
    segmented_intersection_counts, shingle_batch, string_buffer,
    unique_per_doc)
from fuzzy_matcher_ray.functions.suffix import lcp_array, suffix_array
from fuzzy_matcher_ray.stages.joins import attach_columns

# docs per shingling chunk inside the verifiers: keeps every transient
# buffer (rolling-hash scratch, gather output, per-chunk unique sets) under
# ~10 MB so glibc serves them from the reusable heap instead of fresh mmaps
# — this VM charges ~50x for first-touch of large fresh mappings, which
# made whole-batch shingling (3×85 MB per 4096-pair batch) cost seconds.
_SHINGLE_CHUNK_DOCS = 512


def _chunked_unique_sets(uniq_texts: pa.Array, k: int, seed: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc sorted-unique shingle sets of ``uniq_texts``, computed in
    doc chunks with a pooled destination buffer (no >10 MB fresh
    allocation anywhere). Returns (uh view into the pool, uc)."""
    n = len(uniq_texts)
    uc = np.empty(n, dtype=np.int64)
    # unique hashes per doc <= chars per doc ⇒ total text bytes is a bound
    bound = max(int(uniq_texts.nbytes), 1)
    dest = _scratch_buf("jaccard_uh", bound)
    pos = 0
    for lo in range(0, n, _SHINGLE_CHUNK_DOCS):
        sl = uniq_texts.slice(lo, min(_SHINGLE_CHUNK_DOCS, n - lo))
        h, c = shingle_batch(sl, k, seed)
        uh_c, uc_c = unique_per_doc(h, c)
        dest[pos: pos + len(uh_c)] = uh_c
        uc[lo: lo + len(c)] = uc_c
        pos += len(uh_c)
    return dest[:pos], uc


def attach_pair_texts(pairs, docs_norm, col: str = "norm_text",
                      num_partitions: int = 32):
    """pairs (a,b) → (a, b, text_a, text_b): two inner
    ``attach_columns`` of ``docs_norm``'s ``col`` by doc_id."""
    out = attach_columns(pairs, docs_norm, "a", "doc_id", {col: "text_a"},
                         num_partitions=num_partitions)
    return attach_columns(out, docs_norm, "b", "doc_id", {col: "text_b"},
                          num_partitions=num_partitions)


def _batch_unique_docs(batch: pa.Table, fetched) -> tuple[np.ndarray, pa.Array]:
    """Distinct docs of a pair batch + their texts, each text ONCE.

    Returns (inv, uniq_texts): ``inv`` maps concat([a, b]) positions to the
    unique-doc index; ``uniq_texts[j]`` is the text of unique doc j. Texts
    come from the shared broadcast (``fetched`` = (sorted_keys, texts) — the
    pair table then carries only 16 B/row through the shuffle) or, when
    ``fetched`` is None, from attached text_a/text_b columns. Raises
    ``KeyError`` for doc_ids the broadcast does not hold (verifying them
    against a neighbour's text would be silently wrong).
    """
    a = batch["a"].to_numpy(zero_copy_only=False)
    b = batch["b"].to_numpy(zero_copy_only=False)
    ids_all = np.concatenate([a, b])
    u, first, inv = np.unique(ids_all, return_index=True, return_inverse=True)
    if fetched is not None:
        keys, texts = fetched
        idx = np.searchsorted(keys, u)
        np.clip(idx, 0, max(len(keys) - 1, 0), out=idx)
        missing = u if len(keys) == 0 else u[keys[idx] != u]
        if missing.size:
            raise KeyError(f"{missing.size} doc_id(s) missing from the text "
                           f"broadcast: {missing[:10].tolist()}")
        uniq_texts = texts.take(pa.array(idx, pa.int64()))
    else:
        ta, tb = batch["text_a"], batch["text_b"]
        if isinstance(ta, pa.ChunkedArray):
            ta = ta.combine_chunks()
        if isinstance(tb, pa.ChunkedArray):
            tb = tb.combine_chunks()
        uniq_texts = pa.concat_arrays([ta, tb]).take(pa.array(first, pa.int64()))
    return inv, uniq_texts


class _TextFetcher:
    """Lazy per-worker fetch of the broadcast (doc_id → text) table."""

    def __init__(self, text_ref):
        self.text_ref = text_ref
        self._fetched = None

    def fetched(self):
        if self.text_ref is None:
            return None
        if self._fetched is None:
            import ray
            keys, values = ray.get(self.text_ref)   # zero-copy from plasma
            (col,) = values.values()
            self._fetched = (keys, col)
        return self._fetched


def _sets_chunks(tbl: pa.Table):
    """Yield (ids_slice, offsets, values_chunk) per chunk of a sets block,
    with offsets ABSOLUTE into the chunk's full child values array (pyarrow
    list semantics), so no value buffer is ever sliced or copied."""
    ids_t = tbl["doc_id"].to_numpy(zero_copy_only=False)
    col = tbl["sets"]
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    row = 0
    for ch in chunks:
        m = len(ch)
        offs = ch.offsets.to_numpy(zero_copy_only=False)
        yield ids_t[row: row + m], offs, ch
        row += m


def build_shingle_sets(norm, cfg: PipelineConfig, max_bytes: int = 4 << 30):
    """ONE corpus-wide distributed pass computing every doc's sorted-unique
    shingle set. The heavy hash values STAY in the plasma blocks the
    ``map_batches`` tasks produced — the driver assembles only a slim
    routing index (sorted doc_ids → block, start, count; ~28 B/doc) and the
    Jaccard verify stages intersect pairs directly against the zero-copy
    per-block plasma arrays: no per-batch re-shingling, no gathering, and
    no driver-side copy of the multi-GB value buffer (first-touch faults on
    fresh multi-GB mappings cost ~50x on shared VMs; plasma pages are
    already backed and shared across all workers on the node).

    Returns ``(routing_ref, block_refs)`` or None when the artifact would
    exceed ``max_bytes`` (beyond that the per-batch chunked recompute path
    in JaccardVerifier stays — at 100 TB the broadcast is one copy per
    node, so the cap is a per-node memory budget, not a correctness limit).
    """
    import ray

    try:
        est = int(norm.size_bytes()) * 8      # ≤ 8 B/char of unique hashes
    except Exception:
        est = None
    if est is not None and est > max_bytes:
        return None

    def _sets(t: pa.Table) -> pa.Table:
        h, c = shingle_batch(t["norm_text"], cfg.shingle_k, cfg.seed)
        uh, uc = unique_per_doc(h, c)
        offs = counts_to_offsets(uc)
        return pa.table({
            "doc_id": t["doc_id"],
            "sets": pa.LargeListArray.from_arrays(offs,
                                                  pa.array(uh.view(np.int64))),
        })

    sets_ds = norm.select_columns(["doc_id", "norm_text"]) \
                  .map_batches(_sets, batch_format="pyarrow").materialize()
    block_refs = sets_ds.to_arrow_refs()
    ids_parts, blk_parts, start_parts, cnt_parts = [], [], [], []
    n_chunks = 0
    total_bytes = 0
    for ref in block_refs:
        tbl = ray.get(ref)                    # zero-copy plasma view
        for ids_c, offs, _ch in _sets_chunks(tbl):
            m = len(ids_c)
            if m == 0:
                n_chunks += 1
                continue
            ids_parts.append(ids_c)
            blk_parts.append(np.full(m, n_chunks, dtype=np.int32))
            start_parts.append(offs[:-1])
            cnt_parts.append(np.diff(offs))
            total_bytes += int(offs[-1] - offs[0]) * 8
            n_chunks += 1
            if total_bytes > max_bytes:
                return None                   # bound exceeded — fall back
    if not ids_parts:
        return None
    ids = np.concatenate(ids_parts)
    order = np.argsort(ids, kind="stable")
    routing = (ids[order],
               np.concatenate(blk_parts)[order],
               np.concatenate(start_parts)[order],
               np.concatenate(cnt_parts)[order])
    return ray.put(routing), tuple(block_refs)


def _intersect_block_sets(blocks, blk, starts, counts,
                          ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """|set ∩ set| per pair over per-doc sets living in a LIST of zero-copy
    plasma value arrays (doc d's set is blocks[blk[d]][starts[d]:
    starts[d]+counts[d]]). The batch's distinct sets are gathered, one
    vectorized gather per block, into one pool, and
    :func:`segmented_intersection_counts` intersects every pair against
    it — the anchor-grouped mask kernel the broadcast path runs."""
    docs = np.unique(np.concatenate([ia, ib]))
    docs = docs[np.argsort(blk[docs], kind="stable")]  # block by block
    rank = np.empty(int(docs.max()) + 1 if docs.size else 0, np.int64)
    rank[docs] = np.arange(docs.size)
    b = blk[docs]
    pool = [gather_ranges(blocks[int(blk[g[0]])], starts[g], counts[g])
            for g in np.split(docs, np.flatnonzero(np.diff(b)) + 1) if g.size]
    uh = np.concatenate(pool) if pool else np.empty(0, np.uint64)
    return segmented_intersection_counts(uh, counts[docs], rank[ia], rank[ib])


class JaccardVerifier(_TextFetcher):
    """pairs (a, b[, threshold][, text_a, text_b]) → (a, b, jaccard) for
    the pairs at or above their threshold.

    Exact Jaccard over unique k-gram shingle sets. Each DISTINCT doc in the
    batch is shingled exactly once into a pool of per-doc sorted-unique
    sets, and ``segmented_intersection_counts`` intersects every pair
    against that pool: one boolean mask per doc with several partners in
    the batch, a binary search of the smaller set into the larger for the
    rest. With ``text_ref`` (the shared broadcast) the input pairs carry no
    text at all.

    A ``threshold`` column, when the batch has one, is each row's own
    accept threshold (the MinHash and SimHash candidates of one run share
    a verify, each pass at its own threshold); without it every row uses
    ``threshold``, which defaults to ``cfg.jaccard_threshold``.
    """

    def __init__(self, cfg: PipelineConfig, threshold: float | None = None,
                 text_ref=None, sets_ref=None):
        super().__init__(text_ref)
        self.cfg = cfg
        self.threshold = cfg.jaccard_threshold if threshold is None else threshold
        self.sets_ref = sets_ref
        self._sets = None

    def _sets_artifact(self):
        if self._sets is None:
            import ray
            routing_ref, block_refs = self.sets_ref
            ids, blk, starts, counts = ray.get(routing_ref)
            blocks = []
            for ref in block_refs:              # zero-copy plasma views
                for _ids, _offs, ch in _sets_chunks(ray.get(ref)):
                    blocks.append(
                        ch.values.to_numpy(zero_copy_only=False)
                          .view(np.uint64))
            self._sets = (ids, blk, starts, counts, blocks)
        return self._sets

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "jaccard": pa.array([], pa.float64())})
        k, seed = self.cfg.shingle_k, self.cfg.seed
        n = len(batch)
        if self.sets_ref is not None:
            # precomputed corpus shingle-set artifact: intersect directly
            # against the zero-copy per-block plasma arrays — no shingling,
            # no gathering, no copies
            ids_sorted, blk, starts, counts, blocks = self._sets_artifact()
            a = batch["a"].to_numpy(zero_copy_only=False)
            b = batch["b"].to_numpy(zero_copy_only=False)
            pa_idx = np.searchsorted(ids_sorted, a)
            pb_idx = np.searchsorted(ids_sorted, b)
            np.clip(pa_idx, 0, max(len(ids_sorted) - 1, 0), out=pa_idx)
            np.clip(pb_idx, 0, max(len(ids_sorted) - 1, 0), out=pb_idx)
            ok_a = ids_sorted[pa_idx] == a
            ok_b = ids_sorted[pb_idx] == b
            ca = np.where(ok_a, counts[pa_idx], 0)
            cb = np.where(ok_b, counts[pb_idx], 0)
            inter = _intersect_block_sets(blocks, blk, starts, counts,
                                          pa_idx, pb_idx)
            inter = np.where(ok_a & ok_b, inter, 0)
            union = ca + cb - inter
        else:
            inv, uniq_texts = _batch_unique_docs(batch, self.fetched())
            uh, uc = _chunked_unique_sets(uniq_texts, k, seed)
            ia, ib = inv[:n], inv[n:]
            ca, cb = uc[ia], uc[ib]
            inter = segmented_intersection_counts(uh, uc, ia, ib)
            union = ca + cb - inter
        both_empty = union == 0
        jac = np.where(both_empty, 1.0,
                       inter / np.maximum(union, 1))
        if "threshold" in batch.column_names:
            keep = jac >= batch["threshold"].to_numpy(zero_copy_only=False)
        else:
            keep = jac >= self.threshold
        return pa.table({
            "a": pa.array(batch["a"].to_numpy(zero_copy_only=False)[keep]),
            "b": pa.array(batch["b"].to_numpy(zero_copy_only=False)[keep]),
            "jaccard": pa.array(jac[keep]),
        })


# text bytes shingled per step of the substring lookup: one uint64 per probe
# gram, so each hash/key array of a step stays near 8 MB (the
# _SHINGLE_CHUNK_DOCS rationale, counted in bytes because the lookup's cost
# follows text length)
_SUBSTR_CHUNK_BYTES = 1 << 20
# candidate alignments byte-compared per step (int64 gather indices ≤ 4 MB)
_CMP_CHUNK = 1 << 15
_CMP_BLOCK = 16       # bytes compared per candidate per round


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, …, counts[i] - 1 for every i, concatenated."""
    return (np.arange(int(counts.sum()), dtype=np.int64)
            - np.repeat(counts_to_offsets(counts)[:-1], counts))


def _byte_groups(docs: np.ndarray, lens: np.ndarray) -> list[np.ndarray]:
    """``docs`` cut, in order, into runs of about _SUBSTR_CHUNK_BYTES of
    text (a run ends with the doc that crosses the budget)."""
    gid = (np.cumsum(lens) - lens) // _SUBSTR_CHUNK_BYTES
    return np.split(docs, np.flatnonzero(np.diff(gid)) + 1)


def _match_len(data: np.ndarray, xa: np.ndarray, xb: np.ndarray,
               room: np.ndarray, step: int) -> np.ndarray:
    """Per candidate: how many bytes data[xa + step·t] == data[xb + step·t]
    hold for t = 0, 1, … before the first mismatch, at most ``room``.
    Compares _CMP_BLOCK bytes a round, only for the candidates whose
    previous block matched in full."""
    out = np.zeros(len(xa), np.int64)
    live = np.flatnonzero(room > 0)
    t = np.arange(_CMP_BLOCK, dtype=np.int64)
    done = 0
    while live.size:
        d = step * (done + t)
        eq = (np.take(data, xa[live, None] + d, mode="clip")
              == np.take(data, xb[live, None] + d, mode="clip"))
        eq &= done + t < room[live, None]
        full = eq.all(axis=1)
        out[live] += np.where(full, _CMP_BLOCK, eq.argmin(axis=1))
        live = live[full]
        done += _CMP_BLOCK
    return out


def _common_runs(data: np.ndarray, offs: np.ndarray, da: np.ndarray,
                 db: np.ndarray, xa: np.ndarray, xb: np.ndarray,
                 cap: int) -> np.ndarray:
    """Length of the common run through each candidate alignment: byte
    ``xa`` of doc ``da`` against byte ``xb`` of doc ``db`` (offsets into
    ``data``; doc d spans offs[d]:offs[d+1]). Each side is capped at
    ``cap``, and the left side is compared only where the right one stops
    short of it. Every length is that of a real common substring."""
    out = np.empty(len(xa), np.int64)
    for lo in range(0, len(xa), _CMP_CHUNK):
        sl = slice(lo, lo + _CMP_CHUNK)
        a, b, pa_, pb_ = xa[sl], xb[sl], da[sl], db[sl]
        room = np.minimum(np.minimum(offs[pa_ + 1] - a, offs[pb_ + 1] - b), cap)
        right = _match_len(data, a, b, room, 1)
        room = np.minimum(np.minimum(a - offs[pa_], b - offs[pb_]), cap)
        room[right >= cap] = 0
        out[sl] = right + _match_len(data, a - 1, b - 1, room, -1)
    return out


def _sa_common_len(a: np.ndarray, b: np.ndarray) -> int:
    """Longest common substring of two byte arrays: suffix array + Kasai LCP
    over a·sep·b, the max LCP between adjacent suffixes from different
    sides (functions/suffix.py)."""
    s = np.concatenate([a.astype(np.int64), np.array([256], np.int64),
                        b.astype(np.int64)])
    sa = suffix_array(s)
    lcp = lcp_array(s, sa)
    side = sa > len(a)                  # suffix starts in b
    cross = np.zeros(len(s), dtype=bool)
    cross[1:] = side[1:] != side[:-1]
    return int(lcp[cross].max()) if cross.any() else 0


class SubstringVerifier(_TextFetcher):
    """pairs (a, b[, pp][, text_a, text_b]) → (a, b, common_len) for pairs
    whose texts share a substring of at least ``substr_min_len`` bytes.

    One exact numpy kernel per batch. Each distinct doc of the batch sits
    once in a byte buffer (normalized text is [a-z0-9], so byte and
    character offsets agree). Candidate alignments come from:

    - the winnow seed ``pp`` (pos_a<<21 | pos_b) of each pair, when present
      and inside both docs;
    - for pairs the seed does not settle, a lookup: doc a's probe-gram
      hashes sampled every ``s = min_len - probe + 1`` bytes are found in
      one sorted index of the b-docs' probe grams. This is complete: a
      common run of min_len or more covers s consecutive gram starts, so it
      holds a sample, whose gram occurs in b at the aligned offset.

    The decision compares bytes left and right of every alignment at once,
    capped at min_len per side, and accepts a pair when left + right >=
    min_len. So ``common_len`` is a real common substring length with
    min_len <= common_len <= the longest one, and a hash collision costs
    only a compare. A pair with more than ``_MAX_TRIES`` lookup hits (highly
    repetitive docs) is decided by a suffix array over the pair instead.
    """

    _MAX_TRIES = 2048     # lookup hits per pair before the suffix-array path

    def __init__(self, cfg: PipelineConfig, text_ref=None):
        super().__init__(text_ref)
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        min_len = self.cfg.substr_min_len
        n = len(batch)
        if n == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "common_len": pa.array([], pa.int64())})
        inv, uniq_texts = _batch_unique_docs(batch, self.fetched())
        data, offs = string_buffer(uniq_texts)
        lens = np.diff(offs)
        ia, ib = inv[:n], inv[n:]
        best = np.zeros(n, np.int64)
        live = np.minimum(lens[ia], lens[ib]) >= min_len
        if "pp" in batch.schema.names:
            # winnow seed (pos_a<<21 | pos_b); null ⇒ no usable seed
            pp = batch["pp"].cast(pa.int64()).fill_null(-1) \
                            .to_numpy(zero_copy_only=False)
            pos_a, pos_b = pp >> 21, pp & ((1 << 21) - 1)
            s = np.flatnonzero(live & (pp >= 0) & (pos_a < lens[ia])
                               & (pos_b < lens[ib]))
            best[s] = _common_runs(data, offs, ia[s], ib[s],
                                   offs[ia[s]] + pos_a[s],
                                   offs[ib[s]] + pos_b[s], min_len)
        todo = np.flatnonzero(live & (best < min_len))
        if todo.size:
            best[todo] = np.maximum(best[todo], self._lookup(
                uniq_texts, data, offs, ia[todo], ib[todo]))
        keep = best >= min_len
        return pa.table({
            "a": pa.array(batch["a"].to_numpy(zero_copy_only=False)[keep]),
            "b": pa.array(batch["b"].to_numpy(zero_copy_only=False)[keep]),
            "common_len": pa.array(best[keep])})

    def _lookup(self, uniq_texts: pa.Array, data: np.ndarray,
                offs: np.ndarray, ia: np.ndarray, ib: np.ndarray
                ) -> np.ndarray:
        """Longest capped run over the sampled-gram alignments of each pair
        (ia[p], ib[p]) — the suffix-array length past the hit budget."""
        min_len = self.cfg.substr_min_len
        probe = min(min_len, max(8, min_len // 2))
        stride = min_len - probe + 1
        seed = self.cfg.seed ^ 0xD1CE
        lens = np.diff(offs)
        out = np.zeros(len(ia), np.int64)

        # probe-gram hash and byte offset of every sample of every a-doc
        n_samp = np.zeros(len(lens), np.int64)
        ua = np.unique(ia)
        n_samp[ua] = (lens[ua] - probe) // stride + 1
        s_off = counts_to_offsets(n_samp)
        s_hash = np.empty(s_off[-1], np.uint64)
        s_at = np.empty(s_off[-1], np.int64)
        for docs in _byte_groups(ua, lens[ua]):
            h, c = shingle_batch(uniq_texts.take(pa.array(docs)), probe, seed)
            at = _ranks(n_samp[docs]) * stride
            lo, hi = s_off[docs[0]], s_off[docs[-1] + 1]
            s_hash[lo:hi] = h[np.repeat(counts_to_offsets(c)[:-1],
                                        n_samp[docs]) + at]
            s_at[lo:hi] = np.repeat(offs[docs], n_samp[docs]) + at

        # per run of b-docs: one sorted index of lossy keys (hash high bits
        # | local doc | gram position), probed with the samples of the pairs
        # whose b-doc is in the run
        order = np.argsort(ib, kind="stable")
        ib_sorted = ib[order]
        ub = np.unique(ib)
        for docs in _byte_groups(ub, lens[ub]):
            sel = order[np.searchsorted(ib_sorted, docs[0]):
                        np.searchsorted(ib_sorted, docs[-1], "right")]
            keys, c = shingle_batch(uniq_texts.take(pa.array(docs)), probe,
                                    seed)
            pos_bits = int(c.max()).bit_length()
            low = np.uint64(pos_bits + (len(docs) - 1).bit_length())
            pos_mask = np.uint64((1 << pos_bits) - 1)
            keys >>= low
            keys <<= low
            keys |= np.repeat(np.arange(len(docs), dtype=np.uint64)
                              << np.uint64(pos_bits), c)
            keys |= _ranks(c).astype(np.uint64)
            keys.sort()

            cnt = n_samp[ia[sel]]
            rep = np.repeat(np.arange(len(sel)), cnt)
            si = np.repeat(s_off[ia[sel]], cnt) + _ranks(cnt)
            q = (s_hash[si] >> low << low) | (
                np.searchsorted(docs, ib[sel]).astype(np.uint64)[rep]
                << np.uint64(pos_bits))
            first = np.searchsorted(keys, q)
            n_hit = np.searchsorted(keys, q | pos_mask, "right") - first
            over = np.bincount(rep, weights=n_hit,
                               minlength=len(sel)) > self._MAX_TRIES
            for p in sel[over]:
                out[p] = _sa_common_len(data[offs[ia[p]]: offs[ia[p] + 1]],
                                        data[offs[ib[p]]: offs[ib[p] + 1]])
            m = np.flatnonzero(~over[rep] & (n_hit > 0))
            if not m.size:
                continue
            rep, si, first, n_hit = rep[m], si[m], first[m], n_hit[m]
            # expand the hits in parts of about _CMP_CHUNK candidates (one
            # part may exceed it by at most one sample's hits)
            cum = np.cumsum(n_hit)
            cuts = np.searchsorted(
                cum, np.arange(_CMP_CHUNK, int(cum[-1]), _CMP_CHUNK), "right")
            bounds = [0, *cuts.tolist(), len(m)]
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                k = n_hit[lo:hi]
                p = sel[np.repeat(rep[lo:hi], k)]
                xb = offs[ib[p]] + (gather_ranges(keys, first[lo:hi], k)
                                    & pos_mask).astype(np.int64)
                runs = _common_runs(data, offs, ia[p], ib[p],
                                    np.repeat(s_at[si[lo:hi]], k), xb,
                                    min_len)
                np.maximum.at(out, p, runs)
        return out


def simhash_pair_filter(max_hamming: int):
    """Inline pair filter for SimHash candidates (runs before dedup shuffle)."""
    import numpy as np

    from fuzzy_matcher_ray.functions.simhash import hamming64

    def _f(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t
        d = hamming64(t["simhash_a"].to_numpy(zero_copy_only=False).view(np.uint64),
                      t["simhash_b"].to_numpy(zero_copy_only=False).view(np.uint64))
        return t.filter(pa.array(d <= max_hamming))
    return _f
