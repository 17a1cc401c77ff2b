"""Candidate-pair generation from key rows, with explicit skew handling.

≙ reference candidate emission at trie terminals
(``utils.go:28-40`` ProcessNode → MatchCandidate): docs sharing an LSH key
become candidate pairs.

Structure: every operator here is a function of the rows that share a key
(pair explode, pair dedup, pair count, per-doc top-k), so each is one numpy
kernel run by ``joins.map_segments`` — once on the driver for input within
the driver budget (``stages/gates``), else block by block over a range
sort on the key, the keys that straddle block edges stitched on the
driver. Zero per-group Python calls on either branch.

1. ``key_pairs`` lexsorts the key rows and explodes each key segment: a
   segment of 2..max_group rows emits all its pairs, size-batched so one
   broadcast add explodes every segment of a size.
2. Hot segments (> max_group: boilerplate/empty-page keys with millions of
   docs — the north rule's skew case) emit **star + chain** edges (2n-3
   per group, O(n)) instead of all pairs — connectivity-equivalent for
   clustering; the verify stage still scores every emitted pair.

Pair order is normalized (a < b) and pairs are deduped across keys by a
segment pass over (a, b) — ≙ visited-set dedup (``utils.go:70-77``
MakeKey).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.functions.shingle import splitmix64
from fuzzy_matcher_ray.stages.joins import (block_tables, is_pinned,
                                            map_segments)


def _segment_explode(gk: np.ndarray, ids: np.ndarray, carries: dict,
                     cap: int, carry_cols, pair_filter, derive) -> pa.Table:
    """Vectorized all-pairs explode of key segments in (sorted) arrays.

    Segments larger than ``cap`` emit star+chain edges (derive cols null).
    """
    n = len(gk)
    if n == 0:
        return _pairs_schema(derive)
    brk = np.empty(n, dtype=bool)
    brk[0] = True
    brk[1:] = gk[1:] != gk[:-1]
    seg_starts = np.nonzero(brk)[0]
    sizes = np.diff(np.append(seg_starts, n))
    sel = sizes >= 2
    starts2, sizes2 = seg_starts[sel], sizes[sel]
    dup_sel = sizes2 <= cap
    ia_chunks, ib_chunks = [], []
    hot_a, hot_b = [], []
    # dup segments, batched BY SIZE: every segment of size s shares one
    # triu template, so a single broadcast add explodes ALL of them at
    # once — the loop runs over DISTINCT sizes (≤ cap values), not over
    # segments (a 378k-segment winnow table spent ~6 s in the old
    # per-segment loop; this is ~30 iterations for the same output)
    dup_starts, dup_sizes = starts2[dup_sel], sizes2[dup_sel]
    for s in np.unique(dup_sizes).tolist():
        ti, tj = np.triu_indices(s, k=1)
        st_s = dup_starts[dup_sizes == s]
        ia_chunks.append((st_s[:, None] + ti[None, :]).ravel())
        ib_chunks.append((st_s[:, None] + tj[None, :]).ravel())
    # hot segments (> cap): star+chain per segment — rare by construction
    # (boilerplate families), so the per-segment loop is fine here
    for st, sz in zip(starts2[~dup_sel].tolist(), sizes2[~dup_sel].tolist()):
        u = np.unique(ids[st: st + sz])
        if len(u) < 2:
            continue
        a = np.concatenate([np.full(len(u) - 1, u[0]), u[1:-1]])
        b = np.concatenate([u[1:], u[2:]])
        hot_a.append(np.minimum(a, b))
        hot_b.append(np.maximum(a, b))
    parts = []
    if ia_chunks:
        ia = np.concatenate(ia_chunks)
        ib = np.concatenate(ib_chunks)
        keep = ids[ia] != ids[ib]
        ia, ib = ia[keep], ib[keep]
        cols = {"doc_id_a": pa.array(ids[ia]), "doc_id_b": pa.array(ids[ib])}
        for c in carry_cols:
            cols[f"{c}_a"] = pa.array(carries[c][ia])
            cols[f"{c}_b"] = pa.array(carries[c][ib])
        parts.append(_finish_pairs(pa.table(cols), carry_cols, pair_filter, derive))
    if hot_a:
        t = pa.table({"a": pa.array(np.concatenate(hot_a)),
                      "b": pa.array(np.concatenate(hot_b))})
        for name in derive or {}:
            t = t.append_column(name, pa.nulls(len(t), pa.int64()))
        parts.append(t)
    if not parts:
        return _pairs_schema(derive)
    return pa.concat_tables(parts).combine_chunks()


def _explode_table(tbl: pa.Table, key_cols, cfg, carry_cols, pair_filter,
                   derive) -> pa.Table:
    """``key_pairs``' kernel: one lexsort of the key rows, then the
    size-batched ``_segment_explode``."""
    gk = _combined_key(tbl, key_cols)
    ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, gk))
    carries = {c: tbl[c].to_numpy(zero_copy_only=False)[order]
               for c in carry_cols}
    return _segment_explode(gk[order], ids[order], carries,
                            cfg.max_band_group, carry_cols, pair_filter,
                            derive)


def _numpy_dedup_pairs(t: pa.Table, min_cols: list[str]) -> pa.Table:
    """(a,b[,cols]) → one row per pair, in (a, b) order; Min per extra col,
    ignoring nulls (null where all of a pair's values are). Each col keeps
    its input type, so per-block outputs share one schema."""
    a = t["a"].to_numpy(zero_copy_only=False)
    b = t["b"].to_numpy(zero_copy_only=False)
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    brk = np.ones(len(a), dtype=bool)
    brk[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    seg = np.nonzero(brk)[0]
    cols = {"a": pa.array(a[seg]), "b": pa.array(b[seg])}
    for c in min_cols:
        col = t[c].combine_chunks() if isinstance(t[c], pa.ChunkedArray) \
            else t[c]
        valid = col.is_valid().to_numpy(zero_copy_only=False)[order]
        v = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)[order]
        mask = None
        if not valid.all():
            top = np.inf if v.dtype.kind == "f" else np.iinfo(v.dtype).max
            v = np.where(valid, v, top)
            mask = ~np.logical_or.reduceat(valid, seg)
        m = np.minimum.reduceat(v, seg) if len(seg) else v[:0]
        cols[c] = pa.array(m, type=col.type, mask=mask)
    return pa.table(cols)


def _combined_key(batch: pa.Table, key_cols: list[str]) -> np.ndarray:
    """Mix multiple key columns into one uint64 for membership tests.

    Single-column fast path: the column IS the key — identity is injective
    (strictly better than the lossy mix) and skips the splitmix temporaries,
    whose fresh multi-MB allocations this VM faults at ~100x cost (measured
    3.5 s over a 2.6M-row winnow table; the identity path is ~0.1 s)."""
    if len(key_cols) == 1:
        return (batch[key_cols[0]].to_numpy(zero_copy_only=False)
                .astype(np.int64, copy=False).view(np.uint64))
    acc = np.zeros(len(batch), dtype=np.uint64)
    for i, c in enumerate(key_cols):
        v = batch[c].to_numpy(zero_copy_only=False).astype(np.int64, copy=False).view(np.uint64)
        acc = splitmix64(acc ^ (v + np.uint64(0x9E37 + i)))
    return acc


def _collect_combined_keys(ds, key_cols: list[str]) -> np.ndarray:
    blocks = block_tables(ds) if is_pinned(ds) else ds.iter_batches(
        batch_size=1 << 20, batch_format="pyarrow")
    parts = [_combined_key(t, key_cols) for t in blocks if len(t)]
    return np.unique(np.concatenate(parts)) if parts else np.empty(0, np.uint64)


def _membership_filter(key_rows, key_cols, keys_arr: np.ndarray):
    """Rows whose combined key is in keys_arr (broadcast sorted-array isin)."""
    ref = ray.put(keys_arr)

    def _f(batch: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        if len(ks) == 0:
            return batch.slice(0, 0)
        k = _combined_key(batch, key_cols)
        idx = np.searchsorted(ks, k)
        idx = np.clip(idx, 0, len(ks) - 1)
        return batch.filter(pa.array(ks[idx] == k))

    return key_rows.map_batches(_f, batch_format="pyarrow")


def key_pairs(key_rows, key_cols: list[str], cfg: PipelineConfig,
              carry_cols: list[str] | None = None,
              pair_filter=None, derive=None, dedup: bool = True):
    """key rows (key..., doc_id [, carry…]) → unique candidate pairs (a, b).

    ``carry_cols`` are per-row columns made available to ``pair_filter`` /
    ``derive`` as ``<col>_a`` / ``<col>_b`` on the exploded pair table (e.g.
    SimHash values for the Hamming filter, winnow seed positions).
    ``pair_filter(table) -> table`` prunes pairs inline before the dedup.
    ``derive`` = {out_col: fn(pair_table) -> pa.Array} adds columns
    that survive dedup via Min (e.g. packed seed positions — Min of a packed
    value keeps a *consistent* tuple from one key row).

    One kernel (``_explode_table``) over key segments (``map_segments``):
    2..max_group rows explode to all pairs; hot keys (> max_group) emit
    star + chain and skip pair_filter/derive by design — giant groups are
    exact-ish duplicate families and the verify stage still scores every
    pair (null derive cols ⇒ the verifier finds alignments by its
    probe-gram lookup). Output in 4,096-row blocks (downstream verify
    parallelism).
    """
    carry_cols = carry_cols or []
    derive = derive or {}
    # key_rows feeds multiple consumers — pin blocks so the signature stage
    # runs once. Key rows are ~100x smaller than corpus text; spill is fine.
    if not is_pinned(key_rows):
        key_rows = key_rows.materialize()

    def _explode(t: pa.Table) -> pa.Table:
        return _explode_table(t, key_cols, cfg, carry_cols, pair_filter,
                              derive)

    if not dedup:
        # callers that verify per key-row (e.g. substring seed extension)
        # dedup AFTER their verify, keeping one row per shared key
        return map_segments(key_rows, key_cols, _explode, 4096)
    min_cols = list(derive)

    def _dedup(t: pa.Table) -> pa.Table:
        return _numpy_dedup_pairs(t, min_cols)

    # each table's explode dedups its own pairs, so only unique pairs
    # reach the (a, b) pass that dedups across tables
    pairs = map_segments(key_rows, key_cols, lambda t: _dedup(_explode(t)))
    return map_segments(pairs, ["a", "b"], _dedup, 4096)


def _finish_pairs(t: pa.Table, carry_cols, pair_filter, derive) -> pa.Table:
    a = t["doc_id_a"].to_numpy(zero_copy_only=False)
    b = t["doc_id_b"].to_numpy(zero_copy_only=False)
    swap = a > b
    if swap.any():
        # normalize order, swapping carried columns alongside
        cols = {"doc_id_a": pa.array(np.where(swap, b, a)),
                "doc_id_b": pa.array(np.where(swap, a, b))}
        for c in carry_cols:
            va = t[f"{c}_a"].to_numpy(zero_copy_only=False)
            vb = t[f"{c}_b"].to_numpy(zero_copy_only=False)
            cols[f"{c}_a"] = pa.array(np.where(swap, vb, va))
            cols[f"{c}_b"] = pa.array(np.where(swap, va, vb))
        t = pa.table(cols)
    if pair_filter is not None:
        t = pair_filter(t)
    cols = {"a": t["doc_id_a"], "b": t["doc_id_b"]}
    for name, fn in (derive or {}).items():
        cols[name] = fn(t)
    return pa.table(cols)


def _pairs_schema(derive) -> pa.Table:
    cols = {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
    for name in (derive or {}):
        cols[name] = pa.array([], pa.int64())
    return pa.table(cols)


def _collect_driver_table(mat, cols: list[str]) -> pa.Table | None:
    """Materialized Dataset → one driver pa.Table of ``cols``; None if empty.

    Empty blocks are dropped (they may be schema-less and break a concat).
    """
    tbls = [tb.select(cols) for tb in block_tables(mat)]
    if not tbls:
        return None
    return pa.concat_tables(tbls).combine_chunks()


def dedup_pairs(pairs, min_cols: list[str] | None = None):
    """Each (a,b) exactly once — verify-once semantics (min-edit merge ≙
    fuzzy_matcher_core.go:198-205 keeps one row per pair); Min per
    ``min_cols`` column. One lexsort segment pass over (a, b)
    (``map_segments``), output in 65,536-row blocks.
    """
    min_cols = min_cols or []
    return map_segments(pairs.materialize(), ["a", "b"],
                        lambda t: _numpy_dedup_pairs(t, min_cols), 65536)


def _count_table(t: pa.Table) -> pa.Table:
    """(a, b) rows → (a, b, hits): rows per pair, in (a, b) order."""
    a = t["a"].to_numpy(zero_copy_only=False)
    b = t["b"].to_numpy(zero_copy_only=False)
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    brk = np.ones(len(a), dtype=bool)
    brk[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    seg = np.nonzero(brk)[0]
    return pa.table({"a": pa.array(a[seg]), "b": pa.array(b[seg]),
                     "hits": pa.array(np.diff(np.append(seg, len(a))),
                                      pa.int64())})


def count_pairs(pairs):
    """Multi-rows (a,b) → (a, b, hits): band-agreement count per pair.

    ``hits`` = number of candidate keys (LSH bands / SimHash blocks) the
    pair collided in — the banding estimate of signature agreement, i.e. a
    monotone proxy for Jaccard. ≙ the count-based candidate priority of
    ``ComputeScore`` (utils.go:54-68: 0.4·Count-ratio + 0.6·similarity).
    Input must come from ``key_pairs(..., dedup=False)`` so multiplicity is
    still present. One lexsort count over (a, b) segments
    (``map_segments``), output in 65,536-row blocks.
    """
    return map_segments(pairs.materialize(), ["a", "b"], _count_table, 65536)


def _endpoint_rows(t: pa.Table) -> pa.Table:
    """(a, b, hits) → (doc, hits, a, b): each pair once per endpoint."""
    a = t["a"].to_numpy(zero_copy_only=False)
    b = t["b"].to_numpy(zero_copy_only=False)
    h = t["hits"].to_numpy(zero_copy_only=False)
    return pa.table({"doc": np.concatenate([a, b]), "hits": np.tile(h, 2),
                     "a": np.tile(a, 2), "b": np.tile(b, 2)})


def _top_per_doc(t: pa.Table, budget: int) -> pa.Table:
    """(doc, hits, a, b) → (a, b) of each doc's top-``budget`` rows, by
    hits desc then (a, b) asc."""
    doc = t["doc"].to_numpy(zero_copy_only=False)
    a = t["a"].to_numpy(zero_copy_only=False)
    b = t["b"].to_numpy(zero_copy_only=False)
    h = t["hits"].to_numpy(zero_copy_only=False)
    order = np.lexsort((b, a, -h, doc))
    doc_s = doc[order]
    brk = np.ones(len(doc_s), dtype=bool)
    brk[1:] = doc_s[1:] != doc_s[:-1]
    seg = np.nonzero(brk)[0]
    rank = np.arange(len(doc_s)) - np.repeat(seg, np.diff(
        np.append(seg, len(doc_s))))
    keep = order[rank < budget]
    return pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep])})


def _budget_pairs_numpy(a: np.ndarray, b: np.ndarray, h: np.ndarray,
                        budget: int) -> np.ndarray:
    """Core of ``budget_pairs``: (n,2) kept pairs in (a, b) order, pure
    numpy (testable)."""
    kept = _top_per_doc(_endpoint_rows(pa.table({"a": a, "b": b, "hits": h})),
                        budget)
    return np.unique(np.stack([kept["a"].to_numpy(), kept["b"].to_numpy()],
                              axis=1), axis=0)


def budget_pairs(pairs_hits, budget: int):
    """(a, b, hits) → (a, b): per-doc verify budget, ranked by ``hits``.

    Keeps a pair iff it ranks within the top-``budget`` pairs of EITHER
    endpoint, ordered by hits desc then (a, b) asc. The deterministic
    tie-break makes equal-similarity families keep their pair to the
    min-id member, so a family of exact-equal docs stays one connected
    component at any budget ≥ 1. ≙ MaxHeap best-first expansion under the
    MaxDepth budget (breadth_first_search.go:25-101): spend bounded
    verification work on the best-estimated candidates first.

    Shape: the 2x endpoint explode (``map_blocks``), the per-doc top-k
    over doc segments (``map_segments``), then ``dedup_pairs`` for pairs
    both endpoints keep.
    """
    from fuzzy_matcher_ray.stages.joins import map_blocks
    ends = map_blocks(pairs_hits.materialize(), _endpoint_rows,
                      out_rows=lambda d: 2 * d.count())
    return dedup_pairs(map_segments(ends, ["doc"],
                                    lambda t: _top_per_doc(t, budget)))
