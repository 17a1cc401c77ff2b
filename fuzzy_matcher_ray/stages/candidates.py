"""Candidate-pair generation from key rows, with explicit skew handling.

≙ reference candidate emission at trie terminals
(``utils.go:28-40`` ProcessNode → MatchCandidate): docs sharing an LSH key
become candidate pairs.

Structure (all shuffles are explicit hash exchanges):

1. ``groupby(key).count()`` — one shuffle over slim key rows — splits keys
   into singleton (dropped: no pair possible), duplicate (2..max_group), and
   hot (> max_group).
2. Rows on duplicate keys are selected by a membership filter (broadcast
   uint64 key set while it fits, hash semi-join beyond) and pair-exploded
   per group — group sizes are bounded by max_group so fan-out is bounded.
3. Hot groups (boilerplate/empty-page keys with millions of docs — the north
   rule's skew case) emit **star + chain** edges (2n-3 per group, vectorized,
   O(n)) instead of all pairs — connectivity-equivalent for clustering; the
   verify stage still scores every emitted pair.

Pair order is normalized (a < b) and pairs are deduped across keys with a
``groupby`` — ≙ visited-set dedup (``utils.go:70-77`` MakeKey).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.functions.shingle import splitmix64
from fuzzy_matcher_ray.stages.joins import block_tables, collect_table

import os as _os

# membership sets larger than this are not broadcast — the semi-join path
# (hash-partitioned) takes over. ~8 bytes/key ⇒ 160 MB ceiling.
BROADCAST_KEYS_MAX = 20_000_000

# duplicate-key row sets below this collect to the driver for the vectorized
# segment explode; beyond it the sort-based distributed explode runs. Slim
# key rows are ~24-32 B ⇒ 16M rows ≈ 512 MB driver RAM and a ~3 s serial
# lexsort+explode — measured far below the distributed path's cost at this
# size (each Ray groupby over ~2M rows costs ~18 s of fixed shuffle/agg
# overhead on one node; the distributed path pays two). Real 100 TB shards
# exceed the threshold and take the distributed path, where that cost
# parallelizes across nodes. Env-overridable so the scaling bench can force
# the cluster-shape (distributed) configuration on a small corpus
# (FMR_DRIVER_EXPLODE_MAX_ROWS=0 ⇒ every fast path takes its distributed
# twin, the exact code a 100 TB shard runs).
DRIVER_EXPLODE_MAX_ROWS = int(_os.environ.get(
    "FMR_DRIVER_EXPLODE_MAX_ROWS", 16_000_000))


def _segment_explode(gk: np.ndarray, ids: np.ndarray, carries: dict,
                     cap: int, carry_cols, pair_filter, derive,
                     skip_first_last: bool = False) -> pa.Table:
    """Vectorized all-pairs explode of key segments in (sorted) arrays.

    ``skip_first_last`` skips the first and last key value present (used by
    the per-block interior pass of the sorted distributed explode — those
    keys may continue in neighboring blocks and are handled separately).
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
    if skip_first_last:
        sel &= (gk[seg_starts] != gk[0]) & (gk[seg_starts] != gk[-1])
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


def _sorted_explode(dup_rows, key_cols, cfg, carry_cols, pair_filter, derive):
    """Distributed vectorized explode: global range sort on the combined key,
    then per-block segment explode — zero per-group Python calls.

    Keys whose rows may straddle block boundaries (each block's first/last
    key) are skipped in the per-block pass and re-exploded from a tiny
    collected side-set (≤ 2·max_group rows per block — dup keys are capped).
    """
    import ray.data as rd
    cap = cfg.max_band_group

    def _add_gk(t: pa.Table) -> pa.Table:
        return t.append_column("gk", pa.array(_combined_key(t, key_cols).view(np.int64)))

    sorted_ds = dup_rows.map_batches(_add_gk, batch_format="pyarrow").sort("gk")
    sorted_ds = sorted_ds.materialize()

    def _extract(t: pa.Table):
        gk = t["gk"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        carries = {c: t[c].to_numpy(zero_copy_only=False) for c in carry_cols}
        return gk, ids, carries

    def _interior(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return _pairs_schema(derive)
        gk, ids, carries = _extract(t)
        return _segment_explode(gk, ids, carries, cap, carry_cols,
                                pair_filter, derive, skip_first_last=True)

    interior = sorted_ds.map_batches(_interior, batch_format="pyarrow",
                                     batch_size=None, zero_copy_batch=True)

    def _boundary(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t
        gk = t["gk"].to_numpy(zero_copy_only=False)
        mask = (gk == gk[0]) | (gk == gk[-1])
        return t.filter(pa.array(mask))

    b_parts = list(sorted_ds.map_batches(_boundary, batch_format="pyarrow",
                                         batch_size=None)
                   .iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
    if b_parts:
        bt = pa.concat_tables(b_parts).combine_chunks()
        if len(bt):
            order = np.lexsort((bt["doc_id"].to_numpy(zero_copy_only=False),
                                bt["gk"].to_numpy(zero_copy_only=False)))
            bt = bt.take(pa.array(order))
            gk, ids, carries = _extract(bt)
            bpairs = _segment_explode(gk, ids, carries, cap, carry_cols,
                                      pair_filter, derive)
            if len(bpairs):
                interior = interior.union(rd.from_arrow(bpairs))
    return interior


def _driver_key_pairs(tbl: pa.Table, key_cols, cfg, carry_cols, pair_filter,
                      derive, dedup):
    """Single-pass numpy candidate generation for driver-resident key rows:
    one lexsort, then the same size-batched ``_segment_explode`` kernel the
    distributed sorted path runs per block."""
    import ray.data as rd
    gk = _combined_key(tbl, key_cols)
    ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
    carries = {c: tbl[c].to_numpy(zero_copy_only=False) for c in carry_cols}
    order = np.lexsort((ids, gk))
    gk, ids = gk[order], ids[order]
    carries = {c: v[order] for c, v in carries.items()}
    out = _segment_explode(gk, ids, carries, cfg.max_band_group, carry_cols,
                           pair_filter, derive)
    if len(out) == 0:
        return rd.from_arrow(_pairs_schema(derive))
    if dedup:
        out = _numpy_dedup_pairs(out, list(derive))
    chunk = 4096   # small blocks: downstream verify parallelism & batch dedup
    slices = [out.slice(lo, chunk) for lo in range(0, max(len(out), 1), chunk)]
    return rd.from_arrow(slices)


def _numpy_dedup_pairs(t: pa.Table, min_cols: list[str]) -> pa.Table:
    """(a,b[,cols]) → one row per pair; Min per extra col (nulls → ignored)."""
    a = t["a"].to_numpy(zero_copy_only=False)
    b = t["b"].to_numpy(zero_copy_only=False)
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    brk = np.empty(len(a), dtype=bool)
    if len(a) == 0:
        return t
    brk[0] = True
    brk[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    seg = np.nonzero(brk)[0]
    cols = {"a": pa.array(a[seg]), "b": pa.array(b[seg])}
    for c in min_cols:
        v = t[c].to_numpy(zero_copy_only=False)[order]
        # nulls arrive as masked → to_numpy gives float with nan; normalize
        if v.dtype.kind == "f":
            v = np.where(np.isnan(v), np.inf, v)
            m = np.minimum.reduceat(v, seg)
            cols[c] = pa.array(np.where(np.isinf(m), None, m).astype("float64"),
                               from_pandas=True)
        else:
            cols[c] = pa.array(np.minimum.reduceat(v, seg))
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


def _count_col(counts_ds) -> str:
    sch = counts_ds.schema()
    if sch is None:
        return "count()"
    return next((c for c in sch.names if c.startswith("count")), "count()")


def _collect_combined_keys(ds, key_cols: list[str]) -> np.ndarray:
    parts = [
        _combined_key(t, key_cols)
        for t in ds.iter_batches(batch_size=1 << 20, batch_format="pyarrow")
        if len(t)
    ]
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
    ``pair_filter(table) -> table`` prunes pairs inline before the dedup
    shuffle. ``derive`` = {out_col: fn(pair_table) -> pa.Array} adds columns
    that survive dedup via Min (e.g. packed seed positions — Min of a packed
    value keeps a *consistent* tuple from one key row).
    """
    carry_cols = carry_cols or []
    derive = derive or {}
    # key_rows feeds multiple consumers — pin blocks so the signature stage
    # runs once. Key rows are ~100x smaller than corpus text; spill is fine.
    key_rows = key_rows.materialize()
    n_rows = key_rows.count()
    if n_rows == 0:
        import ray.data as rd
        return rd.from_arrow(_pairs_schema(derive))

    if n_rows <= DRIVER_EXPLODE_MAX_ROWS:
        # FAST PATH: the whole key-row set fits on the driver (slim rows:
        # key + doc_id + carries ≈ 24-32 B/row ⇒ ≤160 MB). One collect, then
        # counts / dup-hot split / explode / star-chain / dedup all in a
        # single numpy pass — replaces 4 Ray executions whose fixed costs
        # dominate below ~10M rows. The distributed path below is the same
        # algorithm expressed in Dataset ops for beyond-driver scale.
        tbl = pa.concat_tables(list(key_rows.iter_batches(
            batch_size=1 << 20, batch_format="pyarrow")))
        return _driver_key_pairs(tbl, key_cols, cfg, carry_cols, pair_filter,
                                 derive, dedup)

    counts = key_rows.groupby(key_cols).count().materialize()
    ccol = _count_col(counts)
    dup_keys_ds = counts.map_batches(
        lambda t: t.filter(pc.and_(pc.greater(t[ccol], pa.scalar(1)),
                                   pc.less_equal(t[ccol], pa.scalar(cfg.max_band_group)))),
        batch_format="pyarrow").select_columns(key_cols)
    hot_keys_ds = counts.map_batches(
        lambda t: t.filter(pc.greater(t[ccol], pa.scalar(cfg.max_band_group))),
        batch_format="pyarrow").select_columns(key_cols)

    # dup keys: broadcast membership while it fits; beyond that a hash
    # semi-join on the key columns does the same selection at any scale.
    dup_arr = _collect_combined_keys(dup_keys_ds, key_cols)
    if len(dup_arr) <= BROADCAST_KEYS_MAX:
        dup_rows = _membership_filter(key_rows, key_cols, dup_arr)
    else:
        from fuzzy_matcher_ray.stages.joins import JOIN_AGG_ARGS, effective_partitions
        # groupby promotes narrow key dtypes (int8 band → int64) — cast the
        # key table back to the row schema or the join rejects the key types
        row_schema = {f.name: f.type
                      for f in key_rows.schema().base_schema}

        def _cast_keys(t: pa.Table) -> pa.Table:
            cols = {c: t[c].cast(row_schema[c]) if t.schema.field(c).type != row_schema[c]
                    else t[c] for c in key_cols}
            return pa.table(cols)

        dup_rows = key_rows.join(
            dup_keys_ds.map_batches(_cast_keys, batch_format="pyarrow"),
            "left_semi",
            effective_partitions(cfg.join_num_partitions),
            on=tuple(key_cols), aggregator_ray_remote_args=JOIN_AGG_ARGS)

    # Explode pairs per duplicate-key group. Two paths:
    # (a) dup rows fit on the driver → the fast path's own lexsort +
    #     segment explode (``_driver_key_pairs``; low fixed cost)
    # (b) beyond the threshold → SORT-BASED DISTRIBUTED explode: range sort
    #     on the key, vectorized per-block segment explode, boundary keys
    #     re-exploded from a tiny collected side set. Zero per-group Python
    #     calls — scales with CPUs, unlike groupby().map_groups (~1 ms/group
    #     of driver-side dispatch at 10^5+ groups).
    if dup_rows.count() <= DRIVER_EXPLODE_MAX_ROWS:
        dup_pairs_ds = _driver_key_pairs(collect_table(dup_rows), key_cols,
                                         cfg, carry_cols, pair_filter,
                                         derive, dedup=False)
    else:
        dup_pairs_ds = _sorted_explode(dup_rows, key_cols, cfg, carry_cols,
                                       pair_filter, derive)

    # hot path: star + chain per group (vectorized, O(n) per group); skips
    # pair_filter/derive by design — giant groups are exact-ish duplicate
    # families and the verify stage still scores every pair (null derive
    # cols ⇒ the verifier finds alignments by its probe-gram lookup).
    out = dup_pairs_ds
    hot_arr = _collect_combined_keys(hot_keys_ds, key_cols)
    if len(hot_arr) > 0:
        hot_rows = _membership_filter(key_rows, key_cols, hot_arr)

        def _star_chain(group: pa.Table) -> pa.Table:
            ids = np.unique(group["doc_id"].to_numpy(zero_copy_only=False))
            if len(ids) < 2:
                return _pairs_schema(derive)
            root = ids[0]
            a = np.concatenate([np.full(len(ids) - 1, root), ids[1:-1]])
            b = np.concatenate([ids[1:], ids[2:]])
            t = pa.table({"a": pa.array(np.minimum(a, b)),
                          "b": pa.array(np.maximum(a, b))})
            for name in derive:
                t = t.append_column(name, pa.nulls(len(t), pa.int64()))
            return t

        hot_pairs = hot_rows.groupby(key_cols).map_groups(
            _star_chain, batch_format="pyarrow")
        out = out.union(hot_pairs)
    if not dedup:
        # callers that verify per key-row (e.g. substring seed extension)
        # dedup AFTER their verify, keeping one row per shared key
        return out
    return dedup_pairs(out, list(derive))


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

    The shared collect idiom of the driver fast paths (dedup_pairs /
    count_pairs / budget_pairs) — keep guards/fixes here, in ONE place.
    """
    tbls = [tb.select(cols) for tb in block_tables(mat)]
    if not tbls:
        return None
    return pa.concat_tables(tbls).combine_chunks()


def _chunked_ds(out: pa.Table, chunk: int = 65536):
    """Driver table → Dataset in small blocks (downstream parallelism)."""
    import ray.data as rd
    return rd.from_arrow(
        [out.slice(lo, chunk) for lo in range(0, max(len(out), 1), chunk)])


def dedup_pairs(pairs, min_cols: list[str] | None = None, aggs=None):
    """Each (a,b) exactly once — verify-once semantics (min-edit merge ≙
    fuzzy_matcher_core.go:198-205 keeps one row per pair).

    ``aggs``: optional list of ray.data.aggregate.* instances replacing the
    default Min-per-column aggregation.

    Small pair sets (slim int64 rows below DRIVER_EXPLODE_MAX_ROWS) dedup
    in one driver lexsort — a Ray hash groupby costs ~15 s of fixed
    shuffle/agg overhead on this box regardless of size. The input is
    materialized first either way (the groupby would execute it too); real
    100 TB shards exceed the threshold and take the distributed groupby.
    """
    min_cols = min_cols or []
    if aggs:
        return pairs.groupby(["a", "b"]).aggregate(*aggs)
    mat = pairs.materialize()
    if mat.count() <= DRIVER_EXPLODE_MAX_ROWS:
        t = _collect_driver_table(mat, ["a", "b"] + min_cols)
        if t is None:       # empty pair set (duplicate-free corpus)
            return mat
        return _chunked_ds(_numpy_dedup_pairs(t, min_cols))
    if min_cols:
        from ray.data.aggregate import Min
        mins = [Min(c, alias_name=c, ignore_nulls=True) for c in min_cols]
        return mat.groupby(["a", "b"]).aggregate(*mins)
    counted = mat.groupby(["a", "b"]).count()
    return counted.select_columns(["a", "b"])


def count_pairs(pairs):
    """Multi-rows (a,b) → (a, b, hits): band-agreement count per pair.

    ``hits`` = number of candidate keys (LSH bands / SimHash blocks) the
    pair collided in — the banding estimate of signature agreement, i.e. a
    monotone proxy for Jaccard. ≙ the count-based candidate priority of
    ``ComputeScore`` (utils.go:54-68: 0.4·Count-ratio + 0.6·similarity).
    Input must come from ``key_pairs(..., dedup=False)`` so multiplicity is
    still present. Driver lexsort under DRIVER_EXPLODE_MAX_ROWS (slim int64
    rows), hash groupby beyond.
    """
    import ray.data as rd
    mat = pairs.materialize()
    if mat.count() <= DRIVER_EXPLODE_MAX_ROWS:
        t = _collect_driver_table(mat, ["a", "b"])
        if t is None:
            return rd.from_arrow(pa.table({
                "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                "hits": pa.array([], pa.int64())}))
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        brk = np.empty(len(a), dtype=bool)
        brk[0] = True
        brk[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        seg = np.nonzero(brk)[0]
        hits = np.diff(np.append(seg, len(a)))
        return _chunked_ds(pa.table({
            "a": pa.array(a[seg]), "b": pa.array(b[seg]),
            "hits": pa.array(hits.astype("int64"))}))
    counted = mat.groupby(["a", "b"]).count()
    ccol = _count_col(counted)
    return counted.map_batches(
        lambda t: pa.table({"a": t["a"], "b": t["b"],
                            "hits": pc.cast(t[ccol], pa.int64())}),
        batch_format="pyarrow")


def _budget_pairs_numpy(a: np.ndarray, b: np.ndarray, h: np.ndarray,
                        budget: int) -> np.ndarray:
    """Core of ``budget_pairs``: (n,2) kept pairs, pure numpy (testable)."""
    idx = np.arange(len(a))
    doc = np.concatenate([a, b])
    h2 = np.concatenate([h, h])
    a2 = np.concatenate([a, a])
    b2 = np.concatenate([b, b])
    pid = np.concatenate([idx, idx])
    order = np.lexsort((b2, a2, -h2, doc))
    doc_s = doc[order]
    brk = np.empty(len(doc_s), dtype=bool)
    brk[0] = True
    brk[1:] = doc_s[1:] != doc_s[:-1]
    seg = np.nonzero(brk)[0]
    sizes = np.diff(np.append(seg, len(doc_s)))
    rank = np.arange(len(doc_s)) - np.repeat(seg, sizes)
    keep = np.zeros(len(a), dtype=bool)
    keep[pid[order][rank < budget]] = True
    return np.stack([a[keep], b[keep]], axis=1)


def budget_pairs(pairs_hits, budget: int):
    """(a, b, hits) → (a, b): per-doc verify budget, ranked by ``hits``.

    Keeps a pair iff it ranks within the top-``budget`` pairs of EITHER
    endpoint, ordered by hits desc then (a, b) asc. The deterministic
    tie-break makes equal-similarity families keep their pair to the
    min-id member, so a family of exact-equal docs stays one connected
    component at any budget ≥ 1. ≙ MaxHeap best-first expansion under the
    MaxDepth budget (breadth_first_search.go:25-101): spend bounded
    verification work on the best-estimated candidates first.

    Scale shape: driver numpy under DRIVER_EXPLODE_MAX_ROWS; beyond that a
    2x endpoint explode + ``groupby(doc).map_groups`` top-k over the slim
    (doc, hits, a, b) table. Partitioning assumption for the distributed
    path: one doc's candidate pairs fit in a group block (bounded by
    bands × max_band_group ≪ block size).
    """
    import ray.data as rd
    mat = pairs_hits.materialize()
    n = mat.count()
    if n == 0:
        return mat.map_batches(lambda t: t.select(["a", "b"]),
                               batch_format="pyarrow")
    if n <= DRIVER_EXPLODE_MAX_ROWS:
        t = _collect_driver_table(mat, ["a", "b", "hits"])
        kept = _budget_pairs_numpy(
            t["a"].to_numpy(zero_copy_only=False),
            t["b"].to_numpy(zero_copy_only=False),
            t["hits"].to_numpy(zero_copy_only=False), budget)
        return _chunked_ds(pa.table({"a": pa.array(kept[:, 0]),
                                     "b": pa.array(kept[:, 1])}))

    def _explode(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc": pa.concat_arrays([t["a"].combine_chunks(),
                                     t["b"].combine_chunks()]),
            "hits": pa.concat_arrays([t["hits"].combine_chunks()] * 2),
            "a": pa.concat_arrays([t["a"].combine_chunks()] * 2),
            "b": pa.concat_arrays([t["b"].combine_chunks()] * 2)})

    def _topk(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(group, sort_keys=[
            ("hits", "descending"), ("a", "ascending"), ("b", "ascending")])
        return group.take(order[:budget]).select(["a", "b"])

    kept = (mat.map_batches(_explode, batch_format="pyarrow")
            .groupby("doc").map_groups(_topk, batch_format="pyarrow"))
    return dedup_pairs(kept)
