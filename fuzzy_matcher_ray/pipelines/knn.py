"""Embedding similarity search over the ``embeddings`` table.

- ``knn_topk``: brute-force cosine top-k — the baseline ANN path: the small
  query matrix is broadcast once (``ray.put``), every batch does one numpy
  matmul against it and emits only its OWN top-k rows per query (k·nq rows
  per batch, selected under the exact final total order), so the global
  merge shuffles k·nq·n_batches rows instead of the full scored table.
- ``nearest_neighbor``: per-vector argmax neighbor (embedding-cosine near-dup
  surface: pairs above a cosine threshold = near-dup edges); per-batch
  partial argmax, tiny global merge.
- ``knn_topk_ivf``: the scale path — deterministic random-hyperplane LSH
  buckets as a SHUFFLE KEY: data vectors are filtered to the queries' probed
  buckets (multi-probe, Hamming ≤ 1), co-located by ``groupby(bucket)``, and
  scored per bucket against only that bucket's queries. At 10^12-vector
  scale each vector is scored against the queries sharing its bucket — not
  every query per batch — and non-probed vectors never enter the shuffle.
  Recall < 1 by design (see tests/test_knn.py recall gate).

Every per-query (and per-vector) merge of the partials is one
``stages/ranks.grouped_topk`` by (cosine desc, id asc).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from fuzzy_matcher_ray.stages import gates
from fuzzy_matcher_ray.stages.joins import (as_dataset, map_blocks,
                                            pinned_bytes, sort_rows)
from fuzzy_matcher_ray.stages.ranks import grouped_topk

_EMPTY_SCORED = pa.table({"query_id": pa.array([], pa.int64()),
                          "neighbor_id": pa.array([], pa.int64()),
                          "cosine": pa.array([], pa.float64())})


def _read(sf_dir: str):
    return rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"])


def _batch_matrix(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    emb = t["embedding"]
    if isinstance(emb, pa.ChunkedArray):
        emb = emb.combine_chunks()
    flat = emb.values.to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(flat) // max(1, len(ids))
    return ids, flat.reshape(len(ids), dim)


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _round6(x: np.ndarray) -> np.ndarray:
    return np.floor(x * 1e6 + 0.5) / 1e6


def _partial_topk(qi: np.ndarray, ids: np.ndarray, sims: np.ndarray,
                  k: int) -> pa.Table:
    """Per-batch top-k rows per query under the FINAL total order
    (rounded cosine desc, neighbor_id asc) — selection before rounding could
    drop a row that ties at the k-th place after rounding."""
    nb, nq = sims.shape
    # micro-cosine as an exact integer: round BEFORE the int cast —
    # `(_round6(x) * 1e6).astype(int64)` truncates ~1% of values one
    # integer low (0.256918*1e6 = 256917.999...), creating false ties
    # whose id tie-break can drop a true top-k row at the batch cut
    c_int = np.floor(sims * 1e6 + 0.5).astype(np.int64)    # exact ints ±1e6
    id_rank = np.empty(nb, dtype=np.int64)
    id_rank[np.argsort(ids, kind="stable")] = np.arange(nb)
    # ascending composite == (cosine desc, neighbor_id asc)
    comp = ((np.int64(1 << 21) - c_int) << 32) | id_rank[:, None]
    kk = min(k, nb)
    sel = np.argsort(comp, axis=0, kind="stable")[:kk]     # (kk, nq)
    rows = sel.T.reshape(-1)                               # query-major
    return pa.table({
        "query_id": pa.array(np.repeat(qi, kk)),
        "neighbor_id": pa.array(ids[rows]),
        "cosine": pa.array(_round6(sims[rows, np.repeat(np.arange(nq), kk)])),
    })


def _merge_topk(scored, k: int):
    """Global merge of the (tiny) per-batch partial top-k tables: one
    ``grouped_topk`` on query_id by (cosine desc, neighbor_id asc), sorted
    on the driver while it is driver blocks (``joins.sort_rows``)."""
    out = grouped_topk(scored, "query_id", "cosine", "neighbor_id", k,
                       empty_schema=_EMPTY_SCORED.schema)
    return as_dataset(sort_rows(out, ["query_id", "cosine", "neighbor_id"],
                                descending=[False, True, False]))


def knn_topk(sf_dir: str, n_queries: int = 5, k: int = 5):
    """Top-k cosine neighbors for query vectors (vec_id < n_queries) among
    the rest. Returns (query_id, neighbor_id, cosine rounded 6dp) sorted by
    (query_id, -cosine, neighbor_id)."""
    ds = _read(sf_dir)
    q_tbl = ds.filter(expr=f"vec_id < {n_queries}").to_pandas()
    q_ids = q_tbl["vec_id"].to_numpy()
    q_mat = _normalize_rows(np.stack(q_tbl["embedding"].to_numpy()).astype(np.float64))
    ref = ray.put((q_ids, q_mat))

    def _score(t: pa.Table) -> pa.Table:
        qi, qm = ray.get(ref)
        ids, m = _batch_matrix(t)
        keep = ids >= n_queries
        ids, m = ids[keep], m[keep]
        if len(ids) == 0:
            return _EMPTY_SCORED
        sims = _normalize_rows(m) @ qm.T                       # (batch, nq)
        return _partial_topk(qi, ids, sims, k)

    return _merge_topk(ds.map_batches(_score, batch_format="pyarrow"), k)


def nearest_neighbor(sf_dir: str, limit_ids: int = 200):
    """(vec_id, nn_id) — argmax-cosine neighbor for each vec_id < limit_ids.

    O(n·m) brute force via per-batch matmul against a broadcast probe matrix;
    per-batch partial argmax (one row per probe per batch), tiny global
    merge; ties broken by smaller nn_id (deterministic).
    """
    ds = _read(sf_dir)
    probes = ds.filter(expr=f"vec_id < {limit_ids}").to_pandas()
    p_ids = probes["vec_id"].to_numpy()
    p_mat = _normalize_rows(np.stack(probes["embedding"].to_numpy()).astype(np.float64))
    ref = ray.put((p_ids, p_mat))

    def _score(t: pa.Table) -> pa.Table:
        pi, pm = ray.get(ref)
        ids, m = _batch_matrix(t)
        sims = pm @ _normalize_rows(m).T                       # (np, batch)
        # per probe: best in this batch (exclude self); ties → smaller cand_id
        self_mask = pi[:, None] == ids[None, :]
        sims = np.where(self_mask, -2.0, sims)
        order = np.argsort(ids, kind="stable")
        sims_o = sims[:, order]
        best = np.argmax(np.round(sims_o, 9), axis=1)
        return pa.table({
            "vec_id": pa.array(pi),
            "cand_id": pa.array(ids[order][best]),
            "cosine": pa.array(np.round(sims_o[np.arange(len(pi)), best], 9)),
        })

    partials = ds.map_batches(_score, batch_format="pyarrow")
    best = grouped_topk(partials, "vec_id", "cosine", "cand_id", 1,
                        empty_schema=pa.schema([
                            ("vec_id", pa.int64()), ("cand_id", pa.int64()),
                            ("cosine", pa.float64())]))
    best = map_blocks(best, lambda t: pa.table(
        {"vec_id": t["vec_id"], "nn_id": t["cand_id"]}))
    return as_dataset(sort_rows(best, "vec_id"))


def embedding_dup_pairs(sf_dir: str, threshold: float = 0.4):
    """Embedding-cosine near-dup pairs: (a, b, cosine) for all vector pairs
    with rounded cosine >= threshold, a < b.

    Exact all-pairs via per-batch matmul against the broadcast normalized
    matrix — the correctness anchor (DuckDB-oracle-checked). At web scale
    the LSH-bucketed candidates (knn_topk_ivf's bucket shuffle) replace the
    broadcast; this table is the small side by construction here.
    """
    ds = _read(sf_dir)
    full = ds.to_pandas()
    ids_all = full["vec_id"].to_numpy()
    mat_all = _normalize_rows(np.stack(full["embedding"].to_numpy()).astype(np.float64))
    ref = ray.put((ids_all, mat_all))

    def _pairs(t: pa.Table) -> pa.Table:
        ai, am = ray.get(ref)
        ids, m = _batch_matrix(t)
        if len(ids) == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        sims = _round6(_normalize_rows(m) @ am.T)              # (batch, all)
        keep = (sims >= threshold) & (ids[:, None] < ai[None, :])
        bi, ci = np.nonzero(keep)
        return pa.table({"a": pa.array(ids[bi]),
                         "b": pa.array(ai[ci]),
                         "cosine": pa.array(sims[bi, ci])})

    return ds.map_batches(_pairs, batch_format="pyarrow").sort(["a", "b"])


def _clusters_from_pair_graph(sf_dir: str, edges):
    """Shared tail of the embedding cluster ops: union-find over an
    (a, b) edge Dataset, every vec_id appears once (singletons keep
    their own id — same contract as the text dedup flagship)."""
    from fuzzy_matcher_ray.config import PipelineConfig
    from fuzzy_matcher_ray.stages.cluster import cluster_edges
    nodes = _read(sf_dir).map_batches(
        lambda t: pa.table({"doc_id": t["vec_id"]}), batch_format="pyarrow")
    out = cluster_edges(edges, nodes, PipelineConfig())
    return out.map_batches(
        lambda t: pa.table({"vec_id": t["doc_id"],
                            "cluster_id": t["cluster_id"]}),
        batch_format="pyarrow").sort("vec_id")


def embedding_dup_clusters(sf_dir: str, threshold: float = 0.4):
    """Embedding-cosine near-dup CLUSTERS: connected components over the
    >= threshold exact pair graph."""
    return _clusters_from_pair_graph(
        sf_dir,
        embedding_dup_pairs(sf_dir, threshold).select_columns(["a", "b"]))


def _bucket_of(sig: np.ndarray) -> np.ndarray:
    """Bit-pack sign rows (n, bits) → bucket ids (n,) int64."""
    weights = (1 << np.arange(sig.shape[1], dtype=np.int64))[::-1]
    return sig.astype(np.int64) @ weights


def _auto_bits(n_rows: int) -> int:
    """Derived IVF bucket bits: ~16k-row buckets, clamped to [2, 20]."""
    return int(np.clip(np.ceil(np.log2(max(n_rows, 1) / 16384.0)), 2, 20))


def knn_topk_ivf(sf_dir: str, n_queries: int = 5, k: int = 5,
                 bits: int | None = None, seed: int = 7):
    """LSH-bucketed ANN with the bucket as the SHUFFLE key.

    1. Queries hash to sign buckets; multi-probe expands each query to its
       bucket plus all Hamming-distance-1 buckets (bits+1 probes/query).
    2. The data pass keeps only vectors whose bucket is probed by some query
       and emits (bucket, vec_id, embedding) rows — non-candidate vectors
       never enter the shuffle.
    3. ``groupby(bucket)`` co-locates each bucket; the per-group kernel
       scores the group's matrix against ONLY the queries probing that
       bucket and emits per-(query, bucket) partial top-k.
    4. A tiny global merge reduces the per-bucket partials.

    ``bits`` controls the bucket count (2^bits). The default (None)
    DERIVES it from the corpus row count — ceil(log2(n / 16384)) clamped
    to [2, 20], i.e. ~16k-row buckets — so the demo default is no longer
    a fixed 4-bucket skew hazard at scale: a 10^9-vector corpus gets 2^16
    buckets automatically. Pass ``bits`` explicitly to pin it; small
    bucket counts still warn (multi-probe recall is the trade the other
    way: more buckets = fewer probed candidates per query).
    """
    import logging
    ds = _read(sf_dir)
    if bits is None:
        bits = _auto_bits(ds.count())
    if bits <= 4:
        logging.getLogger(__name__).warning(
            "knn_topk_ivf: 2^%d = %d buckets is demo-scale; at real corpus "
            "sizes raise `bits` or the bucket groupby skews onto %d reducers",
            bits, 1 << bits, 1 << bits)
    q_tbl = ds.filter(expr=f"vec_id < {n_queries}").to_pandas()
    q_ids = q_tbl["vec_id"].to_numpy()
    q_mat = _normalize_rows(np.stack(q_tbl["embedding"].to_numpy()).astype(np.float64))
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((q_mat.shape[1], bits))
    q_sig = (q_mat @ planes > 0).astype(np.uint8)              # (nq, bits)
    # multi-probe: own bucket + every Hamming-1 bucket
    q_buckets = _bucket_of(q_sig)                              # (nq,)
    flips = np.eye(bits, dtype=np.uint8)
    probe_buckets = [q_buckets]
    for f in flips:
        probe_buckets.append(_bucket_of(q_sig ^ f[None, :]))
    probes = np.stack(probe_buckets, axis=1)                   # (nq, bits+1)
    # bucket → indices of queries probing it
    bucket_queries: dict[int, np.ndarray] = {}
    for b in np.unique(probes):
        mask = (probes == b).any(axis=1)
        bucket_queries[int(b)] = np.nonzero(mask)[0]
    probed = np.array(sorted(bucket_queries), dtype=np.int64)
    ref = ray.put((q_ids, q_mat, planes, bucket_queries))

    def _keyed(t: pa.Table) -> pa.Table:
        _, _, pl, _ = ray.get(ref)
        ids, m = _batch_matrix(t)
        keep = ids >= n_queries
        ids, m = ids[keep], m[keep]
        dim = m.shape[1] if len(ids) else q_mat.shape[1]
        if len(ids) == 0:
            return pa.table({
                "bucket": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array([], pa.float64()), dim)})
        mn = _normalize_rows(m)
        buckets = _bucket_of((mn @ pl > 0).astype(np.uint8))
        sel = np.isin(buckets, probed)      # prune before the shuffle
        mn, ids, buckets = mn[sel], ids[sel], buckets[sel]
        return pa.table({
            "bucket": pa.array(buckets),
            "vec_id": pa.array(ids),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mn.reshape(-1)), mn.shape[1]),
        })

    keyed = ds.map_batches(_keyed, batch_format="pyarrow")

    def _score_bucket(g: pa.Table) -> pa.Table:
        qi, qm, _, bq = ray.get(ref)
        bucket = int(g["bucket"][0].as_py())
        q_idx = bq.get(bucket)
        if q_idx is None or len(g) == 0:
            return _EMPTY_SCORED
        ids, m = _batch_matrix(g.select(["vec_id", "embedding"]))
        sims = m @ qm[q_idx].T                                 # (group, nq_b)
        return _partial_topk(qi[q_idx], ids, sims, k)

    # map_groups, not joins.map_segments: one bucket is a large share of
    # the corpus and carries its embeddings, and map_segments gathers every
    # key that spans a block edge onto the driver
    scored = keyed.groupby("bucket").map_groups(_score_bucket,
                                                batch_format="pyarrow")
    return _merge_topk(scored, k)


def knn_topk_ivf_kmeans(sf_dir: str, n_queries: int = 5, k: int = 5,
                        n_cells: int = 16, nprobe: int = 4, iters: int = 4,
                        seed: int = 7):
    """IVF-Flat ANN: the coarse quantizer is a TRAINED k-means codebook
    (``pipelines/semantic.kmeans_fit`` — distributed Lloyd, order-free
    fixed point) instead of ``knn_topk_ivf``'s data-independent hyperplane
    buckets. Cells adapt to the data distribution, so cell populations stay
    balanced where SRP buckets skew, and ``n_cells`` / ``nprobe`` tune the
    recall/cost point directly (the classic IVF knobs). Each query probes
    its ``nprobe`` nearest cells; the cell is the SHUFFLE key
    (``groupby(cell)``), and non-probed vectors never enter the shuffle.
    Approximation is candidate pruning only — every returned cosine is the
    exact brute-force value (recall gate in tests/test_knn.py)."""
    from fuzzy_matcher_ray.pipelines.semantic import _fp_rows, kmeans_fit

    ds = _read(sf_dir)
    c_fp = kmeans_fit(ds, k=n_cells, iters=iters, seed=seed)
    q_tbl = ds.filter(expr=f"vec_id < {n_queries}").to_pandas()
    q_ids = q_tbl["vec_id"].to_numpy()
    q_raw = np.stack(q_tbl["embedding"].to_numpy()).astype(np.float64)
    q_mat = _normalize_rows(q_raw)
    # per-query nprobe nearest cells by exact int dot (stable → determinist)
    dots = _fp_rows(q_raw) @ c_fp.T                            # (nq, cells)
    nprobe = min(nprobe, c_fp.shape[0])
    probes = np.argsort(-dots, axis=1, kind="stable")[:, :nprobe]
    cell_queries = {int(c): np.nonzero((probes == c).any(axis=1))[0]
                    for c in np.unique(probes)}
    probed = np.array(sorted(cell_queries), dtype=np.int64)
    ref = ray.put((q_ids, q_mat, c_fp, cell_queries, probed))

    def _keyed(t: pa.Table) -> pa.Table:
        _, _, cents, _, prb = ray.get(ref)
        ids, m = _batch_matrix(t)
        keep = ids >= n_queries
        ids, m = ids[keep], m[keep]
        dim = m.shape[1] if len(ids) else q_mat.shape[1]
        if len(ids) == 0:
            return pa.table({
                "cell": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array([], pa.float64()), dim)})
        mn = _normalize_rows(m)
        cells = np.argmax(_fp_rows(m) @ cents.T, axis=1).astype(np.int64)
        sel = np.isin(cells, prb)           # prune before the shuffle
        mn, ids, cells = mn[sel], ids[sel], cells[sel]
        return pa.table({
            "cell": pa.array(cells),
            "vec_id": pa.array(ids),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mn.reshape(-1)), mn.shape[1]),
        })

    keyed = ds.map_batches(_keyed, batch_format="pyarrow")

    def _score_cell(g: pa.Table) -> pa.Table:
        qi, qm, _, cq, _ = ray.get(ref)
        cell = int(g["cell"][0].as_py())
        q_idx = cq.get(cell)
        if q_idx is None or len(g) == 0:
            return _EMPTY_SCORED
        ids, m = _batch_matrix(g.select(["vec_id", "embedding"]))
        sims = m @ qm[q_idx].T                                 # (group, nq_c)
        return _partial_topk(qi[q_idx], ids, sims, k)

    # map_groups, not joins.map_segments: one k-means cell is a large
    # share of the corpus and carries its embeddings (see knn_topk_ivf)
    scored = keyed.groupby("cell").map_groups(_score_cell,
                                              batch_format="pyarrow")
    return _merge_topk(scored, k)


_EMPTY_PAIRS = pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64()),
                         "cosine": pa.array([], pa.float64())})


class _SRPBucketer:
    """SRP bucketing, one stateless instance shipped to every task: the
    seeded hyperplane tensor is built on a task's first batch (which fixes
    the embedding dim), deterministic per (seed, dim), so the output is
    independent of batch routing. The rebuild is ``n_tables·dim·n_bits``
    normal draws: 40-60 us at the defaults and dim 32 (the LSH test
    fixture's), against seconds of actor-pool spin-up (BASELINE.md)."""

    def __init__(self, seed: int, n_tables: int, n_bits: int):
        self.seed = seed
        self.n_tables = n_tables
        self.n_bits = n_bits
        self.weights = (1 << np.arange(n_bits, dtype=np.int64))
        self.planes: np.ndarray | None = None

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, m = _batch_matrix(t)
        if len(ids) == 0:
            return pa.table({"table": pa.array([], pa.int8()),
                             "bucket": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64())})
        if self.planes is None or self.planes.shape[1] != m.shape[1]:
            self.planes = np.random.default_rng(self.seed).standard_normal(
                (self.n_tables, m.shape[1], self.n_bits))
        mn = _normalize_rows(m)
        tables, buckets, docs = [], [], []
        for ti in range(self.n_tables):
            bits = (mn @ self.planes[ti]) >= 0.0           # (n, bits) signs
            buckets.append(bits.astype(np.int64) @ self.weights)
            tables.append(np.full(len(ids), ti, np.int8))
            docs.append(ids.astype(np.int64))
        return pa.table({"table": pa.array(np.concatenate(tables)),
                         "bucket": pa.array(np.concatenate(buckets)),
                         "doc_id": pa.array(np.concatenate(docs))})


def embedding_dup_pairs_lsh(sf_dir: str, threshold: float = 0.9,
                            n_bits: int = 8, n_tables: int = 12,
                            seed: int = 0xE5D, _sorted: bool = True,
                            verify_strategy: str = "auto"):
    """Embedding near-dup pairs at scale: signed-random-projection LSH.

    The bucketed scale path for ``embedding_dup_pairs`` (whose broadcast
    all-pairs matmul is the exact small-scale anchor). Per Charikar SRP:
    each of ``n_tables`` tables hashes a vector to the ``n_bits`` sign bits
    of seeded random hyperplane projections; same-(table, bucket) vectors
    become candidate pairs via the shared skew-capped pair machinery
    (``key_pairs``), then every candidate is verified by exact cosine
    >= ``threshold``. Precision 1.0 (exact verify); recall is the SRP
    collision curve 1-(1-p^bits)^tables with p = 1 - angle/pi — defaults
    give >= 0.98 expected recall at cosine 0.9 (recall gate in
    tests/test_knn.py).

    Scale shape: hyperplanes are seeded constants rebuilt per worker from
    (seed, dim) — never broadcast; bucket rows are slim (table:int8,
    bucket:int64, vec_id). ``verify_strategy`` picks how the verify stage
    gets its vectors: ``"broadcast"`` ships the normalized matrix once via
    ``ray.put`` (small side); ``"join"`` attaches both vectors onto the
    pairs by id (``stages/joins.keyed_join`` — nothing
    whole-dataset ever reaches the driver); ``"auto"`` broadcasts while
    gate "vectors" keeps the read's bytes within the broadcast budget.
    Both paths are byte-identical (tests/test_knn.py parity test).
    """
    from dataclasses import replace

    from fuzzy_matcher_ray.config import PipelineConfig
    from fuzzy_matcher_ray.stages.candidates import key_pairs

    ds = _read(sf_dir)
    if verify_strategy == "auto":    # the read's estimate: no data scan
        ds, n = pinned_bytes(ds)
        verify_strategy = gates.decide("vectors", n)
    rows = ds.map_batches(_SRPBucketer(seed, n_tables, n_bits),
                          batch_format="pyarrow")
    # the SRP recall model assumes EVERY within-bucket pair is emitted —
    # the star+chain hot-group cap would silently drop pairs with no
    # union-find downstream to restore connectivity. Skew control here is
    # n_bits (more bits → smaller buckets), not the cap.
    pairs = key_pairs(rows, ["table", "bucket"],
                      replace(PipelineConfig(), max_band_group=1 << 30))

    if verify_strategy == "join":
        verified = _verify_pairs_join(pairs, ds, threshold)
    else:
        verified = _verify_pairs_broadcast(pairs, ds, threshold)
    # the sort is presentation for the query surface; callers that feed
    # union-find (embedding_dup_clusters_lsh) skip it
    return verified if not _sorted else verified.sort(["a", "b"])


def _verify_pairs_broadcast(pairs, ds, threshold: float):
    """Exact-cosine verify, small-side shape: the normalized matrix ships
    once (``ray.put``), pairs stay 16 B/row, per-batch searchsorted gather."""
    full = ds.to_pandas()
    ids_all = full["vec_id"].to_numpy().astype(np.int64)
    mat_all = _normalize_rows(
        np.stack(full["embedding"].to_numpy()).astype(np.float64))
    order = np.argsort(ids_all)
    ref = ray.put((ids_all[order], mat_all[order]))

    def _verify(t: pa.Table) -> pa.Table:
        ai, am = ray.get(ref)
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        if len(a) == 0:
            return _EMPTY_PAIRS
        va = am[np.searchsorted(ai, a)]
        vb = am[np.searchsorted(ai, b)]
        cos = _round6(np.einsum("ij,ij->i", va, vb))
        keep = cos >= threshold
        return pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep]),
                         "cosine": pa.array(cos[keep])})

    return pairs.map_batches(_verify, batch_format="pyarrow")


class _VecsAsBytes:
    """(vec_id, <col>: binary) — the embedding row as raw float64 bytes,
    so vectors travel the join as one fixed-width binary column (one
    vectorized buffer build, no per-row Python)."""

    def __init__(self, col: str):
        self.col = col

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, m = _batch_matrix(t)
        m = np.ascontiguousarray(m)
        w = m.shape[1] * 8 if len(ids) else 0
        offsets = pa.array((np.arange(len(ids) + 1, dtype=np.int64) * w)
                           .astype(np.int32))
        vec = pa.Array.from_buffers(
            pa.binary(), len(ids),
            [None, offsets.buffers()[1], pa.py_buffer(m.tobytes())])
        return pa.table({"vec_id": pa.array(ids.astype(np.int64)),
                         self.col: vec})


def _bytes_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Inverse of ``_vecs_as_bytes``: binary column → (n, dim) float64,
    offset-safe vectorized gather (join output offsets may be non-trivial)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    from fuzzy_matcher_ray.functions.shingle import string_buffer
    data, offsets = string_buffer(col)
    n = len(col)
    if n == 0:
        return np.empty((0, 0))
    w = int(offsets[1] - offsets[0])
    idx = offsets[:-1][:, None] + np.arange(w, dtype=np.int64)[None, :]
    return np.ascontiguousarray(data[idx]).view(np.float64)


def _verify_pairs_join(pairs, ds, threshold: float):
    """Exact-cosine verify, scale shape: both vectors attached onto the
    pairs by id (two ``joins.keyed_join`` — the attach_pair_texts
    pattern, stages/verify.py), then a per-batch normalized einsum. The
    embeddings Dataset streams into the join; the driver never holds the
    matrix. Byte-identical to the broadcast path (row normalization and the
    pair dot product are row-local float64 ops on the same values)."""
    from fuzzy_matcher_ray.stages.joins import keyed_join
    pairs = pairs.materialize()
    if pairs.count() == 0:
        return rd.from_arrow(_EMPTY_PAIRS)
    for side in ("a", "b"):
        vecs = ds.map_batches(_VecsAsBytes(f"vec_{side}"),
                              batch_format="pyarrow")
        pairs = keyed_join(pairs, vecs, [side], ["vec_id"],
                           {f"vec_{side}": f"vec_{side}"}, "inner")

    def _verify(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return _EMPTY_PAIRS
        va = _normalize_rows(_bytes_matrix(t["vec_a"]))
        vb = _normalize_rows(_bytes_matrix(t["vec_b"]))
        cos = _round6(np.einsum("ij,ij->i", va, vb))
        keep = cos >= threshold
        return pa.table({
            "a": pc_take_np(t["a"], keep), "b": pc_take_np(t["b"], keep),
            "cosine": pa.array(cos[keep])})

    return pairs.map_batches(_verify, batch_format="pyarrow")


def pc_take_np(col, mask: np.ndarray) -> pa.Array:
    """int64 column filtered by a numpy bool mask, null-safe."""
    return pa.array(col.to_numpy(zero_copy_only=False)[mask], pa.int64())


def embedding_dup_clusters_lsh(sf_dir: str, threshold: float = 0.9,
                               n_bits: int = 8, n_tables: int = 12,
                               seed: int = 0xE5D,
                               verify_strategy: str = "auto"):
    """Connected components over the SRP-LSH pair graph — the scale-path
    composition of ``embedding_dup_pairs_lsh`` + the shared union-find
    clustering; same output contract as ``embedding_dup_clusters``.
    Skips the pair list's presentation sort (union-find is order-free)."""
    edges = embedding_dup_pairs_lsh(sf_dir, threshold, n_bits, n_tables,
                                    seed, _sorted=False,
                                    verify_strategy=verify_strategy) \
        .select_columns(["a", "b"])
    return _clusters_from_pair_graph(sf_dir, edges)


def _sq8_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-vector int8 quantization of the row-normalized
    matrix: scale = max|x|/127 (float64, per row — batch-shape-free),
    q = rint(x/scale) ∈ [-127, 127]. Zero vectors get scale 0, q 0."""
    mn = _normalize_rows(m)
    scale = np.abs(mn).max(axis=1) / 127.0
    safe = np.where(scale == 0, 1.0, scale)
    q = np.rint(mn / safe[:, None]).astype(np.int8)
    return q, scale


def quantize_embeddings(sf_dir: str):
    """(vec_id, q list<int8>, scale) — int8 scalar quantization of the
    normalized embeddings: the 4×-smaller storage/shuffle representation a
    10^12-vector corpus keeps hot (float32 originals stay cold). Exact
    per-row recompute oracle in tests/test_knn.py."""
    ds = _read(sf_dir)

    def _quant(t: pa.Table) -> pa.Table:
        ids, m = _batch_matrix(t)
        if len(ids) == 0:
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "q": pa.array([], pa.list_(pa.int8())),
                "scale": pa.array([], pa.float64())})
        q, scale = _sq8_rows(m)
        return pa.table({
            "vec_id": pa.array(ids),
            "q": pa.FixedSizeListArray.from_arrays(
                pa.array(q.reshape(-1)), q.shape[1]),
            "scale": pa.array(scale),
        })

    return ds.map_batches(_quant, batch_format="pyarrow").sort("vec_id")


def knn_topk_sq8(sf_dir: str, n_queries: int = 5, k: int = 5):
    """Brute-force cosine top-k over int8-QUANTIZED vectors: approx
    cosine = (q_a·q_b)·scale_a·scale_b with the dot exact in int32 (dim ·
    127² ≪ 2^31). Same shuffle shape as ``knn_topk`` at a quarter of the
    bytes — the memory-bandwidth-bound scale path. Scores are approximate
    (quantization error ≲ 1e-2); the ranking-recall gate lives in
    tests/test_knn.py."""
    ds = _read(sf_dir)
    q_tbl = ds.filter(expr=f"vec_id < {n_queries}").to_pandas()
    q_ids = q_tbl["vec_id"].to_numpy()
    q_raw = np.stack(q_tbl["embedding"].to_numpy()).astype(np.float64)
    qq, qs = _sq8_rows(q_raw)
    ref = ray.put((q_ids, qq.astype(np.int32), qs))

    def _score(t: pa.Table) -> pa.Table:
        qi, qm32, qsc = ray.get(ref)
        ids, m = _batch_matrix(t)
        keep = ids >= n_queries
        ids, m = ids[keep], m[keep]
        if len(ids) == 0:
            return _EMPTY_SCORED
        bq, bs = _sq8_rows(m)
        dots = bq.astype(np.int32) @ qm32.T                 # (batch, nq)
        sims = dots.astype(np.float64) * bs[:, None] * qsc[None, :]
        return _partial_topk(qi, ids, sims, k)

    return _merge_topk(ds.map_batches(_score, batch_format="pyarrow"), k)
