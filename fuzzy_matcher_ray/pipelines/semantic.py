"""SemDeDup-style semantic dedup over the ``embeddings`` table.

Generalizes the reference's similarity matching (distance.go:19-38's
"score candidates, keep the best, drop the rest") from edit distance on
strings to cosine distance on embedding vectors — the curation stage a
training-data pipeline runs AFTER exact/near-dup text dedup to remove
*semantic* duplicates (Abbas et al., "SemDeDup", arXiv:2303.09540):

1. ``kmeans_fit`` — spherical k-means (Lloyd) fitted DISTRIBUTED: every
   iteration is one streaming ``map_batches`` pass emitting per-batch
   partial centroid sums, combined by a tiny ``groupby(cid, d).sum``
   (k·(dim+1) rows total — never O(n) on the driver).
2. ``semantic_clusters`` — one assignment pass: (vec_id, cluster_id,
   cent_cosine).
3. ``semdedup_prune`` — within each cluster, greedy cosine prune: members
   ordered by (cosine-to-centroid desc, vec_id asc); a member is kept iff
   its cosine to every already-kept member of the cluster is < ``eps``.
   The cluster is the shuffle key (``joins.map_segments`` on cluster_id), so
   the O(c²) kernel only ever sees one cluster's matrix — the SemDeDup
   trick that makes all-pairs pruning tractable at 10^12 vectors.

Every arithmetic step that crosses a batch boundary is ORDER-FREE int64
fixed point (rows scaled by 2^24; dots exact in int64 because
dim · 2^48 < 2^63), so fresh runs, different batch shapes, and the pure
numpy driver twin in tests/test_semantic.py produce byte-identical
centroids, assignments and kept sets — no BLAS reduction-order drift.

Scale notes: per-cluster int64 sums overflow int64 only past 2^39 rows
per cluster — pick k so clusters stay under that (any real k does).
``semdedup_prune`` assumes cluster sizes bounded by ~n/k with the O(c²)
kernel; a cluster above ``max_cluster`` is pruned in vec_id-sorted chunks
(documented approximation, deterministic, logged).
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from fuzzy_matcher_ray.functions.shingle import splitmix64
from fuzzy_matcher_ray.pipelines.knn import _batch_matrix, _normalize_rows
from fuzzy_matcher_ray.stages.joins import (as_dataset, each_key,
                                            map_segments, sort_rows)

logger = logging.getLogger(__name__)

_FP_BITS = 24
_FP = np.int64(1) << _FP_BITS          # row fixed-point scale
_DOT_SCALE = float(np.int64(1) << (2 * _FP_BITS))  # dot-product scale 2^48


def _read(sf_dir: str):
    return rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"])


def _fp_rows(m: np.ndarray) -> np.ndarray:
    """Row-normalize (float64, per-row — batch-shape-independent) then snap
    to int64 fixed point. All downstream dots/sums on these ints are exact,
    hence identical across batch layouts and run orders."""
    return np.rint(_normalize_rows(m) * float(_FP)).astype(np.int64)


def _assign_fp(x_fp: np.ndarray, c_fp: np.ndarray) -> np.ndarray:
    """argmax-dot assignment in exact int64 (ties → smaller cluster id)."""
    return np.argmax(x_fp @ c_fp.T, axis=1)


def _cos6_from_dot(dots: np.ndarray) -> np.ndarray:
    """Exact int dot → cosine rounded half-up to 6dp (integer-derived, so
    deterministic across paths)."""
    return np.floor(dots.astype(np.float64) / _DOT_SCALE * 1e6 + 0.5) / 1e6


def _gonzalez_init(ids: np.ndarray, x_fp: np.ndarray, k: int) -> np.ndarray:
    """Deterministic farthest-first traversal on the init sample: start at
    the smallest vec_id, then repeatedly take the point with the largest
    min-distance to the chosen set (exact int dots; ties → smaller vec_id)."""
    order0 = int(np.argmin(ids))
    chosen = [order0]
    # min over chosen of dot (HIGHER dot = closer) — track the max dot seen
    best_dot = x_fp @ x_fp[order0]
    for _ in range(1, min(k, len(ids))):
        # farthest = smallest max-dot; tie-break smaller vec_id
        cand = np.lexsort((ids, best_dot))[0]
        chosen.append(int(cand))
        best_dot = np.maximum(best_dot, x_fp @ x_fp[cand])
    return x_fp[np.array(chosen, dtype=np.int64)]


def _init_sample(ds, k: int, seed: int, cap: int | None = None):
    """Deterministic uniform sample for init: the ``cap`` rows with the
    smallest splitmix64(vec_id ^ seed). Per-batch partial selection bounds
    the exchange to ≤ cap rows per batch; the global sort+limit runs over
    those partials only."""
    cap = cap or max(64 * k, 1024)

    def _part(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        h = splitmix64(ids.astype(np.uint64) ^ np.uint64(seed))
        sel = np.argsort(h, kind="stable")[:cap]
        sub = t.take(pa.array(sel))
        return sub.append_column("h", pa.array(h[sel], pa.uint64()))

    rows = ds.map_batches(_part, batch_format="pyarrow") \
             .sort("h").limit(cap).take_all()
    ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    mat = np.array([r["embedding"] for r in rows], dtype=np.float64)
    return ids, _fp_rows(mat)


def kmeans_fit(ds, k: int, iters: int = 4, seed: int = 7) -> np.ndarray:
    """Distributed spherical k-means; returns fixed-point centroids
    (k, dim) int64.

    Each Lloyd iteration: broadcast centroids once (``ray.put``) → one
    ``map_batches`` pass emits, per batch, one (cid, d, s) row per PRESENT
    cluster per dimension (int64 partial sums — order-free) plus a
    (cid, -1, count) row → ``groupby([cid, d]).sum`` combines them →
    k·(dim+1) rows to the driver. A cluster with no members keeps its
    previous centroid (deterministic).

    Per-batch partial size is min(batch_rows, k)·(dim+1) rows — the
    combiner exchange, not the data; at very large k raise ``batch_size``
    so batches amortize the per-present-cluster rows."""
    ids0, x0 = _init_sample(ds, k, seed)
    k = min(k, len(ids0))
    if k == 0:
        raise ValueError("kmeans_fit: empty input")
    c_fp = _gonzalez_init(ids0, x0, k)
    dim = c_fp.shape[1]

    for _ in range(iters):
        ref = ray.put(c_fp)

        def _partials(t: pa.Table) -> pa.Table:
            cents = ray.get(ref)
            ids, m = _batch_matrix(t)
            if len(ids) == 0:
                return pa.table({"cid": pa.array([], pa.int64()),
                                 "d": pa.array([], pa.int64()),
                                 "s": pa.array([], pa.int64())})
            x = _fp_rows(m)
            a = _assign_fp(x, cents)
            order = np.argsort(a, kind="stable")
            a_s, x_s = a[order], x[order]
            starts = np.flatnonzero(np.r_[True, a_s[1:] != a_s[:-1]])
            cids = a_s[starts].astype(np.int64)
            sums = np.add.reduceat(x_s, starts, axis=0)        # exact int64
            cnts = np.diff(np.r_[starts, len(a_s)]).astype(np.int64)
            g = len(cids)
            return pa.table({
                "cid": pa.array(np.r_[np.repeat(cids, dim), cids]),
                "d": pa.array(np.r_[np.tile(np.arange(dim, dtype=np.int64), g),
                                    np.full(g, -1, dtype=np.int64)]),
                "s": pa.array(np.r_[sums.reshape(-1), cnts]),
            })

        combined = (ds.map_batches(_partials, batch_format="pyarrow")
                      .groupby(["cid", "d"]).sum("s")
                      .take_all())                              # ≤ k·(dim+1)
        sums = np.zeros((k, dim), dtype=np.int64)
        cnts = np.zeros(k, dtype=np.int64)
        for r in combined:
            cid, d, s = int(r["cid"]), int(r["d"]), int(r["sum(s)"])
            if d < 0:
                cnts[cid] = s
            else:
                sums[cid, d] = s
        live = cnts > 0
        if live.any():
            mean = sums[live].astype(np.float64) / (
                cnts[live, None].astype(np.float64) * float(_FP))
            c_fp = c_fp.copy()
            c_fp[live] = _fp_rows(mean)
    return c_fp


def _assign_ds(ds, c_fp: np.ndarray, with_embedding: bool):
    """One assignment pass: (vec_id, cluster_id, cos_dot [, embedding])."""
    ref = ray.put(c_fp)

    def _assign(t: pa.Table) -> pa.Table:
        cents = ray.get(ref)
        ids, m = _batch_matrix(t)
        if len(ids) == 0:
            cols = {"vec_id": pa.array([], pa.int64()),
                    "cluster_id": pa.array([], pa.int64()),
                    "cos_dot": pa.array([], pa.int64())}
            if with_embedding:
                cols["embedding"] = pa.array([], pa.list_(pa.float32()))
            return pa.table(cols)
        x = _fp_rows(m)
        dots = x @ cents.T
        a = np.argmax(dots, axis=1)
        cols = {"vec_id": pa.array(ids),
                "cluster_id": pa.array(a.astype(np.int64)),
                "cos_dot": pa.array(dots[np.arange(len(a)), a])}
        out = pa.table(cols)
        if with_embedding:
            out = out.append_column("embedding", t["embedding"])
        return out

    return ds.map_batches(_assign, batch_format="pyarrow")


def semantic_clusters(sf_dir: str, k: int = 10, iters: int = 4,
                      seed: int = 7):
    """(vec_id, cluster_id, cent_cosine) for every vector — k-means
    assignment after a distributed fit. cent_cosine is rounded 6dp from the
    exact integer dot, so the column is bitwise run-stable."""
    ds = _read(sf_dir)
    c_fp = kmeans_fit(ds, k=k, iters=iters, seed=seed)
    out = _assign_ds(ds, c_fp, with_embedding=False)

    def _finish(t: pa.Table) -> pa.Table:
        dots = t["cos_dot"].to_numpy(zero_copy_only=False)
        return pa.table({"vec_id": t["vec_id"],
                         "cluster_id": t["cluster_id"],
                         "cent_cosine": pa.array(_cos6_from_dot(dots))})

    return out.map_batches(_finish, batch_format="pyarrow").sort("vec_id")


def _greedy_kept(xs: np.ndarray, eps_int: np.int64,
                 block: int = 1024) -> np.ndarray:
    """Positions (into ``xs`` row order) kept by the greedy prune: row i
    survives iff its dot with every EARLIER SURVIVOR is < eps_int.

    Blocked dominance, byte-identical to the naive per-member loop:

    - block-vs-kept: one (B × K) matmul eliminates block members already
      dominated by earlier blocks' survivors;
    - within block: one (B × B) gram matmul, then a scan that iterates per
      *survivor* (each step one vectorized column-threshold elimination),
      not per member — dup-heavy blocks (the hot case: boilerplate /
      template embeddings collapsing to one survivor) resolve in O(1)
      steps instead of O(B) interpreter iterations.

    EXACTNESS of the float64 matmuls: rows are ``_fp_rows`` output, norm
    ≈ 2^24, so by Cauchy–Schwarz every dot AND every partial sum under
    any BLAS reduction order is an integer bounded by Σ|x_i·y_i| ≤
    ‖x‖·‖y‖ ≈ 2^48 < 2^53 — exactly representable in float64, and each
    product x_i·y_i ≤ 2^48 is too. The float comparison against
    ``eps_int`` (< 2^49) is therefore the integer comparison, bit for
    bit; the norm bound is asserted at entry. Using float64 buys BLAS
    throughput — numpy's int64 matmul is a generic non-BLAS kernel an
    order of magnitude slower.
    """
    n = len(xs)
    if n == 0:
        return np.empty(0, np.int64)
    xf = xs.astype(np.float64)
    norms2 = np.einsum("ij,ij->i", xf, xf)
    assert norms2.max(initial=0.0) < float(1 << 49), \
        "_greedy_kept: rows must be _fp_rows-normalized fixed point"
    eps_f = float(eps_int)
    kept_blocks: list[np.ndarray] = []   # survivor ROWS, per block
    kept_pos: list[np.ndarray] = []      # survivor positions, per block
    for lo in range(0, n, block):
        xb = xf[lo:lo + block]
        if kept_blocks:
            km = np.concatenate(kept_blocks, axis=0)
            alive = (xb @ km.T).max(axis=1) < eps_f
            idxs = np.flatnonzero(alive)
        else:
            idxs = np.arange(len(xb))
        if len(idxs) == 0:
            continue
        sub = xb[idxs]                   # only rows alive after kept-check
        g = sub @ sub.T                  # exact-integer float64 gram
        cur = np.arange(len(idxs))
        ptr = 0
        while ptr < len(cur):
            i = cur[ptr]                 # next survivor in greedy order
            later = cur[ptr + 1:]
            cur = np.concatenate(
                [cur[:ptr + 1], later[g[later, i] < eps_f]])
            ptr += 1
        kept_blocks.append(sub[cur])
        kept_pos.append(idxs[cur] + lo)
    if not kept_pos:
        return np.empty(0, np.int64)
    return np.concatenate(kept_pos)


def _group_kept(g: pa.Table, eps_int: np.int64, max_cluster: int,
                name: str) -> np.ndarray:
    """Row indices of prune group ``g`` (vec_id, embedding, cos_dot) that
    survive the greedy in (cos_dot desc, vec_id asc) order; a group larger
    than ``max_cluster`` is pruned in vec_id-sorted chunks of that size
    (logged under ``name``)."""
    ids, m = _batch_matrix(g.select(["vec_id", "embedding"]))
    dots = g["cos_dot"].to_numpy(zero_copy_only=False)
    x = _fp_rows(m)
    if len(ids) > max_cluster:
        logger.warning("%s: group of %d > max_cluster=%d — pruning in "
                       "chunks; raise k", name, len(ids), max_cluster)
    chunk_order = np.argsort(ids, kind="stable")
    kept = [np.array([], np.int64)]
    for lo in range(0, len(ids), max_cluster):
        ci = chunk_order[lo:lo + max_cluster]
        order = ci[np.lexsort((ids[ci], -dots[ci]))]
        kept.append(order[_greedy_kept(x[order], eps_int)])
    return np.concatenate(kept)


def semdedup_prune(sf_dir: str, k: int = 10, iters: int = 4, eps: float = 0.4,
                   seed: int = 7, max_cluster: int = 100_000):
    """SemDeDup: (vec_id, cluster_id) of the KEPT vectors after per-cluster
    greedy cosine pruning at threshold ``eps``.

    Within each cluster (co-located by the range sort), members are
    ordered by (cosine-to-centroid desc, vec_id asc); a member survives iff
    its cosine to every earlier survivor is < eps (exact int64 comparison —
    eps snapped to the 2^48 dot grid; blocked vectorized kernel, see
    ``_greedy_kept``). Cross-cluster near-dups are NOT examined by this
    entry point — the SemDeDup recall trade; ``semdedup_prune_boundary``
    adds the optional runner-up-centroid backstop.

    A cluster larger than ``max_cluster`` is pruned in vec_id-sorted chunks
    of that size (greedy within each chunk only) — deterministic, logged,
    and a signal that k is too small for the corpus."""
    ds = _read(sf_dir)
    c_fp = kmeans_fit(ds, k=k, iters=iters, seed=seed)
    assigned = _assign_ds(ds, c_fp, with_embedding=True)
    eps_int = np.int64(np.rint(eps * _DOT_SCALE))

    def _prune_group(g: pa.Table) -> pa.Table:
        sel = _group_kept(g, eps_int, max_cluster, "semdedup_prune")
        sub = g.take(pa.array(np.sort(sel)))
        return pa.table({"vec_id": sub["vec_id"],
                         "cluster_id": sub["cluster_id"]})

    return as_dataset(sort_rows(map_segments(
        assigned, ["cluster_id"],
        lambda t: each_key(t, ["cluster_id"], _prune_group)), "vec_id"))


def semdedup_prune_boundary(sf_dir: str, k: int = 10, iters: int = 4,
                            eps: float = 0.4, seed: int = 7,
                            max_cluster: int = 100_000,
                            delta: float = 0.05):
    """SemDeDup with the CROSS-CLUSTER boundary backstop: near-dups that
    straddle a k-means boundary (A lands in cluster i, its semantic dup B
    in cluster j) are invisible to the per-cluster prune; here, any member
    whose runner-up-centroid cosine is within ``delta`` of its winner ALSO
    joins the runner-up's prune group as a shadow row, so a boundary pair
    meets in at least one group whenever both sit within δ of the shared
    boundary.

    Survival rule: a vector is kept iff it survives the greedy in EVERY
    group it joined (a shadow eliminated by the runner-up group's greedy
    is a detected cross-boundary dup). To keep that vote consistent, the
    greedy order inside every group is the vector's GLOBAL priority —
    (primary-centroid cosine desc, vec_id asc), carried on shadow rows
    too — so of two boundary dups the same one wins in both groups
    (group-local ordering would let each win at home and lose away,
    deleting both). One greedy-cover caveat follows: an eliminator that
    itself dies in another group leaves its eliminatees covered only by
    the group-time survivor set, the documented approximation of this
    vote. ``delta=0`` emits no shadows and reproduces ``semdedup_prune``
    exactly.

    Cost model: shadows add a boundary fraction f of duplicate SLIM rows
    (one extra embedding row each) to the range sort and ≤ (1+f)²
    to the per-group greedy work; the survival vote is one extra
    slim-row ``groupby(vec_id)`` with two mergeable aggregates. f is
    measured by ``log``-visible counts at runtime; for well-separated
    clusters f ≪ 1, and δ tunes recall vs cost explicitly.
    """
    from ray.data.aggregate import Min, Sum
    ds = _read(sf_dir)
    c_fp = kmeans_fit(ds, k=k, iters=iters, seed=seed)
    eps_int = np.int64(np.rint(eps * _DOT_SCALE))
    delta_int = np.int64(np.rint(delta * _DOT_SCALE))
    ref = ray.put(c_fp)

    def _assign_shadow(t: pa.Table) -> pa.Table:
        cents = ray.get(ref)
        ids, m = _batch_matrix(t)
        empty = {"vec_id": pa.array([], pa.int64()),
                 "cluster_id": pa.array([], pa.int64()),
                 "cos_dot": pa.array([], pa.int64()),
                 "primary": pa.array([], pa.int64()),
                 "embedding": pa.array([], pa.list_(pa.float32()))}
        if len(ids) == 0:
            return pa.table(empty)
        x = _fp_rows(m)
        dots = x @ cents.T
        a = np.argmax(dots, axis=1)
        best = dots[np.arange(len(a)), a]
        # cos_dot is the PRIMARY centrality on shadow rows too — the
        # global greedy priority shared by every group a vector joins
        parts = [pa.table({
            "vec_id": pa.array(ids),
            "cluster_id": pa.array(a.astype(np.int64)),
            "cos_dot": pa.array(best),
            "primary": pa.array(np.ones(len(a), np.int64)),
            "embedding": t["embedding"],
        })]
        if len(cents) > 1 and delta_int > 0:
            masked = dots.copy()
            masked[np.arange(len(a)), a] = np.iinfo(np.int64).min
            a2 = np.argmax(masked, axis=1)
            second = masked[np.arange(len(a2)), a2]
            sh = (best - second) <= delta_int
            if sh.any():
                parts.append(pa.table({
                    "vec_id": pa.array(ids[sh]),
                    "cluster_id": pa.array(a2[sh].astype(np.int64)),
                    "cos_dot": pa.array(best[sh]),
                    "primary": pa.array(np.zeros(int(sh.sum()), np.int64)),
                    "embedding": t["embedding"].take(
                        pa.array(np.flatnonzero(sh))),
                }))
        return pa.concat_tables(parts)

    rows = ds.map_batches(_assign_shadow, batch_format="pyarrow")

    def _prune_group(g: pa.Table) -> pa.Table:
        kept_mask = np.zeros(len(g), dtype=bool)
        kept_mask[_group_kept(g, eps_int, max_cluster,
                              "semdedup_prune_boundary")] = True
        return pa.table({
            "vec_id": g["vec_id"],
            "cid_vote": g["cluster_id"],
            "primary": g["primary"],
            "kept": pa.array(kept_mask.astype(np.int64)),
        })

    voted = as_dataset(map_segments(
        rows, ["cluster_id"],
        lambda t: each_key(t, ["cluster_id"], _prune_group)))

    def _weight(t: pa.Table) -> pa.Table:
        cid = t["cid_vote"].to_numpy(zero_copy_only=False)
        prim = t["primary"].to_numpy(zero_copy_only=False)
        return pa.table({"vec_id": t["vec_id"],
                         "cid_w": pa.array(cid * prim),
                         "kept": t["kept"]})

    agg = (voted.map_batches(_weight, batch_format="pyarrow")
           .groupby("vec_id")
           .aggregate(Min("kept", alias_name="kept_all"),
                      Sum("cid_w", alias_name="cluster_id")))

    def _finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        sub = t.filter(pc.equal(t["kept_all"], pa.scalar(1)))
        return pa.table({
            "vec_id": sub["vec_id"],
            "cluster_id": pc.cast(sub["cluster_id"], pa.int64())})

    return agg.map_batches(_finish, batch_format="pyarrow").sort("vec_id")
