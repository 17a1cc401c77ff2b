"""Flagship pipeline: web-scale near-duplicate detection + clustering.

The Ray-Data realization of the reference's two-phase roadmap
(``/root/reference/TODO.md:69-74`` — "first-pass approximate index with
n-grams or MinHash … coarse filtering followed by precise matching"):

    read → normalize+gate → ┬ exact content-hash pass ───────────┐
                            ├ MinHash/LSH bands → pairs → verify ┼→ edges
                            ├ SimHash blocks   → pairs (Hamming) ┤
                            └ winnow fps → pairs → SA verify ────┘
    edges → connected components → (doc_id, cluster_id, url)

``url`` rides from the normalize stage to the clusters output, so the
source is read once and never joined back.

Every fan-in stage is an explicit hash shuffle with hot-key capping
(stages/candidates.py); every pass streams; nothing materializes the corpus
on the driver. With a Checkpointer, each boxed stage is an immutable Parquet
artifact with a manifest (resume = skip).

A fold (``incremental_update``, chained by ``dedup_sharded``) is the same
four pass builders run over a delta: handed a ``PriorIndex``, each builder
semi-joins the prior run's key rows against the increment's, keeps only
pairs touching a new doc, and fans in at the same ``edges_all`` stage.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.stages.candidates import dedup_pairs, key_pairs
from fuzzy_matcher_ray.stages.cluster import (_coalesce_i64, cluster_edges,
                                              component_labels)
from fuzzy_matcher_ray.stages.joins import attach_columns
from fuzzy_matcher_ray.stages.minhash_stage import (
    Signatures, Winnower, add_stage, band_key_rows, simhash_key_rows)
from fuzzy_matcher_ray.stages.normalize_stage import normalized_docs
from fuzzy_matcher_ray.stages.verify import (
    JaccardVerifier, SubstringVerifier, attach_pair_texts, simhash_pair_filter)
from fuzzy_matcher_ray.state.checkpoint import Checkpointer

PASSES = ("exact", "minhash", "simhash", "substring")
EDGE_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])


@dataclasses.dataclass(frozen=True)
class PriorIndex:
    """What a fold hands the pass builders: the prior corpus's normalize,
    signatures and winnow-row artifacts (the key-row sources each pass
    semi-joins against the increment's keys), and ``texts`` — (doc_id,
    norm_text) over prior ∪ increment, the verify stages' text source when
    the broadcast does not fit."""
    norm: object
    sigs: object = None
    winnow_rows: object = None
    texts: object = None


def _edges_only(ds):
    return ds.select_columns(["a", "b"])


def _hash_rows(norm):
    """(text_hash, text_hash2, doc_id) of every doc above the skip tier."""
    from fuzzy_matcher_ray.stages.normalize_stage import TIER_SKIP
    return norm.map_batches(
        lambda t: pa.table({
            "text_hash": t["text_hash"], "text_hash2": t["text_hash2"],
            "doc_id": t["doc_id"],
        }).filter(pc.greater(t["tier"], pa.scalar(TIER_SKIP, pa.int8()))),
        batch_format="pyarrow")


def exact_dup_edges(norm, cfg: PipelineConfig,
                    prior: PriorIndex | None = None):
    """Exact dedup pre-pass: same 128-bit content key ⇒ duplicate edges.

    ≙ terminal-node ID set (fuzzy_types/types.go:38). Runs through the same
    skew-aware pair machinery as the LSH passes (key = the two independent
    content hashes; collision ~2^-128 so no text comparison is needed);
    exact groups larger than max_band_group emit star+chain edges.

    With ``prior`` the prior rows sharing a key with the increment join its
    rows before the min-rep star. Exact equality is transitive, so the
    components — hence the min-id labels — match a full re-run's.
    """
    from ray.data.aggregate import Min

    from fuzzy_matcher_ray.stages.joins import JOIN_AGG_ARGS, effective_partitions

    rows = _hash_rows(norm).materialize()
    if prior is not None:
        rows = _semi_join_rows(_hash_rows(prior.norm), rows,
                               ["text_hash", "text_hash2"], cfg) \
            .union(rows).materialize()
    from fuzzy_matcher_ray.stages.candidates import DRIVER_EXPLODE_MAX_ROWS
    if rows.count() <= DRIVER_EXPLODE_MAX_ROWS:
        # driver fast path: one collect, numpy segment min-rep star edges
        import ray.data as rd
        parts = list(rows.iter_batches(batch_size=1 << 20,
                                       batch_format="pyarrow"))
        if not parts:
            # an all-skip-tier corpus yields ZERO batches — concat_tables
            # requires at least one
            return rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                           "b": pa.array([], pa.int64())}))
        t = pa.concat_tables(parts)
        h1 = t["text_hash"].to_numpy(zero_copy_only=False)
        h2 = t["text_hash2"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, h2, h1))
        h1, h2, ids = h1[order], h2[order], ids[order]
        brk = np.empty(len(ids), dtype=bool)
        if len(ids) == 0:
            return rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                           "b": pa.array([], pa.int64())}))
        brk[0] = True
        brk[1:] = (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])
        rep = ids[np.nonzero(brk)[0]][np.cumsum(brk) - 1]
        keep = ids != rep
        return rd.from_arrow(pa.table({"a": pa.array(rep[keep]),
                                       "b": pa.array(ids[keep])}))
    # star edges via min-rep: one aggregate + one hash join on the full
    # 128-bit key, zero pair explosion (exact mega-groups cost O(n), not
    # O(n^2) — the skew story needs no cap here)
    reps = rows.groupby(["text_hash", "text_hash2"]).aggregate(
        Min("doc_id", alias_name="rep")).materialize()
    P = effective_partitions(cfg.join_num_partitions)
    if reps.count() < 100 * P:
        # Ray 2.49: hash-aggregate outputs carry SCHEMA-LESS empty blocks
        # for key-less partitions, which break join key resolution
        # (ArrowInvalid "no match for FieldRef text_hash"). Same guard as
        # stages/joins.attach_columns; reps is slim (24 B/key) and already
        # needs one execution for the join, so the materialize+count is
        # nearly free and the repartition only fires in the sparse regime.
        reps = reps.repartition(2)
    with_rep = rows.join(reps, "inner", P,
                         on=("text_hash", "text_hash2"),
                         aggregator_ray_remote_args=JOIN_AGG_ARGS)

    def _edges(t: pa.Table) -> pa.Table:
        keep = pc.not_equal(t["doc_id"], t["rep"])
        t = t.filter(keep)
        return pa.table({"a": t["rep"], "b": t["doc_id"]})

    return with_rep.map_batches(_edges, batch_format="pyarrow")


def signature_table(norm, cfg: PipelineConfig):
    """One shingle pass → compact per-doc signatures (bands + simhash).

    The MinHash and SimHash passes both explode THIS ~140 B/doc table for
    their candidate keys; the corpus text is never re-hashed per pass
    (round-1 verdict item 1: redundant shingle passes were the top
    memory-bandwidth cost).
    """
    return add_stage(norm.select_columns(["doc_id", "fold_text", "tier"]),
                     Signatures, cfg)


def winnow_rows(norm, cfg: PipelineConfig):
    """Winnowed window fingerprints (fp, doc_id, pos) — the substring
    pass's key rows, checkpointed as the ``winnow_rows`` artifact so a fold
    never re-winnows the prior corpus."""
    return add_stage(norm.select_columns(["doc_id", "norm_text", "tier"]),
                     Winnower, cfg)


def _candidate_pairs(rows, prior_rows, key_cols: list[str],
                     cfg: PipelineConfig, carry_cols=(), pair_filter=None,
                     **kw):
    """``key_pairs`` over one pass's key rows.

    In a fold (``prior_rows`` given) the prior rows sharing a key with the
    increment's (``_semi_join_rows``) join them, tagged ``is_new`` 0 and 1,
    and only pairs touching a new doc reach the pass's own pair filter —
    buckets the increment never touches never explode into pairs."""
    carry_cols = list(carry_cols)
    if prior_rows is not None:
        # pinned: the semi-join reads it twice (count gate + key collect)
        rows = rows.materialize()
        rows = _tag_new(_semi_join_rows(prior_rows, rows, key_cols, cfg),
                        0).union(_tag_new(rows, 1))
        carry_cols.append("is_new")
        pair_filter = _touches_new if pair_filter is None else \
            (lambda t, f=pair_filter: f(_touches_new(t)))
    return key_pairs(rows, key_cols, cfg, carry_cols=carry_cols,
                     pair_filter=pair_filter, **kw)


def _texts(norm, prior: PriorIndex | None):
    """(doc_id, norm_text) for join-attached verification."""
    src = norm if prior is None else prior.texts
    return src.select_columns(["doc_id", "norm_text"])


def _verified_jaccard(pairs, texts, cfg: PipelineConfig, attacher,
                      threshold: float | None = None, sets_ref=None):
    """Exact-Jaccard verification. Preference order: the precomputed
    corpus shingle-set artifact (zero per-batch shingling), the shared text
    broadcast (per-batch chunked recompute), a hash join attaching texts."""
    if sets_ref is not None:
        ver = JaccardVerifier(cfg, threshold, sets_ref=sets_ref)
        src = pairs
    elif attacher is not None:
        ver = JaccardVerifier(cfg, threshold, text_ref=attacher.ref)
        src = pairs
    else:
        ver = JaccardVerifier(cfg, threshold)
        src = attach_pair_texts(pairs, texts, cfg)
    return src.map_batches(ver, batch_format="pyarrow",
                           batch_size=cfg.verify_batch_size)


def minhash_edges(norm, cfg: PipelineConfig, attacher=None, sigs=None,
                  sets_ref=None, prior: PriorIndex | None = None):
    """MinHash/LSH pass → exact-Jaccard-verified edges (a, b, jaccard).

    With ``cfg.verify_budget_per_doc`` set, pairs keep their band-agreement
    multiplicity (``dedup=False``) and each doc verifies only its
    top-budget pairs ranked by band-hit count — the ComputeScore/MaxHeap
    best-first budget (utils.go:54-68) bounding verify cost on adversarial
    near-threshold corpora. With ``prior`` only pairs touching the
    increment are candidates (``_candidate_pairs``)."""
    if sigs is None:
        sigs = signature_table(norm, cfg)
    budget = cfg.verify_budget_per_doc
    pairs = _candidate_pairs(
        band_key_rows(sigs, cfg),
        None if prior is None else band_key_rows(prior.sigs, cfg),
        ["band", "band_hash"], cfg, dedup=budget is None)
    if budget is not None:
        from fuzzy_matcher_ray.stages.candidates import budget_pairs, count_pairs
        pairs = budget_pairs(count_pairs(pairs), budget)
    return _verified_jaccard(pairs, _texts(norm, prior), cfg, attacher,
                             sets_ref=sets_ref)


def simhash_edges(norm, cfg: PipelineConfig, attacher=None, sigs=None,
                  sets_ref=None, prior: PriorIndex | None = None):
    """SimHash block pass: Hamming ≤ d candidates, then exact-Jaccard verify
    at a relaxed threshold (backstop for near-threshold MinHash misses)."""
    if sigs is None:
        sigs = signature_table(norm, cfg)
    pairs = _candidate_pairs(
        simhash_key_rows(sigs, cfg),
        None if prior is None else simhash_key_rows(prior.sigs, cfg),
        ["block", "block_val"], cfg, carry_cols=["simhash"],
        pair_filter=simhash_pair_filter(cfg.simhash_hamming_max))
    pairs = _edges_only(pairs)
    relaxed = max(0.5, cfg.jaccard_threshold - 0.1)
    return _verified_jaccard(pairs, _texts(norm, prior), cfg, attacher,
                             relaxed, sets_ref=sets_ref)


def _pack_pp(t: pa.Table) -> pa.Array:
    """Pack the shared-fingerprint seed positions (21 bits each) so ONE
    consistent (pos_a, pos_b) tuple survives the per-pair Min dedup;
    out-of-range positions (docs > 2M chars) become null → the verifier
    finds those pairs' alignments by its probe-gram lookup."""
    pa_ = t["pos_a"].to_numpy(zero_copy_only=False).astype(np.int64)
    pb_ = t["pos_b"].to_numpy(zero_copy_only=False).astype(np.int64)
    ok = (pa_ >= 0) & (pb_ >= 0) & (pa_ < (1 << 21)) & (pb_ < (1 << 21))
    packed = (pa_ << 21) | pb_
    arr = pa.array(packed)
    if not ok.all():
        arr = pc.if_else(pa.array(ok), arr, pa.scalar(None, pa.int64()))
    return arr


def substring_edges(norm, cfg: PipelineConfig, attacher=None, rows=None,
                    prior: PriorIndex | None = None):
    """Winnowed-fingerprint co-location → exact long-repeat verification.

    Candidate pairs are docs sharing any winnowed window fingerprint
    (complete for repeats >= window + winnow - 1 chars). Verification
    (stages/verify.py SubstringVerifier) is one exact kernel per batch: the
    pair's winnow seed plus, where the seed does not settle it, doc a's
    probe grams sampled every min_len - probe + 1 chars looked up in a
    sorted index of the b-docs' grams; every alignment is decided by one
    vectorized byte compare. A suffix array decides only pairs past a
    lookup-hit budget (highly repetitive docs).

    ``rows``: ``norm``'s winnow rows (``winnow_rows``), built when None.
    With ``prior`` only pairs touching the increment are candidates.
    """
    if rows is None:
        rows = winnow_rows(norm, cfg)
    cols = ["fp", "doc_id", "pos"]
    pairs = _candidate_pairs(
        rows.select_columns(cols),
        None if prior is None else prior.winnow_rows.select_columns(cols),
        ["fp"], cfg, carry_cols=["pos"], derive={"pp": _pack_pp})
    if attacher is not None:
        ver = SubstringVerifier(cfg, text_ref=attacher.ref)
    else:
        ver = SubstringVerifier(cfg)
        pairs = attach_pair_texts(pairs, _texts(norm, prior), cfg)
    return pairs.map_batches(ver, batch_format="pyarrow", batch_size=4096)


def _pass_builders(passes: tuple, norm, cfg: PipelineConfig, attacher, sigs,
                   win, sets_ref=None, prior: PriorIndex | None = None
                   ) -> dict:
    """pass name → thunk building that pass's (a, b) edges, for the wanted
    passes in their fixed order. ``win`` is a thunk for the winnow rows: it
    runs on the substring pass's thread, so a winnow build overlaps the
    other passes."""
    make = {
        "exact": lambda: exact_dup_edges(norm, cfg, prior),
        "minhash": lambda: _edges_only(minhash_edges(
            norm, cfg, attacher, sigs, sets_ref, prior)),
        "simhash": lambda: _edges_only(simhash_edges(
            norm, cfg, attacher, sigs, sets_ref, prior)),
        "substring": lambda: _edges_only(substring_edges(
            norm, cfg, attacher, win(), prior)),
    }
    return {p: make[p] for p in PASSES if p in passes}


def _edges_all(ck: Checkpointer, builders: dict, pass_stages: bool):
    """Build the passes on parallel driver threads, union their edges and
    dedup them as the ``edges_all`` stage (None without passes).

    The passes are independent until the union: on parallel threads their
    internal barriers (counts, sorts, collects) overlap instead of
    serializing end-to-end. Unless checkpointed, the per-pass edge datasets
    stay LAZY, so the verify stages of all passes execute inside ONE
    streaming execution at the fan-in. Each separate Dataset execution has
    a fixed cost — the Amdahl term that caps small-corpus scaling: on one
    pinned vCPU (Ray 2.49) ~0.03-0.04 s to start and finish even a trivial
    one, ~0.1-0.2 s for a collect over a few blocks, and 0.4-0.6 s for one
    that re-runs the source read at bench scale (1,500 docs).
    ``pass_stages`` checkpoints each pass's edges as ``edges_<pass>``.
    """
    if not builders:
        return None

    def _build(p):
        if not pass_stages:
            return builders[p]()
        return ck.stage(f"edges_{p}", builders[p],
                        materialize_if_disabled=False,
                        empty_schema=EDGE_SCHEMA)

    with ThreadPoolExecutor(max_workers=len(builders)) as pool:
        edge_sets = list(pool.map(_build, builders))
    edges = edge_sets[0]
    for e in edge_sets[1:]:
        edges = edges.union(e)
    return ck.stage("edges_all", lambda: dedup_pairs(edges),
                    empty_schema=EDGE_SCHEMA)


def find_duplicates(docs, cfg: PipelineConfig | None = None,
                    checkpointer: Checkpointer | None = None,
                    passes: tuple = PASSES,
                    cluster_strategy: str = "auto", now=None):
    """docs (doc_id, text [, url], ...) → (doc_id, cluster_id [, url]).

    The full flagship. Returns a Dataset of one row per input doc; ``url``
    is carried through the normalize stage when ``docs`` has it. A run
    with no rows after the TTL filter returns an empty (doc_id,
    cluster_id, url) table.
    With ``cfg.ttl_mode`` the expiry invariant is enforced (every row must
    carry a non-null valid_until — ≙ Build error on zero expiry,
    fuzzy_matcher_core.go:85-95) and, when ``now`` is given, expired rows
    are dropped before any hashing (search-time auto-clean,
    fuzzy_matcher.go:29-32).
    """
    cfg = cfg or PipelineConfig()
    if cfg.ttl_mode:
        from fuzzy_matcher_ray.state.tombstones import filter_expired, validate_ttl
        docs = validate_ttl(docs) if now is None else \
            filter_expired(docs, now, ttl_mode=True)
    ck = checkpointer or Checkpointer("/tmp/fmr-ck-disabled", cfg.config_hash(),
                                      enabled=False)
    from fuzzy_matcher_ray.stages.joins import partitions_for, plan_bytes
    # Size block count AND every downstream shuffle/join to the DATA, capped
    # by CPUs: at 100 TB bytes/16 MB dwarfs any cluster so this is always the
    # CPU cap; on small inputs it stops per-task fixed costs and concurrent
    # allocation contention from dominating (measured: the 92 MB bench corpus
    # runs 2x faster 8-wide than 32-wide on a 32-cpu box). ``plan_bytes``
    # reads the source's size off its plan; ``docs.size_bytes()`` would run
    # the whole source pipeline once just to size it.
    cfg = dataclasses.replace(cfg, join_num_partitions=partitions_for(
        cfg.join_num_partitions, plan_bytes(docs)))
    n_blocks = cfg.join_num_partitions
    if ck.enabled:
        _drop_urlless_stages(ck, docs)
    norm = ck.stage("normalize",
                    lambda: normalized_docs(docs, cfg).repartition(n_blocks),
                    empty_schema=_link_schemas(cfg)["normalize"])
    # norm is materialized or a checkpoint read: its count is metadata
    if norm.count() == 0:
        import ray.data as rd
        empty = {"doc_id": pa.array([], pa.int64()),
                 "cluster_id": pa.array([], pa.int64()),
                 "url": pa.array([], pa.string())}
        return rd.from_arrow(pa.table(empty))
    # one broadcast copy of (doc_id → norm_text) shared by every verify pass
    from fuzzy_matcher_ray.stages.joins import BROADCAST_MAX_ROWS, BroadcastAttacher
    attacher = None
    if norm.count() <= BROADCAST_MAX_ROWS:
        attacher = BroadcastAttacher(norm, "doc_id", ["norm_text"])
    # ONE signature stage (single shingle pass) feeds both LSH passes
    sigs = None
    sets_ref = None
    if "minhash" in passes or "simhash" in passes:
        sigs = ck.stage("signatures", lambda: signature_table(norm, cfg))
        # corpus shingle-set artifact: the Jaccard verifies of both passes
        # intersect zero-copy against ONE plasma object instead of
        # re-shingling every batch's distinct docs (size-gated; None ⇒
        # verifiers fall back to the text broadcast / join paths). Off by
        # default — see config.use_shingle_set_artifact for the measured
        # trade-off. Skipped when every consumer pass resumes from
        # checkpoint.
        needs_verify = any(p in passes and not ck.has(f"edges_{p}")
                           for p in ("minhash", "simhash")) if ck.enabled \
            else True
        if needs_verify and cfg.use_shingle_set_artifact:
            from fuzzy_matcher_ray.stages.verify import build_shingle_sets
            sets_ref = build_shingle_sets(norm, cfg)
    def win():
        return ck.stage("winnow_rows", lambda: winnow_rows(norm, cfg),
                        materialize_if_disabled=False,
                        empty_schema=_link_schemas(cfg)["winnow_rows"])

    edges = _edges_all(ck, _pass_builders(passes, norm, cfg, attacher, sigs,
                                          win, sets_ref), pass_stages=True)
    # url rides from the normalize stage: no join back to the source
    ids = [c for c in ("doc_id", "url") if c in norm.schema().names]
    return ck.stage(
        "clusters",
        lambda: cluster_edges(edges, norm.select_columns(ids), cfg,
                              strategy=cluster_strategy))


def _drop_urlless_stages(ck: Checkpointer, docs) -> None:
    """Normalize artifacts written before normalize carried ``url`` lack
    it, and so do the clusters built from them. When ``docs`` has url,
    forget such checkpoints so both stages rebuild rather than resume
    without it."""
    stale = [name for name in ("normalize", "clusters")
             if (m := ck.manifest(name)) is not None
             and "url" not in m.get("columns", ())]
    if stale and "url" in docs.schema().names:
        for name in stale:
            ck.drop(name)


def jaccard_allpairs_clusters(docs, cfg: PipelineConfig | None = None,
                              threshold: float | None = None):
    """EXACT all-pairs Jaccard clustering via the inverted shingle index.

    The verification baseline the LSH passes are measured against — no
    banding, no hot-group caps, no misses. Vernica-style all-pairs
    similarity join: distinct ``(shingle, doc_id)`` rows group by shingle to
    emit co-occurrence pairs; pair multiplicity (``count_pairs``) IS the
    intersection size; set sizes attach by join; exact Jaccard thresholds
    the edges; connected components label every doc.

    Cost is output-bound — Σ over shingles of C(group, 2) — so a corpus
    where many docs share a shingle explodes quadratically by definition of
    the problem (use the LSH passes at scale). SQL-expressible end-to-end,
    hence DuckDB-oracle-checked in the driver contract
    (``dedup_jaccard_brute``), unlike the approximate passes.
    """
    from dataclasses import replace

    from fuzzy_matcher_ray.functions.normalize import normalize_array
    from fuzzy_matcher_ray.functions.shingle import shingle_batch, unique_per_doc
    from fuzzy_matcher_ray.stages.candidates import count_pairs, key_pairs
    from fuzzy_matcher_ray.stages.cluster import cluster_edges
    from fuzzy_matcher_ray.stages.joins import attach_columns

    cfg = cfg or PipelineConfig()
    thr = cfg.jaccard_threshold if threshold is None else threshold

    def _rows(t: pa.Table) -> pa.Table:
        norm = normalize_array(t["text"])
        hashes, counts = shingle_batch(norm, cfg.shingle_k, cfg.seed)
        uh, uc = unique_per_doc(hashes, counts)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        # int64 view of the uint64 hashes: grouping only needs the bits,
        # and values past int64-max break Arrow conversion in the
        # distributed groupby branches
        return pa.table({"sh": pa.array(uh.view(np.int64)),
                         "doc_id": pa.array(np.repeat(ids, uc))})

    import ray.data as rd
    if docs.limit(1).count() == 0:
        return rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                       "cluster_id": pa.array([], pa.int64())}))
    # two consumers (pair explode + size groupby) — pin blocks so the
    # normalize+shingle pass runs once, not once per consumer
    rows = docs.select_columns(["doc_id", "text"]).map_batches(
        _rows, batch_format="pyarrow").materialize()
    if rows.count() == 0:
        # no doc long enough to shingle — every doc is its own cluster
        no_edges = rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                           "b": pa.array([], pa.int64())}))
        return cluster_edges(no_edges, docs.select_columns(["doc_id"]), cfg)
    # exactness requires every within-group pair: lift the skew cap (the
    # star+chain shortcut would silently drop cross-pairs of hot shingles)
    nocap = replace(cfg, max_band_group=1 << 30)
    counted = count_pairs(key_pairs(rows, ["sh"], nocap, dedup=False))
    from fuzzy_matcher_ray.stages.candidates import (DRIVER_EXPLODE_MAX_ROWS,
                                                     _collect_driver_table)
    if rows.count() <= DRIVER_EXPLODE_MAX_ROWS:
        # per-doc set sizes via one driver bincount over the slim
        # materialized doc_id column — skips a full Ray hash groupby
        t = _collect_driver_table(rows, ["doc_id"])
        ids = t["doc_id"].to_numpy(zero_copy_only=False) if t is not None \
            else np.array([], dtype=np.int64)
        uniq, cnt = np.unique(ids, return_counts=True)
        sizes = rd.from_arrow(pa.table({
            "doc_id": pa.array(uniq.astype("int64")),
            "nsh": pa.array(cnt.astype("int64"))}))
    else:
        sizes = rows.groupby("doc_id").count()

        def _csize(t: pa.Table) -> pa.Table:
            ccol = next(c for c in t.schema.names if c != "doc_id")
            return pa.table({"doc_id": t["doc_id"],
                             "nsh": pc.cast(t[ccol], pa.int64())})

        sizes = sizes.map_batches(_csize, batch_format="pyarrow")
    withs = attach_columns(counted, sizes, "a", "doc_id", {"nsh": "na"})
    withs = attach_columns(withs, sizes, "b", "doc_id", {"nsh": "nb"})

    def _thresh(t: pa.Table) -> pa.Table:
        inter = pc.cast(t["hits"], pa.float64())
        union = pc.cast(pc.subtract(pc.add(t["na"], t["nb"]), t["hits"]),
                        pa.float64())
        jac = pc.divide(inter, union)
        return t.filter(pc.greater_equal(jac, pa.scalar(thr))) \
            .select(["a", "b"])

    edges = withs.map_batches(_thresh, batch_format="pyarrow")
    return cluster_edges(edges, docs.select_columns(["doc_id"]), cfg)


# ---------------------------------------------------------------------------
# Incremental corpus update (≙ InsertEntries, fuzzy_matcher.go:21-27)
# ---------------------------------------------------------------------------

def _load_stage(prior_root: str, name: str, expect_hash: str | None = None):
    """Read a prior run's checkpoint artifact; error clearly if absent."""
    import json
    import os

    import ray.data as rd
    data_dir = os.path.join(prior_root, name, "data")
    manifest = os.path.join(prior_root, name, "_MANIFEST.json")
    if not (os.path.isdir(data_dir) and os.path.isfile(manifest)):
        raise FileNotFoundError(
            f"incremental_update: prior run at {prior_root!r} has no "
            f"completed '{name}' stage (run find_duplicates with a "
            "Checkpointer first)")
    with open(manifest) as f:
        m = json.load(f)
    if expect_hash is not None and m.get("config_hash") != expect_hash:
        raise ValueError(
            f"incremental_update: stage '{name}' was built under config "
            f"hash {m.get('config_hash')!r}, but 'normalize' under "
            f"{expect_hash!r} — the prior checkpoint mixes runs")
    return rd.read_parquet(data_dir), m.get("config_hash")


def _prior_stage(loaded, name: str, rebuild):
    """One artifact unioned over a chain's ``loaded`` roots, oldest first.
    A root built without it (e.g. a pre-LSH checkpoint) re-derives it from
    its normalize artifact with ``rebuild`` — correct, just not
    incremental."""
    out = None
    for r, n, h in loaded:
        try:
            s, _ = _load_stage(r, name, h)
        except FileNotFoundError:
            s = rebuild(n)
        out = s if out is None else out.union(s)
    return out


# one hash-join aggregator gang at a time across the fold's parallel
# builder threads — see the CONCURRENCY CONTRACT in _semi_join_rows
_FALLBACK_JOIN_LOCK = threading.Lock()

# pin the fold's prior-signature union in the object store (shared by the
# minhash AND simhash semi-joins) only while it stays under this budget;
# larger chains re-read the checkpoint parquet per pass instead — see
# incremental_update
SIGS_PIN_MAX_BYTES = 2 << 30


def _semi_join_rows(rows_prior, rows_inc, key_cols, cfg: PipelineConfig):
    """Prior rows whose ``key_cols`` combo appears among the INCREMENT's
    key rows.

    The increment is the small side by definition: while its row count is
    within the broadcast budget (``BROADCAST_KEYS_MAX``), its distinct
    combined keys come from ONE driver pass (``np.unique`` over streamed
    batches) and the prior side streams through a broadcast membership
    filter — zero Ray shuffles. The distinct-keys hash groupby that a
    shuffle semi-join needs costs ~5-8 s of fixed overhead per execution
    on one node regardless of size, which at bench scale made the fold
    slower than a full re-run. Beyond the budget the groupby + hash
    left_semi join takes over — that is the multi-node shape, where the
    fixed cost parallelizes. Either way the prior side never explodes
    into pairs for buckets the increment doesn't touch.

    CONCURRENCY CONTRACT: the fold's four pass builders run on parallel
    driver threads. A hash join gang-schedules its aggregator actors per
    execution, and two-plus concurrent gangs on a small cluster starve
    each other (measured: permanent deadlock at ``num_cpus=4`` with the
    broadcast budget forced to 0). So the join fallback executes EAGERLY
    here, under a module lock — one aggregator gang alive at a time; the
    result is the pruned residue (small by construction), and everything
    downstream of it is join-free and stays lazy + fully concurrent.
    """
    from fuzzy_matcher_ray.stages.candidates import (
        BROADCAST_KEYS_MAX, _collect_combined_keys, _membership_filter)
    if rows_inc.count() <= BROADCAST_KEYS_MAX:
        arr = _collect_combined_keys(rows_inc, key_cols)
        return _membership_filter(rows_prior, key_cols, arr)
    from fuzzy_matcher_ray.stages.joins import (JOIN_AGG_ARGS,
                                                effective_partitions)
    P = effective_partitions(cfg.join_num_partitions)
    row_schema = {f.name: f.type for f in rows_prior.schema().base_schema}

    def _keys(t: pa.Table) -> pa.Table:
        # the groupby promotes narrow key dtypes (int8 band → int64)
        return pa.table({c: t[c].cast(row_schema[c]) for c in key_cols})

    # repartition: hash-aggregate outputs carry schema-less empty blocks
    # that break the join's key resolution
    keys_inc = rows_inc.groupby(key_cols).count().map_batches(
        _keys, batch_format="pyarrow").repartition(P)
    with _FALLBACK_JOIN_LOCK:
        return rows_prior.join(keys_inc, "left_semi", P, on=tuple(key_cols),
                               aggregator_ray_remote_args=JOIN_AGG_ARGS) \
            .materialize()


def _tag_new(ds, flag: int):
    def _f(t: pa.Table) -> pa.Table:
        return t.append_column(
            "is_new", pa.array(np.full(len(t), flag, np.int8)))
    return ds.map_batches(_f, batch_format="pyarrow")


def _touches_new(t: pa.Table) -> pa.Table:
    return t.filter(pc.or_(pc.equal(t["is_new_a"], pa.scalar(1)),
                           pc.equal(t["is_new_b"], pa.scalar(1))))


def _link_schemas(cfg: PipelineConfig) -> dict:
    """Arrow schemas of a chain link's artifacts, pinned when a stage comes
    out empty (a zero-row shard must still write schema-ful stages so a
    later fold can union it with the rest of the chain). ``normalize`` is
    the schema a url-bearing source writes."""
    return {
        "normalize": pa.schema([
            ("doc_id", pa.int64()), ("norm_text", pa.string()),
            ("fold_text", pa.string()), ("n_norm", pa.int64()),
            ("text_hash", pa.int64()), ("text_hash2", pa.int64()),
            ("tier", pa.int8()), ("url", pa.string())]),
        "signatures": pa.schema([
            ("doc_id", pa.int64()),
            ("bands", pa.list_(pa.int64(), cfg.bands)),
            ("simhash", pa.int64())]),
        "winnow_rows": pa.schema([("fp", pa.int64()), ("doc_id", pa.int64()),
                                  ("pos", pa.int64())]),
        "clusters": pa.schema([("doc_id", pa.int64()),
                               ("cluster_id", pa.int64())]),
    }


def _write_empty_link(ck: Checkpointer, cfg: PipelineConfig, clusters=None):
    """Write a zero-row shard's chain link: empty normalize / signatures /
    winnow_rows artifacts plus ``clusters`` — the labels carried forward
    from the prior link, or none for a first shard. Returns the clusters
    stage."""
    import ray.data as rd
    out = None
    for name, sch in _link_schemas(cfg).items():
        data = clusters if name == "clusters" and clusters is not None \
            else rd.from_arrow(sch.empty_table())
        out = ck.stage(name, lambda d=data: d, empty_schema=sch)
    return out


def _shard_artifacts(ck: Checkpointer, docs, cfg: PipelineConfig,
                     passes: tuple):
    """A shard's fold-independent artifacts → (normalize, signatures,
    winnow_rows); the last two are None when no pass needs them. They are
    pure functions of the shard's own text, so ``dedup_sharded`` prebuilds
    them ahead of the shard's fold with this same builder and cfg, and the
    fold's ``ck.stage`` calls resume them from the manifest."""
    sch = _link_schemas(cfg)
    norm = ck.stage("normalize", lambda: normalized_docs(docs, cfg),
                    empty_schema=sch["normalize"])
    sigs = rows = None
    if "minhash" in passes or "simhash" in passes:
        sigs = ck.stage("signatures", lambda: signature_table(norm, cfg),
                        empty_schema=sch["signatures"])
    if "substring" in passes:
        rows = ck.stage("winnow_rows", lambda: winnow_rows(norm, cfg),
                        empty_schema=sch["winnow_rows"])
    return norm, sigs, rows


def incremental_update(prior_root: str | list[str], new_docs,
                       cfg: PipelineConfig | None = None,
                       passes: tuple = PASSES,
                       cluster_strategy: str = "auto",
                       checkpointer: Checkpointer | None = None):
    """Cluster a NEW shard against a prior ``find_duplicates`` run without
    re-scanning the prior corpus — the web-scale InsertEntries
    (``fuzzy_matcher.go:21-27``: the reference mutates a live trie; here the
    prior run's immutable checkpoint artifacts are the index).

    A fold is the flagship's own pass builders run over a delta. It reads
    the prior run's artifacts (normalize / signatures / winnow_rows /
    clusters), builds ONLY the increment's, and hands the prior ones to
    ``exact_dup_edges`` / ``minhash_edges`` / ``simhash_edges`` /
    ``substring_edges`` as a ``PriorIndex``: each semi-joins the prior key
    rows against the increment's key set, so buckets the increment never
    touches never explode into pairs, and keeps only pairs with ≥1 new doc.
    The verified edges fan in at the same ``edges_all`` stage as the
    flagship; the fold then runs the clustering stage's labeller over the
    new edges with every prior component contracted to its label, and
    remaps only the components they touch (``_fold_labels``). Signatures
    are deterministic per doc, so the result is BYTE-IDENTICAL to a full
    re-run over prior ∪ new (same edge components ⇒ same min-id labels) —
    asserted by tests/test_incremental.py.

    Returns (doc_id, cluster_id) for every doc in prior ∪ new. Requires
    disjoint doc_id spaces (checked) and the same ``cfg`` AND pass set as
    the prior run for full-rerun byte-parity. Folding a WIDER pass set
    over a narrower prior root still works (missing artifacts re-derive
    from the normalize artifact) but is deliberately weaker: only pairs
    touching a new doc are verified, so prior-internal edges stay per the
    prior run's own pass set — asserted in
    tests/test_incremental.py::test_incremental_resigns_pre_lsh_checkpoint;
    ``verify_budget_per_doc`` is rejected (its per-doc ranking depends on
    the global candidate set, which an increment by design does not see).
    Hot-group caveat: parity also assumes no key bucket exceeds
    ``cfg.max_band_group`` — above the cap ``key_pairs`` emits star+chain
    topology whose center shifts when increment ids interleave a prior
    bucket, so near-threshold pairs inside such a bucket can verify
    differently than a full rerun would. Raise ``max_band_group`` (as the
    exact/brute paths do) if byte-parity matters on corpora with
    boilerplate-heavy hot buckets.

    ``prior_root`` may be a LIST of shard roots (a fold chain, oldest
    first): per-shard normalize/signatures/winnow_rows artifacts union into
    the prior index, while ``clusters`` — the current labels for every doc
    folded so far — come from the LAST root only. With ``checkpointer``
    the increment's own artifacts (normalize/signatures/winnow_rows), the
    new edges and the merged ``clusters`` persist under its root, making
    the output a valid next link of the chain — ``dedup_sharded`` builds
    web-scale runs out of exactly this step.
    """
    import ray

    cfg = cfg or PipelineConfig()
    if cfg.verify_budget_per_doc is not None:
        raise ValueError("incremental_update: verify_budget_per_doc breaks "
                         "full-rerun parity; run with budget=None")
    roots = [prior_root] if isinstance(prior_root, str) else list(prior_root)
    if not roots:
        raise ValueError("incremental_update: no prior roots")
    loaded = []                       # [(root, normalize_ds, config_hash)]
    for r in roots:
        n, h = _load_stage(r, "normalize")
        loaded.append((r, n, h))
    chash = loaded[-1][2]
    norm_A = loaded[0][1]
    for _, n, _ in loaded[1:]:
        norm_A = norm_A.union(n)
    clusters_A, _ = _load_stage(roots[-1], "clusters", chash)
    ck = checkpointer or Checkpointer("/tmp/fmr-ck-disabled",
                                      cfg.config_hash(), enabled=False)

    if new_docs.limit(1).count() == 0:
        out = clusters_A.select_columns(["doc_id", "cluster_id"])
        # keep the chain uniform: an empty shard still writes a valid link
        return _write_empty_link(ck, cfg, out) if ck.enabled else out

    # the caller's cfg, as in dedup_sharded's prebuild: a prebuilt stage
    # resumes as exactly what the fold would have built
    norm_B, sigs_B, win_B = _shard_artifacts(ck, new_docs, cfg, passes)

    from fuzzy_matcher_ray.stages.joins import (BROADCAST_MAX_ROWS,
                                                BroadcastAttacher,
                                                partitions_for, plan_bytes)
    # sized off the plans: size_bytes() on the prior union would re-read
    # every prior normalize artifact
    cfg = dataclasses.replace(cfg, join_num_partitions=partitions_for(
        cfg.join_num_partitions,
        (plan_bytes(new_docs) or 0) + (plan_bytes(norm_A) or 0)))

    # --- disjoint-id guard: one streaming filter over the slim prior ids
    # against the broadcast increment ids (the increment is the small side
    # by definition; at shard sizes past driver memory, skip via the
    # caller's own id discipline and the check degrades to the join paths
    # simply producing garbage — hence the hard error here while it fits)
    b_ids = np.unique(np.concatenate(
        [t["doc_id"].to_numpy(zero_copy_only=False)
         for t in norm_B.select_columns(["doc_id"])
         .iter_batches(batch_size=1 << 20, batch_format="pyarrow")]
        or [np.empty(0, np.int64)]))
    ids_ref = ray.put(b_ids)

    def _overlap(t: pa.Table) -> pa.Table:
        ks = ray.get(ids_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        idx = np.clip(np.searchsorted(ks, ids), 0, max(len(ks) - 1, 0))
        n = int((ks[idx] == ids).sum()) if len(ks) else 0
        return pa.table({"n": pa.array([n], pa.int64())})

    def _overlap_guard():
        n_overlap = sum(
            t["n"].to_pylist()[0]
            for t in clusters_A.select_columns(["doc_id"])
            .map_batches(_overlap, batch_format="pyarrow")
            .iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
        if n_overlap:
            raise ValueError(
                f"incremental_update: {n_overlap} doc_ids of the "
                "increment already exist in the prior corpus")

    # the guard and the shared text broadcast are independent Dataset
    # executions: overlap their fixed scheduling costs (~0.5-1 s each on
    # one node), which stack up per fold on a cold dedup_sharded chain
    with ThreadPoolExecutor(max_workers=1) as pool:
        f_overlap = pool.submit(_overlap_guard)
        # the verify stages' text source (A ∪ B, slim columns)
        texts = norm_A.select_columns(["doc_id", "norm_text"]).union(
            norm_B.select_columns(["doc_id", "norm_text"])).materialize()
        attacher = (BroadcastAttacher(texts, "doc_id", ["norm_text"])
                    if texts.count() <= BROADCAST_MAX_ROWS else None)
        f_overlap.result()

    sigs_A = win_A = None
    if sigs_B is not None:
        sigs_A = _prior_stage(loaded, "signatures",
                              lambda n: signature_table(n, cfg))
        # both LSH passes scan this prior-signature union (band keys AND
        # simhash keys). While it fits a bounded object-store budget, pin
        # it ONCE so the two semi-joins share a single execution instead
        # of re-reading the whole chain's artifacts per pass — a per-fold
        # fixed cost that stacks on cold chains. Past the budget the lazy
        # re-read streams: at open-web scale a second pruned parquet read
        # beats pinning the corpus signatures in the object store.
        if "minhash" in passes and "simhash" in passes \
                and (plan_bytes(sigs_A) or 0) <= SIGS_PIN_MAX_BYTES:
            sigs_A = sigs_A.materialize()
    if win_B is not None:
        win_A = _prior_stage(loaded, "winnow_rows",
                             lambda n: winnow_rows(n, cfg))

    prior = PriorIndex(norm_A, sigs_A, win_A, texts)
    new_edges = _edges_all(ck, _pass_builders(
        passes, norm_B, cfg, attacher, sigs_B, lambda: win_B, prior=prior),
        pass_stages=False)

    ids_B = norm_B.select_columns(["doc_id"])
    return ck.stage("clusters", lambda: _fold_labels(
        clusters_A, new_edges, ids_B, cfg, cluster_strategy),
        materialize_if_disabled=False)


def _fold_labels(clusters_A, new_edges, ids_B, cfg: PipelineConfig,
                 strategy: str):
    """(doc_id, cluster_id) over prior ∪ increment, relabelling only what
    the new edges touch.

    Every prior component is already contracted to its label, its min
    doc_id. The new edges' endpoints semi-join against the prior labels
    (``_semi_join_rows``: the prior corpus streams, never shuffles), each
    prior endpoint joins its label by a (cluster_id, doc_id) edge, and the
    clustering stage's labeller runs over that small graph. Its labels are
    min node ids, so remapping every row's cluster_id through them gives
    a full re-run's labels (same components ⇒ same min ids) at O(touched)
    cost per fold: rows of untouched components find no label and keep
    their own.
    """
    base = clusters_A.select_columns(["doc_id", "cluster_id"])
    nodes = base.union(ids_B.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"],
                            "cluster_id": t["doc_id"]}),
        batch_format="pyarrow"))
    if new_edges is None:
        return nodes
    # pinned: the semi-join reads it twice (count gate + key collect)
    ends = new_edges.map_batches(lambda t: pa.table({"doc_id": np.concatenate(
        [t["a"].to_numpy(zero_copy_only=False),
         t["b"].to_numpy(zero_copy_only=False)])}),
        batch_format="pyarrow").materialize()
    star = _semi_join_rows(base, ends, ["doc_id"], cfg).map_batches(
        lambda t: pa.table({"a": t["cluster_id"], "b": t["doc_id"]}).filter(
            pc.not_equal(t["cluster_id"], t["doc_id"])),
        batch_format="pyarrow")
    # pinned: the labeller reads it twice (size gate + labelling), and
    # the prior scan behind ``star`` should run once
    labels = component_labels(new_edges.union(star).materialize(), cfg,
                              strategy)
    out = attach_columns(nodes, labels, "cluster_id", "node",
                         {"label": "label"}, how="left",
                         num_partitions=cfg.join_num_partitions)
    return out.map_batches(lambda t: pa.table({
        "doc_id": t["doc_id"],
        "cluster_id": _coalesce_i64(t["label"], t["cluster_id"])}),
        batch_format="pyarrow")


def _fold_done(root: str, key: str) -> bool:
    """A fold is complete when its clusters manifest carries the fold's
    lineage key and either the data is present or it was pruned (folded
    into a later link)."""
    import json
    import os
    manifest = os.path.join(root, "clusters", "_MANIFEST.json")
    if not os.path.isfile(manifest):
        return False
    try:
        with open(manifest) as f:
            m = json.load(f)
    except (json.JSONDecodeError, OSError):
        return False
    if m.get("config_hash") != key:
        return False
    return bool(m.get("pruned")) or os.path.isdir(
        os.path.join(root, "clusters", "data"))


def _prune_clusters(root: str) -> None:
    """Drop a superseded fold's clusters DATA (its labels were folded into
    the next link); the manifest stays as lineage, flagged pruned.
    Idempotent — safe to re-run on resume."""
    import json
    import os
    import shutil
    manifest = os.path.join(root, "clusters", "_MANIFEST.json")
    data_dir = os.path.join(root, "clusters", "data")
    if not os.path.isfile(manifest):
        return
    with open(manifest) as f:
        m = json.load(f)
    if not m.get("pruned"):
        m["pruned"] = True
        with open(manifest, "w") as f:
            json.dump(m, f, indent=2)
    if os.path.isdir(data_dir):
        shutil.rmtree(data_dir)


def _prebuild_increment(sroot: str, key: str, ds, cfg: PipelineConfig,
                        passes: tuple, box: dict) -> None:
    """Build a shard's fold-INDEPENDENT artifacts ahead of its turn in a
    ``dedup_sharded`` chain: ``_shard_artifacts`` — the builder
    ``incremental_update`` itself runs, with the same cfg — computes them
    while the PREVIOUS fold is still linking; the fold's own ``ck.stage``
    calls then resume them from the manifest, byte-identically.
    Best-effort: any failure here simply leaves the fold to (re)build the
    stage itself. ``box['data']`` hands the resolved dataset to the fold so
    shard factories still run once on the success path."""
    data = ds() if callable(ds) else ds
    box["data"] = data
    if data.limit(1).count() == 0:
        return      # the fold's empty path writes its own artifacts
    _shard_artifacts(Checkpointer(sroot, key), data, cfg, passes)


def dedup_sharded(shards, state_root: str,
                  cfg: PipelineConfig | None = None,
                  passes: tuple = PASSES,
                  prune: bool = True):
    """Resumable sharded flagship: fold an ordered list of corpus shards
    into ONE clustering, one ``incremental_update`` link at a time — the
    operational shape of a 10^12-doc run (per-shard checkpoint roots give
    the per-partition lineage + metrics; a killed ``ray job submit`` run
    resumes at its first unfinished fold, and inside that fold at its
    first unfinished stage).

    ``shards``: ordered ``[(label, dataset_or_factory), ...]``. The label
    is the shard's identity in the lineage key (as ``cmd_dedup`` uses the
    input path), so a re-run with the same labels/config/passes skips
    finished folds WITHOUT evaluating their datasets — factories for
    skipped shards are never called. Layout:
    ``state_root/shard-00000-<label>/<stage>/{data,_MANIFEST.json}``.

    Each fold persists the increment's normalize/signatures/winnow_rows
    plus the merged clusters. With ``prune`` the previous fold's clusters
    DATA is dropped once the next fold lands, so checkpoint storage stays
    O(corpus + labels-of-corpus), not O(shards × corpus); the pruned
    manifest remains as lineage. Returns the final (doc_id, cluster_id)
    Dataset — byte-identical to ``find_duplicates`` over the concatenation
    of all shards (tests/test_sharded.py).
    """
    import os
    import re as _re

    import ray.data as rd

    cfg = cfg or PipelineConfig()
    shards = list(shards)
    if not shards:
        raise ValueError("dedup_sharded: no shards")
    labels = [lab for lab, _ in shards]
    if len(set(labels)) != len(labels):
        raise ValueError("dedup_sharded: shard labels must be unique "
                         f"(got {labels!r})")
    def _shard_ck(i: int, label) -> tuple[str, str]:
        safe = _re.sub(r"[^A-Za-z0-9._-]+", "_", str(label)).strip("_")[:80]
        sroot = os.path.join(state_root, f"shard-{i:05d}-{safe}")
        key = (f"{cfg.config_hash()}:{label}:"
               + ",".join(sorted(passes)))
        return sroot, key

    chain: list[str] = []
    prev_root: str | None = None
    pre: dict[int, tuple] = {}          # shard idx -> (future, box)
    _PRE_WINDOW = 2                     # shards prebuilt ahead of the fold
    # not a with-block: its __exit__ would make a raising fold wait for
    # every queued prebuild before the error propagates
    _pre_pool = ThreadPoolExecutor(max_workers=_PRE_WINDOW)
    try:
        for i, (label, ds) in enumerate(shards):
            sroot, key = _shard_ck(i, label)
            if not _fold_done(sroot, key):
                data = None
                if i in pre:
                    fut, box = pre.pop(i)
                    try:
                        fut.result()
                    except Exception:
                        pass    # best-effort: the fold rebuilds the stage
                    data = box.get("data")
                if data is None:
                    data = ds() if callable(ds) else ds
                # Pipelining: the next shards' fold-independent artifacts
                # (normalize / signatures / winnow_rows are functions of
                # each shard's own text, not of any prior fold) build on
                # driver threads WHILE this fold runs; those folds'
                # ck.stage calls then resume them from the manifest —
                # byte-identical output, and the shard-local ~40% of each
                # fold's wall overlaps the chain-dependent part. The
                # window stays small so prebuild work never starves the
                # live fold and checkpoint disk stays O(window · shard).
                for j in range(i + 1, min(i + 1 + _PRE_WINDOW,
                                          len(shards))):
                    if j in pre:
                        continue
                    lab_n, ds_n = shards[j]
                    sroot_n, key_n = _shard_ck(j, lab_n)
                    if not _fold_done(sroot_n, key_n):
                        box_n: dict = {}
                        pre[j] = (_pre_pool.submit(
                            _prebuild_increment, sroot_n, key_n, ds_n,
                            cfg, passes, box_n), box_n)
                ck = Checkpointer(sroot, key)
                if not chain:
                    if data.limit(1).count() == 0:
                        # an empty FIRST shard still writes a valid chain
                        # link (find_duplicates' empty fast path writes no
                        # stages)
                        _write_empty_link(ck, cfg)
                    else:
                        find_duplicates(data, cfg, checkpointer=ck,
                                        passes=passes)
                else:
                    incremental_update(chain, data, cfg, passes=passes,
                                       checkpointer=ck)
            if prune and prev_root is not None:
                _prune_clusters(prev_root)
            chain.append(sroot)
            prev_root = sroot
    finally:
        _pre_pool.shutdown(wait=False, cancel_futures=True)
    # Guard: re-running with a TRUNCATED shard list against a state_root
    # from a longer completed run finds every fold done — but the last
    # requested shard's clusters data was pruned when the longer run's next
    # fold landed. Fail with intent instead of an opaque read error.
    import json as _json
    last_manifest = os.path.join(prev_root, "clusters", "_MANIFEST.json")
    try:
        with open(last_manifest) as f:
            _m = _json.load(f)
    except (OSError, _json.JSONDecodeError):
        _m = {}
    if _m.get("pruned"):
        raise ValueError(
            f"dedup_sharded: the final shard's clusters at {prev_root!r} "
            "were pruned — this state_root belongs to a LONGER completed "
            "chain than the shard list passed here. Re-run with the full "
            "shard list, or use a fresh state_root for the shorter chain.")
    # a one-shard chain's clusters are find_duplicates' own, url included
    return rd.read_parquet(os.path.join(prev_root, "clusters", "data"),
                           columns=["doc_id", "cluster_id"])
