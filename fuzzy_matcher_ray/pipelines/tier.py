"""Tiered deduplication: the composed exact → near cascade with per-doc
tier labels, and the soft-dedup down-weighting it induces.

The reference runs its exact pass before the fuzzy trie search so the
expensive tier only sees exact-dedup survivors (fuzzy_matcher_core.go:60-112
Build→Search lifecycle); this module exposes that cascade as ONE labeled
operator over the ``documents`` table:

- tier ``exact``  — doc eliminated by the exact tier (a lower doc_id has
  byte-identical normalized text);
- tier ``near``   — doc survived the exact tier but its shingle set is
  Jaccard ≥ 0.8 to a lower-id survivor (transitively);
- tier ``keep``   — the final representative (doc_id == cluster_id).

``cluster_id`` is the FINAL cluster after both tiers (min doc_id through
exact groups then near components), so the output is a superset of the
plain (doc_id, cluster_id) dedup contract plus the elimination label.

The cascade matters beyond bookkeeping: the near tier (all-pairs Jaccard
here — the SQL-expressible exact oracle; the LSH passes are the scale
path) runs over exact-tier SURVIVORS only, so N identical copies cost one
shingle set instead of N, and short documents (normalized length < the
shingle width, hence no shingles at all) still deduplicate — the exact
tier catches them where a pure-Jaccard pass definitionally cannot.

At 100 TB: the exact tier is one hash-partitioned groupby over
(norm-hash) keys; the near tier inherits the survivor-only input, and its
exchange is the same banded/verified machinery as ``find_duplicates`` —
swap ``jaccard_allpairs_clusters`` for the LSH passes via ``use_lsh``.

``soft_dedup_weights`` is the down-weighting alternative to dropping
(train on everything, weight each doc 1/|cluster|): per-cluster counts
over the tiered labels, one slim groupby + attach — weights per cluster
sum to exactly 1.0.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.functions.normalize import normalize_array


def _docs(sf_dir: str):
    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])


def _doc_winner(sf_dir: str):
    """(doc_id, w): w = min doc_id sharing this doc's normalized text
    (nulls ≡ empty, the shared dedup-gate rule).

    Keys are the shared 128-bit content hash (two independent 64-bit
    halves, collision ~2^-128 — the exact_dup_edges convention), so only
    24 B/row ever enters an exchange: the full normalized text never
    leaves the batch that computed it. The min-rep core is exact_dup_edges'
    own (``dedup.min_reps``): a lexsort + segment min over key segments,
    once on the driver on small corpora, per block of a range sort on the
    key at scale.
    """
    from fuzzy_matcher_ray.functions.fingerprint import content_hash
    from fuzzy_matcher_ray.pipelines.dedup import min_reps

    def _key(t: pa.Table) -> pa.Table:
        norm = pc.fill_null(normalize_array(t["text"]), "")
        if isinstance(norm, pa.ChunkedArray):
            norm = norm.combine_chunks()
        return pa.table({
            "doc_id": t["doc_id"],
            "h1": pa.array(content_hash(norm).view(np.int64)),
            "h2": pa.array(content_hash(norm, seed=0x5F3759DF).view(np.int64)),
        })

    keyed = _docs(sf_dir).map_batches(_key, batch_format="pyarrow") \
                         .materialize()
    return min_reps(keyed, ["h1", "h2"]).rename_columns({"rep": "w"})


def tiered_dedup(sf_dir: str, cfg: PipelineConfig | None = None,
                 use_lsh: bool = False):
    """(doc_id, cluster_id, tier) over ``documents`` — the exact → near
    dedup cascade with the tier that decided each doc (see module
    docstring). ``use_lsh=True`` swaps the near tier's exact all-pairs
    join for the banded MinHash passes (the 100 TB path; same
    shingle/threshold config, recall-gated in tests/test_dedup_e2e.py)."""
    from fuzzy_matcher_ray.stages.joins import attach_columns

    cfg = cfg or PipelineConfig()
    doc_w = _doc_winner(sf_dir).materialize()

    # exact-tier survivors, with text for the shingle pass: semi-join the
    # pruned source read on the winner ids (slim side by construction)
    winner_ids = doc_w.map_batches(
        lambda t: t.select(["doc_id"]).filter(pc.equal(t["doc_id"], t["w"])),
        batch_format="pyarrow")
    # materialized: the all-pairs near tier consumes it more than once
    # (emptiness probe, shingle rows, doc ids) — survivors-with-text is slim
    winners = attach_columns(_docs(sf_dir), winner_ids, "doc_id", "doc_id",
                             {}, how="semi") \
        .select_columns(["doc_id", "text"]).materialize()

    if use_lsh:
        from fuzzy_matcher_ray.pipelines.dedup import find_duplicates

        def _with_url(t: pa.Table) -> pa.Table:
            url = pc.binary_join_element_wise(
                pa.array(["doc://"] * len(t)),
                pc.cast(t["doc_id"], pa.string()), "")
            return pa.table({"doc_id": t["doc_id"], "url": url,
                             "text": t["text"]})

        near = find_duplicates(
            winners.map_batches(_with_url, batch_format="pyarrow"), cfg,
            passes=("minhash",))
    else:
        from fuzzy_matcher_ray.pipelines.dedup import jaccard_allpairs_clusters
        near = jaccard_allpairs_clusters(winners, cfg)

    # near is keyed by winner id. Materialized: attach_columns sizes its
    # right side before joining — without the pin the whole near-tier
    # pipeline would execute twice
    labeled = attach_columns(doc_w, near.materialize(), "w", "doc_id",
                             {"cluster_id": "cluster_id"}, how="inner")

    def _tier(t: pa.Table) -> pa.Table:
        ids = t["doc_id"]
        tier = pc.if_else(
            pc.equal(ids, t["cluster_id"]), pa.scalar("keep"),
            pc.if_else(pc.equal(ids, t["w"]), pa.scalar("near"),
                       pa.scalar("exact")))
        return pa.table({"doc_id": ids, "cluster_id": t["cluster_id"],
                         "tier": tier})

    return labeled.map_batches(_tier, batch_format="pyarrow").sort("doc_id")


def tier_counts(sf_dir: str, cfg: PipelineConfig | None = None):
    """(tier, n_docs) — the cascade's elimination funnel (how much each
    tier removed; ``keep`` is the surviving corpus size). One slim groupby
    over the labels."""
    from ray.data.aggregate import Count

    labels = tiered_dedup(sf_dir, cfg)
    return labels.groupby("tier").aggregate(
        Count("doc_id", alias_name="n_docs")).sort("tier")


def dup_funnel(sf_dir: str, cfg: PipelineConfig | None = None,
               passes: tuple = ("exact", "minhash", "simhash", "substring")):
    """(pass, n_removed): docs NEWLY eliminated by each flagship pass, in
    cascade order, plus the final ``('keep', n_survivors)`` row — the
    per-pass refinement of ``tier_counts`` over find_duplicates' own edge
    builders (exact semantics: TIER_SKIP docs are never dedup candidates,
    exactly as the flagship).

    A doc counts as removed at the FIRST pass whose edge union (all
    passes so far) connects it to a lower-id doc; later passes only get
    credit for docs no earlier pass had already eliminated — so rows are
    non-negative and sum to the corpus size. This is the lineage report a
    curation run reads to decide which pass earns its cost on a given
    corpus (e.g. substring rarely pays on short-doc corpora).

    Cost: the passes' edge builders run once each (shared normalize +
    signature artifacts, exactly the flagship's sharing), plus one slim
    union-find per CASCADE PREFIX — len(passes) clusterings over edge
    lists, never over documents. Driver-side iteration is over the ≤4
    pass names, not data. Not SQL-expressible (LSH/SimHash/winnowing) —
    rows-only contract + planted pytest oracles."""
    from fuzzy_matcher_ray.pipelines.dedup import (_SKETCH_PASSES,
                                                   _pass_builders,
                                                   signature_table)
    from fuzzy_matcher_ray.stages.candidates import dedup_pairs
    from fuzzy_matcher_ray.stages.cluster import cluster_edges
    from fuzzy_matcher_ray.stages.normalize_stage import normalized_docs

    cfg = cfg or PipelineConfig()
    norm = normalized_docs(_docs(sf_dir), cfg).materialize()
    sigs = None
    if _SKETCH_PASSES & set(passes):
        sigs = signature_table(norm, cfg).materialize()
    ids = norm.select_columns(["doc_id"]).materialize()
    n_docs = ids.count()

    def _n_removed(clusters) -> int:
        return clusters.map_batches(
            lambda t: t.filter(pc.not_equal(t["doc_id"], t["cluster_id"])),
            batch_format="pyarrow").count()

    prefix = None
    prev = 0
    names, removed = [], []
    for p in passes:
        (build,) = _pass_builders((p,), norm, cfg, None, sigs)
        e = build().materialize()
        prefix = e if prefix is None else prefix.union(e).materialize()
        n_rm = _n_removed(cluster_edges(dedup_pairs(prefix), ids, cfg))
        names.append(p)
        removed.append(n_rm - prev)
        prev = n_rm
    names.append("keep")
    removed.append(n_docs - prev)
    return rd.from_arrow(pa.table({
        "pass": pa.array(names, pa.string()),
        "n_removed": pa.array(removed, pa.int64())}))


def keep_best_representatives(sf_dir: str, cfg: PipelineConfig | None = None,
                              use_lsh: bool = False):
    """(cluster_id, doc_id, quality_len): per FINAL tiered cluster, the
    member with the longest raw text (ties → min doc_id) — the
    quality-aware alternative to the min-id representative convention.

    Production curation keeps the *best* copy of a duplicate group (the
    canonical page, the longest extraction), not the one with the lowest
    id; this operator composes the tiered cascade with that selection.
    Quality here is raw character length (``utf8_length``, nulls ≡ 0) —
    deterministic, oracle-expressible, and a reasonable proxy at crawl
    scale; swap the score column for any per-doc quality signal (e.g.
    ``text_quality``'s score) without touching the selection kernel.

    At 100 TB: quality is a per-batch map over the pruned (doc_id, text)
    read; selection is ``grouped_topk`` (k=1) over slim
    (cluster_id, quality_len, doc_id) rows — a bounded-residue partial
    pass then the same kernel over the residue, never a per-group
    dispatch.
    ``use_lsh=True`` swaps the near tier onto the banded MinHash passes,
    exactly as ``tiered_dedup``.
    """
    from fuzzy_matcher_ray.stages.joins import attach_columns
    from fuzzy_matcher_ray.stages.ranks import grouped_topk

    labels = tiered_dedup(sf_dir, cfg, use_lsh=use_lsh) \
        .select_columns(["doc_id", "cluster_id"])

    def _score(t: pa.Table) -> pa.Table:
        n = pc.fill_null(pc.utf8_length(t["text"]), 0)
        return pa.table({"doc_id": t["doc_id"],
                         "quality_len": pc.cast(n, pa.int64())})

    scores = _docs(sf_dir).map_batches(_score, batch_format="pyarrow")
    scored = attach_columns(labels, scores, "doc_id", "doc_id",
                            {"quality_len": "quality_len"}, how="inner")
    best = grouped_topk(scored, "cluster_id", "quality_len", "doc_id", k=1)
    return best.select_columns(["cluster_id", "doc_id", "quality_len"]) \
               .sort("cluster_id")


def soft_dedup_weights(sf_dir: str, cfg: PipelineConfig | None = None):
    """(doc_id, weight): weight = 1 / |final tiered cluster| — keep every
    copy but down-weight it so each duplicate cluster contributes exactly
    one document's worth of training mass (the drop-free alternative the
    soft-dedup literature trains on), up to float rounding. The weight
    itself is exactly-reproducible float64: one IEEE division of the same
    int64 on both engines."""
    from ray.data.aggregate import Count

    from fuzzy_matcher_ray.stages.joins import attach_columns

    labels = tiered_dedup(sf_dir, cfg).materialize()
    sizes = labels.groupby("cluster_id").aggregate(
        Count("doc_id", alias_name="n"))
    sized = attach_columns(labels.select_columns(["doc_id", "cluster_id"]),
                           sizes, "cluster_id", "cluster_id", {"n": "n"},
                           how="inner")

    def _w(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"doc_id": t["doc_id"],
                         "weight": pa.array(1.0 / n)})

    return sized.map_batches(_w, batch_format="pyarrow").sort("doc_id")
