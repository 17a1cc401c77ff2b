"""The composed end-to-end curation recipe: one resumable pipeline running
the full pretraining-data chain the individual operators implement —

    quality_filter → exact dedup → near dedup → decontaminate →
    ccnet_buckets (keep head/middle) → mix_epochs → pack_sequences

— over checkpoint artifacts, stage by stage (≙ the reference's
Build-then-Search lifecycle, fuzzy_matcher_core.go:60-112, generalized to
the curation chain a 100 TB pretraining corpus actually runs).

Every stage consumes the PREVIOUS stage's survivor artifact and a fresh
column-pruned read of the source table (never a replayed upstream
pipeline), so:

- a killed run resumes from the last completed stage manifest
  (``state/checkpoint.Checkpointer`` — kill-anywhere resume is tested
  across stage boundaries in tests/test_curation_recipe.py);
- each stage's exchange is slim (doc_id lists, (doc_id, bucket) tables,
  (doc_id, copy_idx) streams) — document text is re-read pruned from
  storage per stage, the cheap side at any scale;
- the stages are the SAME oracle-proven kernels the standalone operators
  run (quality_filter_ds / exact groupby-min / jaccard clusters /
  decontaminate_ds / ccnet_buckets_ds / mix_epochs_ds / the
  prefix-sum pack) — the composed DuckDB oracle (``curation_packed``)
  hash-checks the whole chain's final packed output in one query.

Near-dup stage strategies: ``"exact"`` (default for the contract row) is
``jaccard_allpairs_clusters`` — the exact inverted-index all-pairs join,
SQL-expressible, the correct choice while the post-exact-dedup survivor
set is contract-scale; ``"lsh"`` is the flagship MinHash path for the
100 TB run (banding + exact-Jaccard verify at the same shingle/threshold
config; recall ≥ 0.99 gated by tests/test_dedup_e2e.py, equality with
"exact" on the contract fixtures asserted by the recipe parity test).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from fuzzy_matcher_ray.state.checkpoint import Checkpointer

PACK_WINDOW = 64


def _read(sf_dir: str, cols):
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=cols)


def _keep(docs, ids):
    """Semi-join: rows of ``docs`` whose doc_id appears in ``ids``.

    Rides the shared attach machinery (broadcast under its gate,
    key-local beyond) — survivor id lists are the slim side by
    construction. ``ids`` is pinned once, so its emptiness test and the
    attach read it once: a ``limit(1)`` probe or a ``schema()`` over the
    lazy semi-join would each start an early-stopped execution of it."""
    from fuzzy_matcher_ray.stages.joins import attach_columns, is_pinned

    ids = ids if is_pinned(ids) else ids.materialize()
    if ids.count() == 0:
        # upstream stage filtered everything: an empty survivor set has no
        # derivable schema for the join machinery — the semi-join result
        # is definitionally empty, with the docs schema (parquet metadata;
        # a plain limit(0) would erase it and break downstream collects)
        return rd.from_arrow(docs.schema().base_schema.empty_table())
    return attach_columns(docs, ids, "doc_id", "doc_id", {}, how="semi")


def _exact_winners(docs, representative: str = "min"):
    """Winner doc_id per normalized text (same normalize + null==empty
    rule as ``textops.exact_dedup_first``), over an explicit Dataset.

    ``representative="min"`` keeps the lowest doc_id (the contract
    convention); ``"best"`` keeps the member with the longest RAW text
    (ties → min doc_id) — the quality-aware selection of
    ``tier.keep_best_representatives``. Either way only slim rows enter
    the exchange: "min" groups on the normalized string, "best" keys on
    the 128-bit exact key (``fingerprint.exact_key``) and rides
    ``grouped_topk`` (k=1)."""
    from ray.data.aggregate import Min

    from fuzzy_matcher_ray.functions.normalize import normalize_array

    if representative == "best":
        from fuzzy_matcher_ray.functions.fingerprint import exact_key
        from fuzzy_matcher_ray.stages.ranks import grouped_topk

        def _key(t: pa.Table) -> pa.Table:
            h1, h2 = exact_key(normalize_array(t["text"]), 0)
            key = pc.binary_join_element_wise(
                pc.cast(pa.array(h1), pa.string()),
                pc.cast(pa.array(h2), pa.string()), ":")
            qlen = pc.cast(pc.fill_null(pc.utf8_length(t["text"]), 0),
                           pa.int64())
            return pa.table({"doc_id": t["doc_id"], "key": key,
                             "quality_len": qlen})

        keyed = docs.map_batches(_key, batch_format="pyarrow")
        best = grouped_topk(keyed, "key", "quality_len", "doc_id", k=1)
        return best.select_columns(["doc_id"]).sort("doc_id")

    def _norm(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "norm_text": pc.fill_null(normalize_array(t["text"]), "")})

    normed = docs.map_batches(_norm, batch_format="pyarrow")
    kept = normed.groupby("norm_text").aggregate(
        Min("doc_id", alias_name="doc_id"))
    return kept.select_columns(["doc_id"]).sort("doc_id")


def _near_winners(docs, strategy: str, representative: str = "min"):
    """Near-dup winners (min doc_id per Jaccard cluster) over a Dataset.

    ``docs`` must carry (doc_id, text); consumed twice (shingle pass +
    cluster node list) by both strategies, so pass a cheap Dataset."""
    from fuzzy_matcher_ray.config import PipelineConfig

    cfg = PipelineConfig()
    if strategy == "exact":
        from fuzzy_matcher_ray.pipelines.dedup import jaccard_allpairs_clusters
        clusters = jaccard_allpairs_clusters(docs, cfg)
    elif strategy == "lsh":
        from fuzzy_matcher_ray.pipelines.dedup import find_duplicates

        def _with_url(t: pa.Table) -> pa.Table:
            url = pc.binary_join_element_wise(
                pa.array(["doc://"] * len(t)),
                pc.cast(t["doc_id"], pa.string()), "")
            return pa.table({"doc_id": t["doc_id"], "url": url,
                             "text": t["text"]})

        clusters = find_duplicates(
            docs.map_batches(_with_url, batch_format="pyarrow"), cfg,
            passes=("minhash",))
    else:
        raise ValueError(f"unknown neardup strategy {strategy!r}")
    if representative == "best":
        # longest-raw-text member per near cluster (ties → min doc_id):
        # the keep_best_representatives selection, k=1 grouped_topk over
        # slim (cluster_id, quality_len, doc_id) rows
        from fuzzy_matcher_ray.stages.joins import attach_columns
        from fuzzy_matcher_ray.stages.ranks import grouped_topk

        def _score(t: pa.Table) -> pa.Table:
            qlen = pc.cast(pc.fill_null(pc.utf8_length(t["text"]), 0),
                           pa.int64())
            return pa.table({"doc_id": t["doc_id"], "quality_len": qlen})

        scored = attach_columns(
            clusters, docs.map_batches(_score, batch_format="pyarrow"),
            "doc_id", "doc_id", {"quality_len": "quality_len"}, how="inner")
        best = grouped_topk(scored, "cluster_id", "quality_len", "doc_id",
                            k=1)
        return best.select_columns(["doc_id"]).sort("doc_id")
    winners = clusters.map_batches(
        lambda t: t.filter(pc.equal(t["doc_id"], t["cluster_id"])),
        batch_format="pyarrow")
    return winners.select_columns(["doc_id"]).sort("doc_id")


def _ccnet_keep(docs, k_buckets: int, keep_buckets: int):
    """(doc_id, lang, bucket) of docs whose per-lang LM-quality bucket is
    ≤ ``keep_buckets`` (CCNet keeps head/middle, drops tail). LM is fit on
    exactly the docs given — the current survivor set."""
    from fuzzy_matcher_ray.pipelines.relevance import ccnet_buckets_ds

    b = ccnet_buckets_ds(docs, k=k_buckets)
    kept = b.map_batches(
        lambda t: t.filter(pc.less_equal(t["bucket"],
                                         pa.scalar(keep_buckets))),
        batch_format="pyarrow")
    return kept.select_columns(["doc_id", "lang", "bucket"]).sort("doc_id")


def _pack_mixed(mixed_tc, window: int):
    """Pack the MIXED stream: (doc_id, copy_idx, tc) rows ordered by
    (doc_id, copy_idx), global exclusive token prefix sums via the
    block-metadata stamp, then a per-block vectorized window explode —
    ``textops._pack`` generalized to repeated docs. Output
    (seq_id, doc_id, copy_idx, tok_start, tok_end)."""
    from fuzzy_matcher_ray.stages.ranks import stamp_global_prefix_sums

    slim = mixed_tc.sort(["doc_id", "copy_idx"])
    stamped = stamp_global_prefix_sums(slim, "tc", col="off")

    def _explode(t: pa.Table) -> pa.Table:
        tc = t["tc"].to_numpy(zero_copy_only=False).astype(np.int64)
        off = t["off"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        cidx = t["copy_idx"].to_numpy(zero_copy_only=False)
        keep = tc > 0
        tc, off, ids, cidx = tc[keep], off[keep], ids[keep], cidx[keep]
        first = off // window
        cnt = (off + tc - 1) // window - first + 1
        ridx = np.repeat(np.arange(len(ids), dtype=np.int64), cnt)
        intra = (np.arange(int(cnt.sum()), dtype=np.int64)
                 - np.repeat(np.cumsum(cnt) - cnt, cnt))
        seq = first[ridx] + intra
        return pa.table({
            "seq_id": pa.array(seq),
            "doc_id": pa.array(ids[ridx]),
            "copy_idx": pa.array(cidx[ridx]),
            "tok_start": pa.array(np.maximum(0, seq * window - off[ridx])),
            "tok_end": pa.array(np.minimum(tc[ridx],
                                           (seq + 1) * window - off[ridx])),
        })

    return stamped.map_batches(_explode, batch_format="pyarrow") \
                  .sort(["seq_id", "doc_id", "copy_idx"])


def curate_corpus(sf_dir: str, checkpoint_root: str | None = None,
                  window: int = PACK_WINDOW, k_buckets: int = 3,
                  keep_buckets: int = 2, neardup: str = "exact",
                  n_eval: int = 20, representative: str = "min"):
    """Run the full curation chain; returns the packed-sequence Dataset
    (seq_id, doc_id, copy_idx, tok_start, tok_end), sorted.

    With ``checkpoint_root`` every stage writes a manifest+parquet
    artifact; a rerun (same config) resumes from the last completed stage
    — kill the process anywhere and re-call to continue.

    ``representative="best"`` keeps the longest-raw-text member of every
    exact/near dup cluster instead of the min-id one (what a production
    run keeps — see ``tier.keep_best_representatives``); the default
    "min" is the oracle-checked contract convention.
    """
    from fuzzy_matcher_ray.pipelines.textops import mix_epochs_ds
    from fuzzy_matcher_ray.pipelines.webtext import (decontaminate_ds,
                                                     quality_filter_ds)

    if representative not in ("min", "best"):
        raise ValueError(f"unknown representative {representative!r}")
    # "min" keeps the historical hash so existing checkpoints stay valid
    rep_tag = "" if representative == "min" else f"|rep={representative}"
    desc = (f"curate-v1|w={window}|k={k_buckets}|keep={keep_buckets}"
            f"|nd={neardup}|ev={n_eval}{rep_tag}")
    chash = hashlib.sha256(desc.encode()).hexdigest()[:16]
    ck = (Checkpointer(checkpoint_root, chash) if checkpoint_root
          else Checkpointer("/tmp/fmr-curate-disabled", chash,
                            enabled=False))

    quality = ck.stage(
        "s1_quality",
        lambda: quality_filter_ds(_read(sf_dir, ["doc_id", "text"])))
    exact = ck.stage(
        "s2_exact",
        lambda: _exact_winners(
            _keep(_read(sf_dir, ["doc_id", "text"]), quality),
            representative))
    near = ck.stage(
        "s3_neardup",
        lambda: _near_winners(
            _keep(_read(sf_dir, ["doc_id", "text"]), exact), neardup,
            representative))
    decon = ck.stage(
        "s4_decontam",
        lambda: decontaminate_ds(
            _keep(_read(sf_dir, ["doc_id", "text"]), near),
            _read(sf_dir, ["doc_id", "text"]), n_eval=n_eval))
    ccnet = ck.stage(
        "s5_ccnet",
        lambda: _ccnet_keep(
            _keep(_read(sf_dir, ["doc_id", "text", "lang"]), decon),
            k_buckets, keep_buckets))
    mixed = ck.stage(
        "s6_mix",
        lambda: mix_epochs_ds(
            _keep(_read(sf_dir, ["doc_id", "source"]), ccnet)))

    empty_packed = pa.schema([
        ("seq_id", pa.int64()), ("doc_id", pa.int64()),
        ("copy_idx", pa.int64()), ("tok_start", pa.int64()),
        ("tok_end", pa.int64())])

    def _build_packed():
        from fuzzy_matcher_ray.functions.textstats import token_count
        from fuzzy_matcher_ray.stages.joins import attach_columns

        if ccnet.count() == 0:       # a pinned stage: metadata
            # every doc filtered upstream — zero-row executions lose their
            # schema through the join machinery; the packed output is
            # definitionally empty
            return rd.from_arrow(empty_packed.empty_table())

        def _tc(t: pa.Table) -> pa.Table:
            toks = pc.cast(token_count(pc.fill_null(t["text"], "")),
                           pa.int64())
            return pa.table({"doc_id": t["doc_id"], "tc": toks})

        tcs = _keep(_read(sf_dir, ["doc_id", "text"]), ccnet) \
            .map_batches(_tc, batch_format="pyarrow")
        mixed_tc = attach_columns(
            mixed.select_columns(["doc_id", "copy_idx"]), tcs,
            "doc_id", "doc_id", {"tc": "tc"}, how="inner")
        return _pack_mixed(mixed_tc, window)

    return ck.stage("s7_packed", _build_packed, empty_schema=empty_packed)


def curation_packed(sf_dir: str, neardup: str = "exact"):
    """The driver-contract entry: the composed chain's final packed
    output over a fresh (checkpoint-less) run."""
    return curate_corpus(sf_dir, neardup=neardup)


def curation_report(sf_dir: str, checkpoint_root: str | None = None,
                    neardup: str = "exact"):
    """(stage, n_rows) funnel of the curation chain — the per-stage
    survivor counts an operator watches (each count is a metadata read of
    the stage artifact / a streaming count, no extra passes)."""
    import pandas as pd
    ck_root = checkpoint_root
    # run (or resume) the chain, then count each artifact
    curate_corpus(sf_dir, checkpoint_root=ck_root, neardup=neardup)
    rows = []
    if ck_root:
        import json
        import os
        for stage in ("s1_quality", "s2_exact", "s3_neardup", "s4_decontam",
                      "s5_ccnet", "s6_mix", "s7_packed"):
            m = os.path.join(ck_root, stage, "_MANIFEST.json")
            with open(m) as f:
                rows.append({"stage": stage,
                             "n_rows": json.load(f).get("rows", -1)})
    return pd.DataFrame(rows)
