"""The traced run: each layer timed from outside through its public calls.

``flagship_layers`` composes the calls ``find_duplicates`` makes, in its
order, and materializes at every boundary so each span holds exactly one
layer's work. The passes run one after another here (``find_duplicates``
overlaps them on driver threads), which is part of ``trace.overhead_s``.
``chain_layers`` runs ``dedup_sharded`` itself and times each of its links
(``find_duplicates`` with a checkpointer, then ``incremental_update``) by
wrapping the two module-level functions it calls. ``kernel_rates`` times the
``functions`` kernels on the workload's own text in this process.

Only the default ``PipelineConfig`` passes are composed (all four, no
verify budget, no shingle-set artifact), which is what the workloads run.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.functions.fingerprint import winnow_batch
from fuzzy_matcher_ray.functions.minhash import minhash_signatures, perm_params
from fuzzy_matcher_ray.functions.normalize import normalize_array
from fuzzy_matcher_ray.functions.shingle import (
    segmented_intersection_counts, shingle_batch, string_buffer, unique_per_doc)
from fuzzy_matcher_ray.functions.simhash import simhash_batch
from fuzzy_matcher_ray.functions.unionfind import connected_components
from fuzzy_matcher_ray.pipelines import dedup
from fuzzy_matcher_ray.pipelines.dedup import exact_dup_edges, signature_table
from fuzzy_matcher_ray.sources.protocol import webpages_source
from fuzzy_matcher_ray.stages.candidates import dedup_pairs, key_pairs
from fuzzy_matcher_ray.stages.cluster import cluster_edges
from fuzzy_matcher_ray.stages.joins import (
    BroadcastAttacher, attach_columns, collect_table, partitions_for)
from fuzzy_matcher_ray.stages.minhash_stage import (
    Winnower, add_stage, band_key_rows, simhash_key_rows)
from fuzzy_matcher_ray.stages.normalize_stage import TIER_FUZZY, normalized_docs
from fuzzy_matcher_ray.stages.verify import (
    JaccardVerifier, SubstringVerifier, simhash_pair_filter)
from fuzzy_matcher_ray.state.checkpoint import run_report


def _pack_pp(t: pa.Table) -> pa.Array:
    """The winnow seed-position packing ``substring_edges`` derives for
    its verifier (pos_a << 21 | pos_b, null when out of range)."""
    pa_ = t["pos_a"].to_numpy(zero_copy_only=False).astype(np.int64)
    pb_ = t["pos_b"].to_numpy(zero_copy_only=False).astype(np.int64)
    ok = (pa_ >= 0) & (pb_ >= 0) & (pa_ < (1 << 21)) & (pb_ < (1 << 21))
    arr = pa.array((pa_ << 21) | pb_)
    if not ok.all():
        arr = pc.if_else(pa.array(ok), arr, pa.scalar(None, pa.int64()))
    return arr


def _ab(ds):
    return ds.select_columns(["a", "b"])


def _max_group(ds, cols: list[str]) -> int:
    t = collect_table(ds.select_columns(cols))
    if len(t) == 0:
        return 0
    return int(pc.max(t.group_by(cols).aggregate([([], "count_all")])
                      ["count_all"]).as_py())


def flagship_layers(tr, path: str, cfg: PipelineConfig
                    ) -> tuple[pa.Table, dict, pa.Table]:
    """Run the flagship over one pages file layer by layer inside a
    ``flagship`` span; returns the (doc_id, cluster_id, url) result, the
    per-layer metrics (counts are taken after the span closes) and the
    deduplicated edges."""
    if cfg.verify_budget_per_doc is not None or cfg.use_shingle_set_artifact:
        raise ValueError("only the default verify path is composed")
    src = webpages_source(path)
    cfg = dataclasses.replace(cfg, join_num_partitions=partitions_for(
        cfg.join_num_partitions, src.size_bytes()))
    with tr.span("flagship"):
        with tr.span("sources"):
            docs = src.materialize()
        with tr.span("normalize_stage"):
            norm = normalized_docs(docs, cfg).repartition(
                cfg.join_num_partitions).materialize()
        with tr.span("joins.broadcast_text"):
            attacher = BroadcastAttacher(norm, "doc_id", ["norm_text"])
        with tr.span("minhash_stage.signatures"):
            sigs = signature_table(norm, cfg).materialize()
        with tr.span("minhash_stage.winnow"):
            win = add_stage(norm.select_columns(["doc_id", "norm_text", "tier"]),
                            Winnower, cfg).materialize()
        with tr.span("candidates.exact"):
            exact = exact_dup_edges(norm, cfg).materialize()
        with tr.span("candidates.minhash"):
            band_rows = band_key_rows(sigs, cfg).materialize()
            mh_pairs = key_pairs(band_rows, ["band", "band_hash"], cfg).materialize()
        with tr.span("verify.minhash"):
            mh_edges = mh_pairs.map_batches(
                JaccardVerifier(cfg, text_ref=attacher.ref), batch_format="pyarrow",
                batch_size=cfg.verify_batch_size).materialize()
        with tr.span("candidates.simhash"):
            sh_pairs = _ab(key_pairs(
                simhash_key_rows(sigs, cfg), ["block", "block_val"], cfg,
                carry_cols=["simhash"],
                pair_filter=simhash_pair_filter(cfg.simhash_hamming_max))
            ).materialize()
        with tr.span("verify.simhash"):
            relaxed = max(0.5, cfg.jaccard_threshold - 0.1)
            sh_edges = sh_pairs.map_batches(
                JaccardVerifier(cfg, relaxed, text_ref=attacher.ref),
                batch_format="pyarrow",
                batch_size=cfg.verify_batch_size).materialize()
        with tr.span("candidates.substring"):
            sub_pairs = key_pairs(win.select_columns(["fp", "doc_id", "pos"]),
                                  ["fp"], cfg, carry_cols=["pos"],
                                  derive={"pp": _pack_pp}).materialize()
        with tr.span("verify.substring"):
            sub_edges = sub_pairs.map_batches(
                SubstringVerifier(cfg, text_ref=attacher.ref),
                batch_format="pyarrow", batch_size=4096).materialize()
        with tr.span("candidates.dedup_pairs"):
            edges = dedup_pairs(_ab(exact).union(_ab(mh_edges), _ab(sh_edges),
                                                 _ab(sub_edges))).materialize()
        with tr.span("cluster"):
            clusters = cluster_edges(edges, norm.select_columns(["doc_id"]),
                                     cfg).materialize()
        with tr.span("joins.attach_url"):
            out = attach_columns(clusters, src.select_columns(["doc_id", "url"]),
                                 "doc_id", "doc_id", {"url": "url"}, how="left",
                                 num_partitions=cfg.join_num_partitions)
            result = collect_table(out)

    sizes = pc.value_counts(result["cluster_id"]).field("counts")
    tiers = collect_table(norm.select_columns(["tier"]))["tier"]
    edge_tbl = collect_table(edges)
    n_edges = len(edge_tbl)
    m = {**_layer_seconds(tr),
        "normalize_stage.rows": len(tiers),
        "normalize_stage.fuzzy_share":
            pc.sum(pc.equal(tiers, TIER_FUZZY)).as_py() / max(len(tiers), 1),
        "minhash_stage.winnow_rows": win.count(),
        "candidates.minhash.max_group": _max_group(band_rows, ["band", "band_hash"]),
        "candidates.substring.max_group": _max_group(win, ["fp"]),
        "candidates.edges_all": n_edges,
        "cluster.components": len(sizes),
        "cluster.max_component": pc.max(sizes).as_py(),
        "cluster.distributed": int(n_edges > cfg.driver_uf_max_edges),
    }
    m["candidates.exact.pairs"] = exact.count()
    for name, pairs, out_edges in (("minhash", mh_pairs, mh_edges),
                                   ("simhash", sh_pairs, sh_edges),
                                   ("substring", sub_pairs, sub_edges)):
        n_in = pairs.count()
        m[f"candidates.{name}.pairs"] = n_in
        m[f"verify.{name}.accept_ratio"] = out_edges.count() / n_in if n_in else 0.0
    return result, m, edge_tbl


def _layer_seconds(tr) -> dict:
    """Per-layer span times of the last ``flagship`` composition."""
    names = {
        "sources": "sources.read_s",
        "normalize_stage": "normalize_stage.s",
        "minhash_stage.signatures": "minhash_stage.signatures_s",
        "minhash_stage.winnow": "minhash_stage.winnow_s",
        "candidates.exact": "candidates.exact.s",
        "candidates.minhash": "candidates.minhash.s",
        "candidates.simhash": "candidates.simhash.s",
        "candidates.substring": "candidates.substring.s",
        "verify.minhash": "verify.minhash.s",
        "verify.simhash": "verify.simhash.s",
        "verify.substring": "verify.substring.s",
        "candidates.dedup_pairs": "candidates.dedup_pairs.s",
        "cluster": "cluster.s",
        "joins.attach_url": "joins.attach_url.s",
    }
    return {metric: tr.seconds(span)[-1] for span, metric in names.items()}


def chain_layers(tr, counter, shard_paths: list[str], state_root: str,
                 cfg: PipelineConfig) -> tuple[pa.Table, dict]:
    """Fold ``shard_paths`` with ``dedup_sharded`` under ``state_root``
    inside a ``dedup_sharded`` span, one ``dedup.fold`` span per link;
    returns the final (doc_id, cluster_id) labels and the fold and
    checkpoint metrics.

    The chain is the program's own (next shards prebuilt on driver threads,
    superseded clusters pruned): only the module-level ``find_duplicates``
    and ``incremental_update`` it calls are wrapped while it runs. A link's
    executions include those of the prebuilds running beside it. The
    checkpoint figures are ``run_report`` over the chain's state root."""
    walls, execs = [], []

    def timed(fn):
        def link(*args, **kwargs):
            n0, t0 = counter.count, time.perf_counter()
            with tr.span("dedup.fold", link=len(walls)):
                out = fn(*args, **kwargs)
            walls.append(time.perf_counter() - t0)
            execs.append(counter.count - n0)
            return out
        return link

    shards = [(f"shard{i}", webpages_source(p)) for i, p in enumerate(shard_paths)]
    saved = dedup.find_duplicates, dedup.incremental_update
    dedup.find_duplicates, dedup.incremental_update = map(timed, saved)
    try:
        with tr.span("dedup_sharded"):
            labels = collect_table(dedup.dedup_sharded(shards, state_root, cfg))
    finally:
        dedup.find_duplicates, dedup.incremental_update = saved
    report = run_report(state_root)
    m = {"dedup.fold.s_median": statistics.median(walls),
         "dedup.fold.s_max": max(walls),
         "dedup.fold.executions_median": statistics.median(execs),
         "checkpoint.bytes": pc.sum(report["data_bytes"]).as_py()}
    for stage in ("normalize", "signatures", "winnow_rows", "clusters"):
        rows = report.filter(pc.equal(report["stage"], stage))
        m[f"checkpoint.{stage}.s"] = pc.sum(rows["wall_sec"]).as_py() or 0.0
    return labels, m


def _rate(fn, work: float, reps: int = 3) -> float:
    """``work`` units / median seconds of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return work / max(statistics.median(times), 1e-9)


def kernel_rates(path: str, edges: pa.Table, cfg: PipelineConfig,
                 n_docs: int = 600) -> dict:
    """Throughput of each ``functions`` kernel in this process on the first
    ``n_docs`` docs of ``path``: Jaccard over each fuzzy-tier doc paired
    with the next, union-find over the run's own ``edges``."""
    import pyarrow.parquet as pq

    text = pq.read_table(path, columns=["text"])["text"].slice(0, n_docs)
    text = text.combine_chunks()
    norm = normalize_array(text)
    fuzzy = norm.filter(pc.greater_equal(pc.utf8_length(norm), cfg.min_text_len))
    mb_raw = pc.sum(pc.binary_length(text)).as_py() / 2**20
    mb = pc.sum(pc.binary_length(fuzzy)).as_py() / 2**20
    hashes, counts = shingle_batch(fuzzy, cfg.shingle_k, cfg.seed)
    a, b = perm_params(cfg.num_perms, cfg.seed)
    uh, uc = unique_per_doc(hashes, counts)
    # pair every doc with its successor: a fixed, text-derived pair list
    ia = np.arange(len(fuzzy) - 1)
    ea, eb = edges["a"].to_numpy(), edges["b"].to_numpy()
    return {
        "functions.normalize.mb_per_s": _rate(lambda: normalize_array(text), mb_raw),
        "functions.string_buffer.mb_per_s": _rate(
            lambda: [string_buffer(fuzzy) for _ in range(100)], 100 * mb),
        "functions.shingle.mb_per_s": _rate(
            lambda: shingle_batch(fuzzy, cfg.shingle_k, cfg.seed), mb),
        "functions.minhash.docs_per_s": _rate(
            lambda: minhash_signatures(hashes, counts, a, b), len(fuzzy)),
        "functions.simhash.docs_per_s": _rate(
            lambda: simhash_batch(hashes, counts), len(fuzzy)),
        "functions.winnow.mb_per_s": _rate(
            lambda: winnow_batch(fuzzy, cfg.substr_window, cfg.substr_winnow,
                                 cfg.seed), mb),
        "functions.jaccard.pairs_per_s": _rate(
            lambda: segmented_intersection_counts(uh, uc, ia, ia + 1), len(ia)),
        "functions.unionfind.edges_per_s": _rate(
            lambda: connected_components(ea, eb), max(len(ea), 1)),
    }
