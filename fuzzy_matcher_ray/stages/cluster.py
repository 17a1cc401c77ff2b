"""Connected components over verified edges → (doc_id, cluster_id).

The reference returns pairwise matches only (clustering left to the caller,
SURVEY.md §2.6); the north rule requires cluster assignments, so this stage
closes the transitive hull. Representative = **min doc_id** of the component
(deterministic — no wall-clock or randomness anywhere).

One labeller, ``component_labels``: union-find per range with contraction
(partition-local union-find, as in BTS, PAPERS.md). Each block of the
edges is one range, and union-find (``functions/unionfind``) labels its
endpoints with their local root, the min id of their local component. A
node that several ranges touched has several roots: one ``map_segments``
on node keeps its min root and emits a contracted edge from it to each
other root, and the contracted edges are labelled the same way in at most
half as many ranges, so the depth is at most ⌈log2 R⌉ with no round cap.
Roots are node ids and a min of mins is the min, so every label is its
component's min id. Edges within the driver budget (gate "labels") are
one range on the driver (no execution); ``FMR_DRIVER_BYTES=0`` contracts.

``relabel`` maps ids through the labels (broadcast or key-local): the
doc fill of ``cluster_edges``, each contraction level's roots, and a
fold's remap of prior components (pipelines/dedup.py ``_fold_labels``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.functions.unionfind import connected_components
from fuzzy_matcher_ray.stages import gates
from fuzzy_matcher_ray.stages.joins import (DriverBlocks, _collect_columns,
                                            _Lookup, as_dataset, keyed_join,
                                            map_blocks, map_segments, nbytes,
                                            sorted_side)

# the label column ``relabel`` attaches and its fill drops
_LABEL = "__fmr_label"


def _coalesce_i64(primary, fallback) -> pa.Array:
    """``coalesce(primary, fallback)`` for int64 columns WITHOUT
    ``pc.coalesce``: on worker-side fused batches (zero-copy plasma buffers)
    pc.coalesce was observed intermittently emitting the garbage data-buffer
    values under null slots (is_null on the same column is correct, the
    coalesce result is not — nulls became 0s and corrupted singleton cluster
    ids). Fill via the is_null mask + take of the valid slots instead; every
    kernel used here (is_null, take) is verified against the same batches.
    """
    if isinstance(primary, pa.ChunkedArray):
        primary = primary.combine_chunks()
    mask = pc.is_null(primary).to_numpy(zero_copy_only=False).astype(bool)
    fb = fallback.to_numpy(zero_copy_only=False)
    if not mask.any():
        return pa.array(primary.to_numpy(zero_copy_only=False), pa.int64())
    out = fb.astype(np.int64, copy=True)
    valid_idx = np.nonzero(~mask)[0]
    if len(valid_idx):
        taken = primary.take(pa.array(valid_idx, pa.int64()))
        out[valid_idx] = taken.to_numpy(zero_copy_only=False)
    return pa.array(out, pa.int64())


def _union_find(t: pa.Table | None) -> pa.Table:
    """(a, b) edges → (node, label): each endpoint once, labelled with the
    min id of its component within ``t``."""
    ends = [np.empty(0, np.int64)] * 2 if t is None or not len(t) else \
        [t[c].to_numpy(zero_copy_only=False) for c in ("a", "b")]
    nodes, labels = connected_components(*ends)
    return pa.table({"node": pa.array(nodes, pa.int64()),
                     "label": pa.array(labels, pa.int64())})


def _contract(t: pa.Table) -> pa.Table:
    """(node, label) local roots, every row of each node present →
    (node, label, root): one row per node and distinct local root, with
    ``label`` the node's min root."""
    node = t["node"].to_numpy(zero_copy_only=False)
    root = t["label"].to_numpy(zero_copy_only=False)
    order = np.lexsort((root, node))
    node, root = node[order], root[order]
    keep = np.ones(len(node), bool)
    keep[1:] = (node[1:] != node[:-1]) | (root[1:] != root[:-1])
    node, root = node[keep], root[keep]
    first = np.ones(len(node), bool)
    first[1:] = node[1:] != node[:-1]
    low = root[first][np.cumsum(first) - 1]
    return pa.table({"node": pa.array(node, pa.int64()),
                     "label": pa.array(low, pa.int64()),
                     "root": pa.array(root, pa.int64())})


def component_labels(edges, cfg: PipelineConfig, ranges: int | None = None):
    """edges (a:int64, b:int64) → (node, label): every edge endpoint once,
    labelled with the min node id of its component. The edges' blocks are
    the ranges, at most ``ranges`` of them (all when None; a contraction
    level passes half its own)."""
    edges = edges.materialize()
    if gates.decide("labels", nbytes(edges)) == "driver":
        # a materialized edge set collects from its blocks with no
        # execution; one with no rows may have no schema either
        return DriverBlocks([_union_find(
            _collect_columns(edges, ["a", "b"]) if edges.count() else None)])
    ranges = min(ranges or edges.num_blocks(), edges.num_blocks())
    if ranges < edges.num_blocks():
        edges = as_dataset(edges).repartition(ranges)
    local = map_blocks(edges, _union_find)
    if ranges == 1:
        return local
    seg = map_segments(local, ["node"], _contract)
    contracted = map_blocks(seg, lambda t: t.filter(pc.not_equal(
        t["label"], t["root"])).select(["label", "root"])
        .rename_columns(["a", "b"])).materialize()
    roots = map_blocks(seg, lambda t: t.filter(pc.equal(
        t["label"], t["root"])).select(["node", "label"]))
    if not contracted.count():      # the ranges share no node: done
        return roots
    return relabel(roots, "label", "label",
                   component_labels(contracted, cfg, ranges // 2), cfg)


def relabel(ds, key: str, out: str, labels, cfg: PipelineConfig):
    """``ds`` with column ``out`` (``key`` itself, or a new column right
    after it) set to the label of each row's ``key`` in ``labels`` (node,
    label), or to the ``key`` value where ``labels`` holds none.

    While the labels broadcast (gate "relabel"), the lookup and the fill
    are one per-batch function (``joins.map_blocks``, which alone picks
    its branch): on the driver over a small pinned ``ds``, where the
    sorted labels are looked up as they are, else a Ray map, which puts
    them in the object store with its function. Past that, a key-local
    join attaches the labels.
    """
    def _fill(t: pa.Table) -> pa.Table:
        i = t.column_names.index(key)
        lab = _coalesce_i64(t[_LABEL], t[key])
        t = t.drop_columns([_LABEL, *([key] if out == key else [])])
        return t.add_column(i + (out != key), out, lab)

    labels = labels.materialize()
    if gates.decide("relabel", nbytes(labels)) == "broadcast":
        tbl = _collect_columns(labels, ["node", "label"])
        side = sorted_side(tbl["node"], tbl, ["label"])
        lookup = _Lookup(side, key, {"label": _LABEL}, "left")
        return map_blocks(ds, lambda t: _fill(lookup(t)))
    return map_blocks(keyed_join(ds, labels, [key], ["node"],
                                 {"label": _LABEL}, "left",
                                 cfg.join_num_partitions), _fill)


def cluster_edges(edges, docs, cfg: PipelineConfig):
    """edges (a:int64, b:int64) + docs (doc_id [, ...]) → (doc_id,
    cluster_id [, ...]): docs' other columns ride along unchanged.
    Every doc appears exactly once; singletons get cluster_id = doc_id."""
    return relabel(docs, "doc_id", "cluster_id",
                   component_labels(edges, cfg), cfg)
