"""Connected components over verified edges → (doc_id, cluster_id).

The reference returns pairwise matches only (clustering left to the caller,
SURVEY.md §2.6); the north rule requires cluster assignments, so this stage
closes the transitive hull. Representative = **min doc_id** of the component
(deterministic — no wall-clock or randomness anywhere).

Two labellers; ``component_labels`` picks the driver one while |edges| <=
cfg.driver_uf_max_edges (set it to 0 to force the distributed one):

- ``driver``: collect edges (they are O(duplicates), orders of magnitude
  smaller than the corpus) and run exact union-find with path compression.
- ``distributed``: iterative min-label propagation entirely in Dataset ops —
  per round, attach current labels to both edge endpoints (broadcast or
  key-local lookup), emit (node, min(label_a, label_b)) messages both ways
  plus identity rows, and ``groupby(node).min()``. Labels decrease monotonically, so the sum of
  labels is a strictly decreasing fixpoint witness; rounds are bounded by
  cfg.max_label_rounds. Convergence takes O(max cluster diameter) rounds —
  small here because hot-group star edges (stages/candidates.py) keep
  diameters tiny. (Pointer-jumping halving, as in the BTS/alternating
  algorithms from PAPERS.md, can be layered on; unnecessary at these depths.)

Both paths produce identical output (asserted in tests).
``component_labels`` is the labeller alone, (a, b) edges → (node, label);
a fold runs it over its new edges with every prior component contracted to
its label (pipelines/dedup.py ``_fold_labels``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Min

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.functions.unionfind import connected_components
from fuzzy_matcher_ray.stages.candidates import _collect_driver_table
from fuzzy_matcher_ray.stages import joins
from fuzzy_matcher_ray.stages.joins import (DriverBlocks, _collect_columns,
                                            _Lookup, attach_columns,
                                            collect_table, map_blocks,
                                            on_driver, sorted_side)


def _coalesce_i64(primary, fallback) -> pa.Array:
    """``coalesce(primary, fallback)`` for int64 columns WITHOUT
    ``pc.coalesce``: on worker-side fused batches (zero-copy plasma buffers)
    pc.coalesce was observed intermittently emitting the garbage data-buffer
    values under null slots (is_null on the same column is correct, the
    coalesce result is not — nulls became 0s and corrupted singleton cluster
    ids). Fill via the is_null mask + take of the valid slots instead; every
    kernel used here (is_null, take) is verified against the same batches.
    """
    import pyarrow.compute as pc
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


def component_labels(edges, cfg: PipelineConfig):
    """edges (a:int64, b:int64) → (node, label): every edge endpoint once,
    labelled with the min node id of its component."""
    if edges.count() <= cfg.driver_uf_max_edges:
        return _driver_labels(edges)
    return _distributed_labels(edges, cfg)


def cluster_edges(edges, docs, cfg: PipelineConfig):
    """edges (a:int64, b:int64) + docs (doc_id [, ...]) → (doc_id,
    cluster_id [, ...]): docs' other columns ride along unchanged.

    Every doc appears exactly once; singletons get cluster_id = doc_id.
    While the labels broadcast, the lookup and the fill are one per-batch
    function (``joins.map_blocks``): on the driver over a small pinned
    ``docs``, where the sorted labels are looked up as they are, else a
    Ray map that fetches them by ref. Past that, a key-local join
    attaches the labels.
    """
    labels_ds = component_labels(edges, cfg)

    def _fill(t: pa.Table) -> pa.Table:
        cid = _coalesce_i64(t["cluster_id"], t["doc_id"])
        rest = {c: t[c] for c in t.column_names
                if c not in ("doc_id", "cluster_id")}
        return pa.table({"doc_id": t["doc_id"], "cluster_id": cid, **rest})

    if labels_ds.count() <= joins.BROADCAST_MAX_ROWS:
        tbl = _collect_columns(labels_ds, ["node", "label"])
        side = sorted_side(tbl["node"], tbl, ["label"])
        lookup = _Lookup(side if on_driver(docs) else ray.put(side),
                         "doc_id", {"label": "cluster_id"}, "left")
        return map_blocks(docs, lambda t: _fill(lookup(t)))
    out = attach_columns(docs, labels_ds, "doc_id", "node",
                         {"label": "cluster_id"}, how="left",
                         strategy="shuffle",
                         num_partitions=cfg.join_num_partitions)
    return out.map_batches(_fill, batch_format="pyarrow")


def _driver_labels(edges):
    # a materialized edge set collects from its blocks with no execution
    t = _collect_driver_table(edges, ["a", "b"])
    if t is None:
        ea = eb = np.empty(0, dtype=np.int64)
    else:
        ea = t["a"].to_numpy(zero_copy_only=False)
        eb = t["b"].to_numpy(zero_copy_only=False)
    nodes, labels = connected_components(ea, eb)
    return DriverBlocks([pa.table({"node": pa.array(nodes),
                                   "label": pa.array(labels)})])


def _label_sum(labels) -> int:
    """Sum of the ``label`` column: per-block sums added on the driver
    (``Dataset.sum`` ends its aggregate in a ``limit=1`` run)."""
    sums = labels.map_batches(lambda t: pa.table({"s": pa.array(
        [pc.sum(t["label"]).as_py() or 0 if len(t) else 0], pa.int64())}),
        batch_format="pyarrow", batch_size=None)
    return sum(collect_table(sums)["s"].to_pylist())


def _distributed_labels(edges, cfg: PipelineConfig):
    P = cfg.join_num_partitions
    # node universe = distinct endpoints; initial label = node id
    ends = edges.select_columns(["a"]).rename_columns({"a": "node"}).union(
        edges.select_columns(["b"]).rename_columns({"b": "node"}))
    labels = ends.groupby("node").count().select_columns(["node"]).map_batches(
        lambda t: t.append_column("label", t["node"]), batch_format="pyarrow")
    prev_sum = None
    for _ in range(cfg.max_label_rounds):
        # strategy="auto": broadcast-attach while the label table fits
        # (≤2M edge-touched nodes), key-local beyond — the per-round
        # groupby(node).min() below is the distributed shuffle either way.
        e = attach_columns(edges, labels, "a", "node", {"label": "la"},
                           num_partitions=P)
        e = attach_columns(e, labels, "b", "node", {"label": "lb"},
                           num_partitions=P)

        def _msgs(t: pa.Table) -> pa.Table:
            m = np.minimum(t["la"].to_numpy(zero_copy_only=False),
                           t["lb"].to_numpy(zero_copy_only=False))
            return pa.table({
                "node": pa.concat_arrays([
                    t["a"].combine_chunks() if isinstance(t["a"], pa.ChunkedArray) else t["a"],
                    t["b"].combine_chunks() if isinstance(t["b"], pa.ChunkedArray) else t["b"]]),
                "label": pa.array(np.concatenate([m, m])),
            })

        msgs = e.map_batches(_msgs, batch_format="pyarrow").union(labels)
        labels = msgs.groupby("node").aggregate(
            Min("label", alias_name="label")).materialize()
        # pointer-jumping halving: label ← label[label]. Every label value is
        # itself a node (labels start as node ids and only min-propagate), so
        # the self-lookup is total; composing it with the edge relaxation
        # makes the reach per round grow geometrically — rounds needed are
        # O(log diameter), so max_label_rounds=12 covers diameters ~2^12.
        jumped = attach_columns(labels, labels, "label", "node",
                                {"label": "label2"}, how="left",
                                num_partitions=P)

        def _jump(t: pa.Table) -> pa.Table:
            lab = _coalesce_i64(t["label2"], t["label"])
            return pa.table({"node": t["node"], "label": lab})

        labels = jumped.map_batches(_jump, batch_format="pyarrow").materialize()
        cur_sum = _label_sum(labels)    # monotone witness
        if prev_sum is not None and cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    else:
        # loop exhausted without the fixpoint break — labels may be split
        # across what should be one component. Never return silently wrong
        # clusters (ADVICE r1): fail loudly; callers can raise the cap.
        raise RuntimeError(
            f"label propagation did not converge within "
            f"{cfg.max_label_rounds} rounds (cluster diameter too large); "
            "raise PipelineConfig.max_label_rounds")
    return labels
