"""Global-position stamping and grouped top-k over sorted Datasets.

Two shared building blocks for "window-function" shapes (rank within the
whole corpus, rank within a group) without any whole-dataset driver
materialization or per-group Python dispatch:

- ``stamp_global_positions``: after a range ``sort``, blocks are in key
  order; the global row position of a block's first row is the prefix sum
  of the PRECEDING blocks' row counts. Those counts come from block
  METADATA only (``iter_internal_ref_bundles``) — no block data touches
  the driver — and each block stamps itself in one tiny Ray task with its
  broadcast offset. O(blocks) driver work at any corpus size.

- ``grouped_topk``: exact top-k rows per group by (value, id asc), the
  per-host-cap / per-source-top-k / per-query-neighbors shape and the one
  top-k kernel of the package. Per-batch PARTIAL top-k (one Arrow sort +
  segmented rank per batch — each batch forwards at most k rows per group
  it contains) shrinks the exchange to a k·groups residue; the merge runs
  the same kernel over that residue through ``joins.map_segments``, whose
  tables hold every row of each group they contain. No pandas
  conversion, no per-group callbacks anywhere.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd


def _block_refs_with_counts(mat):
    """[(block_ref, num_rows)] of a MATERIALIZED dataset, in block order,
    from metadata only. Returns None if any block's row count is unknown
    (callers then fall back to the driver stamp)."""
    out = []
    for bundle in mat.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows is None:
                return None
            out.append((ref, meta.num_rows))
    return out


@ray.remote
def _stamp_block(block, start: int, col: str):
    t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
    return t.append_column(
        col, pa.array(np.arange(start, start + len(t), dtype=np.int64)))


def stamp_global_positions(sorted_ds, col: str = "pos",
                           mode: str = "distributed"):
    """Append each row's GLOBAL position (0-based, int64) to a dataset whose
    blocks are already in the desired total order (i.e. the output of
    ``Dataset.sort``).

    ``mode="distributed"`` (the scale path, default): prefix-sum over block
    metadata row counts on the driver (O(blocks) ints), then one remote
    stamp task per block — block data never reaches the driver.
    ``mode="driver"`` ray.gets every block and stamps locally — kept ONLY
    as the parity oracle for tests (byte-identical by construction).
    """
    mat = sorted_ds.materialize()
    refs_meta = None if mode == "driver" else _block_refs_with_counts(mat)
    if refs_meta is None:                    # driver oracle / metadata gap
        tables = [t for t in ray.get(list(mat.to_arrow_refs())) if len(t)]
        out, start = [], 0
        for tb in tables:
            out.append(tb.append_column(col, pa.array(
                np.arange(start, start + len(tb), dtype=np.int64))))
            start += len(tb)
        if not out:
            sch = mat.schema()
            base = (sch.base_schema if sch is not None else pa.schema([]))
            return rd.from_arrow(base.empty_table().append_column(
                col, pa.array([], pa.int64())))
        return rd.from_arrow(out)
    refs_meta = [(r, n) for r, n in refs_meta if n]
    if not refs_meta:
        sch = mat.schema()
        base = (sch.base_schema if sch is not None else pa.schema([]))
        return rd.from_arrow(base.empty_table().append_column(
            col, pa.array([], pa.int64())))
    offsets = np.concatenate(([0], np.cumsum([n for _, n in refs_meta])))
    stamped = [_stamp_block.remote(ref, int(off), col)
               for (ref, _), off in zip(refs_meta, offsets)]
    return rd.from_arrow_refs(stamped)


def _partial_topk(t: pa.Table, group_col: str, value_col: str,
                  id_col: str, k: int, descending: bool = True,
                  rank_col: str | None = None) -> pa.Table:
    """At most k rows per group present in ``t``, by (value, id asc) with
    value descending or ascending — one Arrow sort + one vectorized
    segmented rank. Exact for every group whose rows ``t`` holds in full.
    With ``rank_col`` the 1-based rank within the group is appended (to an
    empty table too)."""
    n = len(t)
    rank = np.zeros(0, dtype=np.int64)
    if n:
        t = t.sort_by([(group_col, "ascending"),
                       (value_col, "descending" if descending
                        else "ascending"),
                       (id_col, "ascending")])
        g = t[group_col]
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        brk = np.ones(n, dtype=bool)
        if n > 1:
            neq = pc.fill_null(pc.not_equal(g.slice(1), g.slice(0, n - 1)),
                               True)
            brk[1:] = neq.to_numpy(zero_copy_only=False)
        starts = np.nonzero(brk)[0]
        sizes = np.diff(np.append(starts, n))
        rank = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
    keep = rank < k
    t = t.filter(pa.array(keep))
    if rank_col is not None:
        t = t.append_column(rank_col, pa.array(rank[keep] + 1))
    return t


def grouped_topk(ds, group_col: str, value_col: str, id_col: str, k: int,
                 rank_col: str | None = None, empty_schema=None,
                 descending: bool = True):
    """Exact top-``k`` rows per ``group_col`` by (``value_col`` desc —
    ascending when not ``descending`` — then ``id_col`` asc), fully
    vectorized.

    The partial pass (``_partial_topk`` per batch, pinned) bounds the
    residue at k rows per (batch, group); the merge runs the same kernel
    over the residue cut at group changes (``joins.map_segments``: on the
    driver while the residue is small, else per block of a range sort on
    ``group_col``), which holds every residue row of each group it sees.
    With ``rank_col`` the 1-based rank within the group is emitted.
    Output columns = input columns (+ rank_col), in input order.
    """
    from fuzzy_matcher_ray.stages.joins import DriverBlocks, map_segments

    residue = ds.map_batches(
        lambda t: _partial_topk(t, group_col, value_col, id_col, k,
                                descending),
        batch_format="pyarrow").materialize()
    if residue.count() == 0:
        t = (empty_schema or pa.schema([])).empty_table()
        if rank_col is not None:
            t = t.append_column(rank_col, pa.array([], pa.int64()))
        return DriverBlocks([t])
    return map_segments(residue, [group_col], lambda t: _partial_topk(
        t, group_col, value_col, id_col, k, descending, rank_col))


@ray.remote
def _block_value_sum(block, value_col: str) -> int:
    t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
    if len(t) == 0:
        return 0
    s = pc.sum(pc.fill_null(pc.cast(t[value_col], pa.int64()), 0))
    return int(s.as_py() or 0)


def _exclusive_cumsum_col(t: pa.Table, start: int, value_col: str,
                          col: str) -> pa.Table:
    v = pc.fill_null(pc.cast(t[value_col], pa.int64()), 0) \
          .to_numpy(zero_copy_only=False)
    run = np.cumsum(v, dtype=np.int64)
    return t.append_column(col, pa.array(start + run - v))


@ray.remote
def _stamp_prefix_block(block, start: int, value_col: str, col: str):
    t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
    return _exclusive_cumsum_col(t, start, value_col, col)


def stamp_global_prefix_sums(sorted_ds, value_col: str, col: str = "off",
                             mode: str = "distributed"):
    """Append each row's EXCLUSIVE global running sum of ``value_col``
    (int64, nulls = 0) to a dataset whose blocks are already in the desired
    total order — the weighted analog of ``stamp_global_positions`` (row
    offsets in tokens/bytes instead of rows; sequence packing, byte-range
    assignment).

    ``mode="distributed"`` (default, the scale path): one tiny remote sum
    per block → O(blocks) ints prefix-summed on the driver → one remote
    stamp per block. Block data never reaches the driver.
    ``mode="driver"`` ray.gets every block — kept ONLY as the parity
    oracle for tests (byte-identical by construction).
    """
    mat = sorted_ds.materialize()
    if mode == "driver":                       # parity oracle
        tables = [t for t in ray.get(list(mat.to_arrow_refs())) if len(t)]
        out, start = [], 0
        for tb in tables:
            out.append(_exclusive_cumsum_col(tb, start, value_col, col))
            start += int(out[-1][value_col].to_pandas().fillna(0).sum())
        if not out:
            sch = mat.schema()
            base = (sch.base_schema if sch is not None else pa.schema([]))
            return rd.from_arrow(base.empty_table().append_column(
                col, pa.array([], pa.int64())))
        return rd.from_arrow(out)
    refs = [ref for bundle in mat.iter_internal_ref_bundles()
            for ref, _meta in bundle.blocks]
    if not refs:
        sch = mat.schema()
        base = (sch.base_schema if sch is not None else pa.schema([]))
        return rd.from_arrow(base.empty_table().append_column(
            col, pa.array([], pa.int64())))
    sums = ray.get([_block_value_sum.remote(r, value_col) for r in refs])
    offsets = np.concatenate(([0], np.cumsum(sums, dtype=np.int64)))
    stamped = [_stamp_prefix_block.remote(r, int(off), value_col, col)
               for r, off in zip(refs, offsets[:-1])]
    return rd.from_arrow_refs(stamped)
