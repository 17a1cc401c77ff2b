"""Join helpers: broadcast lookup vs hash-partitioned shuffle join.

≙ reference entry materialization ``fmc.Entries[id]``
(fuzzy_matcher_core.go:272) — an O(1) RAM map lookup becomes either
(a) a broadcast sorted-array lookup (``ray.put`` once, ``searchsorted`` per
batch — no shuffle) when the lookup side is small, or (b) a hash-partitioned
``Dataset.join`` when both sides are large. ``strategy="auto"`` picks by row
count; at 10^12-doc scale the doc-side attach is always the shuffle join.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
from ray.data.dataset import MaterializedDataset

BROADCAST_MAX_ROWS = 2_000_000


def effective_partitions(requested: int) -> int:
    """Cap shuffle/join partition count at the cluster's CPU count.

    Partition count ∝ CPUs is one of the keys to N→4N scaling efficiency
    (SURVEY.md §4): too many partitions on a small cluster starves the
    aggregator actors; too few on a big one leaves CPUs idle.
    """
    try:
        cpus = int(ray.cluster_resources().get("CPU", requested))
    except Exception:
        cpus = requested
    return max(2, min(requested, cpus))


# Target bytes per shuffle partition. Partitions far smaller than this drown
# in per-task fixed costs (measured: the 92 MB bench corpus at 32 partitions
# runs 40% slower than at 8 on 32 CPUs); far larger ones lose parallelism
# and per-worker memory headroom.
TARGET_PARTITION_BYTES = 16 << 20


def partitions_for(requested: int, nbytes: int | None) -> int:
    """Shuffle partition count from BOTH data size and cluster size: enough
    partitions to use the CPUs at scale, never more than the data justifies.
    At 100 TB nbytes/16 MB is astronomically larger than any cluster, so
    this reduces to `effective_partitions` there; it only bites on small
    inputs, where per-task fixed costs would otherwise dominate."""
    cap = effective_partitions(requested)
    if not nbytes or nbytes <= 0:
        return cap
    return max(2, min(cap, -(-nbytes // TARGET_PARTITION_BYTES)))


def plan_bytes(ds) -> int | None:
    """In-memory byte estimate that ``ds``'s logical plan already holds,
    with no execution: each op's own size when its metadata knows it (a
    read datasource's estimate, materialized block metadata), else the sum
    over its inputs (one input for a map, several for a union); None when
    a branch knows no size. ``Dataset.size_bytes()`` instead EXECUTES the
    pipeline whenever the top op's metadata has no size — any map_batches
    over a read, any union."""
    def walk(op) -> int | None:
        n = op.infer_metadata().size_bytes
        if n is not None or not op.input_dependencies:
            return n
        sizes = [walk(i) for i in op.input_dependencies]
        return None if None in sizes else sum(sizes)

    return walk(ds._logical_plan.dag)


# Join aggregator actors must never starve the upstream map stages: give them
# fractional CPUs so a small cluster can co-schedule maps + aggregators.
JOIN_AGG_ARGS = {"num_cpus": 0.25}


def block_tables(mat) -> list[pa.Table]:
    """A materialized Dataset's non-empty blocks, fetched by ref with no
    execution (empty blocks may be schema-less and break a concat)."""
    return [t for t in ray.get(mat.to_arrow_refs()) if len(t)]


def collect_table(ds) -> pa.Table:
    """Collect a (small) Dataset into one pyarrow Table on the driver. A
    ``MaterializedDataset`` hands over its blocks by ref: no execution."""
    if isinstance(ds, MaterializedDataset):
        parts = block_tables(ds)
    else:
        parts = list(ds.iter_batches(batch_size=1 << 18,
                                     batch_format="pyarrow"))
    if parts:
        # blocks need not share one schema (e.g. an all-null column typed
        # null in one block); unify as Ray's own batching does
        return pa.concat_tables(parts, promote_options="permissive")
    return ds.schema().base_schema.empty_table()


def _collect_columns(ds, cols: list[str]) -> pa.Table:
    """``collect_table`` of ``cols``: selected on the driver when ``ds`` is
    materialized (a ``select_columns`` would make it lazy again and cost an
    execution), projected in the plan otherwise (pushed into a read)."""
    if isinstance(ds, MaterializedDataset):
        return collect_table(ds).select(cols)
    return collect_table(ds.select_columns(cols))


class _Lookup:
    """Broadcast sorted-key lookup: vectorized searchsorted per batch.

    Shipped to ``map_batches`` as a stateless *instance* (elastic tasks, no
    idle CPU reservation — an actor pool here starves small clusters). Only
    the object ref travels in the task spec; the table is fetched lazily via
    ``ray.get`` on first use in each worker (zero-copy from the local store).
    """

    def __init__(self, ref, left_key: str, out_cols: dict[str, str], drop_missing: bool):
        self.ref = ref
        self.left_key = left_key
        self.out_cols = out_cols             # value_col -> out_col
        self.drop_missing = drop_missing
        self.keys = None
        self.values = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.keys is None:
            self.keys, self.values = ray.get(self.ref)
        if len(self.keys) == 0:
            # empty lookup side: inner → no rows survive; left → all-null cols
            if self.drop_missing:
                batch = batch.slice(0, 0)
            for value_col, out_col in self.out_cols.items():
                vals = self.values[value_col]
                typ = (pa.array(vals[:0]).type if isinstance(vals, np.ndarray)
                       else vals.type)
                batch = batch.append_column(out_col, pa.nulls(len(batch), typ))
            return batch
        probe = batch[self.left_key].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(self.keys, probe)
        idx_c = np.clip(idx, 0, len(self.keys) - 1)
        found = (len(self.keys) > 0) & (self.keys[idx_c] == probe)
        if self.drop_missing and not found.all():
            batch = batch.filter(pa.array(found))
            probe = probe[found]
            idx_c = idx_c[found]
            found = np.ones(len(probe), dtype=bool)
        for value_col, out_col in self.out_cols.items():
            vals = self.values[value_col]
            if isinstance(vals, np.ndarray):
                col = pa.array(vals[idx_c])
                if not self.drop_missing and not found.all():
                    col = pa.array(
                        np.where(found, vals[idx_c], None), from_pandas=True)
            else:   # arrow array (e.g. strings) — take by index
                col = vals.take(pa.array(idx_c))
                if not self.drop_missing and not found.all():
                    mask = pa.array(~found)
                    import pyarrow.compute as pc
                    col = pc.if_else(mask, pa.scalar(None, col.type), col)
        # append all requested columns (loop again to keep order stable)
            batch = batch.append_column(out_col, col)
        return batch


def broadcast_table(other_tbl: pa.Table, right_key: str, value_cols: list[str]):
    """Sort by key, ship (keys, {col: values}) to the object store once."""
    order = pa.compute.sort_indices(other_tbl[right_key])
    sorted_tbl = other_tbl.take(order)
    keys = sorted_tbl[right_key].to_numpy(zero_copy_only=False)
    values = {}
    for c in value_cols:
        col = sorted_tbl[c]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
            values[c] = col.to_numpy(zero_copy_only=False)
        else:
            # 64-bit offsets: a take() that fans a string column out past
            # 2^31 bytes corrupts int32 offsets — large_string is immune
            if pa.types.is_string(col.type):
                col = col.cast(pa.large_string())
            elif pa.types.is_binary(col.type):
                col = col.cast(pa.large_binary())
            values[c] = col
    return ray.put((keys, values))


class BroadcastAttacher:
    """A reusable broadcast lookup: collect + sort + ``ray.put`` ONCE, attach
    columns onto any number of datasets afterwards (no per-call re-collect).

    Build it once per pipeline run for the lookup side every pass shares
    (e.g. doc_id → norm_text); the per-attach cost is then only the
    per-batch searchsorted.
    """

    def __init__(self, other, right_key: str, value_cols: list[str]):
        tbl = _collect_columns(other, [right_key, *value_cols])
        self.right_key = right_key
        self.value_cols = value_cols
        self.ref = broadcast_table(tbl, right_key, value_cols)

    def attach(self, ds, left_key: str, cols: dict[str, str], how: str = "inner"):
        return ds.map_batches(_Lookup(self.ref, left_key, cols, how == "inner"),
                              batch_format="pyarrow")


def attach_columns(ds, other, left_key: str, right_key: str,
                   cols: dict[str, str], *, how: str = "inner",
                   strategy: str = "auto", num_partitions: int = 32,
                   broadcast_max_rows: int = BROADCAST_MAX_ROWS):
    """Attach ``cols`` (value_col → out_col) from ``other`` onto ``ds``.

    how="inner" drops rows of ds with no match; how="left" keeps them (nulls).
    """
    n = other.count()
    if strategy == "auto":
        strategy = "broadcast" if n <= broadcast_max_rows else "shuffle"
    if strategy == "broadcast":
        tbl = _collect_columns(other, [right_key, *cols])
        ref = broadcast_table(tbl, right_key, list(cols))
        return ds.map_batches(_Lookup(ref, left_key, cols, how == "inner"),
                              batch_format="pyarrow")
    # shuffle join
    right = other.select_columns([right_key, *cols])
    P = effective_partitions(num_partitions)
    if n < 100 * P:
        # Ray 2.49: a hash-aggregate right side carries SCHEMA-LESS empty
        # blocks for key-less partitions, which break the join's key
        # resolution (ArrowInvalid "no match for FieldRef"). Only possible
        # when rows are few relative to the partition count — rebuild
        # blocks cheaply in that regime; at scale every block is nonempty.
        right = right.repartition(2)
    join_type = "inner" if how == "inner" else "left_outer"
    joined = ds.join(right, join_type, effective_partitions(num_partitions),
                     on=(left_key,), right_on=(right_key,),
                     left_suffix="", right_suffix="_r",
                     aggregator_ray_remote_args=JOIN_AGG_ARGS)
    renames = {}
    for value_col, out_col in cols.items():
        src = value_col if value_col in joined.schema().names else f"{value_col}_r"
        renames[src] = out_col
    # right key column may appear when names differ — drop it
    drop = [c for c in (f"{right_key}_r", right_key)
            if c in joined.schema().names and c not in renames
            and c != left_key and right_key != left_key]
    ds2 = joined.rename_columns(renames) if renames else joined
    if drop:
        keep = [c for c in ds2.schema().names if c not in drop]
        ds2 = ds2.select_columns(keep)
    return ds2


def anti_join(ds, other, left_key: str, right_key: str, num_partitions: int = 32,
              broadcast_max_rows: int = BROADCAST_MAX_ROWS):
    """Rows of ds whose key does NOT appear in other (tombstone removal).

    Broadcast a numpy isin filter when the tombstone side is small (the common
    case), else Ray's hash-partitioned left_anti join.
    """
    n = other.count()
    if n <= broadcast_max_rows:
        ids = np.unique(np.concatenate([
            b[right_key].to_numpy(zero_copy_only=False)
            for b in other.select_columns([right_key]).iter_batches(
                batch_size=1 << 18, batch_format="pyarrow")] or
            [np.empty(0, dtype=np.int64)]))
        ref = ray.put(ids)

        def _filter(batch: pa.Table) -> pa.Table:
            tomb = ray.get(ref)
            keep = ~np.isin(batch[left_key].to_numpy(zero_copy_only=False), tomb)
            return batch.filter(pa.array(keep))

        return ds.map_batches(_filter, batch_format="pyarrow")
    return ds.join(other.select_columns([right_key]), "left_anti",
                   effective_partitions(num_partitions), on=(left_key,),
                   right_on=(right_key,), aggregator_ray_remote_args=JOIN_AGG_ARGS)
