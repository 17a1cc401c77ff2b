"""Join helpers: a broadcast lookup or a key-local one, and the segment
executor of every key-local operator.

≙ reference entry materialization ``fmc.Entries[id]``
(fuzzy_matcher_core.go:272) — an O(1) RAM map lookup becomes one sorted-array
lookup (``lookup``: ``searchsorted`` per batch) against either (a) the whole
lookup side, sorted and put in the object store once (no shuffle), while
its bytes fit the broadcast budget (``gates``), or (b) each sort range's
own lookup rows (``keyed_join`` on ``key_local``: both sides tagged,
unioned into one schema and range-sorted on the key; the lookup rows of
the keys that straddle a range edge reach every range by ref, so a hot
key's probe rows stay on their ranges). At 10^12-doc scale the doc-side
attach is always key-local. The range sort is the package's one shuffle:
no hash join and no aggregator actors.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.dataset import MaterializedDataset

from fuzzy_matcher_ray.stages import gates


# Target bytes per shuffle partition. Partitions far smaller than this drown
# in per-task fixed costs (measured: the 92 MB bench corpus at 32 partitions
# runs 40% slower than at 8 on 32 CPUs); far larger ones lose parallelism
# and per-worker memory headroom.
TARGET_PARTITION_BYTES = 16 << 20


def partitions_for(requested: int, nbytes: int | None) -> int:
    """Partition count from BOTH data size and cluster size: ``requested``
    capped at the cluster's CPU count (partitions ∝ CPUs is one of the keys
    to N→4N scaling efficiency, SURVEY.md §4), never more than the data
    justifies. At 100 TB nbytes/16 MB is astronomically larger than any
    cluster, so only the CPU cap bites there; the size cap bites on small
    inputs, where per-task fixed costs would otherwise dominate."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", requested))
    except Exception:
        cpus = requested
    cap = max(2, min(requested, cpus))
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


class DriverBlocks:
    """Blocks on the driver: what a driver branch (``map_blocks``,
    ``map_segments``, ``union``, the driver labeller) hands back, Arrow
    tables that no Ray operation has read yet. It knows its row count,
    schema and blocks, and ``materialize()`` is itself: it is pinned
    (``is_pinned``). It becomes a Ray dataset (``dataset()``, one
    ``rd.from_blocks`` built on first use) only where a Ray operation
    reads it: ``as_dataset`` at those consumers. Any other ``Dataset``
    attribute is that dataset's, so a caller may use it as the
    materialized dataset it stands for.

    Measured on one vCPU (Ray 2.49) for a 2,000-row two-column table: a
    ``from_blocks`` ~2 ms, a ``ray.put`` ~0.5 ms and a ``ray.get`` ~0.4 ms
    (2-4x that in the VM's slow phases), a Dataset execution of a trivial
    map over two materialized blocks ~50 ms, and a lexsort of its rows
    ~20 us. A driver step that wrapped its output back into a Ray dataset
    paid the round trip for microseconds of numpy."""

    def __init__(self, tables: list[pa.Table]):
        self.tables = list(tables)
        self._ds = None

    def count(self) -> int:
        return sum(len(t) for t in self.tables)

    def num_blocks(self) -> int:
        return len(self.tables)

    def schema(self):
        """The blocks' unified schema as a Ray ``Schema``; None when there
        is no block."""
        from ray.data import DataContext
        from ray.data.dataset import Schema

        if not self.tables:
            return None
        sch = pa.unify_schemas([t.schema for t in self.tables],
                               promote_options="permissive")
        return Schema(sch, data_context=DataContext.get_current())

    def materialize(self) -> "DriverBlocks":
        return self

    def dataset(self):
        """The blocks as a Ray dataset, built once."""
        if self._ds is None:
            import ray.data as rd
            self._ds = rd.from_blocks(self.tables)
        return self._ds

    def __getattr__(self, name: str):
        if name.startswith("__") or name in ("tables", "_ds"):
            raise AttributeError(name)
        return getattr(self.dataset(), name)


def is_pinned(ds) -> bool:
    """Whether ``ds``'s blocks exist: driver blocks or a materialized
    dataset (its count and schema are metadata)."""
    return isinstance(ds, (DriverBlocks, MaterializedDataset))


def as_dataset(ds):
    """``ds`` as a Ray dataset: driver blocks become one (``from_blocks``,
    cached), anything else is returned as it is."""
    return ds.dataset() if isinstance(ds, DriverBlocks) else ds


def nbytes(ds) -> int | None:
    """``ds``'s in-memory bytes read from metadata, with no execution:
    driver blocks' own ``nbytes``, else ``plan_bytes``."""
    if isinstance(ds, DriverBlocks):
        return sum(t.nbytes for t in ds.tables)
    return plan_bytes(ds)


def pinned_bytes(ds):
    """(ds, ``nbytes``), ``ds`` pinned first when its plan knows no size:
    no gate decides on an unknown size."""
    n = nbytes(ds)
    if n is None:
        ds = ds.materialize()
        n = nbytes(ds)
    return ds, n


def on_driver(ds, name: str, out_rows=None) -> bool:
    """Whether ``ds`` is pinned and gate ``name`` picks the driver for its
    bytes, scaled by ``out_rows(ds)`` (an output-row bound read from its
    metadata) over its row count when given."""
    if not is_pinned(ds):
        return False
    n = nbytes(ds)
    if out_rows is not None:
        n = n * out_rows(ds) // max(ds.count(), 1)
    return gates.decide(name, n) == "driver"


def block_refs(mat) -> list | None:
    """A materialized Dataset's block refs, read off the plan's input data
    with no execution; None when the plan holds none.
    ``to_arrow_refs`` on a dataset built from driver tables starts a
    streaming run over its input buffer each time it is called, ~20 ms on
    one vCPU for two blocks."""
    data = getattr(mat._logical_plan.dag, "output_data", lambda: None)()
    if data is None:
        return None
    return [r for bundle in data for r in bundle.block_refs]


def block_tables(mat) -> list[pa.Table]:
    """A pinned dataset's non-empty blocks: driver blocks' own tables, a
    materialized Dataset's fetched by ref with no execution
    (``block_refs``; empty blocks may be schema-less and break a concat).
    Blocks that are not Arrow tables go through ``to_arrow_refs``."""
    if isinstance(mat, DriverBlocks):
        return [t for t in mat.tables if len(t)]
    refs = block_refs(mat)
    tables = None if refs is None else ray.get(refs)
    if tables is None or not all(isinstance(t, pa.Table) for t in tables):
        tables = ray.get(mat.to_arrow_refs())
    return [t for t in tables if len(t)]


def collect_table(ds) -> pa.Table:
    """Collect a (small) Dataset into one pyarrow Table on the driver.
    Driver blocks and a ``MaterializedDataset`` hand over their blocks
    with no execution."""
    if is_pinned(ds):
        parts = block_tables(ds)
    else:
        parts = list(ds.iter_batches(batch_size=1 << 18,
                                     batch_format="pyarrow"))
    if parts:
        # blocks need not share one schema (e.g. an all-null column typed
        # null in one block); unify as Ray's own batching does
        return pa.concat_tables(parts, promote_options="permissive")
    return ds.schema().base_schema.empty_table()


def _driver_tables(ds) -> list[pa.Table]:
    """A pinned dataset's non-empty blocks on the driver
    (``block_tables``); one empty table of its schema when it has no rows
    but a schema."""
    blocks = block_tables(ds)
    if not blocks and (sch := ds.schema()) is not None:
        blocks = [sch.base_schema.empty_table()]
    return blocks


def map_blocks(ds, fn, out_rows=None):
    """``fn`` (pyarrow Table → Table) over every block of ``ds``: on the
    driver when ``ds`` is pinned and gate "blocks" keeps it there
    (``on_driver``), driver blocks one per input block, with no execution
    and no object-store round trip (``DriverBlocks`` gives their costs);
    else, for a lazy source (a checkpoint read, a prior run's artifact)
    or a large one, the lazy ``map_batches(fn)``."""
    if on_driver(ds, "blocks", out_rows):
        blocks = _driver_tables(ds)
        if blocks:
            return DriverBlocks([fn(t) for t in blocks])
    return as_dataset(ds).map_batches(fn, batch_format="pyarrow",
                                      batch_size=None,
                                      zero_copy_batch=True)


def map_segments(ds, keys: list[str], fn, block_rows: int | None = None):
    """``fn`` (pyarrow Table → Table) over ``ds`` cut at ``keys`` changes:
    the one shape of every key-local operator (pair explode, pair dedup
    and count, per-doc top-k, min-rep, span rebuild).

    ``fn`` must be correct for any table that holds every row of each
    ``keys`` value it contains, and sorts its own rows. When ``ds``'s
    bytes are known (``nbytes``: a lazy input's off its plan) and gate
    "segments" picks the driver, ``ds`` is pinned and ``fn`` runs once on
    the driver over its blocks: driver blocks of ``block_rows`` rows (one
    block when None), no execution. Otherwise ``ds`` is range-sorted on
    ``keys`` and ``fn`` runs block by block (``_map_sorted``): zero
    per-group Python calls. The sort cuts as many ranges as ``ds`` has
    blocks.
    """
    n = nbytes(ds)
    if n is None or gates.decide("segments", n) != "driver":
        return _map_sorted(as_dataset(ds).sort(keys).materialize(), keys, fn)
    if not is_pinned(ds):
        ds = ds.materialize()
    if ds.schema() is None:     # no rows and no schema: nothing to run
        return ds
    out = fn(collect_table(ds))
    rows = block_rows or max(len(out), 1)
    return DriverBlocks([out.slice(lo, rows)
                         for lo in range(0, max(len(out), 1), rows)])


def union(*parts):
    """``parts`` as one dataset: driver blocks when every part is pinned
    and gate "union" picks the driver for their bytes together (a
    materialized part's blocks fetched by ref), else a lazy Ray union.
    One part is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    if all(is_pinned(p) for p in parts) and gates.decide(
            "union", sum(nbytes(p) for p in parts)) == "driver":
        return DriverBlocks([t for p in parts for t in _driver_tables(p)])
    first, *rest = (as_dataset(p) for p in parts)
    return first.union(*rest)


def sort_rows(ds, key, descending=False):
    """``ds`` sorted by ``key`` (``Dataset.sort``'s arguments): driver
    blocks sort on the driver (``pa.Table.sort_by``, one block), anything
    else by ``Dataset.sort``. Null keys sort last either way; callers sort
    on keys unique per row, so the two orders agree."""
    if not isinstance(ds, DriverBlocks):
        return ds.sort(key, descending=descending)
    keys = [key] if isinstance(key, str) else list(key)
    desc = descending if isinstance(descending, list) \
        else [descending] * len(keys)
    return DriverBlocks([collect_table(ds).sort_by(
        [(k, "descending" if d else "ascending")
         for k, d in zip(keys, desc)])])


def _key_masks(tbl: pa.Table, ref: pa.Table, keys: list[str]):
    """(first, last): the rows of ``tbl`` whose ``keys`` equal those of
    ``ref``'s first row, and of its last row (``ref`` non-empty)."""
    first = np.ones(len(tbl), dtype=bool)
    last = np.ones(len(tbl), dtype=bool)
    for k in keys:
        v = tbl[k].to_numpy(zero_copy_only=False)
        r = ref[k].to_numpy(zero_copy_only=False)
        first &= v == r[0]
        last &= v == r[-1]
    return first, last


def _key_edges(t: pa.Table, keys: list[str]) -> tuple[int, int]:
    """(lo, hi) of a key-sorted table: rows [0, lo) hold its first key
    value and rows [hi, n) its last (lo <= hi)."""
    n = len(t)
    if n == 0:
        return 0, 0
    first, last = _key_masks(t, t, keys)
    lo = n if first.all() else int(np.argmin(first))
    hi = 0 if last.all() else n - int(np.argmin(last[::-1]))
    return lo, max(lo, hi)


def _map_sorted(srt, keys: list[str], fn):
    """``fn`` over a materialized dataset whose blocks are contiguous
    ranges of one sort on ``keys``.

    Each block runs ``fn`` over the rows whose key differs from the
    block's first and last key: all of a key's rows sit in that block, as
    a key with rows in two blocks is the last key of one and the first of
    the next. The rows of those boundary keys (a key may span any number
    of blocks, whatever layout the sort picks) are collected and run
    through ``fn`` once on the driver.
    """
    import ray.data as rd

    sch = srt.schema()
    if sch is None:           # no rows and no schema: nothing to run
        return srt
    empty = sch.base_schema.empty_table()

    def _interior(t: pa.Table) -> pa.Table:
        if len(t) == 0:       # empty blocks may carry no schema
            return fn(empty)
        lo, hi = _key_edges(t, keys)
        return fn(t.slice(lo, hi - lo))

    def _boundary(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return empty
        lo, hi = _key_edges(t, keys)
        return pa.concat_tables([t.slice(0, lo), t.slice(hi)])

    interior = srt.map_batches(_interior, batch_format="pyarrow",
                               batch_size=None, zero_copy_batch=True)
    edges = block_tables(srt.map_batches(
        _boundary, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True).materialize())
    bt = pa.concat_tables([empty, *edges], promote_options="permissive")
    return interior.union(rd.from_blocks([fn(bt)]))


def project(ds, cols: list[str]):
    """``ds`` with only ``cols``: as it is when materialized with just
    those, selected on the driver when ``ds`` is materialized
    (``map_blocks``; a ``select_columns`` would make it lazy again and
    cost an execution), projected in the plan otherwise (pushed into a
    read)."""
    if is_pinned(ds):
        if (sch := ds.schema()) is not None and sch.names == cols:
            return ds
        return map_blocks(ds, lambda t: t.select(cols))
    return ds.select_columns(cols)


def _collect_columns(ds, cols: list[str]) -> pa.Table:
    """``collect_table`` of ``cols``: selected on the driver when ``ds`` is
    materialized (a ``select_columns`` would make it lazy again and cost an
    execution), projected in the plan otherwise (pushed into a read)."""
    if is_pinned(ds):
        return collect_table(ds).select(cols)
    return collect_table(ds.select_columns(cols))


def lookup(batch: pa.Table, probe: np.ndarray, keys: np.ndarray,
           values: dict, cols: dict[str, str], how: str) -> pa.Table:
    """``batch`` joined to a sorted lookup side by ``probe`` (the batch's
    key per row): ``keys`` sorted, ``values`` {value_col: array} in key
    order (``sorted_side``). "inner" keeps the rows whose key is found,
    "left" keeps every row, "semi" the found and "anti" the unfound ones
    (with no ``cols``); ``cols`` (value_col → out_col) are appended, null
    where the key is not found."""
    if len(keys):
        idx = np.clip(np.searchsorted(keys, probe), 0, len(keys) - 1)
        found = keys[idx] == probe
    else:
        idx = np.zeros(len(probe), np.int64)
        found = np.zeros(len(probe), bool)
    if how != "left":
        keep = ~found if how == "anti" else found
        if not keep.all():
            batch = batch.filter(pa.array(keep))
            idx, found = idx[keep], found[keep]
    take = pa.array(idx, mask=None if found.all() else ~found)
    for value_col, out_col in cols.items():
        batch = batch.append_column(out_col, values[value_col].take(take))
    return batch


def sorted_side(key: pa.Array | pa.ChunkedArray, tbl: pa.Table,
                value_cols: list[str]):
    """A lookup side for ``lookup``: (keys, {col: values}) sorted by ``key``
    (one value per row of ``tbl``)."""
    order = pc.sort_indices(key)
    values = {}
    for c in value_cols:
        col = tbl[c].take(order)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # 64-bit offsets: a take() that fans a string column out past
        # 2^31 bytes corrupts int32 offsets — large_string is immune
        if pa.types.is_string(col.type):
            col = col.cast(pa.large_string())
        elif pa.types.is_binary(col.type):
            col = col.cast(pa.large_binary())
        values[c] = col
    return key.take(order).to_numpy(zero_copy_only=False), values


def broadcast_table(other_tbl: pa.Table, right_key: str, value_cols: list[str]):
    """Sort by key, ship (keys, {col: values}) to the object store once."""
    return ray.put(sorted_side(other_tbl[right_key], other_tbl, value_cols))


class _Lookup:
    """Broadcast sorted-key lookup: ``lookup`` per batch.

    Shipped to ``map_batches`` as a stateless *instance* (elastic tasks, no
    idle CPU reservation — an actor pool here starves small clusters). Only
    the object ref travels in the task spec; the table is fetched lazily via
    ``ray.get`` on first use in each worker (zero-copy from the local store).
    ``side`` is ``sorted_side``'s pair or its object ref: a lookup run on
    the driver holds the pair itself.
    """

    def __init__(self, side, left_key: str, cols: dict[str, str], how: str):
        self.side = side
        self.left_key = left_key
        self.cols = cols                     # value_col -> out_col
        self.how = how

    def __call__(self, batch: pa.Table) -> pa.Table:
        if isinstance(self.side, ray.ObjectRef):
            self.side = ray.get(self.side)
        probe = batch[self.left_key].to_numpy(zero_copy_only=False)
        return lookup(batch, probe, *self.side, self.cols, self.how)


class BroadcastAttacher:
    """A reusable broadcast lookup: collect + sort + ``ray.put`` ONCE, attach
    columns onto any number of datasets afterwards (no per-call re-collect).

    Build it once per pipeline run for the lookup side every pass shares
    (e.g. doc_id → norm_text); the per-attach cost is then only the
    per-batch searchsorted.
    """

    def __init__(self, other, right_key: str, value_cols: list[str]):
        tbl = _collect_columns(other, [right_key, *value_cols])
        self.ref = broadcast_table(tbl, right_key, value_cols)

    def attach(self, ds, left_key: str, cols: dict[str, str], how: str = "inner"):
        return as_dataset(ds).map_batches(
            _Lookup(self.ref, left_key, cols, how), batch_format="pyarrow")


def broadcast_lookup(other, left_key: str, right_key: str,
                     cols: dict[str, str], how: str = "inner") -> _Lookup:
    """The per-batch function of a broadcast attach: ``other``'s
    ``right_key`` and ``cols`` (value_col → out_col) collected, sorted and
    put in the object store once, looked up by each batch's ``left_key``."""
    ref = BroadcastAttacher(other, right_key, list(cols)).ref
    return _Lookup(ref, left_key, cols, how)


def key_codes(t: pa.Table, keys: list[str]) -> np.ndarray:
    """One int64 per row of ``t``, equal for two rows iff all their
    ``keys`` values are: each column's dense rank, folded in column by
    column and re-ranked (so codes stay below ``len(t)``)."""
    code = np.zeros(len(t), np.int64)
    for k in keys:
        _, rank = np.unique(t[k].to_numpy(zero_copy_only=False),
                            return_inverse=True)
        code = np.unique(code * (rank.max(initial=-1) + 1) + rank,
                         return_inverse=True)[1].astype(np.int64)
    return code


# side tag of a tagged union: 0 for the left (probe) side, 1 for the right
# (lookup) side
SIDE = "__fmr_side"


def tagged_union(left, right, on: list[str], right_on: list[str],
                 cols: list[str]):
    """``left`` and ``right`` unioned in one schema, tagged by ``SIDE``:
    left's columns, ``SIDE``, then right's ``cols`` as ``SIDE_0, SIDE_1,
    …``. Right's ``right_on`` is written into left's ``on``, cast to its
    type, and each side's missing columns are typed nulls, so every block
    of the union has one schema (Ray 2.49 does sort a union of two shapes,
    but warns that an operator "produced a RefBundle with a different
    schema"). Both sides are pinned, so their schemas are metadata. Each
    side is tagged by ``map_blocks``; both tagged on the driver, the union
    is driver blocks too (``union``), so ``map_segments`` runs on the
    driver (no execution)."""
    lsch = left.schema().base_schema
    rsch = right.schema().base_schema
    vals = {f"{SIDE}_{i}": c for i, c in enumerate(cols)}
    schema = pa.schema([*lsch, pa.field(SIDE, pa.int8()),
                        *(pa.field(v, rsch.field(c).type)
                          for v, c in vals.items())])

    def _build(t: pa.Table, side: int, src: dict) -> pa.Table:
        src[SIDE] = pa.array(np.full(len(t), side, np.int8))
        return pa.Table.from_arrays(
            [src[f.name].cast(f.type) if f.name in src
             else pa.nulls(len(t), f.type) for f in schema], schema=schema)

    def _left(t: pa.Table) -> pa.Table:
        return _build(t, 0, {f.name: t[f.name] for f in lsch})

    def _right(t: pa.Table) -> pa.Table:
        src = {k: t[rk] for k, rk in zip(on, right_on)}
        return _build(t, 1, {**src, **{v: t[c] for v, c in vals.items()}})

    return union(map_blocks(left, _left), map_blocks(right, _right))


def _segment_lookup(t: pa.Table, on: list[str], cols: dict[str, str],
                    how: str) -> pa.Table:
    """``lookup`` over a ``tagged_union`` table that holds, for each key of
    its left rows, that key's right rows (at least the first, if any): its
    left rows against its right rows, sorted as ``broadcast_table`` sorts
    the whole lookup side. A multi-column key is looked up by
    ``key_codes``."""
    names = t.column_names
    cut = names.index(SIDE)
    is_left = t[SIDE].to_numpy(zero_copy_only=False) == 0
    lmask, rmask = pa.array(is_left), pa.array(~is_left)
    key = t[on[0]] if len(on) == 1 else pa.array(key_codes(t, on))
    keys, values = sorted_side(key.filter(rmask), t.filter(rmask),
                               names[cut + 1:])
    return lookup(t.filter(lmask).select(names[:cut]),
                  key.filter(lmask).to_numpy(zero_copy_only=False), keys,
                  values, dict(zip(names[cut + 1:], cols.values())), how)


def _keyed_sorted(srt, on: list[str], fn, first_only: bool):
    """``fn`` over a materialized ``tagged_union`` whose blocks are
    contiguous ranges of one sort on ``on``, with no row on the driver.

    A key with rows in two blocks is the last key of one and the first of
    the next (a hot key may span any number of blocks). Each block's right
    rows of its first and last key (with ``first_only`` only the first
    right row of each: a lookup reads one) are pinned as a small dataset
    whose block refs every block receives. Each block then runs ``fn``
    over its own rows, less those edge right rows, plus the pinned right
    rows of its own first and last key: every left row meets its key's
    right rows on the block that holds it, so no key's rows are gathered
    in one place.
    """
    sch = srt.schema()
    if sch is None:           # no rows and no schema: nothing to run
        return srt
    empty = sch.base_schema.empty_table()

    def _edge_right(t: pa.Table) -> pa.Table:
        if len(t) == 0:       # empty blocks may carry no schema
            return empty
        lo, hi = _key_edges(t, on)
        edge = pa.concat_tables([t.slice(0, lo), t.slice(hi)])
        edge = edge.filter(pc.equal(edge[SIDE], 1))
        if first_only:
            at = {int(np.argmax(m)) for m in _key_masks(edge, t, on)
                  if m.any()}
            edge = edge.take(np.array(sorted(at), dtype=np.int64))
        return edge

    pinned = srt.map_batches(_edge_right, batch_format="pyarrow",
                             batch_size=None, zero_copy_batch=True)
    pinned = pinned.materialize()
    refs = block_refs(pinned) or pinned.to_arrow_refs()

    def _block(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return fn(empty)
        lo, hi = _key_edges(t, on)
        own = np.ones(len(t), dtype=bool)
        side = t[SIDE].to_numpy(zero_copy_only=False)
        own[:lo] = side[:lo] == 0
        own[hi:] = side[hi:] == 0
        edge = pa.concat_tables([empty, *ray.get(refs)],
                                promote_options="permissive")
        first, last = _key_masks(edge, t, on)
        return fn(pa.concat_tables([t.filter(pa.array(own)),
                                    edge.filter(pa.array(first | last))]))

    return srt.map_batches(_block, batch_format="pyarrow", batch_size=None,
                           zero_copy_batch=True)


def _pin(ds):
    """``ds`` materialized, as a dataset whose stats lineage starts here
    (driver blocks as they are: they have no lineage).
    Ray 2.49 sums up the stats of every execution by walking the stats
    parents with no memo, so joins fed the outputs of joins (each
    contraction level's relabel reads labels that deeper levels joined,
    and the doc fill reads those) take time exponential in the join
    depth (seen with the min-label propagation this package once ran:
    277,494 ``to_summary`` calls for 96 executions, 4 rounds over 200
    edges)."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.input_data_operator import (
        InputData)
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats

    if isinstance(ds, DriverBlocks):
        return ds
    mat = ds.materialize()
    data = mat._logical_plan.dag.output_data()
    out = MaterializedDataset(
        ExecutionPlan(DatasetStats(metadata={}, parent=None),
                      data_context=mat.context),
        LogicalPlan(InputData(input_data=data), mat.context))
    out._plan.execute()         # marks the plan executed, as materialize()
    return out


def key_local(ds, other, on: list[str], right_on: list[str], cols: list[str],
              fn, *, first_only: bool, num_partitions: int = 32):
    """``fn`` (pyarrow Table → Table) over ``ds`` and ``other`` cut at the
    join key (``on`` = ``right_on``). Each call gets a ``tagged_union``
    table holding ds's rows of some keys and, for each of those keys,
    every row of ``other`` (with ``first_only`` at least one: a lookup
    reads one); ``other`` is projected to ``right_on`` and ``cols``.

    Both sides are pinned first (``_pin``): the sort is a barrier anyway,
    and both schemas are then metadata (``schema()`` of a lazy dataset
    runs an early-stopped ``limit=1`` execution of it). A union tagged on
    the driver (``union``) runs ``fn`` once there (``map_segments``); a
    larger one is range-sorted on
    ``on`` into ``partitions_for(num_partitions, …)`` ranges (a union's
    block count is the sum of its sides', so joins fed join outputs
    would compound it) and run block by block by
    ``_keyed_sorted``, which gathers no key's rows in one place.
    """
    ds = _pin(ds)
    if ds.schema() is None:       # no rows and no schema: nothing to join
        return ds
    right = _pin(project(other, [*right_on, *cols]))
    tagged = tagged_union(ds, right, on, right_on, cols)
    if isinstance(tagged, DriverBlocks):
        return map_segments(tagged, on, fn)
    parts = partitions_for(num_partitions, plan_bytes(tagged))
    srt = tagged.repartition(parts).sort(on).materialize()
    return _keyed_sorted(srt, on, fn, first_only)


def keyed_join(ds, other, on: list[str], right_on: list[str],
               cols: dict[str, str], how: str, num_partitions: int = 32):
    """``lookup`` of ``other`` onto ``ds`` (``on`` = ``right_on``),
    key-local (``key_local``): each cut's rows of ``ds`` are looked up
    against its own rows of ``other`` — the broadcast branch's lookup, cut
    by cut, so the two branches agree by construction (a lookup side
    holds one row per key). ``how`` as in ``lookup``; the output holds
    ds's columns, then ``cols``' out columns."""
    return key_local(ds, other, on, right_on, list(cols),
                     lambda t: _segment_lookup(t, on, cols, how),
                     first_only=True, num_partitions=num_partitions)


def attach_columns(ds, other, left_key: str, right_key: str,
                   cols: dict[str, str], *, how: str = "inner",
                   num_partitions: int = 32):
    """Attach ``cols`` (value_col → out_col) from ``other`` onto ``ds``.

    how="inner" drops rows of ds with no match; how="left" keeps them
    (nulls); "semi" and "anti" keep the matched / unmatched rows and
    attach nothing (``cols`` empty). ``other`` is broadcast while gate
    "attach" keeps its bytes within the broadcast budget (``other``
    pinned first when its plan knows no size), else joined key-local
    (``keyed_join``) in at most ``num_partitions`` sort ranges.
    """
    other, n = pinned_bytes(other)
    if gates.decide("attach", n) == "broadcast":
        return as_dataset(ds).map_batches(
            broadcast_lookup(other, left_key, right_key, cols, how),
            batch_format="pyarrow")
    return keyed_join(ds, other, [left_key], [right_key], cols, how,
                      num_partitions)


def anti_lookup(other, left_key: str, right_key: str):
    """The per-batch function of a broadcast anti join: drops the rows
    whose ``left_key`` is among ``other``'s ``right_key`` values, collected
    and put in the object store once. None when gate "anti" does not
    broadcast ``other`` (the caller joins key-local instead)."""
    other, n = pinned_bytes(other)
    if gates.decide("anti", n) != "broadcast":
        return None
    return broadcast_lookup(other, left_key, right_key, {}, "anti")


def anti_join(ds, other, left_key: str, right_key: str,
              num_partitions: int = 32):
    """Rows of ds whose key does NOT appear in other (tombstone removal):
    the broadcast ``anti_lookup`` while the tombstone side is small (the
    common case), else the key-local ``keyed_join``."""
    drop = anti_lookup(other, left_key, right_key)
    if drop is not None:
        return as_dataset(ds).map_batches(drop, batch_format="pyarrow")
    return keyed_join(ds, other, [left_key], [right_key], {}, "anti",
                      num_partitions)
