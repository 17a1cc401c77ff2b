"""Join helpers: a broadcast lookup or a key-local one, and the segment
executor of every key-local operator.

≙ reference entry materialization ``fmc.Entries[id]``
(fuzzy_matcher_core.go:272) — an O(1) RAM map lookup becomes one sorted-array
lookup (``lookup``: ``searchsorted`` per batch) against either (a) the whole
lookup side, sorted and held by the per-batch function (a Ray map puts it
in the object store once, no shuffle), while its bytes fit the broadcast
budget (``gates``), or (b) each sort range's own lookup rows
(``keyed_join`` on ``key_local``: both sides tagged, unioned into one
schema and run through ``map_segments`` on the key). ``attach_columns``
picks the branch for every lookup, semi and anti join of the package.
At 10^12-doc scale the doc-side attach is always key-local. The range
sort is the package's one shuffle: no hash join and no aggregator
actors. Its bounds are sampled key values, so each key's rows, probe and
lookup side alike, land in one range. After it, one post-sort step
(``_map_ranges``) runs one Ray task per range: no key's rows pass
through the driver, and a key split across two ranges raises.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.dataset import MaterializedDataset

from fuzzy_matcher_ray.functions.shingle import splitmix64
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
    ``keys`` into as many ranges as it has blocks, and ``fn`` runs once
    per range in a Ray task (``_map_ranges``), each key whole in one
    range: zero per-group Python calls, and no key's rows on the
    driver.
    """
    n = nbytes(ds)
    if n is None or gates.decide("segments", n) != "driver":
        return _map_ranges(as_dataset(ds).sort(keys).materialize(), keys, fn)
    if not is_pinned(ds):
        ds = ds.materialize()
    if ds.schema() is None:     # no rows and no schema: nothing to run
        return ds
    out = fn(collect_table(ds))
    rows = block_rows or max(len(out), 1)
    return DriverBlocks([out.slice(lo, rows)
                         for lo in range(0, max(len(out), 1), rows)])


def each_key(t: pa.Table, keys: list[str], fn) -> pa.Table:
    """``fn`` over each run of equal ``keys`` of ``t`` sorted on them,
    outputs concatenated: a per-group kernel as a ``map_segments`` kernel.
    ``fn(t)`` when ``t`` is empty, which gives the output schema."""
    if len(t) == 0:
        return fn(t)
    t = t.sort_by([(k, "ascending") for k in keys])
    cut = np.r_[0, np.flatnonzero(np.diff(key_codes(t, keys))) + 1, len(t)]
    return pa.concat_tables([fn(t.slice(lo, hi - lo))
                             for lo, hi in zip(cut[:-1], cut[1:])])


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


@ray.remote(num_returns=2)
def _run_range(t: pa.Table, keys: list[str], fn, empty: pa.Table):
    """``fn`` over a sorted range's rows, and the range's (first, last)
    key tuples (None for an empty range)."""
    if len(t) == 0:           # empty blocks may carry no schema
        return fn(empty), None
    key = lambda i: tuple(t[k][i].as_py() for k in keys)
    return fn(t), (key(0), key(len(t) - 1))


def _map_ranges(srt, keys: list[str], fn):
    """``fn`` over a materialized dataset whose blocks are contiguous
    ranges of one Ray range sort on ``keys``, one Ray task per range: the
    post-sort step of ``map_segments``.

    The sort takes its range bounds from sampled key values, so every
    row of a key lands in one range and ``fn`` sees each key whole. Each
    task also returns its range's first and last key tuples, and the
    driver reads only those: a key at the edge of two non-empty ranges
    (a layout the sort does not make) raises ``RuntimeError`` instead of
    handing back ``fn``'s output over a split key. No block passes
    through the driver, and the outputs, wrapped by ref, cost no Dataset
    execution.
    """
    sch = srt.schema()
    if sch is None:           # no rows and no schema: nothing to run
        return srt
    blocks = block_refs(srt) or srt.to_arrow_refs()
    runs = [_run_range.remote(b, keys, fn, sch.base_schema.empty_table())
            for b in blocks]
    edges = [e for e in ray.get([r[1] for r in runs]) if e is not None]
    for (_, last), (first, _) in zip(edges, edges[1:]):
        if last == first:
            raise RuntimeError(f"key {last} of {keys} spans two sorted "
                               "ranges")
    return ray.data.from_arrow_refs([r[0] for r in runs])


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


def _combined_key(batch: pa.Table, key_cols: list[str]) -> np.ndarray:
    """Mix multiple key columns into one uint64: the key of a multi-column
    broadcast lookup and of ``key_pairs``' explode.

    Single-column fast path: the column IS the key — identity is injective
    (strictly better than the lossy mix) and skips the splitmix temporaries,
    whose fresh multi-MB allocations a VM that faults fresh pages slowly
    pays ~100x for (measured on one vCPU: 3.5 s over a 2.6M-row winnow
    table; the identity path is ~0.1 s)."""
    if len(key_cols) == 1:
        return (batch[key_cols[0]].to_numpy(zero_copy_only=False)
                .astype(np.int64, copy=False).view(np.uint64))
    acc = np.zeros(len(batch), dtype=np.uint64)
    for i, c in enumerate(key_cols):
        v = batch[c].to_numpy(zero_copy_only=False).astype(
            np.int64, copy=False).view(np.uint64)
        acc = splitmix64(acc ^ (v + np.uint64(0x9E37 + i)))
    return acc


def _lookup_key(t: pa.Table, keys: list[str]):
    """Each row's key for a broadcast ``lookup``: its one ``keys`` column,
    or the ``_combined_key`` of several."""
    return t[keys[0]] if len(keys) == 1 else pa.array(_combined_key(t, keys))


class _Lookup:
    """Broadcast sorted-key lookup: ``lookup`` per batch, probing by
    ``_lookup_key`` of ``left_key`` (one column or a list).

    ``side`` is ``sorted_side``'s pair, held by value: a lookup run on the
    driver looks it up as it is, and a Ray map (a stateless *instance*:
    elastic tasks, no idle CPU reservation — an actor pool here starves
    small clusters) puts it in the object store once, with its function.
    """

    def __init__(self, side, left_key: str | list[str], cols: dict[str, str],
                 how: str):
        self.side = side
        self.left_key = [left_key] if isinstance(left_key, str) \
            else list(left_key)
        self.cols = cols                     # value_col -> out_col
        self.how = how

    def __call__(self, batch: pa.Table) -> pa.Table:
        probe = _lookup_key(batch, self.left_key).to_numpy(
            zero_copy_only=False)
        return lookup(batch, probe, *self.side, self.cols, self.how)


class BroadcastAttacher:
    """One broadcast copy of a lookup side: collected, sorted and put in
    the object store ONCE (``ref``), for the verifiers that fetch it per
    batch (e.g. doc_id → norm_text, shared by every pass of a run)."""

    def __init__(self, other, right_key: str, value_cols: list[str]):
        tbl = _collect_columns(other, [right_key, *value_cols])
        self.ref = broadcast_table(tbl, right_key, value_cols)


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
    its left rows, every right row of that key: its left rows against its
    right rows, sorted as ``broadcast_table`` sorts the whole lookup side.
    A multi-column key is looked up by ``key_codes``."""
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


def key_local(ds, other, on: list[str], right_on: list[str], cols: list[str],
              fn, num_partitions: int = 32):
    """``fn`` (pyarrow Table → Table) over ``ds`` and ``other`` cut at the
    join key (``on`` = ``right_on``). Each call gets a ``tagged_union``
    table holding ds's rows of some keys and, for each of those keys,
    every row of ``other``; ``other`` is projected to ``right_on`` and
    ``cols``.

    Both sides are pinned first (``materialize``; driver blocks stay as
    they are): the sort is a barrier anyway, and both schemas are then
    metadata (``schema()`` of a lazy dataset runs an early-stopped
    ``limit=1`` execution of it). The union runs through ``map_segments``
    on ``on``: once on the driver when it is driver blocks (``union``),
    else range-sorted into ``partitions_for(num_partitions, …)`` ranges (a
    union's block count is the sum of its sides', so joins fed join
    outputs would compound it), one task per range, each key's probe and
    lookup rows in one range.
    """
    ds = ds.materialize()
    if ds.schema() is None:       # no rows and no schema: nothing to join
        return ds
    right = project(other, [*right_on, *cols]).materialize()
    tagged = tagged_union(ds, right, on, right_on, cols)
    if not isinstance(tagged, DriverBlocks):
        tagged = tagged.repartition(
            partitions_for(num_partitions, plan_bytes(tagged)))
    return map_segments(tagged, on, fn)


def keyed_join(ds, other, on: list[str], right_on: list[str],
               cols: dict[str, str], how: str, num_partitions: int = 32):
    """``lookup`` of ``other`` onto ``ds`` (``on`` = ``right_on``),
    key-local (``key_local``): each cut's rows of ``ds`` are looked up
    against every row of ``other`` with the same keys — the broadcast
    branch's lookup, cut by cut, so the two branches agree by
    construction (a lookup side holds one row per key). ``how`` as in
    ``lookup``; the output holds ds's columns, then ``cols``' out
    columns."""
    return key_local(ds, other, on, right_on, list(cols),
                     lambda t: _segment_lookup(t, on, cols, how),
                     num_partitions)


def attach_columns(ds, other, left_key: str | list[str],
                   right_key: str | list[str], cols: dict[str, str], *,
                   how: str = "inner", num_partitions: int = 32):
    """Attach ``cols`` (value_col → out_col) from ``other`` onto ``ds``,
    joined on ``left_key`` = ``right_key`` (one column or a list): the
    package's one lookup, semi and anti join.

    how="inner" drops rows of ds with no match; how="left" keeps them
    (nulls); "semi" and "anti" keep the matched / unmatched rows and
    attach nothing (``cols`` empty). ``other`` is broadcast while gate
    "attach" keeps its bytes within the broadcast budget (``other``
    pinned first when its plan knows no size): its sorted side is held by
    a ``_Lookup`` run through ``map_blocks``, on the driver over a small
    pinned ``ds``, else a Ray map (several key columns probe by
    ``_combined_key``). Past the budget it is joined key-local
    (``keyed_join``) in at most ``num_partitions`` sort ranges.
    """
    left = [left_key] if isinstance(left_key, str) else list(left_key)
    right = [right_key] if isinstance(right_key, str) else list(right_key)
    other, n = pinned_bytes(other)
    if gates.decide("attach", n) == "broadcast":
        tbl = _collect_columns(other, [*right, *cols])
        side = sorted_side(_lookup_key(tbl, right), tbl, list(cols))
        return map_blocks(ds, _Lookup(side, left, cols, how))
    return keyed_join(ds, other, left, right, cols, how, num_partitions)
