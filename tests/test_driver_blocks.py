"""Driver blocks (``joins.DriverBlocks``): what the driver branches hand
each other between Dataset executions. Their count, schema and blocks,
the one pinned predicate, the union and sort helpers, a zero-row result
that keeps its schema, a checkpoint written from them, and the public
entry points that still return Ray datasets."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.stages import candidates, joins
from fuzzy_matcher_ray.stages.joins import (DriverBlocks, collect_table,
                                            is_pinned, sort_rows, union)
from fuzzy_matcher_ray.state.checkpoint import Checkpointer

CFG = PipelineConfig()
EDGES = pa.schema([("a", pa.int64()), ("b", pa.int64())])


def _edges(a, b) -> pa.Table:
    return pa.table({"a": pa.array(a, pa.int64()),
                     "b": pa.array(b, pa.int64())})


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in t.column_names])


class _Spy(Checkpointer):
    """A checkpointer that keeps what each stage handed back."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built = {}

    def stage(self, name, build_fn, **kwargs):
        self.built[name] = super().stage(name, build_fn, **kwargs)
        return self.built[name]


def test_driver_blocks_know_count_schema_and_blocks(ray_session):
    import ray.data as rd

    blocks = DriverBlocks([_edges([1, 2], [3, 4]), EDGES.empty_table(),
                           _edges([5], [6])])
    assert is_pinned(blocks) and blocks.materialize() is blocks
    assert (blocks.count(), blocks.num_blocks()) == (3, 3)
    assert blocks.schema().base_schema == EDGES
    assert [len(t) for t in joins.block_tables(blocks)] == [2, 1]
    # a Ray dataset only on demand, built once; other Dataset attributes
    # are that dataset's
    ds = blocks.dataset()
    assert isinstance(ds, rd.Dataset) and blocks.dataset() is ds
    assert joins.as_dataset(blocks) is ds
    assert sorted(blocks.to_pandas()["a"]) == [1, 2, 5]
    assert DriverBlocks([]).schema() is None
    lazy = rd.from_arrow(_edges([1], [2])).map_batches(lambda t: t)
    assert not is_pinned(lazy) and joins.as_dataset(lazy) is lazy


def test_map_blocks_and_segments_stay_on_the_driver(ray_session, monkeypatch):
    """A small pinned input keeps its blocks on the driver: no
    ``from_blocks``, one output block per input block, then one segment
    pass; with the driver branch forced off the same calls run as Ray
    operations and give the same rows."""
    import ray.data as rd

    src = rd.from_blocks([_edges([3, 1, 1], [4, 2, 2]), _edges([0], [9])])
    calls = []
    from_blocks = rd.from_blocks
    monkeypatch.setattr(rd, "from_blocks", lambda b: (calls.append(len(b)),
                                                      from_blocks(b))[1])
    swapped = joins.map_blocks(src, lambda t: t.select(["b", "a"]))
    pairs = joins.map_segments(swapped, ["a", "b"],
                               lambda t: candidates._numpy_dedup_pairs(t, []))
    assert isinstance(swapped, DriverBlocks) and swapped.num_blocks() == 2
    assert isinstance(pairs, DriverBlocks)
    assert calls == []
    monkeypatch.setenv("FMR_DRIVER_BYTES", "0")
    forced = joins.map_segments(
        joins.map_blocks(src, lambda t: t.select(["b", "a"])), ["a", "b"],
        lambda t: candidates._numpy_dedup_pairs(t, []))
    assert not isinstance(forced, DriverBlocks)
    assert collect_table(pairs).equals(_edges([0, 1, 3], [9, 2, 4]))
    assert _sorted(collect_table(forced)).equals(collect_table(pairs))


def test_union_with_a_lazy_dataset(ray_session, monkeypatch):
    """Driver blocks union with pinned parts on the driver (a materialized
    part's blocks fetched by ref) and with a lazy dataset as a Ray union."""
    import ray.data as rd

    blocks = DriverBlocks([_edges([1], [2])])
    mat = rd.from_arrow(_edges([3, 4], [5, 6])).materialize()
    lazy = rd.from_arrow(_edges([7], [8])).map_batches(
        lambda t: t, batch_format="pyarrow")
    pinned = union(blocks, mat)
    assert isinstance(pinned, DriverBlocks) and pinned.count() == 3
    mixed = union(blocks, lazy)
    assert not is_pinned(mixed)
    assert _sorted(collect_table(mixed)).equals(_edges([1, 7], [2, 8]))
    assert _sorted(collect_table(union(pinned, lazy))).equals(
        _edges([1, 3, 4, 7], [2, 5, 6, 8]))
    assert union(blocks) is blocks
    # a budget of two (a, b) int64 rows: the union's three rows pass it
    monkeypatch.setenv("FMR_DRIVER_BYTES", "32")
    assert not isinstance(union(blocks, mat), DriverBlocks)


def test_sort_rows_on_the_driver_matches_dataset_sort(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(5)
    t = pa.table({"q": pa.array(rng.integers(0, 4, 60), pa.int64()),
                  "s": pa.array(rng.random(60)),
                  "id": pa.array(rng.permutation(60), pa.int64())})
    keys, desc = ["q", "s", "id"], [False, True, False]
    got = sort_rows(DriverBlocks([t.slice(0, 25), t.slice(25)]), keys,
                    descending=desc)
    want = rd.from_arrow(t).repartition(3).sort(keys, descending=desc)
    assert isinstance(got, DriverBlocks) and got.num_blocks() == 1
    assert collect_table(got).equals(collect_table(want))
    assert collect_table(sort_rows(DriverBlocks([t]), "id"))["id"] \
        .to_pylist() == list(range(60))


def _writes(root: str, ds) -> tuple[list, pa.Table, dict]:
    ck = Checkpointer(root, CFG.config_hash())
    ck.stage("s", lambda: ds, empty_schema=EDGES)
    data = os.path.join(root, "s", "data")
    m = ck.manifest("s")
    return sorted(os.listdir(data)), pq.read_table(data), \
        (m["rows"], m["columns"])


def test_checkpointer_writes_driver_blocks_as_it_writes_ray_blocks(
        ray_session, tmp_path):
    """A driver-built stage is written on the driver in the layout of
    the Ray-task writer: one ``part-NNNNN.parquet`` per non-empty block,
    NNNNN the block's index, and the same manifest rows and columns; a
    zero-row one as one empty part of its schema."""
    import ray.data as rd

    tables = [_edges([1, 2], [3, 4]), EDGES.empty_table(), _edges([5], [6])]
    got = _writes(str(tmp_path / "driver"), DriverBlocks(tables))
    want = _writes(str(tmp_path / "ray"), rd.from_blocks(tables))
    assert got[0] == want[0] == ["part-00000.parquet", "part-00002.parquet"]
    assert got[1].equals(want[1])
    assert got[2] == want[2] == (3, ["a", "b"])
    files, t, meta = _writes(str(tmp_path / "empty"),
                             DriverBlocks([EDGES.empty_table()]))
    assert files == ["part-empty.parquet"]
    assert t.schema == EDGES and meta == (0, ["a", "b"])


@pytest.fixture(scope="module")
def distinct_docs(ray_session):
    """60 docs of random words from a large vocabulary: no exact, near or
    substring duplicate among them."""
    import ray.data as rd

    rng = np.random.default_rng(11)
    vocab = np.array([f"w{i:05d}" for i in range(20000)])
    text = [" ".join(rng.choice(vocab, 80)) for _ in range(60)]
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(60), pa.int64()),
        "url": pa.array([f"u{i}" for i in range(60)]),
        "text": pa.array(text)}))


def test_duplicate_free_edges_all_is_empty_and_typed(distinct_docs,
                                                     tmp_path):
    """A duplicate-free corpus's ``edges_all`` is a zero-row driver result
    that keeps its (a, b) schema, is written as one empty part of it, and
    labels every doc a singleton."""
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates

    ck = _Spy(str(tmp_path / "ck"), CFG.config_hash())
    out = collect_table(find_duplicates(distinct_docs, CFG, checkpointer=ck))
    edges = ck.built["edges_all"]
    assert isinstance(edges, DriverBlocks) and edges.count() == 0
    assert edges.schema().base_schema == EDGES
    assert collect_table(edges).schema == EDGES
    data = tmp_path / "ck" / "edges_all" / "data"
    assert os.listdir(data) == ["part-empty.parquet"]
    assert pq.read_schema(str(data / "part-empty.parquet")) == EDGES
    assert (ck.manifest("edges_all")["rows"],
            ck.manifest("edges_all")["columns"]) == (0, ["a", "b"])
    assert out["cluster_id"].to_pylist() == out["doc_id"].to_pylist()


def test_entry_points_return_ray_datasets(distinct_docs, tmp_path):
    """The driver blocks stay inside: ``find_duplicates`` (with and
    without a checkpointer), ``incremental_update`` and
    ``dedup_sharded`` hand back Ray datasets."""
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import (dedup_sharded,
                                                   find_duplicates,
                                                   incremental_update)

    first = distinct_docs.filter(expr="doc_id < 30").materialize()
    rest = distinct_docs.filter(expr="doc_id >= 30").materialize()
    link0 = str(tmp_path / "link0")
    outs = [find_duplicates(distinct_docs, CFG),
            find_duplicates(first, CFG,
                            checkpointer=Checkpointer(link0,
                                                      CFG.config_hash())),
            incremental_update([link0], rest, CFG),
            dedup_sharded([("s0", first), ("s1", rest)],
                          str(tmp_path / "state"), CFG)]
    for out in outs:
        assert isinstance(out, rd.Dataset) and not isinstance(
            out, DriverBlocks)
    assert [o.count() for o in outs] == [60, 30, 60, 60]


def test_no_package_path_reads_dataset_attributes_off_driver_blocks(
        ray_session, tmp_path, monkeypatch):
    """Every package step that reads driver blocks asks them directly
    (``count``, ``schema``, ``tables``, ``as_dataset``): with
    ``DriverBlocks.__getattr__`` raising for every non-dunder name, the
    default flagship, a fold, a 2-shard chain and the flagship with both
    budgets forced to 0 all run. ``__getattr__`` itself stays for
    callers outside the package that treat a driver result as a
    dataset."""
    from fuzzy_matcher_ray.pipelines.dedup import (dedup_sharded,
                                                   find_duplicates,
                                                   incremental_update)
    from fuzzy_matcher_ray.sources.protocol import webpages_source
    from fuzzy_matcher_ray.sources.webpages import make_webpages

    pages, _ = make_webpages(400, seed=5)
    paths = [str(tmp_path / f"shard{i}.parquet") for i in range(2)]
    for i, p in enumerate(paths):
        pq.write_table(pages.slice(200 * i, 200), p)
    reads = []

    def strict(self, name):
        if name.startswith("__") or name in ("tables", "_ds"):
            raise AttributeError(name)
        reads.append(name)
        raise AssertionError(f"DriverBlocks.{name} read as a Dataset's")

    monkeypatch.setattr(DriverBlocks, "__getattr__", strict)
    src = lambda i: webpages_source(paths[i])
    link0 = str(tmp_path / "link0")
    want = collect_table(find_duplicates(
        src(0), CFG, checkpointer=Checkpointer(link0, CFG.config_hash())))
    fold = collect_table(incremental_update([link0], src(1), CFG))
    chain = collect_table(dedup_sharded([("s0", src(0)), ("s1", src(1))],
                                        str(tmp_path / "state"), CFG))
    monkeypatch.setenv("FMR_DRIVER_BYTES", "0")
    monkeypatch.setenv("FMR_BROADCAST_BYTES", "0")
    forced = collect_table(find_duplicates(src(0), CFG))
    assert reads == []
    ids = ["doc_id", "cluster_id"]
    assert forced.select(ids).sort_by("doc_id").equals(
        want.select(ids).sort_by("doc_id"))
    assert chain.select(ids).sort_by("doc_id").equals(
        fold.select(ids).sort_by("doc_id"))
    assert len(fold) == 400
