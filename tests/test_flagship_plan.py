"""What ``find_duplicates`` executes and what rides through it: the Dataset
executions of one run (checkpointed or not, and of a fold and a chain),
its object-store round trips, the driver blocks that carry its driver
steps, the executions of a run with every budget forced to 0, sizing
off the plan, url carried from the normalize stage to the output,
zero-row and all-empty inputs, and normalize checkpoints written without
url."""

import contextlib
import threading

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.sources.webpages import make_webpages, write_webpages
from fuzzy_matcher_ray.stages.joins import collect_table
from fuzzy_matcher_ray.state.checkpoint import Checkpointer

CFG = PipelineConfig()
EMPTY_SCHEMA = pa.schema([("doc_id", pa.int64()), ("cluster_id", pa.int64()),
                          ("url", pa.string())])


class ExecutionCounter:
    """Counts ``StreamingExecutor.execute`` calls on a real operator DAG,
    the condition under which Ray Data starts a Dataset execution, and
    keeps each executed DAG's operator names (``dags``, a list per
    execution, from the output operator to its inputs). ``puts`` and
    ``from_blocks`` count the ``ray.put`` and ``ray.data.from_blocks``
    calls made meanwhile (a ``from_blocks`` puts each of its blocks)."""

    def __init__(self):
        self.count = 0
        self.puts = 0
        self.from_blocks = 0
        self.dags: list[list[str]] = []
        self._lock = threading.Lock()

    def _counted(self, attr: str, fn):
        def call(*args, **kwargs):
            with self._lock:
                setattr(self, attr, getattr(self, attr) + 1)
            return fn(*args, **kwargs)
        return call

    @contextlib.contextmanager
    def installed(self):
        import ray
        import ray.data as rd
        from ray.data._internal.execution.operators.input_data_buffer import (
            InputDataBuffer)
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor)
        orig = StreamingExecutor.execute
        put, from_blocks = ray.put, rd.from_blocks

        def execute(executor, dag, *args, **kwargs):
            if not isinstance(dag, InputDataBuffer):
                names, todo = [], [dag]
                while todo:
                    op = todo.pop()
                    names.append(op.name)
                    todo.extend(op.input_dependencies)
                with self._lock:
                    self.count += 1
                    self.dags.append(names)
            return orig(executor, dag, *args, **kwargs)

        StreamingExecutor.execute = execute
        ray.put = self._counted("puts", put)
        rd.from_blocks = self._counted("from_blocks", from_blocks)
        try:
            yield self
        finally:
            StreamingExecutor.execute = orig
            ray.put, rd.from_blocks = put, from_blocks


@pytest.fixture(scope="module")
def pages(ray_session, tmp_path_factory):
    return write_webpages(str(tmp_path_factory.mktemp("pages")), n_docs=300,
                          seed=17)


def _by_doc(t: pa.Table) -> dict:
    return dict(zip(t["doc_id"].to_pylist(), t["url"].to_pylist()))


def test_flagship_runs_in_three_executions(pages):
    """Normalize, the sketch and the edges_all fan-in: nothing else
    executes — the key rows, candidate pairs and the cluster fill are built
    on the driver from the materialized blocks, and there is no emptiness
    probe, no sizing run, no url join and no collect of an already
    materialized dataset. With the exact, band, SimHash and winnow key rows
    and the cluster fill as Ray maps it took 8.

    Between the executions the driver steps hand each other driver blocks
    (``joins.DriverBlocks``): a ``from_blocks`` builds only the inputs of
    the two verify maps and the returned dataset, and a ``ray.put`` ships
    only what a Ray operation reads (the exact copies the sketch drops,
    the verify texts, those blocks and the executor's own). While every
    driver step wrapped its output back into a Ray dataset, this run made
    19 ``from_blocks`` and 32 ``ray.put`` calls."""
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    from fuzzy_matcher_ray.sources.protocol import webpages_source

    with ExecutionCounter().installed() as counter:
        out = collect_table(find_duplicates(webpages_source(pages), CFG))
    assert len(out) == 300
    assert counter.count == 3
    assert counter.from_blocks <= 3
    assert counter.puts <= 12


@pytest.fixture(scope="module")
def shards(ray_session, tmp_path_factory):
    """400 + 400 webpages docs as two pages files, in fold order."""
    t, _ = make_webpages(800, seed=5)
    d = tmp_path_factory.mktemp("shards")
    paths = [str(d / f"shard{i}.parquet") for i in range(2)]
    for i, p in enumerate(paths):
        pq.write_table(t.slice(400 * i, 400), p)
    return paths


def test_checkpointed_flagship_runs_as_the_uncheckpointed_one(shards,
                                                               tmp_path):
    """A checkpointed run writes normalize, signatures (the sketch),
    edges_all and clusters from the blocks each stage already pinned, so
    it starts the uncheckpointed run's 3 executions: the writes are Ray
    tasks over block refs, not executions. The driver-block stages
    (edges_all, clusters) are written from the driver, so it makes no
    more ``from_blocks`` and ``ray.put`` calls than the uncheckpointed run
    either (4 and 13 against 3 and 12 while they were put in the object
    store for one write task per block). With each stage written, read
    back and counted, and the key rows of those reads run as Ray maps, it
    took 12 executions; with a winnow_rows stage beside the signatures,
    13; with each pass's edges also checkpointed (``edges_<pass>``) and
    the verifies run as four executions, 17."""
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    from fuzzy_matcher_ray.sources.protocol import webpages_source

    with ExecutionCounter().installed() as plain:
        collect_table(find_duplicates(webpages_source(shards[0]), CFG))
    ck = Checkpointer(str(tmp_path / "ck"), CFG.config_hash())
    with ExecutionCounter().installed() as counter:
        out = collect_table(find_duplicates(webpages_source(shards[0]), CFG,
                                            checkpointer=ck))
    assert len(out) == 400
    assert counter.count == 3
    assert counter.from_blocks <= plain.from_blocks
    assert counter.puts <= plain.puts


def test_fold_runs_in_twelve_executions(shards, tmp_path):
    """An uncheckpointed fold of 400 docs onto a 400-doc link, collected.
    With the relabel's edge endpoints and its edge union as Ray datasets
    over the fold's driver-block edges it took 13; with the increment's
    ids collected through a ``select_columns`` over its materialized
    normalize stage, 14; with the increment's key rows as Ray maps and a
    winnow_rows stage, 19; with a ``limit(1)`` emptiness probe ahead of
    its normalize stage too, 20."""
    from fuzzy_matcher_ray.pipelines.dedup import (find_duplicates,
                                                   incremental_update)
    from fuzzy_matcher_ray.sources.protocol import webpages_source

    root = str(tmp_path / "link0")
    find_duplicates(webpages_source(shards[0]), CFG,
                    checkpointer=Checkpointer(root, CFG.config_hash()))
    with ExecutionCounter().installed() as counter:
        out = collect_table(incremental_update(
            [root], webpages_source(shards[1]), CFG))
    assert len(out) == 800
    assert counter.count == 12


def test_two_shard_chain_runs_in_sixteen_executions(shards, tmp_path):
    """``dedup_sharded`` over both shards, collected: link 0, the prebuild
    of link 1 and the fold, every stage written from its pinned blocks and
    the prebuild's pinned stages handed to the fold. With the fold's
    relabel turning its driver-block edges back into Ray datasets it took
    17; with the fold reading the prebuilt normalize and signatures back
    as lazy Parquet, 21;
    with each stage read back after its write, 31; with a winnow_rows
    stage in every link, 33; with per-pass edge checkpoints in link 0 and
    emptiness probes ahead of the prebuild and the fold too, 40."""
    from fuzzy_matcher_ray.pipelines.dedup import dedup_sharded
    from fuzzy_matcher_ray.sources.protocol import webpages_source

    with ExecutionCounter().installed() as counter:
        out = collect_table(dedup_sharded(
            [(f"s{i}", webpages_source(p)) for i, p in enumerate(shards)],
            str(tmp_path / "state"), CFG))
    assert len(out) == 800
    assert counter.count == 16


def test_forced_flagship_labels_with_no_groupby(shards, monkeypatch):
    """The flagship on 400 docs with both budgets forced to 0 (every
    key-local operator range-sorted, every join key-local and the labels
    contracted over ranges): the output equals the unforced run's, and no
    executed DAG holds a groupby (``Aggregate``). Its 416 edges come in
    6 ranges, so the labeller contracts at most twice (6 → 3 → 1 ranges):
    64 executions when the 3 ranges leave no node shared, 68 when a third
    level runs (the range sort samples its bounds). With the edges on
    driver union-find the same run took 53; min-label propagation with its
    groupby rounds took 109."""
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    from fuzzy_matcher_ray.sources.protocol import webpages_source

    ids = ["doc_id", "cluster_id"]
    want = collect_table(find_duplicates(webpages_source(shards[0]), CFG))
    monkeypatch.setenv("FMR_DRIVER_BYTES", "0")
    monkeypatch.setenv("FMR_BROADCAST_BYTES", "0")
    with ExecutionCounter().installed() as counter:
        got = collect_table(find_duplicates(webpages_source(shards[0]), CFG))
    assert got.select(ids).sort_by("doc_id").equals(
        want.select(ids).sort_by("doc_id"))
    assert all("Aggregate" not in dag for dag in counter.dags)
    assert counter.count <= 68


def test_default_flagship_gates_take_driver_and_broadcast(pages, caplog):
    """Every gate decision of a default flagship on the 300-doc plan-test
    corpus, logged by ``stages/gates`` as (name, nbytes, branch), takes
    the driver or broadcast branch: the bytes sit far inside both
    budgets."""
    import logging

    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    from fuzzy_matcher_ray.sources.protocol import webpages_source

    logger = "fuzzy_matcher_ray.stages.gates"
    with caplog.at_level(logging.DEBUG, logger=logger):
        collect_table(find_duplicates(webpages_source(pages), CFG))
    seen = [r.args for r in caplog.records if r.name == logger]
    assert {"blocks", "segments", "labels", "relabel", "texts"} <= \
        {name for name, _, _ in seen}
    assert all(b in ("driver", "broadcast") for _, _, b in seen), seen


def test_plan_bytes_executes_nothing(pages):
    import ray.data as rd

    from fuzzy_matcher_ray.stages.joins import plan_bytes

    read = rd.read_parquet(pages)
    read_bytes = read._logical_plan.dag.infer_metadata().size_bytes
    mat = rd.from_arrow(pq.read_table(pages))
    with ExecutionCounter().installed() as counter:
        assert plan_bytes(read) == read_bytes
        assert plan_bytes(read.map_batches(lambda t: t,
                                           batch_format="pyarrow")) \
            == read_bytes
        assert plan_bytes(read.union(read)) == 2 * read_bytes
        assert plan_bytes(mat) == mat.size_bytes()
        assert plan_bytes(mat.union(read)) == mat.size_bytes() + read_bytes
        # a materialized dataset collects by block ref
        assert len(collect_table(mat)) == 300
    assert counter.count == 0


def test_collect_table_unifies_materialized_block_schemas(ray_session):
    """Blocks of one materialized dataset may differ in schema (a column
    all-null in one block is typed null); the by-ref collect unifies them
    as Ray's own batching does."""
    import ray.data as rd

    mat = rd.from_arrow([
        pa.table({"doc_id": pa.array([1], pa.int64()), "url": pa.nulls(1)}),
        pa.table({"doc_id": pa.array([2], pa.int64()),
                  "url": pa.array(["u2"], pa.string())})]).materialize()
    t = collect_table(mat)
    assert t.schema.field("url").type == pa.string()
    assert t["url"].to_pylist() == [None, "u2"]


def test_url_rides_from_webpages_source(pages):
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    from fuzzy_matcher_ray.sources.protocol import webpages_source

    out = collect_table(find_duplicates(webpages_source(pages), CFG))
    src = collect_table(webpages_source(pages).select_columns(["doc_id", "url"]))
    assert out.column_names == ["doc_id", "cluster_id", "url"]
    assert out.schema.field("url").type == src.schema.field("url").type \
        == pa.string()
    assert _by_doc(out) == _by_doc(src)


def test_url_rides_from_documents_source(ray_session, tmp_path):
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    from fuzzy_matcher_ray.sources.protocol import documents_source

    t, _ = make_webpages(200, seed=18)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(5000, 5000 + len(t)), pa.int64()),
        "text": t["text"], "lang": t["lang"]}),
        str(tmp_path / "documents.parquet"))
    out = collect_table(find_duplicates(documents_source(str(tmp_path)), CFG))
    assert len(out) == len(t)
    assert _by_doc(out) == {i: f"doc://{i}" for i in range(5000, 5000 + len(t))}


def test_urlless_input_yields_doc_and_cluster_only(ray_session):
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates

    t, _ = make_webpages(120, seed=19)
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(t)), pa.int64()), "text": t["text"]}))
    out = collect_table(find_duplicates(docs, CFG))
    assert out.column_names == ["doc_id", "cluster_id"]
    assert sorted(out["doc_id"].to_pylist()) == list(range(len(t)))


def _empty_docs(kind: str, tmp_path):
    import ray.data as rd

    from fuzzy_matcher_ray.sources.protocol import webpages_source

    if kind == "arrow":
        return rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                       "url": pa.array([], pa.string()),
                                       "text": pa.array([], pa.string())}))
    t, _ = make_webpages(10, seed=20)
    path = str(tmp_path / "empty-pages.parquet")
    pq.write_table(t.slice(0, 0), path)
    return webpages_source(path)


@pytest.mark.parametrize("kind", ["arrow", "parquet"])
def test_zero_row_input_returns_empty_schema(ray_session, tmp_path, kind):
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates

    out = find_duplicates(_empty_docs(kind, tmp_path), CFG)
    assert out.count() == 0
    assert out.schema().base_schema == EMPTY_SCHEMA


def test_zero_row_input_checkpoints_and_resumes(ray_session, tmp_path):
    from fuzzy_matcher_ray.pipelines.dedup import _link_schemas, find_duplicates

    root = str(tmp_path / "ck")
    for resumed in (False, True):
        ck = Checkpointer(root, CFG.config_hash())
        out = find_duplicates(_empty_docs("arrow", tmp_path), CFG,
                              checkpointer=ck)
        assert out.count() == 0
        assert out.schema().base_schema == EMPTY_SCHEMA
        assert ck.metrics["normalize"]["resumed"] is resumed
        # the rest of the link but edges_all, empty
        assert sorted(ck.metrics) == ["clusters", "normalize", "signatures"]
    assert pq.read_schema(str(tmp_path / "ck" / "normalize" / "data"
                              / "part-empty.parquet")) \
        == _link_schemas(CFG)["normalize"]


def test_all_empty_text_keeps_every_doc_a_singleton(ray_session):
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates

    n = 40
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(100, 100 + n), pa.int64()),
        "url": pa.array([f"u{i}" for i in range(n)], pa.string()),
        "text": pa.array(["", None, "   "] * (n // 3) + [""] * (n % 3),
                         pa.string())}))
    out = collect_table(find_duplicates(docs, CFG)).sort_by("doc_id")
    assert out["doc_id"].to_pylist() == list(range(100, 100 + n))
    assert out["cluster_id"].to_pylist() == out["doc_id"].to_pylist()
    assert out["url"].to_pylist() == [f"u{i}" for i in range(n)]


def test_urlless_normalize_checkpoint_rebuilds(ray_session, tmp_path):
    """A normalize artifact without url (as written before normalize
    carried it) and the clusters built from it rebuild when the source has
    url; the url-free stages in between still resume."""
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates

    t, _ = make_webpages(150, seed=22)
    tbl = pa.table({"doc_id": pa.array(range(len(t)), pa.int64()),
                    "url": t["url"], "text": t["text"]})
    root = str(tmp_path / "ck")
    find_duplicates(rd.from_arrow(tbl.drop(["url"])), CFG,
                    checkpointer=Checkpointer(root, CFG.config_hash()))
    ck = Checkpointer(root, CFG.config_hash())
    out = collect_table(find_duplicates(rd.from_arrow(tbl), CFG,
                                        checkpointer=ck))
    assert _by_doc(out) == _by_doc(tbl)
    assert not ck.metrics["normalize"]["resumed"]
    assert not ck.metrics["clusters"]["resumed"]
    assert ck.metrics["signatures"]["resumed"]
    assert "url" in ck.manifest("normalize")["columns"]


def test_older_layout_checkpoints_rebuild(ray_session, tmp_path):
    """Link stages whose columns are not the ones this code writes rebuild
    instead of resuming. Here a url-less link is rewritten in the older
    layout (normalize with fold_text and n_norm, a sketch without the
    winnow lists): a fold re-derives the prior sketch from the prior
    normalize artifact, and a rerun rebuilds both stages while edges_all
    and clusters resume. Unchanged, the url-less link resumes whole."""
    import json
    import os

    import pyarrow.compute as pc
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import (find_duplicates,
                                                   incremental_update)

    t, _ = make_webpages(240, seed=24)
    tbl = pa.table({"doc_id": pa.array(range(len(t)), pa.int64()),
                    "text": t["text"]})
    a, b = tbl.slice(0, 160), tbl.slice(160)
    root = str(tmp_path / "ck")

    def run():
        ck = Checkpointer(root, CFG.config_hash())
        out = collect_table(find_duplicates(rd.from_arrow(a), CFG,
                                            checkpointer=ck))
        return out.sort_by("doc_id"), ck

    first, _ = run()
    again, ck = run()
    assert again.equals(first)
    assert all(m["resumed"] for m in ck.metrics.values())

    def rewrite(stage, fn):
        data = os.path.join(root, stage, "data")
        old = fn(pq.read_table(data))
        for f in os.listdir(data):
            os.remove(os.path.join(data, f))
        pq.write_table(old, os.path.join(data, "part-0.parquet"))
        with open(os.path.join(root, stage, "_MANIFEST.json")) as f:
            m = json.load(f)
        m["columns"] = old.column_names
        with open(os.path.join(root, stage, "_MANIFEST.json"), "w") as f:
            json.dump(m, f)

    rewrite("normalize", lambda n: n.add_column(2, "fold_text", n["norm_text"])
            .add_column(3, "n_norm", pc.cast(pc.utf8_length(n["norm_text"]),
                                             pa.int64())))
    rewrite("signatures", lambda s: s.select(["doc_id", "bands", "simhash"]))

    fold = collect_table(incremental_update(root, rd.from_arrow(b), CFG))
    full = collect_table(find_duplicates(rd.from_arrow(tbl), CFG))
    assert fold.sort_by("doc_id").equals(
        full.select(["doc_id", "cluster_id"]).sort_by("doc_id"))

    rebuilt, ck = run()
    assert rebuilt.equals(first)
    assert {s: m["resumed"] for s, m in ck.metrics.items()} == {
        "normalize": False, "signatures": False, "edges_all": True,
        "clusters": True}
    assert ck.manifest("signatures")["columns"] == [
        "doc_id", "bands", "simhash", "fp", "pos"]
