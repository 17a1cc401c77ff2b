"""What ``find_duplicates`` executes and what rides through it: the Dataset
executions of one run, sizing off the plan, url carried from the normalize
stage to the output, zero-row and all-empty inputs, and normalize
checkpoints written without url."""

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
    the condition under which Ray Data starts a Dataset execution."""

    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def installed(self):
        from ray.data._internal.execution.operators.input_data_buffer import (
            InputDataBuffer)
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor)
        orig = StreamingExecutor.execute

        def execute(executor, dag, *args, **kwargs):
            if not isinstance(dag, InputDataBuffer):
                with self._lock:
                    self.count += 1
            return orig(executor, dag, *args, **kwargs)

        StreamingExecutor.execute = execute
        try:
            yield self
        finally:
            StreamingExecutor.execute = orig


@pytest.fixture(scope="module")
def pages(ray_session, tmp_path_factory):
    return write_webpages(str(tmp_path_factory.mktemp("pages")), n_docs=300,
                          seed=17)


def _by_doc(t: pa.Table) -> dict:
    return dict(zip(t["doc_id"].to_pylist(), t["url"].to_pylist()))


def test_flagship_runs_in_eight_executions(pages):
    """Normalize, signatures, the exact rows, the two LSH key-row pins, the
    winnow rows, edges_all and clusters: nothing else executes — no
    emptiness probe, no sizing run, no url join, no collect of an already
    materialized dataset."""
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    from fuzzy_matcher_ray.sources.protocol import webpages_source

    with ExecutionCounter().installed() as counter:
        out = collect_table(find_duplicates(webpages_source(pages), CFG))
    assert len(out) == 300
    assert counter.count == 8


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
