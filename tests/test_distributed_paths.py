"""Force the at-scale code paths (the range-sort branch of
``joins.map_segments``, key-local joins, union-find per range with
contraction) on small data and assert they produce byte-identical results
to the driver fast paths."""

import dataclasses
import os
import signal
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.sources.webpages import make_webpages
from fuzzy_matcher_ray.stages import candidates as C


@pytest.fixture()
def band_rows(ray_session):
    import ray.data as rd
    from fuzzy_matcher_ray.stages.minhash_stage import (
        Signatures, add_stage, band_key_rows)
    from fuzzy_matcher_ray.stages.normalize_stage import normalized_docs
    cfg = PipelineConfig()
    pages, _ = make_webpages(800, seed=13)
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(pages)), pa.int64()),
        "url": pages["url"], "text": pages["text"], "lang": pages["lang"]}))
    norm = normalized_docs(docs, cfg).repartition(4).materialize()
    sigs = add_stage(norm.select_columns(["doc_id", "norm_text", "tier"]),
                     Signatures, cfg)
    return band_key_rows(sigs, cfg).materialize()


def _pairs_set(ds):
    df = ds.to_pandas()
    return set(zip(df.a.tolist(), df.b.tolist()))


def test_sorted_explode_matches_driver_path(band_rows, monkeypatch):
    cfg = PipelineConfig()
    driver = _pairs_set(C.key_pairs(band_rows, ["band", "band_hash"], cfg))
    # force the distributed sort-based explode
    monkeypatch.setattr(C, "DRIVER_EXPLODE_MAX_ROWS", 10)
    dist = _pairs_set(C.key_pairs(band_rows, ["band", "band_hash"], cfg))
    assert driver == dist and len(driver) > 0


def test_full_pipeline_distributed_paths(ray_session, monkeypatch):
    """Whole flagship with every driver threshold forced to the distributed
    branch — output must equal the fast-path run exactly."""
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    cfg = PipelineConfig()
    pages, _ = make_webpages(500, seed=17)
    tbl = pa.table({
        "doc_id": pa.array(range(len(pages)), pa.int64()),
        "url": pages["url"], "text": pages["text"], "lang": pages["lang"]})
    fast = find_duplicates(rd.from_arrow(tbl), cfg) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(C, "DRIVER_EXPLODE_MAX_ROWS", 10)
    slow = find_duplicates(rd.from_arrow(tbl),
                           dataclasses.replace(cfg, driver_uf_max_edges=0)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert fast[["doc_id", "cluster_id"]].equals(slow[["doc_id", "cluster_id"]])


def test_jaccard_allpairs_distributed_parity(ray_session, monkeypatch):
    """Exact all-pairs Jaccard clustering: distributed count/join branches
    produce the same clusters as the driver fast paths."""
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import jaccard_allpairs_clusters
    pages, _ = make_webpages(60, seed=29)
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(pages)), pa.int64()),
        "text": pages["text"]}))
    fast = jaccard_allpairs_clusters(ds) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (fast.doc_id != fast.cluster_id).sum() > 0  # planted dups found
    monkeypatch.setattr(C, "DRIVER_EXPLODE_MAX_ROWS", 10)
    slow = jaccard_allpairs_clusters(ds) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert fast.equals(slow)


# Hand-cut sorted blocks, one key per letter: B (5 rows, hot past a cap of
# 4) spans three non-empty blocks around an empty one; C spans three
# blocks through a 1-row block; E spans two; b1 holds only B; D and F are
# the only interior keys of their blocks.
_BLOCKS = ["AAAB", "BB", "", "BBC", "C", "CDE", "EEFG"]


def _cut(rows: pa.Table) -> list[pa.Table]:
    """``rows`` (one row per letter of ``_BLOCKS``, in order) cut into the
    hand-cut blocks."""
    out, lo = [], 0
    for blk in _BLOCKS:
        out.append(rows.slice(lo, len(blk)))
        lo += len(blk)
    return out


def _segment_kernels():
    """(name, rows, keys, fn): each key-local kernel with a sorted input
    table in the ``_BLOCKS`` key layout."""
    from fuzzy_matcher_ray.pipelines.dedup import _min_rep_table
    from fuzzy_matcher_ray.pipelines.events import _asof_rows, _band_counts
    from fuzzy_matcher_ray.pipelines.webtext import _segmented_rebuild
    from fuzzy_matcher_ray.stages.ranks import _partial_topk

    letters = "".join(_BLOCKS)
    k = np.array([ord(c) - ord("A") for c in letters], dtype=np.int64)
    n = len(k)
    ids = (np.arange(n, dtype=np.int64) * 7) % 11 + 1
    ids[1] = ids[0]                      # one doc twice under key A
    i64 = lambda v: pa.array(v, pa.int64())
    cfg = dataclasses.replace(PipelineConfig(), max_band_group=4)

    def pp(t):
        return i64(t["doc_id_a"].to_numpy() * 100 + t["doc_id_b"].to_numpy())

    def explode(t):
        return C._explode_table(t, ["k"], cfg, [], None, {"pp": pp})

    a, b = k // 3, 10 + k % 3          # (a, b) sorts as the letters do
    # both event sides per user, ts ties across sides included
    sides = pa.table({
        "event_id": i64(np.arange(n)), "user_id": i64(k),
        "ts": i64((ids * 3) % 7 * 60_000_000).cast(pa.timestamp("us")),
        "is_left": pa.array(ids % 2 == 0)})
    pp_vals = pa.array([None if i % 3 == 0 else int(i) for i in range(n)],
                       pa.int64())
    return [
        ("explode", pa.table({"k": i64(k), "doc_id": i64(ids)}), ["k"],
         explode),
        ("dedup", pa.table({"a": i64(a), "b": i64(b), "pp": pp_vals}),
         ["a", "b"], lambda t: C._numpy_dedup_pairs(t, ["pp"])),
        ("count", pa.table({"a": i64(a), "b": i64(b)}), ["a", "b"],
         C._count_table),
        ("min_rep", pa.table({"h1": i64(k // 2), "h2": i64(k % 2),
                              "doc_id": i64(ids)}), ["h1", "h2"],
         lambda t: _min_rep_table(t, ["h1", "h2"])),
        ("rebuild", pa.table({
            "doc_id": i64(k), "line": pa.array([f"l{i}" for i in range(n)]),
            "pack": i64((k << 32) | np.arange(n, dtype=np.int64))}),
         ["doc_id"], lambda t: _segmented_rebuild(t, "\n")),
        ("asof", sides, ["user_id"], _asof_rows),
        ("band", sides, ["user_id"], lambda t: _band_counts(t, 120_000_000)),
        ("topk", pa.table({"g": i64(k), "val": i64(ids % 4),
                           "doc_id": i64(np.arange(n))}), ["g"],
         lambda t: _partial_topk(t, "g", "val", "doc_id", 2, rank_col="r")),
    ]


@pytest.mark.parametrize("name", ["explode", "dedup", "count", "min_rep",
                                  "rebuild", "asof", "band", "topk"])
def test_map_sorted_stitches_boundary_keys(ray_session, name):
    """The post-sort step of ``map_segments`` over hand-cut sorted blocks
    equals the kernel over the whole table: keys spanning 2 and 3 blocks,
    a single-key block, a 1-row and an empty block, and a hot key spanning
    3 non-empty blocks."""
    import ray.data as rd
    from fuzzy_matcher_ray.stages.joins import _map_sorted, collect_table

    (_, rows, keys, fn), = [x for x in _segment_kernels() if x[0] == name]
    want = fn(rows)
    assert len(want) > 0
    got = collect_table(_map_sorted(rd.from_blocks(_cut(rows)), keys, fn))
    order = [(c, "ascending") for c in want.column_names]
    assert got.sort_by(order).equals(want.sort_by(order))


_ONE_CPU_RUN = """
import sys
import pyarrow as pa
import pyarrow.parquet as pq
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
from dataclasses import replace
from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.pipelines.dedup import find_duplicates, incremental_update
from fuzzy_matcher_ray.stages import candidates, joins
from fuzzy_matcher_ray.stages.joins import collect_table
from fuzzy_matcher_ray.state.checkpoint import Checkpointer
from fuzzy_matcher_ray.sources.webpages import make_webpages
from ray.data._internal.execution.streaming_executor import StreamingExecutor

# every executed DAG that stops early after one row (a ``schema()`` or
# ``limit(1)`` over a lazy dataset), and every one that holds a groupby
# (Ray 2.49 names its operator ``Aggregate``)
execute, early, grouped = StreamingExecutor.execute, [], []


def _execute(executor, dag, *args, **kwargs):
    names, todo = [], [dag]
    while todo:
        op = todo.pop()
        names.append(op.name)
        todo.extend(op.input_dependencies)
    if "limit=1" in names:
        early.append(" <- ".join(names))
    if "Aggregate" in names:
        grouped.append(" <- ".join(names))
    return execute(executor, dag, *args, **kwargs)


StreamingExecutor.execute = _execute
assert candidates.DRIVER_EXPLODE_MAX_ROWS == 0
# every attach, anti-join, semi-join and text attach takes the key-local join
joins.BROADCAST_MAX_ROWS = 0
candidates.BROADCAST_KEYS_MAX = 0
out = sys.argv[1]
pages, _ = make_webpages(750, seed=5)
t = pa.table({"doc_id": pa.array(range(len(pages)), pa.int64()),
              "url": pages["url"], "text": pages["text"],
              "lang": pages["lang"]})
cfg = replace(PipelineConfig(), driver_uf_max_edges=0)
link0 = find_duplicates(rd.from_blocks([t.slice(0, 400)]), cfg,
                        checkpointer=Checkpointer(out + "/link0",
                                                  cfg.config_hash()))
pq.write_table(collect_table(link0), out + "/link0.parquet")
fold = incremental_update([out + "/link0"], rd.from_blocks([t.slice(400)]), cfg)
pq.write_table(collect_table(fold), out + "/fold.parquet")
assert early == [], early
assert grouped == [], grouped
ray.shutdown()
"""


def _run_forced_one_cpu(script: str, tmp_path, *args: str) -> None:
    """Run ``script`` with argv ``tmp_path, *args`` in a subprocess with
    FMR_DRIVER_EXPLODE_MAX_ROWS=0 under a hard timeout; it starts its own
    1-CPU Ray."""
    env = dict(os.environ, FMR_DRIVER_EXPLODE_MAX_ROWS="0",
               PYTHONPATH=os.pathsep.join(
                   [os.path.dirname(os.path.dirname(__file__)),
                    os.environ.get("PYTHONPATH", "")]))
    log = tmp_path / "run.log"
    with open(log, "w") as out:
        # own process group: a timeout ends the run and the Ray it started
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path), *args], env=env,
            stdout=out, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            rc = proc.wait(timeout=240)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    assert rc == 0, log.read_text()[-4000:]


def test_forced_twins_one_cpu_flagship_and_fold(ray_session, tmp_path):
    """Every key-local operator on its distributed branch
    (FMR_DRIVER_EXPLODE_MAX_ROWS=0), every join key-local (both broadcast
    budgets 0) and labelling contracted over ranges, on a 1-CPU Ray: a
    checkpointed flagship (chain link 0) and one fold finish, start no
    execution that stops after one row (``limit=1``) and none that holds
    a groupby, and label every doc as the default run does. The session
    fixture has 4 CPUs, so the run starts its own Ray in a subprocess."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import (find_duplicates,
                                                   incremental_update)
    from fuzzy_matcher_ray.state.checkpoint import Checkpointer
    from fuzzy_matcher_ray.stages.joins import collect_table

    _run_forced_one_cpu(_ONE_CPU_RUN, tmp_path)

    cfg = PipelineConfig()
    pages, _ = make_webpages(750, seed=5)
    t = pa.table({"doc_id": pa.array(range(len(pages)), pa.int64()),
                  "url": pages["url"], "text": pages["text"],
                  "lang": pages["lang"]})
    root = str(tmp_path / "default_link0")
    link0 = collect_table(find_duplicates(
        rd.from_blocks([t.slice(0, 400)]), cfg,
        checkpointer=Checkpointer(root, cfg.config_hash())))
    fold = collect_table(incremental_update(
        [root], rd.from_blocks([t.slice(400)]), cfg))
    for name, want in (("link0", link0), ("fold", fold)):
        got = pq.read_table(tmp_path / f"{name}.parquet")
        cols = [c for c in ("doc_id", "cluster_id", "url")
                if c in want.column_names]
        assert "cluster_id" in cols and len(want) > 0
        assert got.select(cols).sort_by("doc_id").equals(
            want.select(cols).sort_by("doc_id")), name


# The queries whose per-key operator moved onto joins.map_segments (the
# grouped top-k, the per-user event joins and the entity-match blocking
# join).
_MOVED_QUERIES = ("knn_topk", "nearest_neighbor", "topk_per_source",
                  "keep_best_representatives", "asof_latest_prior",
                  "range_join_count", "entity_match_customers")

_ONE_CPU_QUERIES = """
import sys
import pyarrow.parquet as pq
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
import __ray_entry__ as entry
from fuzzy_matcher_ray.stages import candidates
from fuzzy_matcher_ray.stages.joins import collect_table

assert candidates.DRIVER_EXPLODE_MAX_ROWS == 0
out, sf = sys.argv[1], sys.argv[2]
queries = entry.queries()
for name in sys.argv[3].split(","):
    pq.write_table(collect_table(queries[name](sf)), f"{out}/{name}.parquet")
ray.shutdown()
"""


def test_forced_twins_one_cpu_moved_queries(ray_session, tmp_path):
    """The grouped top-k, event-join and entity-match queries with their
    key-local kernels on the range-sort branch of ``map_segments``
    (FMR_DRIVER_EXPLODE_MAX_ROWS=0), on a 1-CPU Ray, give the default
    run's rows."""
    import pyarrow.parquet as pq

    from test_entry_contract import SF_DIR

    import __ray_entry__ as entry
    from fuzzy_matcher_ray.stages.joins import collect_table

    _run_forced_one_cpu(_ONE_CPU_QUERIES, tmp_path, SF_DIR,
                        ",".join(_MOVED_QUERIES))
    queries = entry.queries()
    for name in _MOVED_QUERIES:
        want = collect_table(queries[name](SF_DIR))
        got = pq.read_table(tmp_path / f"{name}.parquet")
        order = [(c, "ascending") for c in want.column_names]
        assert len(want) > 0
        assert got.sort_by(order).equals(want.sort_by(order)), name


def _join_sides(key: str):
    """(left, right, on, right_on) for a key-local join test: 600 left
    rows over keys the right side partly lacks, and right keys the left
    side lacks. ``key`` is "int" (right key int32 under another name),
    "string" (a ``norm_text``-like key) or "pair" (band, band_hash)."""
    rng = np.random.default_rng(11)
    n = 600
    i64 = lambda v: pa.array(v, pa.int64())
    kv = rng.integers(0, 300, n)
    left = pa.table({
        "k": i64(kv), "text": pa.array([f"doc {v} text" for v in kv]),
        "band": pa.array(kv % 4, pa.int8()), "band_hash": i64(kv // 4),
        "x": i64(np.arange(n))})
    rv = np.arange(150, 450)
    right = pa.table({
        "rk": pa.array(rv, pa.int32()),
        "text": pa.array([f"doc {v} text" for v in rv]),
        "band": pa.array(rv % 4, pa.int8()), "band_hash": i64(rv // 4),
        "v": i64(rv * 10), "w": pa.array([f"w{v}" for v in rv])})
    on = {"int": (["k"], ["rk"]), "string": (["text"], ["text"]),
          "pair": (["band", "band_hash"], ["band", "band_hash"])}[key]
    return left, right, *on


@pytest.mark.parametrize("key", ["int", "string", "pair", "empty"])
@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_keyed_join_matches_broadcast_lookup(ray_session, monkeypatch, how,
                                             key):
    """``joins.keyed_join`` on its range-sort branch
    (``DRIVER_EXPLODE_MAX_ROWS = 0``, left rows over 7 blocks) keeps and
    attaches exactly what the broadcast lookup does, with the same
    schema: keys absent from either side, an empty right side, a string
    key, and a two-column key (its broadcast twin looks up one column
    holding both)."""
    import ray.data as rd
    from fuzzy_matcher_ray.stages.joins import (_Lookup, broadcast_table,
                                                collect_table, keyed_join)

    monkeypatch.setattr(C, "DRIVER_EXPLODE_MAX_ROWS", 0)

    left, right, on, right_on = _join_sides("int" if key == "empty" else key)
    if key == "empty":
        right = right.slice(0, 0)
    cols = {} if how in ("semi", "anti") else {"v": "vv", "w": "ww"}
    got = collect_table(keyed_join(
        rd.from_arrow(left).repartition(7), rd.from_arrow(right),
        on, right_on, cols, how))

    def packed(t, names):      # one lookup column for a two-column key
        return t.append_column("_key", pa.array(
            [str(r) for r in zip(*(t[c].to_pylist() for c in names))]))

    lt, rt = packed(left, on), packed(right, right_on)
    lookup = _Lookup(broadcast_table(rt, "_key", list(cols)), "_key", cols,
                     how)
    want = lookup(lt).drop_columns(["_key"])
    assert got.schema == want.schema
    assert (len(want) == 0) == (key == "empty" and how in ("inner", "semi"))
    assert got.sort_by("x").equals(want.sort_by("x"))


def _hand_cut_union(kind: str) -> pa.Table:
    """A ``tagged_union`` table in the ``_BLOCKS`` key layout (key = letter
    index). "lookup": one right row per key but D, right rows first or
    last in their key's run, so hot B's (5 rows over 3 blocks) lookup row
    sits in another block than most of its probes; "pairs": entity-match
    key rows, every third row an index row."""
    from fuzzy_matcher_ray.stages.joins import SIDE

    letters = "".join(_BLOCKS)
    k = np.array([ord(c) - ord("A") for c in letters], dtype=np.int64)
    n = len(k)
    i64 = lambda v: pa.array(v, pa.int64())
    if kind == "lookup":
        first = np.r_[True, k[1:] != k[:-1]]
        side = (first & (k != 3)).astype(np.int8)
        side[np.flatnonzero(k == 4)] = [0, 0, 1]      # E's right row last
        return pa.table({"k": i64(k), "x": i64(np.arange(n)),
                         SIDE: pa.array(side),
                         f"{SIDE}_0": pa.array(np.where(side, k * 10, 0))})
    side = (np.arange(n) % 3 == 0).astype(np.int8)
    return pa.table({"rec_id": i64(np.arange(n)),
                     "field": pa.array(np.zeros(n, np.int32)),
                     "gram": i64(k), SIDE: pa.array(side),
                     f"{SIDE}_0": i64(1000 + np.arange(n))})


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti", "pairs"])
def test_keyed_sorted_stitches_hot_keys(ray_session, how):
    """The post-sort step of ``joins.key_local`` over hand-cut sorted
    blocks equals its kernel over the whole table: a hot key over three
    blocks whose lookup row sits in its first block, a key with no right
    row, keys over 2 and 3 blocks, an empty and a 1-row block."""
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.entity_match import _block_pairs
    from fuzzy_matcher_ray.stages.joins import (_keyed_sorted,
                                                _segment_lookup, collect_table)

    if how == "pairs":
        rows, on, fn = _hand_cut_union("pairs"), ["field", "gram"], \
            _block_pairs
    else:
        cols = {} if how in ("semi", "anti") else {"v": "vv"}
        rows, on = _hand_cut_union("lookup"), ["k"]
        fn = lambda t: _segment_lookup(t, on, cols, how)
    want = fn(rows)
    assert len(want) > 0
    got = collect_table(_keyed_sorted(rd.from_blocks(_cut(rows)), on, fn,
                                      how != "pairs"))
    order = [(c, "ascending") for c in want.column_names]
    assert got.sort_by(order).equals(want.sort_by(order))


def test_block_pairs_match_pandas_merge(ray_session, monkeypatch):
    """The entity-match blocking join (``_block_pairs`` over
    ``joins.key_local`` on its range-sort branch, query key rows over 7
    blocks, one gram holding most rows) emits exactly the query × index
    ``rec_id`` pairs of a pandas merge on (field, gram), repeats
    included."""
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.entity_match import _block_pairs
    from fuzzy_matcher_ray.stages.joins import collect_table, key_local

    monkeypatch.setattr(C, "DRIVER_EXPLODE_MAX_ROWS", 0)
    rng = np.random.default_rng(5)

    def keys(n, lo):
        gram = np.where(rng.random(n) < 0.6, 7, rng.integers(0, 60, n))
        return pa.table({"rec_id": pa.array(np.arange(lo, lo + n), pa.int64()),
                         "field": pa.array(rng.integers(0, 2, n), pa.int32()),
                         "gram": pa.array(gram, pa.int64())})

    q, i = keys(300, 0), keys(500, 10_000)
    k = ["field", "gram"]
    got = collect_table(key_local(
        rd.from_arrow(q).repartition(7), rd.from_arrow(i), k, k, ["rec_id"],
        _block_pairs, first_only=False)).to_pandas()
    want = q.to_pandas().merge(i.to_pandas(), on=k)
    assert len(want) > len(q)
    assert sorted(zip(got.a, got.b)) == \
        sorted(zip(want.rec_id_x, want.rec_id_y))


def test_key_local_hot_key_gathers_no_rows_on_driver(ray_session,
                                                      monkeypatch):
    """A join key holding 3/4 of the probe rows, more than any of the 4
    sort ranges: ``keyed_join`` and the blocking ``key_local`` give the
    broadcast lookup's rows and the pandas merge's pairs, and build no
    block on the driver (no ``from_blocks``, no ``block_tables``), so
    nothing there grows with a key's size."""
    import ray
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.entity_match import _block_pairs
    from fuzzy_matcher_ray.stages import joins

    monkeypatch.setattr(C, "DRIVER_EXPLODE_MAX_ROWS", 0)
    monkeypatch.setattr(joins, "TARGET_PARTITION_BYTES", 1 << 10)
    rng = np.random.default_rng(3)
    n = 4000
    k = np.where(np.arange(n) % 4 == 0, rng.integers(0, 400, n), 7)
    left = pa.table({"k": pa.array(k, pa.int64()),
                     "x": pa.array(np.arange(n), pa.int64())})
    right = pa.table({"k": pa.array(np.arange(0, 400, 2), pa.int64()),
                      "v": pa.array(np.arange(0, 400, 2) * 10, pa.int64())})
    q = pa.table({"rec_id": left["x"], "field": pa.array(k % 2, pa.int32()),
                  "gram": left["k"]})
    i = pa.table({"rec_id": pa.array(np.arange(10_000, 10_060), pa.int64()),
                  "field": pa.array(np.arange(60) % 2, pa.int32()),
                  "gram": pa.array(np.r_[[7] * 30, np.arange(30) * 13],
                                   pa.int64())})
    gathered = []
    from_blocks, block_tables = rd.from_blocks, joins.block_tables
    monkeypatch.setattr(rd, "from_blocks", lambda b, *a, **kw: (
        gathered.extend(len(t) for t in b), from_blocks(b, *a, **kw))[1])
    monkeypatch.setattr(joins, "block_tables", lambda ds: (
        lambda ts: (gathered.extend(len(t) for t in ts), ts)[1])(
            block_tables(ds)))

    def run(ds):      # empty blocks may carry no schema
        return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs())
                                 if len(t)])

    attached = run(joins.keyed_join(
        rd.from_arrow(left).repartition(7), rd.from_arrow(right), ["k"],
        ["k"], {"v": "vv"}, "left"))
    pairs = run(joins.key_local(
        rd.from_arrow(q).repartition(7), rd.from_arrow(i), ["field", "gram"],
        ["field", "gram"], ["rec_id"], _block_pairs, first_only=False))
    assert gathered == []
    lookup = joins._Lookup(joins.broadcast_table(right, "k", ["v"]), "k",
                           {"v": "vv"}, "left")
    assert attached.sort_by("x").equals(lookup(left).sort_by("x"))
    want = q.to_pandas().merge(i.to_pandas(), on=["field", "gram"])
    assert len(want) > n // 2
    assert sorted(zip(pairs["a"].to_pylist(), pairs["b"].to_pylist())) == \
        sorted(zip(want.rec_id_x, want.rec_id_y))
