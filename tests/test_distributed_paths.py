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
    monkeypatch.setenv("FMR_DRIVER_BYTES", "0")
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
    monkeypatch.setenv("FMR_DRIVER_BYTES", "0")
    slow = find_duplicates(rd.from_arrow(tbl), cfg) \
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
    monkeypatch.setenv("FMR_DRIVER_BYTES", "0")
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


def _segment_kernels(k=None):
    """(name, rows, keys, fn): each key-local kernel with an input table
    whose key runs are ``k`` (default: sorted, in the ``_BLOCKS`` key
    layout)."""
    from fuzzy_matcher_ray.pipelines.dedup import _min_rep_table
    from fuzzy_matcher_ray.pipelines.events import _asof_rows, _band_counts
    from fuzzy_matcher_ray.pipelines.webtext import _segmented_rebuild
    from fuzzy_matcher_ray.stages.ranks import _partial_topk

    if k is None:
        k = np.array([ord(c) - ord("A") for c in "".join(_BLOCKS)],
                     dtype=np.int64)
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


_ONE_CPU_RUN = """
import sys
import pyarrow as pa
import pyarrow.parquet as pq
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
import logging
from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.pipelines.dedup import find_duplicates, incremental_update
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


# every gate decision (name, nbytes, branch), off the gates module's log
class _Decisions(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.seen = []

    def emit(self, record):
        self.seen.append(record.args)


decisions = _Decisions()
logging.getLogger("fuzzy_matcher_ray.stages.gates").addHandler(decisions)
logging.getLogger("fuzzy_matcher_ray.stages.gates").setLevel(logging.DEBUG)
out = sys.argv[1]
pages, _ = make_webpages(750, seed=5)
t = pa.table({"doc_id": pa.array(range(len(pages)), pa.int64()),
              "url": pages["url"], "text": pages["text"],
              "lang": pages["lang"]})
cfg = PipelineConfig()
link0 = find_duplicates(rd.from_blocks([t.slice(0, 400)]), cfg,
                        checkpointer=Checkpointer(out + "/link0",
                                                  cfg.config_hash()))
pq.write_table(collect_table(link0), out + "/link0.parquet")
fold = incremental_update([out + "/link0"], rd.from_blocks([t.slice(400)]), cfg)
pq.write_table(collect_table(fold), out + "/fold.parquet")
assert early == [], early
assert grouped == [], grouped
# both budgets 0: every gate takes its distributed or join branch
names = {name for name, _, _ in decisions.seen}
assert {"blocks", "segments", "labels", "attach", "relabel",
        "texts"} <= names, names
assert all(b in ("distributed", "join") for _, _, b in decisions.seen), [
    d for d in decisions.seen if d[2] not in ("distributed", "join")]
ray.shutdown()
"""


def _run_forced_one_cpu(script: str, tmp_path, *args: str) -> None:
    """Run ``script`` with argv ``tmp_path, *args`` in a subprocess with
    both budgets forced to 0 (``FMR_DRIVER_BYTES=0 FMR_BROADCAST_BYTES=0``,
    the cluster shape) under a hard timeout; it starts its own 1-CPU
    Ray."""
    env = dict(os.environ, FMR_DRIVER_BYTES="0", FMR_BROADCAST_BYTES="0",
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
    """Every key-local operator on its distributed branch, every join
    key-local and labelling contracted over ranges (both budgets 0), on a
    1-CPU Ray: a checkpointed flagship (chain link 0) and one fold finish,
    every gate decision logged takes its distributed or join branch, no
    execution stops after one row (``limit=1``) and none holds a groupby,
    and every doc is labelled as the default run labels it. The session
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
# grouped top-k, the per-user event joins, the entity-match blocking join
# and the per-bucket, per-cell and per-cluster embedding kernels).
_MOVED_QUERIES = ("knn_topk", "nearest_neighbor", "topk_per_source",
                  "keep_best_representatives", "asof_latest_prior",
                  "range_join_count", "entity_match_customers",
                  "knn_topk_ivf", "knn_topk_ivf_kmeans", "semdedup_prune",
                  "semdedup_prune_boundary")

_ONE_CPU_QUERIES = """
import sys
import pyarrow.parquet as pq
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
import __ray_entry__ as entry
from fuzzy_matcher_ray.stages.joins import collect_table

out, sf = sys.argv[1], sys.argv[2]
queries = entry.queries()
for name in sys.argv[3].split(","):
    pq.write_table(collect_table(queries[name](sf)), f"{out}/{name}.parquet")
ray.shutdown()
"""


def test_forced_twins_one_cpu_moved_queries(ray_session, tmp_path):
    """The grouped top-k, event-join and entity-match queries with their
    key-local kernels on the range-sort branch of ``map_segments`` and
    their joins key-local (both budgets 0), on a 1-CPU Ray, give the
    default run's rows."""
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
    (``FMR_DRIVER_BYTES=0``, left rows over 7 blocks) keeps and
    attaches exactly what the broadcast lookup does, with the same
    schema: keys absent from either side, an empty right side, a string
    key, and a two-column key (its broadcast twin looks up one column
    holding both). ``attach_columns`` gives the same on both branches:
    its broadcast branch (a Ray map of the lookup, two key columns
    probed by their combined key) under the default broadcast budget and
    its key-local branch under ``FMR_BROADCAST_BYTES=0``."""
    import ray.data as rd
    from fuzzy_matcher_ray.stages.joins import (_Lookup, attach_columns,
                                                collect_table, keyed_join,
                                                sorted_side)

    monkeypatch.setenv("FMR_DRIVER_BYTES", "0")

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
    lookup = _Lookup(sorted_side(rt["_key"], rt, list(cols)), "_key", cols,
                     how)
    want = lookup(lt).drop_columns(["_key"])
    assert got.schema == want.schema
    assert (len(want) == 0) == (key == "empty" and how in ("inner", "semi"))
    assert got.sort_by("x").equals(want.sort_by("x"))

    one = lambda names: names[0] if len(names) == 1 else names
    for budget in (None, "0"):
        if budget is None:
            monkeypatch.delenv("FMR_BROADCAST_BYTES", raising=False)
        else:
            monkeypatch.setenv("FMR_BROADCAST_BYTES", budget)
        att = collect_table(attach_columns(
            rd.from_arrow(left).repartition(7), rd.from_arrow(right),
            one(on), one(right_on), cols, how=how))
        assert att.schema == want.schema, budget
        assert att.sort_by("x").equals(want.sort_by("x")), budget


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


_SEGMENT_KERNELS = ["explode", "dedup", "count", "min_rep", "rebuild", "asof",
                    "band", "topk"]
_JOIN_KINDS = ["inner", "left", "semi", "anti", "pairs"]


@pytest.mark.parametrize("name", _SEGMENT_KERNELS + _JOIN_KINDS)
def test_map_sorted_stitches_boundary_keys(ray_session, monkeypatch, name):
    """Every segment kernel of ``map_segments`` and every join kind of
    ``key_local`` (a ``tagged_union`` table through ``map_segments``),
    run over Ray-sorted ranges of a 7-block input
    (``FMR_DRIVER_BYTES=0``), equals the kernel over the whole table:
    keys spanning 2 and 3 input blocks, a single-key block, a 1-row and
    an empty block, a hot key over 3 blocks whose lookup row sits in the
    first, and a key with no lookup row. The same blocks handed to the
    post-sort step (``joins._map_ranges``) as if they were sorted ranges
    share edge keys, a layout Ray's range sort does not make: it raises
    instead of stitching them."""
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.entity_match import _block_pairs
    from fuzzy_matcher_ray.stages.joins import (_map_ranges, _segment_lookup,
                                                collect_table, map_segments)

    monkeypatch.setenv("FMR_DRIVER_BYTES", "0")
    if name in _SEGMENT_KERNELS:
        (_, rows, keys, fn), = [x for x in _segment_kernels() if x[0] == name]
    elif name == "pairs":
        rows, keys, fn = _hand_cut_union("pairs"), ["field", "gram"], \
            _block_pairs
    else:
        cols = {} if name in ("semi", "anti") else {"v": "vv"}
        rows, keys = _hand_cut_union("lookup"), ["k"]
        fn = lambda t: _segment_lookup(t, keys, cols, name)
    want = fn(rows)
    assert len(want) > 0
    got = collect_table(map_segments(rd.from_blocks(_cut(rows)), keys, fn))
    order = [(c, "ascending") for c in want.column_names]
    assert got.sort_by(order).equals(want.sort_by(order))
    with pytest.raises(RuntimeError, match="spans two sorted ranges"):
        _map_ranges(rd.from_blocks(_cut(rows)), keys, fn)


def _blocking_sides() -> tuple[pa.Table, pa.Table]:
    """(query, index) entity-match key rows (rec_id, field, gram): 300
    and 500 rows, gram 7 holding 60% of each side."""
    rng = np.random.default_rng(5)

    def keys(n, lo):
        gram = np.where(rng.random(n) < 0.6, 7, rng.integers(0, 60, n))
        return pa.table({"rec_id": pa.array(np.arange(lo, lo + n), pa.int64()),
                         "field": pa.array(rng.integers(0, 2, n), pa.int32()),
                         "gram": pa.array(gram, pa.int64())})

    return keys(300, 0), keys(500, 10_000)


def test_block_pairs_match_pandas_merge(ray_session, monkeypatch):
    """The entity-match blocking join (``_block_pairs`` over
    ``joins.key_local`` on its range-sort branch, query key rows over 7
    blocks, one gram holding most rows) emits exactly the query × index
    ``rec_id`` pairs of a pandas merge on (field, gram), repeats
    included."""
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.entity_match import _block_pairs
    from fuzzy_matcher_ray.stages.joins import collect_table, key_local

    monkeypatch.setenv("FMR_DRIVER_BYTES", "0")
    q, i = _blocking_sides()
    k = ["field", "gram"]
    got = collect_table(key_local(
        rd.from_arrow(q).repartition(7), rd.from_arrow(i), k, k, ["rec_id"],
        _block_pairs)).to_pandas()
    want = q.to_pandas().merge(i.to_pandas(), on=k)
    assert len(want) > len(q)
    assert sorted(zip(got.a, got.b)) == \
        sorted(zip(want.rec_id_x, want.rec_id_y))


def _spy_driver_blocks(monkeypatch) -> list[int]:
    """The row counts of every block built on the driver from now on: each
    ``rd.from_blocks`` block and each ``joins.block_tables`` table."""
    import ray.data as rd
    from fuzzy_matcher_ray.stages import joins

    gathered = []
    from_blocks, block_tables = rd.from_blocks, joins.block_tables
    monkeypatch.setattr(rd, "from_blocks", lambda b, *a, **kw: (
        gathered.extend(len(t) for t in b), from_blocks(b, *a, **kw))[1])
    monkeypatch.setattr(joins, "block_tables", lambda ds: (
        lambda ts: (gathered.extend(len(t) for t in ts), ts)[1])(
            block_tables(ds)))
    return gathered


def _even_cuts(rows: pa.Table, keys: list[str], n: int) -> list[pa.Table]:
    """``rows`` sorted on ``keys`` and cut into ``n`` ranges of equal row
    count, so a hot key spans several of them: a layout Ray's range sort
    does not make (its bounds are key values, so all rows of a key land
    in one range), and one the post-sort step refuses."""
    srt = rows.sort_by([(k, "ascending") for k in keys])
    step = -(-len(srt) // n)
    return [srt.slice(lo, step) for lo in range(0, len(srt), step)]


def _spans(cuts: list[pa.Table], keys: list[str], key: tuple) -> int:
    """How many of ``cuts`` hold rows of ``key``."""
    return sum(key in set(zip(*(t[k].to_pylist() for k in keys)))
               for t in cuts)


@pytest.mark.parametrize("name", ["explode", "min_rep", "rebuild", "asof"])
def test_map_segments_hot_key_gathers_no_rows_on_driver(ray_session,
                                                        monkeypatch, name):
    """A key holding 3/4 of the rows, on ``map_segments``' distributed
    branch (7 input blocks): the output equals the kernel over the whole
    table, and no block is built on the driver (no ``from_blocks``, no
    ``block_tables``): the hot key's rows meet in its range's worker
    task. Cut evenly over 7 sorted ranges instead, so that it spans at
    least 3 of them, the key makes the post-sort step raise."""
    import ray
    import ray.data as rd
    from fuzzy_matcher_ray.stages.joins import _map_ranges, map_segments

    monkeypatch.setenv("FMR_DRIVER_BYTES", "0")
    rng = np.random.default_rng(9)
    n = 4000
    k = np.where(np.arange(n) % 4 == 0, rng.integers(0, 400, n), 7)
    (_, rows, keys, fn), = [x for x in _segment_kernels(k) if x[0] == name]
    cuts = _even_cuts(rows, keys, 7)
    hot = tuple(cuts[3][c][0].as_py() for c in keys)
    assert _spans(cuts, keys, hot) >= 3
    ranges = rd.from_blocks(cuts)
    gathered = _spy_driver_blocks(monkeypatch)
    out = map_segments(rd.from_arrow(rows).repartition(7), keys, fn)
    assert gathered == []
    want = fn(rows)
    order = [(c, "ascending") for c in want.column_names]
    got = pa.concat_tables([t for t in ray.get(out.to_arrow_refs())
                            if len(t)])
    assert got.sort_by(order).equals(want.sort_by(order))
    with pytest.raises(RuntimeError, match="spans two sorted ranges"):
        _map_ranges(ranges, keys, fn)


def _contract_layouts() -> dict:
    """name -> (dataset, keys): inputs whose range sort must put each
    key's rows in one block, built under the current ``DataContext``.
    "hot": one key holds 3/4 of 20k rows; "pair": a two-column key;
    "union": a ``repartition(9)`` of a two-part union (``key_local``'s
    shape); "nulls": 1/3 of the keys null."""
    import ray.data as rd

    rng = np.random.default_rng(21)
    n = 20_000
    hot = np.where(np.arange(n) % 4 == 0, rng.integers(0, 2_000, n), 7)
    x = np.arange(n)
    nulls = pa.array(rng.integers(0, 500, n), pa.int64(),
                     mask=np.arange(n) % 3 == 0)
    pair = pa.table({"a": hot % 3, "b": hot // 3, "x": x})
    parts = lambda t: rd.from_arrow(t).repartition(7)
    return {
        "hot": (parts(pa.table({"k": hot, "x": x})), ["k"]),
        "pair": (parts(pair), ["a", "b"]),
        "union": (rd.from_arrow(pair.slice(0, n // 3)).union(
            rd.from_arrow(pair.slice(n // 3))).repartition(9), ["a", "b"]),
        "nulls": (parts(pa.table({"k": nulls, "x": x})), ["k"]),
    }


@pytest.mark.parametrize("block_bytes", [None, 8 << 10])
@pytest.mark.parametrize("layout", ["hot", "pair", "union", "nulls"])
def test_range_sort_keeps_each_key_in_one_block(ray_session, monkeypatch,
                                                layout, block_bytes):
    """The contract the post-sort step relies on: Ray's range sort takes
    its bounds from sampled key values, so each key's rows, nulls
    included, land in one block (at the default ``target_max_block_size``
    and at 8 KiB), and ``_map_ranges`` over the sorted blocks runs with
    no shared edge key."""
    import ray
    from ray.data import DataContext
    from fuzzy_matcher_ray.stages.joins import _map_ranges, block_refs

    if block_bytes is not None:
        monkeypatch.setattr(DataContext.get_current(),
                            "target_max_block_size", block_bytes)
    ds, keys = _contract_layouts()[layout]
    srt = ds.sort(keys).materialize()
    blocks = [t for t in ray.get(block_refs(srt)) if len(t)]
    assert len(blocks) > 1
    seen: dict[tuple, int] = {}
    for i, t in enumerate(blocks):
        for key in set(zip(*(t[k].to_pylist() for k in keys))):
            assert seen.setdefault(key, i) == i, key
    assert (None,) in seen or layout != "nulls"
    out = _map_ranges(srt, keys, lambda t: t.select(["x"]))
    assert sum(len(t) for t in ray.get(out.to_arrow_refs())) == 20_000


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

    monkeypatch.setenv("FMR_DRIVER_BYTES", "0")
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
    gathered = _spy_driver_blocks(monkeypatch)

    def run(ds):      # empty blocks may carry no schema
        return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs())
                                 if len(t)])

    attached = run(joins.keyed_join(
        rd.from_arrow(left).repartition(7), rd.from_arrow(right), ["k"],
        ["k"], {"v": "vv"}, "left"))
    pairs = run(joins.key_local(
        rd.from_arrow(q).repartition(7), rd.from_arrow(i), ["field", "gram"],
        ["field", "gram"], ["rec_id"], _block_pairs))
    assert gathered == []
    lookup = joins._Lookup(joins.sorted_side(right["k"], right, ["v"]), "k",
                           {"v": "vv"}, "left")
    assert attached.sort_by("x").equals(lookup(left).sort_by("x"))
    want = q.to_pandas().merge(i.to_pandas(), on=["field", "gram"])
    assert len(want) > n // 2
    assert sorted(zip(pairs["a"].to_pylist(), pairs["b"].to_pylist())) == \
        sorted(zip(want.rec_id_x, want.rec_id_y))
