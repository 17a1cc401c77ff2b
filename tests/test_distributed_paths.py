"""Force the at-scale code paths (the range-sort branch of
``joins.map_segments``, shuffle joins, distributed label propagation) on
small data and assert they produce byte-identical results to the driver
fast paths."""

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
from fuzzy_matcher_ray.stages import candidates
from fuzzy_matcher_ray.stages.joins import collect_table
from fuzzy_matcher_ray.state.checkpoint import Checkpointer
from fuzzy_matcher_ray.sources.webpages import make_webpages

assert candidates.DRIVER_EXPLODE_MAX_ROWS == 0
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
    (FMR_DRIVER_EXPLODE_MAX_ROWS=0) and distributed labelling, on a 1-CPU
    Ray: a checkpointed flagship (chain link 0) and one fold finish and
    label every doc as the default run does. The session fixture has 4
    CPUs, so the run starts its own Ray in a subprocess."""
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
# grouped top-k and the per-user event joins). entity_match_customers is
# left out: its blocking Dataset.join did not finish on a 1-CPU Ray.
_MOVED_QUERIES = ("knn_topk", "nearest_neighbor", "topk_per_source",
                  "keep_best_representatives", "asof_latest_prior",
                  "range_join_count")

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
    """The grouped top-k and event-join queries with their merge on the
    range-sort branch of ``map_segments`` (FMR_DRIVER_EXPLODE_MAX_ROWS=0),
    on a 1-CPU Ray, give the default run's rows."""
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
