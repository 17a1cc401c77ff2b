"""Sharded fold-chain dedup (dedup_sharded): the operational shape of a
10^12-doc run. Parity with a monolithic find_duplicates over the shard
concatenation; resume skips finished folds without reading their data;
pruning keeps exactly one live clusters snapshot; empty shards fold."""

import json
import os

import pyarrow as pa

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.sources.webpages import make_webpages


def _docs_tbl(n, seed, id_offset=0):
    pages, _ = make_webpages(n, seed=seed)
    return pa.table({
        "doc_id": pa.array(range(id_offset, id_offset + len(pages)),
                           pa.int64()),
        "url": pages["url"], "text": pages["text"], "lang": pages["lang"]})


def _labels(ds):
    df = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return df[["doc_id", "cluster_id"]]


def test_sharded_matches_monolithic(ray_session, tmp_path):
    """3-shard fold == find_duplicates over the concatenation, byte-equal."""
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import dedup_sharded, find_duplicates

    cfg = PipelineConfig()
    tbls = [_docs_tbl(300, seed=61, id_offset=0),
            _docs_tbl(200, seed=62, id_offset=1_000_000),
            _docs_tbl(150, seed=63, id_offset=2_000_000)]
    shards = [(f"s{i}", rd.from_arrow(t)) for i, t in enumerate(tbls)]
    root = str(tmp_path / "state")

    got = _labels(dedup_sharded(shards, root, cfg))
    want = _labels(find_duplicates(rd.from_arrow(pa.concat_tables(tbls)),
                                   cfg))
    assert len(got) == 650
    assert got.equals(want)

    # pruning: only the LAST fold's clusters data survives; earlier folds
    # keep a lineage manifest flagged pruned
    sroots = sorted(os.listdir(root))
    assert len(sroots) == 3
    for i, sr in enumerate(sroots):
        data = os.path.join(root, sr, "clusters", "data")
        manifest = os.path.join(root, sr, "clusters", "_MANIFEST.json")
        with open(manifest) as f:
            m = json.load(f)
        if i < 2:
            assert not os.path.isdir(data), sr
            assert m["pruned"] is True
        else:
            assert os.path.isdir(data), sr
            assert not m.get("pruned")
        # per-partition lineage + metrics survive on every fold
        assert m["rows"] >= 0 and "wall_sec" in m


def test_sharded_resume_skips_finished_folds(ray_session, tmp_path):
    """Re-run with the same labels: finished shards are never evaluated
    (a poisoned factory proves it), output unchanged; appending a 3rd
    shard folds only the increment."""
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import dedup_sharded, find_duplicates

    cfg = PipelineConfig()
    t0 = _docs_tbl(250, seed=71, id_offset=0)
    t1 = _docs_tbl(120, seed=72, id_offset=1_000_000)
    t2 = _docs_tbl(100, seed=73, id_offset=2_000_000)
    root = str(tmp_path / "state")

    first = _labels(dedup_sharded(
        [("a", rd.from_arrow(t0)), ("b", rd.from_arrow(t1))], root, cfg))

    def _boom():
        raise AssertionError("finished shard was re-evaluated")

    again = _labels(dedup_sharded([("a", _boom), ("b", _boom)], root, cfg))
    assert again.equals(first)

    # append-only growth: fold the new shard against the existing chain
    grown = _labels(dedup_sharded(
        [("a", _boom), ("b", _boom), ("c", rd.from_arrow(t2))], root, cfg))
    want = _labels(find_duplicates(
        rd.from_arrow(pa.concat_tables([t0, t1, t2])), cfg))
    assert grown.equals(want)


def test_sharded_empty_shards(ray_session, tmp_path):
    """Empty first shard and empty middle shard both fold into valid chain
    links; result matches the monolithic run over the non-empty docs."""
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import dedup_sharded, find_duplicates

    cfg = PipelineConfig()
    t_mid = _docs_tbl(180, seed=81, id_offset=0)
    t_last = _docs_tbl(90, seed=82, id_offset=1_000_000)
    empty = _docs_tbl(0, seed=83)
    root = str(tmp_path / "state")

    got = _labels(dedup_sharded(
        [("e0", rd.from_arrow(empty)), ("m", rd.from_arrow(t_mid)),
         ("e1", rd.from_arrow(empty)), ("z", rd.from_arrow(t_last))],
        root, cfg))
    want = _labels(find_duplicates(
        rd.from_arrow(pa.concat_tables([t_mid, t_last])), cfg))
    assert got.equals(want)


def test_sharded_empty_link_normalize_schema_matches(ray_session, tmp_path):
    """An empty shard's pinned normalize schema is the one url-bearing
    shards write, so a later fold unions every link's normalize artifact
    as one schema."""
    import glob

    import pyarrow.parquet as pq
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import (_link_schemas,
                                                   dedup_sharded,
                                                   find_duplicates)

    cfg = PipelineConfig()
    t0 = _docs_tbl(120, seed=84, id_offset=0)
    t2 = _docs_tbl(80, seed=85, id_offset=1_000_000)
    root = str(tmp_path / "state")
    got = _labels(dedup_sharded(
        [("a", rd.from_arrow(t0)), ("e", rd.from_arrow(_docs_tbl(0, seed=86))),
         ("c", rd.from_arrow(t2))], root, cfg))
    want = _labels(find_duplicates(
        rd.from_arrow(pa.concat_tables([t0, t2])), cfg))
    assert got.equals(want)
    parts = sorted(glob.glob(os.path.join(root, "*", "normalize", "data",
                                          "*.parquet")))
    assert len({p.split(os.sep)[-4] for p in parts}) == 3
    for p in parts:
        assert pq.read_schema(p) == _link_schemas(cfg)["normalize"], p


def test_sharded_one_shard_returns_labels_only(ray_session, tmp_path):
    """A one-shard chain returns find_duplicates' own clusters stage, which
    carries url: the chain still hands back (doc_id, cluster_id)."""
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import dedup_sharded, find_duplicates

    cfg = PipelineConfig()
    t = _docs_tbl(60, seed=87)
    got = dedup_sharded([("only", rd.from_arrow(t))], str(tmp_path / "s"), cfg)
    assert got.schema().names == ["doc_id", "cluster_id"]
    assert _labels(got).equals(_labels(find_duplicates(rd.from_arrow(t), cfg)))


def test_sharded_guards(ray_session, tmp_path):
    import pytest
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import dedup_sharded

    with pytest.raises(ValueError, match="no shards"):
        dedup_sharded([], str(tmp_path / "s1"))
    t = rd.from_arrow(_docs_tbl(5, seed=91))
    with pytest.raises(ValueError, match="unique"):
        dedup_sharded([("x", t), ("x", t)], str(tmp_path / "s2"))


def test_sharded_cli(tmp_path):
    """dedup-sharded CLI (subprocess — the CLI owns its Ray session): two
    shard files, resumable state, atomic output."""
    import subprocess
    import sys

    import pyarrow.parquet as pq

    # split ONE crawl fixture into two row-ranges: shard urls (→ surrogate
    # doc_ids) are disjoint by construction, like real crawl segments
    pages, _ = make_webpages(230, seed=95)
    p0 = str(tmp_path / "shard0.parquet")
    p1 = str(tmp_path / "shard1.parquet")
    pq.write_table(pages.slice(0, 150), p0)
    pq.write_table(pages.slice(150), p1)
    out = str(tmp_path / "out")
    args = [sys.executable, "-m", "fuzzy_matcher_ray", "--num-cpus", "2",
            "dedup-sharded", "--inputs", f"{p0},{p1}", "--output", out,
            "--state", str(tmp_path / "state"),
            "--passes", "exact,minhash"]
    cwd = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600,
                          cwd=cwd)
    assert proc.returncode == 0, proc.stderr[-2000:]
    m = json.loads([ln for ln in proc.stdout.splitlines()
                    if ln.startswith("{")][0])
    assert m["job"] == "dedup_sharded" and m["rows"] == 230
    assert pq.read_table(out).num_rows == 230
    # rerun resumes: same rows, no append-doubling
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600,
                          cwd=cwd)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert pq.read_table(out).num_rows == 230


def test_sharded_truncated_shard_list_fails_with_intent(ray_session,
                                                        tmp_path):
    """Re-running against a longer completed chain's state_root with a
    TRUNCATED shard list must raise the explanatory ValueError, not an
    opaque missing-parquet read error (round-3 advice item)."""
    import pytest
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import dedup_sharded

    cfg = PipelineConfig()
    tbls = [_docs_tbl(120, seed=71, id_offset=0),
            _docs_tbl(100, seed=72, id_offset=1_000_000),
            _docs_tbl(80, seed=73, id_offset=2_000_000)]
    shards = [(f"s{i}", rd.from_arrow(t)) for i, t in enumerate(tbls)]
    root = str(tmp_path / "state")
    dedup_sharded(shards, root, cfg).materialize()
    with pytest.raises(ValueError, match="LONGER completed"):
        dedup_sharded(shards[:2], root, cfg)


def test_prebuild_artifacts_resumed_by_fold(ray_session, tmp_path):
    """_prebuild_increment writes normalize/signatures/winnow_rows that the
    fold's own ck.stage calls RESUME (manifest hit, no rebuild), and the
    fold output is byte-identical to a fold without any prebuild."""
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import (
        _prebuild_increment, find_duplicates, incremental_update)
    from fuzzy_matcher_ray.state.checkpoint import Checkpointer

    cfg = PipelineConfig()
    passes = ("exact", "minhash", "simhash", "substring")
    base = _docs_tbl(300, seed=71, id_offset=0)
    inc = _docs_tbl(150, seed=72, id_offset=1_000_000)

    root0 = str(tmp_path / "s0")
    key = cfg.config_hash() + ":t"
    find_duplicates(rd.from_arrow(base), cfg,
                    checkpointer=Checkpointer(root0, key), passes=passes)

    # fold WITHOUT prebuild
    root_a = str(tmp_path / "inc_plain")
    out_a = _labels(incremental_update(
        [root0], rd.from_arrow(inc), cfg, passes=passes,
        checkpointer=Checkpointer(root_a, key)))

    # prebuild first, then fold: every prebuilt stage must resume
    root_b = str(tmp_path / "inc_pre")
    box = {}
    _prebuild_increment(root_b, key, rd.from_arrow(inc), cfg, passes, box)
    assert box["data"] is not None
    for stage in ("normalize", "signatures", "winnow_rows"):
        assert os.path.isfile(os.path.join(root_b, stage, "_MANIFEST.json"))
    ck_b = Checkpointer(root_b, key)
    out_b = _labels(incremental_update(
        [root0], box["data"], cfg, passes=passes, checkpointer=ck_b))
    for stage in ("normalize", "signatures", "winnow_rows"):
        assert ck_b.metrics.get(stage, {}).get("resumed") is True, stage
    assert out_a.equals(out_b)


def test_sharded_touched_only_relabel_parity(ray_session, tmp_path):
    """Each fold relabels only the components its new edges touch; the
    chain stays byte-identical to the monolithic run, with planted
    cross-shard duplicates so folds really rewire prior components while
    others stay untouched."""
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import (dedup_sharded,
                                                   find_duplicates)

    t0 = _docs_tbl(300, seed=71, id_offset=0)
    t1 = _docs_tbl(200, seed=72, id_offset=1_000_000)
    # shard 2 = fresh docs + verbatim copies of 25 shard-0 texts
    fresh = _docs_tbl(100, seed=73, id_offset=2_000_000)
    copies = t0.slice(0, 25)
    t2 = pa.table({
        "doc_id": pa.array(list(fresh["doc_id"].to_pylist())
                           + list(range(3_000_000, 3_000_025)), pa.int64()),
        "url": pa.array(fresh["url"].to_pylist()
                        + [f"https://copy.example/{i}" for i in range(25)]),
        "text": pa.array(fresh["text"].to_pylist()
                         + copies["text"].to_pylist()),
        "lang": pa.array(fresh["lang"].to_pylist()
                         + copies["lang"].to_pylist())})
    tbls = [t0, t1, t2]
    cfg = PipelineConfig()

    shards = [(f"s{i}", rd.from_arrow(t)) for i, t in enumerate(tbls)]
    got = _labels(dedup_sharded(shards, str(tmp_path / "state"), cfg))
    want = _labels(find_duplicates(rd.from_arrow(pa.concat_tables(tbls)),
                                   cfg))
    assert len(got) == 625
    assert got.equals(want)
    # the planted copies really landed in shard-0 components
    m = dict(zip(want["doc_id"], want["cluster_id"]))
    assert any(m[3_000_000 + i] == m[t0["doc_id"][i].as_py()]
               for i in range(25))
    # ...and some shard-0 components stayed untouched by every later shard
    later = {m[d] for d in want["doc_id"] if d >= 1_000_000}
    assert {m[d] for d in t0["doc_id"].to_pylist()} - later


def test_sharded_fold_error_does_not_wait_for_prebuilds(ray_session, tmp_path,
                                                        monkeypatch):
    """A raising fold propagates at once: dedup_sharded must not wait for
    a queued prebuild (here shard 2's factory, blocked on an event)."""
    import threading
    import time

    import pytest
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines import dedup

    def _boom(*args, **kwargs):
        raise RuntimeError("fold failed")

    monkeypatch.setattr(dedup, "find_duplicates", lambda *a, **k: None)
    monkeypatch.setattr(dedup, "incremental_update", _boom)
    release = threading.Event()
    safety = threading.Timer(60, release.set)   # never hang the suite
    safety.start()

    def _blocked():
        release.wait()
        return rd.from_arrow(_docs_tbl(0, seed=93))

    shards = [("s0", rd.from_arrow(_docs_tbl(5, seed=91))),
              ("s1", rd.from_arrow(_docs_tbl(0, seed=92))),
              ("s2", _blocked)]
    t0 = time.perf_counter()
    try:
        with pytest.raises(RuntimeError, match="fold failed"):
            dedup.dedup_sharded(shards, str(tmp_path / "state"))
        assert time.perf_counter() - t0 < 30
    finally:
        release.set()
        safety.cancel()
