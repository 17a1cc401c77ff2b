"""Checkpoint/resume tests (FIXTURES.md F5): identical output after resume,
completed stages not recomputed, config change invalidates manifests."""

import json
import os
import shutil

import pyarrow as pa
import pytest

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.sources.webpages import make_webpages
from fuzzy_matcher_ray.state.checkpoint import Checkpointer

N_DOCS = 300
# the stages of one checkpointed find_duplicates run, a fold's too
LINK_STAGES = ("normalize", "signatures", "edges_all", "clusters")


@pytest.fixture()
def docs(ray_session):
    import ray.data as rd
    pages, _ = make_webpages(N_DOCS, seed=21)
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(pages)), pa.int64()),
        "url": pages["url"], "text": pages["text"], "lang": pages["lang"]}))


def _run(docs, root, cfg):
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    ck = Checkpointer(root, cfg.config_hash())
    out = find_duplicates(docs, cfg, checkpointer=ck) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    return out, ck


def test_resume_identical_and_skips(docs, tmp_path):
    cfg = PipelineConfig()
    root = str(tmp_path / "ck")
    out1, ck1 = _run(docs, root, cfg)
    assert sorted(ck1.metrics) == sorted(LINK_STAGES)
    assert all(not m.get("resumed") for m in ck1.metrics.values())
    # every stage has a manifest with lineage + metrics
    for stage in LINK_STAGES:
        with open(os.path.join(root, stage, "_MANIFEST.json")) as f:
            m = json.load(f)
        assert m["config_hash"] == cfg.config_hash()
        assert m["rows"] >= 0 and m["wall_sec"] >= 0
    # full resume: nothing recomputed, identical output
    out2, ck2 = _run(docs, root, cfg)
    assert all(m.get("resumed") for m in ck2.metrics.values())
    assert out1.equals(out2)


def test_partial_resume_after_kill(docs, tmp_path):
    """Simulate a mid-run kill: remove later-stage checkpoints, rerun —
    early stages resume, later stages rebuild, output identical."""
    cfg = PipelineConfig()
    root = str(tmp_path / "ck")
    out1, _ = _run(docs, root, cfg)
    for stage in ("edges_all", "clusters"):
        shutil.rmtree(os.path.join(root, stage), ignore_errors=True)
    out2, ck2 = _run(docs, root, cfg)
    for stage in ("normalize", "signatures"):
        assert ck2.metrics[stage].get("resumed"), stage
    assert not ck2.metrics["edges_all"].get("resumed")
    assert not ck2.metrics["clusters"].get("resumed")
    assert out1.equals(out2)


def test_resumed_edges_all_builds_no_pass(docs, tmp_path, monkeypatch):
    """With only clusters gone, the rerun resumes edges_all and the
    sketch and builds no pass: every builder raises."""
    from fuzzy_matcher_ray.pipelines import dedup

    cfg = PipelineConfig()
    root = str(tmp_path / "ck")
    out1, _ = _run(docs, root, cfg)
    shutil.rmtree(os.path.join(root, "clusters"))

    def no_build(*args, **kwargs):
        raise AssertionError("a resumed edges_all must build no pass")

    for name in ("exact_dup_edges", "minhash_pairs", "simhash_pairs",
                 "lsh_edges", "substring_edges", "signature_table"):
        monkeypatch.setattr(dedup, name, no_build)
    out2, ck2 = _run(docs, root, cfg)
    assert ck2.metrics["edges_all"]["resumed"]
    assert not ck2.metrics["clusters"]["resumed"]
    assert ck2.metrics["signatures"]["resumed"]
    assert out1.equals(out2)


def test_config_change_invalidates(docs, tmp_path):
    cfg1 = PipelineConfig()
    root = str(tmp_path / "ck")
    _run(docs, root, cfg1)
    cfg2 = PipelineConfig(jaccard_threshold=0.7)
    assert cfg1.config_hash() != cfg2.config_hash()
    _, ck2 = _run(docs, root, cfg2)
    assert all(not m.get("resumed") for m in ck2.metrics.values())


def test_empty_stage_checkpoints_and_resumes(ray_session, tmp_path):
    """A zero-row stage (e.g. a duplicate-free corpus's edge set) must
    write a schema-pinning empty checkpoint and resume from it — the
    pre-fix behavior was FileNotFoundError on the atomic tmp->rename."""
    import ray.data as rd

    empty = rd.from_arrow(pa.table(
        {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}))
    ck = Checkpointer(str(tmp_path / "ck"), "h1")
    out = ck.stage("edges_all", lambda: empty)
    assert out.count() == 0
    assert out.schema().names == ["id_a", "id_b"]
    # resume round-trips the empty stage with the schema intact
    ck2 = Checkpointer(str(tmp_path / "ck"), "h1")
    out2 = ck2.stage("edges_all", lambda: (_ for _ in ()).throw(
        AssertionError("must resume, not rebuild")))
    assert out2.count() == 0
    assert out2.schema().names == ["id_a", "id_b"]


def test_write_atomic_empty(ray_session, tmp_path):
    import ray.data as rd

    from fuzzy_matcher_ray.state.checkpoint import write_atomic

    empty = rd.from_arrow(pa.table({"x": pa.array([], pa.int64())}))
    target = write_atomic(empty, str(tmp_path / "out"))
    got = rd.read_parquet(target)
    assert got.count() == 0 and got.schema().names == ["x"]


def test_run_report_lineage(ray_session, tmp_path):
    """run_report surfaces every stage manifest with wall/rows/resume
    flags; a rerun flips resumed=True in the manifests' metrics but the
    on-disk report keeps the original build's lineage."""
    import ray.data as rd
    from fuzzy_matcher_ray.config import PipelineConfig
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    from fuzzy_matcher_ray.sources.webpages import make_webpages
    from fuzzy_matcher_ray.state.checkpoint import Checkpointer, run_report
    import pyarrow as pa

    pages, _ = make_webpages(150, seed=91)
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(pages)), pa.int64()),
        "url": pages["url"], "text": pages["text"], "lang": pages["lang"]}))
    cfg = PipelineConfig()
    root = str(tmp_path / "ck")
    find_duplicates(docs, cfg,
                    checkpointer=Checkpointer(root, cfg.config_hash())) \
        .materialize()
    rep = run_report(root).to_pandas()
    assert len(rep) >= 3                       # several stages checkpointed
    assert (rep.config_hash == cfg.config_hash()).all()
    assert (rep.rows >= 0).all() and (rep.wall_sec > 0).all()
    assert (rep.n_files > 0).all() and (rep.data_bytes > 0).all()
    assert not rep.pruned.any()
    # resume: second run reads every stage from checkpoint
    ck2 = Checkpointer(root, cfg.config_hash())
    find_duplicates(docs, cfg, checkpointer=ck2).materialize()
    assert ck2.metrics and all(m.get("resumed") for m in ck2.metrics.values())


def test_fault_inside_the_writer_leaves_no_stage(docs, tmp_path, monkeypatch):
    """A block write that raises mid-stage fails the stage without a
    ``data`` dir or a manifest that a resume would accept; a rerun into
    the same root rebuilds it and labels as an uncheckpointed run. The
    part names are the block indices, so writing the same pinned blocks
    twice leaves one file per block, and each link stage's manifest
    ``rows``/``columns`` are those of its Parquet data."""
    import ray
    import ray.data as rd
    import pyarrow.parquet as pq

    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    from fuzzy_matcher_ray.state import checkpoint

    def fail_second_block(block, path, i):
        if i == 1:
            raise OSError("injected write failure")
        return checkpoint._write_part(block, path, i)

    cfg = PipelineConfig()
    root = str(tmp_path / "ck")
    with monkeypatch.context() as m:
        m.setattr(checkpoint, "_write_block", ray.remote(fail_second_block))
        with pytest.raises(OSError, match="injected write failure"):
            _run(docs, root, cfg)
    # normalize, the first stage, holds several blocks: it failed
    assert os.listdir(os.path.join(root, "normalize")) == []
    assert not os.path.exists(os.path.join(root, "signatures"))

    out, ck = _run(docs, root, cfg)
    assert not any(m.get("resumed") for m in ck.metrics.values())
    want = find_duplicates(docs, cfg).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out.equals(want)

    for stage in LINK_STAGES:
        t = pq.read_table(os.path.join(root, stage, "data"))
        m = ck.manifest(stage)
        assert (m["rows"], m["columns"]) == (t.num_rows, t.column_names), \
            stage

    pinned = rd.from_arrow([t.slice(0, 100), t.slice(100)]).materialize()
    path = str(tmp_path / "twice")
    checkpoint._write_blocks(pinned, path)
    checkpoint._write_blocks(pinned, path)
    assert sorted(os.listdir(path)) == ["part-00000.parquet",
                                        "part-00001.parquet"]
    assert pq.read_table(path).equals(t)
