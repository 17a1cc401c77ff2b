"""Incremental-append semantics (≙ InsertEntries, fuzzy_matcher.go:21-27):
signatures are per-doc and deterministic, so adding a partition never changes
existing verdicts — pairs co-clustered in a run over corpus A stay
co-clustered in a run over A ∪ B. Plus atomic-writer idempotency."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.sources.webpages import make_webpages


def _docs_tbl(n, seed, id_offset=0):
    pages, _ = make_webpages(n, seed=seed)
    return pa.table({
        "doc_id": pa.array(range(id_offset, id_offset + len(pages)), pa.int64()),
        "url": pages["url"], "text": pages["text"], "lang": pages["lang"]})


def test_incremental_append_preserves_clusters(ray_session):
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    cfg = PipelineConfig()
    a = _docs_tbl(300, seed=31)
    b = _docs_tbl(150, seed=32, id_offset=1_000_000)
    out_a = find_duplicates(rd.from_arrow(a), cfg).to_pandas()
    out_ab = find_duplicates(rd.from_arrow(pa.concat_tables([a, b])), cfg).to_pandas()
    la = dict(zip(out_a.doc_id, out_a.cluster_id))
    lab = dict(zip(out_ab.doc_id, out_ab.cluster_id))
    together_a = {(i, j) for i in la for j in la if i < j and la[i] == la[j]}
    for i, j in together_a:
        assert lab[i] == lab[j], f"pair ({i},{j}) split after append"
    assert len(out_ab) == 450


def test_write_atomic_idempotent(ray_session, tmp_path):
    import ray.data as rd
    from fuzzy_matcher_ray.state.checkpoint import write_atomic
    ds = rd.from_arrow(pa.table({"x": pa.array(range(100), pa.int64())}))
    out = str(tmp_path / "out")
    write_atomic(ds, out, partition_label="shard-0")
    write_atomic(ds, out, partition_label="shard-0")   # rerun: no doubling
    n = pq.read_table(os.path.join(out, "shard-0")).num_rows
    assert n == 100
    write_atomic(ds, out, partition_label="shard-1")
    assert sorted(os.listdir(out)) == ["shard-0", "shard-1"]


def _copies_below(a, n_fresh, n_copies, seed):
    """An increment whose doc_ids all lie below the prior's: fresh docs,
    then verbatim copies of the first ``n_copies`` prior docs."""
    fresh = _docs_tbl(n_fresh, seed=seed)
    copies = a.slice(0, n_copies)
    return pa.table({
        "doc_id": pa.array(list(range(n_fresh + n_copies)), pa.int64()),
        "url": pa.array(fresh["url"].to_pylist()
                        + [f"https://copy.example/{i}"
                           for i in range(n_copies)]),
        "text": pa.array(fresh["text"].to_pylist()
                         + copies["text"].to_pylist()),
        "lang": pa.array(fresh["lang"].to_pylist()
                         + copies["lang"].to_pylist())})


@pytest.mark.parametrize("inc_below", [False, True],
                         ids=["inc_above", "inc_below"])
def test_incremental_update_matches_full_rerun(ray_session, tmp_path,
                                               inc_below):
    """incremental_update over a prior checkpointed run == full re-run over
    prior ∪ increment, byte-identical labels, all four passes. In the
    ``inc_below`` case the increment's doc_ids lie below the prior's and it
    carries verbatim copies of prior docs, so an exact group's min-id
    representative moves across to the increment side."""
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import (find_duplicates,
                                                   incremental_update)
    from fuzzy_matcher_ray.state.checkpoint import Checkpointer

    cfg = PipelineConfig()
    if inc_below:
        a = _docs_tbl(400, seed=41, id_offset=1_000_000)
        b = _copies_below(a, 170, 30, seed=42)
    else:
        a = _docs_tbl(400, seed=41)
        b = _docs_tbl(200, seed=42, id_offset=1_000_000)
    root = str(tmp_path / "ck")
    ck = Checkpointer(root, cfg.config_hash())
    find_duplicates(rd.from_arrow(a), cfg, checkpointer=ck).materialize()

    inc = incremental_update(root, rd.from_arrow(b), cfg).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    full = find_duplicates(
        rd.from_arrow(pa.concat_tables([a, b])), cfg).to_pandas()[
        ["doc_id", "cluster_id"]].sort_values("doc_id") \
        .reset_index(drop=True)
    assert len(inc) == 600
    assert inc[["doc_id", "cluster_id"]].equals(full)
    # the sketch artifact (winnow fingerprints included) persisted, so the
    # substring pass really ran incrementally (no prior-corpus re-winnow)
    assert os.path.isdir(os.path.join(root, "signatures", "data"))
    if inc_below:
        # prior docs now carry an increment doc's id as their label
        prior = full[full.doc_id >= 1_000_000]
        assert (prior.cluster_id < 1_000_000).any()


def test_incremental_update_guards(ray_session, tmp_path):
    import pytest
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import (find_duplicates,
                                                   incremental_update)
    from fuzzy_matcher_ray.state.checkpoint import Checkpointer

    cfg = PipelineConfig()
    a = _docs_tbl(120, seed=51)
    root = str(tmp_path / "ck")
    find_duplicates(rd.from_arrow(a), cfg,
                    checkpointer=Checkpointer(root, cfg.config_hash())) \
        .materialize()

    # empty increment → prior clusters unchanged
    empty = rd.from_arrow(_docs_tbl(0, seed=52))
    out = incremental_update(root, empty, cfg).to_pandas()
    assert len(out) == 120

    # overlapping doc ids → hard error
    with pytest.raises(ValueError, match="already exist"):
        incremental_update(root, rd.from_arrow(_docs_tbl(10, seed=53)),
                           cfg).to_pandas()

    # missing artifacts → clear error
    with pytest.raises(FileNotFoundError, match="no completed"):
        incremental_update(str(tmp_path / "nope"),
                           rd.from_arrow(_docs_tbl(5, seed=54,
                                                   id_offset=9_000_000)),
                           cfg).to_pandas()


def test_overlap_guard_reads_every_prior_block(ray_session, tmp_path):
    """The disjoint-id guard counts overlaps in every part file of the
    prior clusters stage, not only in the first block of each merged
    batch: ids 60-69 of a 120-doc prior sit in its second part file."""
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import (find_duplicates,
                                                   incremental_update)
    from fuzzy_matcher_ray.state.checkpoint import Checkpointer

    cfg = PipelineConfig()
    root = str(tmp_path / "ck")
    find_duplicates(rd.from_arrow(_docs_tbl(120, seed=51)), cfg,
                    checkpointer=Checkpointer(root, cfg.config_hash())) \
        .materialize()
    assert len(os.listdir(os.path.join(root, "clusters", "data"))) >= 2
    with pytest.raises(ValueError, match="already exist"):
        incremental_update(root, rd.from_arrow(
            _docs_tbl(10, seed=53, id_offset=60)), cfg).to_pandas()


def test_incremental_distributed_twin(ray_session, tmp_path, monkeypatch):
    """Force the fold's shuffle semi-join / rep-join fallbacks (the
    multi-node shape) by zeroing the broadcast budget: labels must stay
    byte-identical to the driver fast paths."""
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import (find_duplicates,
                                                   incremental_update)
    from fuzzy_matcher_ray.state.checkpoint import Checkpointer

    cfg = PipelineConfig()
    a = _docs_tbl(250, seed=61)
    b = _docs_tbl(120, seed=62, id_offset=1_000_000)
    root = str(tmp_path / "ck")
    find_duplicates(rd.from_arrow(a), cfg,
                    checkpointer=Checkpointer(root, cfg.config_hash())) \
        .materialize()

    fast = incremental_update(root, rd.from_arrow(b), cfg).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setenv("FMR_BROADCAST_BYTES", "0")
    slow = incremental_update(root, rd.from_arrow(b), cfg).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert len(fast) == 370
    assert fast.equals(slow)


def test_incremental_all_skip_tier_increment(ray_session, tmp_path):
    """An increment of only empty/whitespace docs (TIER_SKIP) must fold
    cleanly: no pass produces keys, every new doc becomes a singleton."""
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import (find_duplicates,
                                                   incremental_update)
    from fuzzy_matcher_ray.state.checkpoint import Checkpointer

    cfg = PipelineConfig()
    a = _docs_tbl(150, seed=71)
    root = str(tmp_path / "ck")
    find_duplicates(rd.from_arrow(a), cfg,
                    checkpointer=Checkpointer(root, cfg.config_hash())) \
        .materialize()

    b = pa.table({
        "doc_id": pa.array(range(1_000_000, 1_000_008), pa.int64()),
        "url": pa.array([f"https://x.org/{i}" for i in range(8)]),
        "text": pa.array(["", " ", None, "", "  ", None, "", " "],
                         pa.string()),
        "lang": pa.array(["en"] * 8)})
    out = incremental_update(root, rd.from_arrow(b), cfg).to_pandas()
    assert len(out) == 158
    new = out[out.doc_id >= 1_000_000]
    # every skip-tier doc is its own singleton cluster
    assert (new.cluster_id == new.doc_id).all()

    # the same corpus straight through find_duplicates (the monolithic
    # path shares the exact-pass collect that used to crash on zero rows)
    solo = find_duplicates(rd.from_arrow(b), cfg).to_pandas()
    assert len(solo) == 8
    assert (solo.cluster_id == solo.doc_id).all()


def test_incremental_resigns_pre_lsh_checkpoint(ray_session, tmp_path):
    """A prior root checkpointed with ONLY the exact pass (no signatures
    artifact) still folds: missing artifacts re-derive from
    the normalize artifact. Folding with the SAME pass set is
    byte-identical to the exact-only full rerun; folding with MORE passes
    is well-defined but weaker (A-A edges stay per the prior run's pass
    set — only pairs touching a new doc are verified), so the test
    asserts the documented guarantees: prior co-clusters preserved and
    cross-corpus candidates found."""
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import (find_duplicates,
                                                   incremental_update)
    from fuzzy_matcher_ray.state.checkpoint import Checkpointer

    cfg = PipelineConfig()
    a = _docs_tbl(200, seed=81)
    b = _docs_tbl(100, seed=82, id_offset=1_000_000)
    root = str(tmp_path / "ck")
    find_duplicates(rd.from_arrow(a), cfg,
                    checkpointer=Checkpointer(root, cfg.config_hash()),
                    passes=("exact",)).materialize()
    assert not os.path.isdir(os.path.join(root, "signatures"))

    # same pass set: byte-identical to the exact-only full rerun
    fold_e = incremental_update(root, rd.from_arrow(b), cfg,
                                passes=("exact",)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    full_e = find_duplicates(
        rd.from_arrow(pa.concat_tables([a, b])), cfg,
        passes=("exact",)).to_pandas()[
        ["doc_id", "cluster_id"]].sort_values("doc_id") \
        .reset_index(drop=True)
    assert len(fold_e) == 300
    assert fold_e[["doc_id", "cluster_id"]].equals(full_e)

    # wider pass set: the re-sign fallback runs (no artifacts to load),
    # prior exact co-clusters survive, and cross-corpus LSH candidates
    # are generated (some new doc merges with a prior doc)
    fold_w = incremental_update(root, rd.from_arrow(b), cfg).to_pandas()
    assert len(fold_w) == 300
    lab = dict(zip(fold_w.doc_id, fold_w.cluster_id))
    le = dict(zip(fold_e.doc_id, fold_e.cluster_id))
    prior_pairs = [(i, j) for i in range(200) for j in range(i + 1, 200)
                   if le[i] == le[j]]
    assert prior_pairs and all(lab[i] == lab[j] for i, j in prior_pairs)
    # the wider passes find the increment's planted NEAR-dups (LSH/
    # substring merges the exact-only fold cannot see)
    new_ids = range(1_000_000, 1_000_100)
    n_clusters_e = len({le[d] for d in new_ids})
    n_clusters_w = len({lab[d] for d in new_ids})
    assert n_clusters_w < n_clusters_e, (n_clusters_w, n_clusters_e)


def test_incremental_touched_only_relabel_parity(ray_session, tmp_path):
    """The fold relabels only the components its new edges touch (untouched
    prior rows keep their labels) and still matches a full re-run over
    prior ∪ increment byte for byte — with planted cross-corpus duplicates,
    so some prior components are linked and some are not."""
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import (find_duplicates,
                                                   incremental_update)
    from fuzzy_matcher_ray.state.checkpoint import Checkpointer

    cfg = PipelineConfig()
    a = _docs_tbl(400, seed=71)
    # plant cross-corpus duplicates: the increment carries verbatim copies
    # of 30 prior docs (new ids/urls) so SOME prior components are touched
    fresh = _docs_tbl(120, seed=72, id_offset=1_000_000)
    copies = a.slice(0, 30)
    b = pa.table({
        "doc_id": pa.array(list(fresh["doc_id"].to_pylist())
                           + list(range(2_000_000, 2_000_030)), pa.int64()),
        "url": pa.array(fresh["url"].to_pylist()
                        + [f"https://copy.example/{i}" for i in range(30)]),
        "text": pa.array(fresh["text"].to_pylist()
                         + copies["text"].to_pylist()),
        "lang": pa.array(fresh["lang"].to_pylist()
                         + copies["lang"].to_pylist())})
    root = str(tmp_path / "ck")
    find_duplicates(rd.from_arrow(a), cfg,
                    checkpointer=Checkpointer(root, cfg.config_hash())) \
        .materialize()

    inc = incremental_update(root, rd.from_arrow(b), cfg).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    full = find_duplicates(
        rd.from_arrow(pa.concat_tables([a, b])), cfg).to_pandas()[
        ["doc_id", "cluster_id"]].sort_values("doc_id") \
        .reset_index(drop=True)
    assert len(inc) == 550
    assert inc.equals(full)
    assert inc.doc_id.is_unique
    # sanity: some prior components are linked by cross-corpus edges,
    # some are not
    prior = inc[inc.doc_id < 1_000_000]
    linked = set(inc[inc.doc_id >= 1_000_000].cluster_id) & \
        set(prior.cluster_id)
    assert linked, "increment never linked to the prior corpus"
    assert len(set(prior.cluster_id) - linked) > 0, \
        "every prior component was touched — untouched rows unexercised"


def _words(rng, n):
    """``n`` random lowercase words: a text segment no other segment or
    generated page shares."""
    return " ".join("".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"),
                                       size=int(rng.integers(5, 10))))
                    for _ in range(n))


def test_incremental_bridge_relabels_whole_component(ray_session, tmp_path):
    """One increment doc bridges two prior chain components. Each chain
    links through shared segments (x0–x1–x2, y0–y1–y2); the bridge shares
    a segment with x0 and y0 only, so x1, x2, y1, y2 are no endpoint of a
    new edge. Every member of the higher-label component must still move
    to the min label, and the fold must equal a full re-run."""
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import (find_duplicates,
                                                   incremental_update)
    from fuzzy_matcher_ray.state.checkpoint import Checkpointer

    rng = np.random.default_rng(83)
    seg = [_words(rng, 50) for _ in range(8)]
    bg = _docs_tbl(100, seed=81)
    xs, ys = [500, 501, 502], [600, 601, 602]
    chains = pa.table({
        "doc_id": pa.array(xs + ys, pa.int64()),
        "url": pa.array([f"https://chain.example/{i}" for i in xs + ys]),
        "text": pa.array([seg[0] + " " + seg[1], seg[1] + " " + seg[2],
                          seg[2] + " " + seg[3], seg[4] + " " + seg[5],
                          seg[5] + " " + seg[6], seg[6] + " " + seg[7]]),
        "lang": pa.array(["en"] * 6)})
    a = pa.concat_tables([bg, chains])
    b = pa.table({"doc_id": pa.array([1_000_000], pa.int64()),
                  "url": pa.array(["https://bridge.example/"]),
                  "text": pa.array([seg[0] + " " + seg[4]]),
                  "lang": pa.array(["en"])})
    cfg = PipelineConfig()
    root = str(tmp_path / "ck")
    prior = find_duplicates(
        rd.from_arrow(a), cfg,
        checkpointer=Checkpointer(root, cfg.config_hash())).to_pandas()
    was = dict(zip(prior.doc_id, prior.cluster_id))
    assert [was[d] for d in xs + ys] == [500] * 3 + [600] * 3

    inc = incremental_update(root, rd.from_arrow(b), cfg).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    full = find_duplicates(
        rd.from_arrow(pa.concat_tables([a, b])), cfg).to_pandas()[
        ["doc_id", "cluster_id"]].sort_values("doc_id") \
        .reset_index(drop=True)
    now = dict(zip(inc.doc_id, inc.cluster_id))
    assert [now[d] for d in xs + ys + [1_000_000]] == [500] * 7
    assert inc.equals(full)
