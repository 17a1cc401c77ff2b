"""The composed curation recipe (quality → exact dedup → near dedup →
decontaminate → ccnet keep → mix → pack):

- final packed output matches the single composed DuckDB oracle (the
  driver re-checks this as ``curation_packed``);
- the LSH near-dup stage equals the exact all-pairs stage on the contract
  fixtures (banding recall is total here; verify is exact either way);
- kill-anywhere resume: a run killed at a stage boundary resumes from the
  completed manifests and produces byte-identical output without
  rebuilding finished stages.
"""

import os

import pytest

SF_SMALL = "/root/testdata/sf0.001"


def test_curation_lsh_equals_exact(ray_session):
    from fuzzy_matcher_ray.pipelines.curate import curation_packed
    a = curation_packed(SF_SMALL, neardup="exact").to_pandas()
    b = curation_packed(SF_SMALL, neardup="lsh").to_pandas()
    assert len(a) > 0
    assert a.values.tolist() == b.values.tolist()


def test_curation_packed_matches_composed_oracle(ray_session):
    """End-to-end vs one DuckDB query over the same parquet — the local
    twin of the driver's contract row."""
    import duckdb

    import __ray_entry__ as entry
    from fuzzy_matcher_ray.pipelines.curate import curation_packed
    sql = entry.oracle_sql()["curation_packed"]
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"'{SF_SMALL}/documents.parquet'")
    oracle = con.execute(sql).df()
    got = curation_packed(SF_SMALL).to_pandas()
    assert got.reset_index(drop=True).equals(oracle.reset_index(drop=True))


def test_curation_starts_no_early_stopped_semi_join(ray_session):
    """No execution of an uncheckpointed run stops a semi-join over the
    source read after one row: ``_keep`` pins its id list and tests it
    with a metadata count, and drops its marker per batch instead of
    reading the lazy join's schema. Each ``limit(1)`` probe or
    ``schema()`` of that join started a ``ReadParquet -> _Lookup ->
    limit=1`` execution (six per run), and Ray 2.49 once aborted the
    driver cancelling one."""
    from test_flagship_plan import ExecutionCounter

    from fuzzy_matcher_ray.pipelines.curate import curation_packed
    from fuzzy_matcher_ray.stages.joins import collect_table
    with ExecutionCounter().installed() as counter:
        assert len(collect_table(curation_packed(SF_SMALL))) > 0
    early = [d for d in counter.dags if "limit=1" in d
             and any("ReadParquet" in name for name in d)]
    assert early == []


@pytest.mark.parametrize("kill_after", [3, 6])
def test_curation_kill_anywhere_resume(ray_session, tmp_path, kill_after):
    """Kill the chain after N completed stages; the rerun resumes from the
    manifests (finished stages not rebuilt) and the final output is
    byte-identical to an uninterrupted run."""
    from fuzzy_matcher_ray.pipelines import curate
    from fuzzy_matcher_ray.state.checkpoint import Checkpointer

    reference = curate.curate_corpus(SF_SMALL).to_pandas()

    root = str(tmp_path / "ck")
    orig = Checkpointer.stage
    state = {"built": 0}

    def bomb(self, name, build_fn, **kw):
        if not self.has(name):
            if state["built"] >= kill_after:
                raise RuntimeError("simulated kill")
            state["built"] += 1
        return orig(self, name, build_fn, **kw)

    Checkpointer.stage = bomb
    try:
        with pytest.raises(RuntimeError, match="simulated kill"):
            curate.curate_corpus(SF_SMALL, checkpoint_root=root)
    finally:
        Checkpointer.stage = orig

    stages = ["s1_quality", "s2_exact", "s3_neardup", "s4_decontam",
              "s5_ccnet", "s6_mix", "s7_packed"]
    done = [s for s in stages
            if os.path.isfile(os.path.join(root, s, "_MANIFEST.json"))]
    assert done == stages[:kill_after]
    mtimes = {s: os.stat(os.path.join(root, s, "_MANIFEST.json")).st_mtime_ns
              for s in done}

    resumed = curate.curate_corpus(SF_SMALL, checkpoint_root=root) \
        .to_pandas()
    assert resumed.values.tolist() == reference.values.tolist()
    for s in done:   # finished stages were NOT rebuilt
        assert os.stat(os.path.join(root, s,
                                    "_MANIFEST.json")).st_mtime_ns \
            == mtimes[s]
    for s in stages:
        assert os.path.isfile(os.path.join(root, s, "_MANIFEST.json"))


def test_curation_report_funnel(ray_session, tmp_path):
    from fuzzy_matcher_ray.pipelines.curate import curation_report
    root = str(tmp_path / "ck")
    rep = curation_report(SF_SMALL, checkpoint_root=root)
    assert rep.stage.tolist() == [
        "s1_quality", "s2_exact", "s3_neardup", "s4_decontam", "s5_ccnet",
        "s6_mix", "s7_packed"]
    n = dict(zip(rep.stage, rep.n_rows))
    # the filter stages only shrink the survivor set
    assert n["s1_quality"] >= n["s2_exact"] >= n["s3_neardup"] \
        >= n["s4_decontam"] >= n["s5_ccnet"]
    # mixing oversamples (>= 1 copy per survivor)
    assert n["s6_mix"] >= n["s5_ccnet"]
    assert n["s7_packed"] > 0


def test_curation_degenerate_all_filtered(ray_session, tmp_path):
    """A corpus the quality gate kills entirely flows through every stage
    as an empty survivor set — no crashes, zero packed rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fuzzy_matcher_ray.pipelines.curate import curate_corpus
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["x", "", None]),          # all < 5 tokens
        "lang": pa.array(["en", "en", "de"]),
        "source": pa.array(["src0", "src1", "src2"]),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = curate_corpus(str(tmp_path))
    assert out.count() == 0
    # schema asserted on the Dataset: Ray's to_pandas drops columns for
    # zero-row datasets
    assert out.schema().names == ["seq_id", "doc_id", "copy_idx",
                                  "tok_start", "tok_end"]


def test_curation_eval_only_corpus(ray_session, tmp_path):
    """Every doc is in the eval-id range (< n_eval): decontamination drops
    the whole corpus, later stages see empty survivor sets."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fuzzy_matcher_ray.pipelines.curate import curate_corpus
    texts = [f"the quick brown fox {i} jumps over the lazy dog and then "
             f"walks to the river of town {i}" for i in range(5)]
    tbl = pa.table({
        "doc_id": pa.array(range(5), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 5),
        "source": pa.array([f"src{i}" for i in range(5)]),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = curate_corpus(str(tmp_path)).to_pandas()
    assert len(out) == 0


def test_curation_representative_best(ray_session, tmp_path):
    """representative="best": the winner helpers keep the LONGEST raw
    member per exact/near cluster (not min id); the composed chain runs
    deterministically under the option, and a checkpoint root written by
    a "min" run is invalidated (config-hash) rather than reused."""
    import pyarrow as pa
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines import curate

    near = ("the quick brown fox jumps over the lazy dog and runs far "
            "away from the river today")
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array([
            "some unique base document text right here",
            "SOME unique BASE document text right here!!!",  # exact dup of 1
            near,
            near + " ok",                                    # near dup of 3
            "another standalone unique document entirely",
        ])}))
    ex = curate._exact_winners(docs, "best").to_pandas().doc_id.tolist()
    assert 2 in ex and 1 not in ex          # longer raw copy wins
    assert {3, 4, 5} <= set(ex)             # non-dups untouched
    nw = curate._near_winners(docs, "exact", "best") \
        .to_pandas().doc_id.tolist()
    assert 4 in nw and 3 not in nw          # longer near-dup member wins

    # composed chain: runs, deterministic, and a min-run checkpoint root
    # is NOT silently reused (different config hash -> rebuild)
    root = str(tmp_path / "ck")
    base_min = curate.curate_corpus(SF_SMALL, checkpoint_root=root) \
        .to_pandas()
    fresh_best = curate.curate_corpus(
        SF_SMALL, representative="best").to_pandas()
    resumed_best = curate.curate_corpus(
        SF_SMALL, checkpoint_root=root, representative="best").to_pandas()
    assert len(fresh_best) > 0
    assert resumed_best.values.tolist() == fresh_best.values.tolist()
    assert len(base_min) > 0
