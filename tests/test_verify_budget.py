"""Verify-budget candidate ranking (≙ ComputeScore/MaxHeap best-first
priority, /root/reference/fuzzy_matcher_core/utils.go:54-68 +
breadth_first_search.go:25-101): band-agreement hit counts rank candidate
pairs; each doc verifies only its top-budget pairs."""

import pyarrow as pa
import pytest

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.stages import candidates as cand


def _pairs_ds(rows):
    import ray.data as rd
    a, b = zip(*rows)
    return rd.from_arrow(pa.table({"a": pa.array(a, pa.int64()),
                                   "b": pa.array(b, pa.int64())}))


def _hits_ds(rows):
    import ray.data as rd
    a, b, h = zip(*rows)
    return rd.from_arrow(pa.table({"a": pa.array(a, pa.int64()),
                                   "b": pa.array(b, pa.int64()),
                                   "hits": pa.array(h, pa.int64())}))


def _sorted_pairs(ds):
    df = ds.to_pandas()
    return sorted(map(tuple, df[["a", "b"]].itertuples(index=False)))


@pytest.mark.parametrize("distributed", [False, True])
def test_count_pairs_hits(ray_session, monkeypatch, distributed):
    if distributed:
        monkeypatch.setattr(cand, "DRIVER_EXPLODE_MAX_ROWS", 0)
    ds = _pairs_ds([(1, 2), (1, 2), (1, 2), (1, 3), (2, 3), (2, 3)])
    got = cand.count_pairs(ds).to_pandas().sort_values(["a", "b"])
    assert list(map(tuple, got.itertuples(index=False))) == [
        (1, 2, 3), (1, 3, 1), (2, 3, 2)]


@pytest.mark.parametrize("distributed", [False, True])
def test_dedup_pairs_min_cols_keep_type(ray_session, monkeypatch,
                                        distributed):
    """Min per extra column ignores nulls and keeps the column's int64
    type whether or not a block holds nulls (a hot key's star+chain pairs
    carry null derive cols), so per-block outputs share one schema."""
    import ray.data as rd

    from fuzzy_matcher_ray.stages.joins import block_tables, collect_table
    if distributed:
        monkeypatch.setattr(cand, "DRIVER_EXPLODE_MAX_ROWS", 0)
    i64 = lambda v: pa.array(v, pa.int64())
    ds = rd.from_blocks([
        pa.table({"a": i64([1, 1, 2]), "b": i64([2, 2, 3]),
                  "pp": i64([None, 5, None])}),
        pa.table({"a": i64([1, 4]), "b": i64([2, 5]), "pp": i64([7, 9])})])
    got = cand.dedup_pairs(ds, ["pp"]).materialize()
    assert {t.schema.field("pp").type for t in block_tables(got)} == \
        {pa.int64()}
    rows = collect_table(got).sort_by([("a", "ascending"), ("b", "ascending")])
    assert rows.to_pylist() == [{"a": 1, "b": 2, "pp": 5},
                                {"a": 2, "b": 3, "pp": None},
                                {"a": 4, "b": 5, "pp": 9}]
    t = cand._numpy_dedup_pairs(pa.table({
        "a": i64([1, 1, 2]), "b": i64([2, 2, 3]),
        "pp": i64([None, 5, None])}), ["pp"])
    assert t.schema.field("pp").type == pa.int64()
    assert t["pp"].to_pylist() == [5, None]


@pytest.mark.parametrize("distributed", [False, True])
def test_budget_pairs_rank_and_union(ray_session, monkeypatch, distributed):
    if distributed:
        monkeypatch.setattr(cand, "DRIVER_EXPLODE_MAX_ROWS", 0)
    # doc1 drops (1,4) (rank 3); doc4's top-2 are its h=9 pairs, so (1,4)
    # is dropped on both sides; (2,4) survives via doc4's budget (union).
    ds = _hits_ds([(1, 2, 9), (1, 3, 8), (1, 4, 1),
                   (2, 3, 9), (2, 4, 9), (3, 4, 9)])
    got = _sorted_pairs(cand.budget_pairs(ds, budget=2))
    assert got == [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]


def test_budget_pairs_empty(ray_session):
    import ray.data as rd
    empty = rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                    "b": pa.array([], pa.int64()),
                                    "hits": pa.array([], pa.int64())}))
    got = cand.budget_pairs(empty, budget=2)
    assert got.count() == 0


def test_equal_family_stays_connected(ray_session):
    """Equal-hit ties break by (a,b) asc, so every member of an
    exact-equal family keeps its pair to the min-id member: one component
    at any budget >= 1."""
    fam = [(a, b, 16) for a in range(10) for b in range(a + 1, 10)]
    kept = _sorted_pairs(cand.budget_pairs(_hits_ds(fam), budget=1))
    import numpy as np

    from fuzzy_matcher_ray.functions.unionfind import connected_components
    ea = np.array([a for a, _ in kept], dtype=np.int64)
    eb = np.array([b for _, b in kept], dtype=np.int64)
    nodes, labels = connected_components(ea, eb)
    assert len(set(labels.tolist())) == 1 and len(nodes) == 10


def test_dedup_with_budget_matches_unbudgeted(ray_session):
    """On the planted-duplicate corpus a generous per-doc budget changes
    nothing: true duplicate pairs have the highest band agreement."""
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    from fuzzy_matcher_ray.sources.webpages import make_webpages

    pages, _ = make_webpages(800, seed=33)
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(pages)), pa.int64()),
        "url": pages["url"], "text": pages["text"], "lang": pages["lang"]}))
    base = find_duplicates(docs, PipelineConfig(), passes=("minhash",)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    budg = find_duplicates(docs, PipelineConfig(verify_budget_per_doc=64),
                           passes=("minhash",)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert base.equals(budg)
