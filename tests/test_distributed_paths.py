"""Force the at-scale code paths (sort-based distributed explode, shuffle
joins, distributed label propagation) on small data and assert they produce
byte-identical results to the driver fast paths."""

import dataclasses

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


def test_driver_sized_dup_rows_explode_matches_driver_path(band_rows,
                                                          monkeypatch):
    """Key rows past the driver budget but dup rows within it: the
    distributed counts/membership split hands the dup rows to the driver
    path's lexsort + segment explode."""
    cfg = PipelineConfig()
    driver = _pairs_set(C.key_pairs(band_rows, ["band", "band_hash"], cfg))
    df = band_rows.to_pandas()
    sizes = df.groupby(["band", "band_hash"]).doc_id.transform("size")
    n_dup = int(((sizes >= 2) & (sizes <= cfg.max_band_group)).sum())
    assert 0 < n_dup < len(df) - 1
    monkeypatch.setattr(C, "DRIVER_EXPLODE_MAX_ROWS", (n_dup + len(df)) // 2)
    mixed = _pairs_set(C.key_pairs(band_rows, ["band", "band_hash"], cfg))
    assert driver == mixed and len(driver) > 0


def test_shuffle_semi_join_membership(band_rows, monkeypatch):
    """Force the left_semi join path for dup-key selection too."""
    cfg = PipelineConfig()
    driver = _pairs_set(C.key_pairs(band_rows, ["band", "band_hash"], cfg))
    monkeypatch.setattr(C, "DRIVER_EXPLODE_MAX_ROWS", 10)
    monkeypatch.setattr(C, "BROADCAST_KEYS_MAX", 0)
    dist = _pairs_set(C.key_pairs(band_rows, ["band", "band_hash"], cfg))
    assert driver == dist


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
