"""The sketch map and the key rows derived from it.

``Signatures`` reads each fuzzy-tier doc once and emits its MinHash bands
and SimHash (over the OCR-folded text) and its winnowed fingerprints with
their positions (over the unfolded text). The oracle recomputes each doc
alone with the kernels and ``Winnower``. The key-row derivations run on the
driver over a materialized sketch and as Ray maps over a checkpoint read:
both must give the same rows.
"""

import dataclasses

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.functions.minhash import (band_hashes,
                                                 minhash_signatures,
                                                 perm_params)
from fuzzy_matcher_ray.functions.normalize import fold_array
from fuzzy_matcher_ray.functions.shingle import shingle_batch
from fuzzy_matcher_ray.functions.simhash import simhash_batch
from fuzzy_matcher_ray.sources.webpages import make_webpages
from fuzzy_matcher_ray.stages.joins import collect_table
from fuzzy_matcher_ray.stages.minhash_stage import Signatures, Winnower
from fuzzy_matcher_ray.stages.normalize_stage import TIER_FUZZY, NormalizeGate

CFG = PipelineConfig()


def _texts() -> list:
    rng = np.random.default_rng(3)
    words = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), 6))
             for _ in range(300)]
    return [
        "",                                   # empty: skip tier
        None,                                 # null: skip tier
        "too short",                          # exact-only tier
        "twenty-five chars, fuzzy",           # fuzzy, < one winnow window
        " ".join(rng.choice(words, 400)),     # several winnow windows
        # OCR confusables the fold rewrites (rn → m, 0 → o, cl → d, ...)
        "the rn0dern clerk 1s vv0rking 0n 5ome c1ass1c rnodels " * 12,
        "abc" * 400,                          # period 3: tie-heavy hashes
        "a" * 700,                            # one repeated hash
        " ".join(rng.choice(words, 40)),      # about one window
    ]


def _norm(texts: list) -> pa.Table:
    batch = pa.table({"doc_id": pa.array(range(100, 100 + len(texts)),
                                         pa.int64()),
                      "text": pa.array(texts, pa.string())})
    return NormalizeGate(CFG)(batch)


def _oracle(norm: pa.Table, cfg: PipelineConfig) -> pa.Table:
    """The sketch rows, one fuzzy doc at a time: bands and SimHash of the
    doc's folded text, and ``Winnower``'s rows of the doc as lists."""
    a, b = perm_params(cfg.num_perms, cfg.seed)
    winnow = Winnower(cfg)
    rows = {k: [] for k in ("doc_id", "bands", "simhash", "fp", "pos")}
    for i in range(len(norm)):
        doc = norm.slice(i, 1)
        if doc["tier"][0].as_py() != TIER_FUZZY:
            continue
        text = doc["norm_text"].combine_chunks()
        shingled = fold_array(text) if cfg.ocr_fold else text
        h, c = shingle_batch(shingled, cfg.shingle_k, cfg.seed)
        bands = band_hashes(minhash_signatures(h, c, a, b), cfg.bands,
                            cfg.rows_per_band)
        w = winnow(doc)
        rows["doc_id"].append(doc["doc_id"][0].as_py())
        rows["bands"].append(bands[0].view(np.int64).tolist())
        rows["simhash"].append(int(simhash_batch(h, c).view(np.int64)[0]))
        rows["fp"].append(w["fp"].to_pylist())
        rows["pos"].append(w["pos"].to_pylist())
    return pa.table(rows)


@pytest.mark.parametrize("ocr_fold", [True, False])
def test_sketch_matches_per_doc_oracle(ocr_fold):
    cfg = dataclasses.replace(CFG, ocr_fold=ocr_fold)
    norm = _norm(_texts())
    got = Signatures(cfg)(norm)
    want = _oracle(norm, cfg)
    assert got.column_names == ["doc_id", "bands", "simhash", "fp", "pos"]
    assert got.schema.field("fp").type == pa.list_(pa.int64())
    assert got.schema.field("pos").type == pa.list_(pa.int64())
    assert len(got) == 6                  # the fuzzy-tier docs only
    for col in want.column_names:
        assert got[col].to_pylist() == want[col].to_pylist(), col
    # a doc shorter than the window has no window, so no fingerprint
    assert got["fp"][0].as_py() == [] and len(got["fp"][1].as_py()) > 0
    # the OCR fold changes the shingled text of the confusables doc only
    assert (Signatures(dataclasses.replace(CFG, ocr_fold=not ocr_fold))(norm)
            ["bands"].to_pylist() != got["bands"].to_pylist())


def test_sketch_of_no_fuzzy_doc_is_empty_and_typed():
    got = Signatures(CFG)(_norm(["", "short", None]))
    assert len(got) == 0
    assert got.schema.field("bands").type == pa.list_(pa.int64(), CFG.bands)
    assert got.schema.field("fp").type == pa.list_(pa.int64())


@pytest.fixture(scope="module")
def sketch(ray_session, tmp_path_factory):
    """(norm, sigs) materialized in 3 blocks, and both as checkpoint reads."""
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import signature_table
    from fuzzy_matcher_ray.stages.normalize_stage import normalized_docs

    pages, _ = make_webpages(400, seed=31)
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(pages)), pa.int64()),
        "url": pages["url"], "text": pages["text"]}))
    norm = normalized_docs(docs, CFG).repartition(3).materialize()
    sigs = signature_table(norm, CFG).materialize()
    d = tmp_path_factory.mktemp("sketch")
    norm.write_parquet(str(d / "norm"))
    sigs.write_parquet(str(d / "sigs"))
    return (norm, sigs, rd.read_parquet(str(d / "norm")),
            rd.read_parquet(str(d / "sigs")))


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in t.column_names])


@pytest.mark.parametrize("derive", ["band", "simhash", "winnow", "exact"])
def test_key_rows_match_on_driver_and_as_map(sketch, derive):
    from fuzzy_matcher_ray.pipelines.dedup import _hash_rows
    from fuzzy_matcher_ray.stages.joins import DriverBlocks, is_pinned
    from fuzzy_matcher_ray.stages.minhash_stage import (band_key_rows,
                                                        simhash_key_rows,
                                                        winnow_key_rows)
    norm, sigs, norm_read, sigs_read = sketch
    fn, src, src_read = {
        "band": (lambda s: band_key_rows(s, CFG), sigs, sigs_read),
        "simhash": (lambda s: simhash_key_rows(s, CFG), sigs, sigs_read),
        "winnow": (winnow_key_rows, sigs, sigs_read),
        "exact": (_hash_rows, norm, norm_read),
    }[derive]
    driver = fn(src)
    assert isinstance(driver, DriverBlocks)
    assert driver.num_blocks() == src.num_blocks()
    mapped = fn(src_read)
    assert not is_pinned(mapped)
    got, want = collect_table(driver), collect_table(mapped)
    assert len(got) > 0
    assert _sorted(got).equals(_sorted(want))


def test_winnow_key_rows_are_winnower_rows(sketch):
    """The flattened sketch lists are ``Winnower``'s rows, in its order."""
    from fuzzy_matcher_ray.stages.minhash_stage import add_stage, winnow_key_rows
    norm, sigs, _, _ = sketch
    got = collect_table(winnow_key_rows(sigs))
    want = collect_table(add_stage(
        norm.select_columns(["doc_id", "norm_text", "tier"]), Winnower, CFG))
    assert got.equals(want)


def test_cluster_fill_matches_on_driver_and_as_map(sketch):
    import ray.data as rd

    from fuzzy_matcher_ray.stages.cluster import cluster_edges
    norm, _, norm_read, _ = sketch
    ids = collect_table(norm)["doc_id"].to_numpy()
    edges = rd.from_arrow(pa.table({"a": pa.array(ids[:40:2]),
                                    "b": pa.array(ids[1:40:2])}))
    docs = norm.select_columns(["doc_id", "url"]).materialize()
    driver = collect_table(cluster_edges(edges, docs, CFG))
    mapped = collect_table(cluster_edges(
        edges, norm_read.select_columns(["doc_id", "url"]), CFG))
    assert driver.column_names == ["doc_id", "cluster_id", "url"]
    assert _sorted(driver).equals(_sorted(mapped))
    assert pc.sum(pc.not_equal(driver["doc_id"],
                               driver["cluster_id"])).as_py() == 20
