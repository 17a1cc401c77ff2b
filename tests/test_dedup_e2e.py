"""E2E flagship pipeline vs a brute-force O(n²) oracle (SURVEY.md §5 port
strategy (b)): planted-duplicate corpus, dup-pair recall >= 0.99, cluster
sanity, driver vs distributed clustering equality."""

import dataclasses

import numpy as np
import pyarrow as pa
import pytest

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.functions.normalize import normalize_array
from fuzzy_matcher_ray.functions.shingle import (
    counts_to_offsets, shingle_batch, unique_per_doc)
from fuzzy_matcher_ray.functions.unionfind import connected_components
from fuzzy_matcher_ray.sources.webpages import make_webpages

N_DOCS = 400
CFG = PipelineConfig()


@pytest.fixture(scope="module")
def corpus(ray_session):
    import ray.data as rd
    pages, truth = make_webpages(N_DOCS, seed=42)
    docs_tbl = pa.table({
        "doc_id": pa.array(range(len(pages)), pa.int64()),
        "url": pages["url"], "text": pages["text"], "lang": pages["lang"]})
    return rd.from_arrow(docs_tbl), docs_tbl, truth


def brute_force_pairs(texts: list[str], threshold: float) -> set[tuple[int, int]]:
    """All (i, j) with exact 5-gram Jaccard >= threshold on normalized text."""
    norm = normalize_array(pa.array(texts, pa.string()))
    uh, uc = unique_per_doc(*shingle_batch(norm, CFG.shingle_k, CFG.seed))
    offs = counts_to_offsets(uc)
    sets = [uh[offs[i]: offs[i + 1]] for i in range(len(texts))]
    out = set()
    for i in range(len(texts)):
        si = sets[i]
        if len(si) == 0:
            continue
        for j in range(i + 1, len(texts)):
            sj = sets[j]
            if len(sj) == 0:
                continue
            inter = len(np.intersect1d(si, sj, assume_unique=True))
            if inter / (len(si) + len(sj) - inter) >= threshold:
                out.add((i, j))
    return out


def test_minhash_recall_vs_bruteforce(corpus):
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    docs, docs_tbl, _ = corpus
    out = find_duplicates(docs, CFG, passes=("exact", "minhash")).to_pandas()
    label = dict(zip(out.doc_id, out.cluster_id))
    texts = docs_tbl["text"].to_pylist()
    truth_pairs = brute_force_pairs(texts, CFG.jaccard_threshold)
    assert truth_pairs, "oracle found no duplicate pairs — corpus broken"
    found = sum(1 for (i, j) in truth_pairs if label[i] == label[j])
    recall = found / len(truth_pairs)
    assert recall >= 0.99, f"recall {recall:.3f} over {len(truth_pairs)} true pairs"
    # sanity: no catastrophic over-merging (transitive closure may merge some)
    sizes = out.groupby("cluster_id").size()
    assert sizes.max() <= 40


def test_full_pipeline_clusters(corpus):
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    docs, docs_tbl, truth = corpus
    out = find_duplicates(docs, CFG).to_pandas()
    assert len(out) == N_DOCS
    assert set(out.columns) >= {"doc_id", "cluster_id", "url"}
    label = dict(zip(out.doc_id, out.cluster_id))
    # exact copies must always co-cluster
    texts = docs_tbl["text"].to_pylist()
    norm = normalize_array(pa.array(texts, pa.string())).to_pylist()
    by_text = {}
    for i, t in enumerate(norm):
        if t:
            by_text.setdefault(t, []).append(i)
    for ids in by_text.values():
        for j in ids[1:]:
            assert label[ids[0]] == label[j], "exact copies split across clusters"
    # empty docs must stay singletons (never glued into one mega-cluster)
    empties = [i for i, t in enumerate(norm) if not t]
    assert len({label[i] for i in empties}) == len(empties)


def test_driver_vs_distributed_clustering(corpus):
    import ray.data as rd
    from fuzzy_matcher_ray.stages.cluster import cluster_edges
    docs, _, _ = corpus
    # three ranges that share nodes 1, 6 and 7: the forced run contracts
    edges = rd.from_arrow([pa.table({
        "a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})
        for a, b in (([0, 6], [1, 7]), ([1, 5], [2, 6]), ([7], [8]))])
    ids = docs.select_columns(["doc_id"])
    d1 = cluster_edges(edges, ids, CFG).to_pandas()
    d2 = cluster_edges(edges, ids, dataclasses.replace(
        CFG, driver_uf_max_edges=0)).to_pandas()
    m1 = dict(zip(d1.doc_id, d1.cluster_id))
    m2 = dict(zip(d2.doc_id, d2.cluster_id))
    assert m1 == m2
    assert m1[0] == m1[1] == m1[2] == 0
    assert m1[5] == m1[8] == 5
    assert m1[100] == 100


def test_substring_pass_links_containment(ray_session):
    import ray.data as rd
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    rng = np.random.default_rng(5)
    shared = " ".join(rng.choice(["alpha", "beta", "gamma", "delta"], 120))
    docs_tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "url": pa.array(["u0", "u1", "u2"]),
        "text": pa.array([shared + " tail one here",
                          "prefix two " + shared,
                          " ".join(rng.choice(["x1", "y2", "z3"], 200))]),
        "lang": pa.array(["en"] * 3)})
    out = find_duplicates(rd.from_arrow(docs_tbl), CFG,
                          passes=("substring",)).to_pandas()
    label = dict(zip(out.doc_id, out.cluster_id))
    assert label[0] == label[1] != label[2]


def _words(rng, n):
    return " ".join("".join(rng.choice(list("abcdefghijklmnop"), 7)) for _ in range(n))


def test_hot_band_star_chain_recall(ray_session):
    """Planted hot-band skew test (round-1 verdict item 3): two dissimilar
    doc families share a large identical boilerplate, so several LSH bands
    put ALL docs in one mega-group (> max_band_group ⇒ star+chain edges).
    The star root belongs to family A; family B's star pairs and most chain
    pairs FAIL the 0.8 verify. Recall must still hold: same-family docs stay
    connected through their own non-boilerplate bands, and no cross-family
    merge may appear.
    """
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates, signature_table
    from fuzzy_matcher_ray.stages.minhash_stage import band_key_rows
    from fuzzy_matcher_ray.stages.normalize_stage import normalized_docs

    rng = np.random.default_rng(77)
    boiler = _words(rng, 200)               # ~1600 chars shared by every doc
    tail_a = _words(rng, 50).split(" ")     # ~400-char family tails
    tail_b = _words(rng, 50).split(" ")
    texts = []
    fam = []
    for i in range(160):
        words = list(tail_a if i % 2 == 0 else tail_b)
        fam.append(i % 2)
        # perturb 3 tail words per doc → within-family J ≈ 0.95, cross ≈ 0.67
        for j in rng.choice(len(words), 3, replace=False):
            words[j] = "".join(rng.choice(list("qrstuvwxyz"), 7))
        texts.append(boiler + " " + " ".join(words))
    docs_tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "url": pa.array([f"u{i}" for i in range(len(texts))]),
        "text": pa.array(texts), "lang": pa.array(["en"] * len(texts))})
    docs = rd.from_arrow(docs_tbl)

    # the skew actually happens: at least one band group exceeds the cap
    norm = normalized_docs(docs, CFG).materialize()
    rows = band_key_rows(signature_table(norm, CFG), CFG).to_pandas()
    gmax = rows.groupby(["band", "band_hash"]).size().max()
    assert gmax > CFG.max_band_group, f"no hot group planted (max={gmax})"

    out = find_duplicates(docs, CFG, passes=("exact", "minhash")).to_pandas()
    label = dict(zip(out.doc_id, out.cluster_id))
    truth = brute_force_pairs(texts, CFG.jaccard_threshold)
    assert truth, "no true pairs planted"
    cross = sum(1 for (i, j) in truth if fam[i] != fam[j])
    assert cross == 0, "families overlap — corpus construction broken"
    found = sum(1 for (i, j) in truth if label[i] == label[j])
    recall = found / len(truth)
    assert recall >= 0.99, f"hot-band recall {recall:.3f} ({len(truth)} pairs)"
    # no false cross-family merges through the star/chain edges
    a_lbls = {label[i] for i in range(160) if fam[i] == 0}
    b_lbls = {label[i] for i in range(160) if fam[i] == 1}
    assert not (a_lbls & b_lbls), "hot-band handling merged dissimilar families"


def test_fresh_runs_deterministic(ray_session):
    """Regression: pc.coalesce on worker-side fused batches intermittently
    emitted the garbage data-buffer values under null slots (singleton docs
    got cluster_id 0 and fresh runs differed). cluster._coalesce_i64 is the
    workaround; two fresh runs must agree exactly and never emit a cluster
    id outside the doc-id set."""
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    pages, _ = make_webpages(600, seed=9)
    docs_tbl = pa.table({
        "doc_id": pa.array(range(len(pages)), pa.int64()),
        "url": pages["url"], "text": pages["text"], "lang": pages["lang"]})
    runs = []
    for _ in range(2):
        df = find_duplicates(rd.from_arrow(docs_tbl), CFG).to_pandas()
        assert set(df.cluster_id).issubset(set(df.doc_id))
        runs.append(dict(zip(df.doc_id, df.cluster_id)))
    assert runs[0] == runs[1], "fresh runs produced different clusters"


def test_ttl_mode_flagship(ray_session):
    """find_duplicates with cfg.ttl_mode enforces the expiry invariant and
    drops expired rows before hashing (search-time auto-clean)."""
    import dataclasses

    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    cfg = dataclasses.replace(CFG, ttl_mode=True)
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "url": pa.array(["a", "b", "c"]),
        "text": pa.array(["some document text here alpha"] * 3),
        "lang": pa.array(["en"] * 3),
        "valid_until": pa.array([
            np.datetime64("2030-01-01T00:00:00", "us"),
            np.datetime64("2030-01-01T00:00:00", "us"),
            np.datetime64("2001-01-01T00:00:00", "us")])})
    out = find_duplicates(rd.from_arrow(t), cfg,
                          now=np.datetime64("2026-01-01T00:00:00", "us")).to_pandas()
    assert set(out.doc_id) == {1, 2}          # expired doc 3 dropped
    assert out.cluster_id.nunique() == 1      # identical survivors co-cluster
    # invariant violation fails the run
    bad = t.set_column(4, "valid_until", pa.array(
        [np.datetime64("2030-01-01T00:00:00", "us"), None, None]))
    with pytest.raises(Exception) as ei:
        find_duplicates(rd.from_arrow(bad), cfg).to_pandas()
    assert "ttl_mode" in str(ei.value)


def test_shingle_set_artifact_parity(corpus):
    """The precomputed corpus shingle-set artifact (zero-copy plasma
    intersection) must produce byte-identical verified edges to the
    per-batch recompute fallback, and the flagship must accept the
    config knob end-to-end."""
    import dataclasses

    from fuzzy_matcher_ray.pipelines import dedup as D
    from fuzzy_matcher_ray.stages.normalize_stage import normalized_docs
    from fuzzy_matcher_ray.stages.verify import build_shingle_sets
    docs, _, _ = corpus
    norm = normalized_docs(docs, CFG).materialize()
    sigs = D.signature_table(norm, CFG).materialize()
    sets_ref = build_shingle_sets(norm, CFG)
    assert sets_ref is not None
    base = D.lsh_edges(norm, CFG, sigs=sigs).to_pandas() \
        .sort_values(["a", "b"]).reset_index(drop=True)
    art = D.lsh_edges(norm, CFG, sigs=sigs, sets_ref=sets_ref).to_pandas() \
        .sort_values(["a", "b"]).reset_index(drop=True)
    assert base.equals(art), "artifact edges differ from recompute edges"
    # e2e with the knob on matches the default pipeline
    cfg_on = dataclasses.replace(CFG, use_shingle_set_artifact=True)
    d_on = D.find_duplicates(docs, cfg_on).to_pandas()
    d_off = D.find_duplicates(docs, CFG).to_pandas()
    on = dict(zip(d_on.doc_id, d_on.cluster_id))
    off = dict(zip(d_off.doc_id, d_off.cluster_id))
    assert on == off


def test_jaccard_allpairs_degenerate_inputs(ray_session):
    """Empty table → empty result; all-short docs (nothing shingles) →
    every doc a singleton. Neither crashes the join machinery."""
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import jaccard_allpairs_clusters
    empty = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                    "text": pa.array([], pa.string())}))
    out = jaccard_allpairs_clusters(empty)
    assert out.count() == 0
    assert set(out.schema().names) == {"doc_id", "cluster_id"}
    short = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["ab", "", None], pa.string())}))
    df = jaccard_allpairs_clusters(short).to_pandas().sort_values("doc_id")
    assert df.doc_id.tolist() == [1, 2, 3]
    assert (df.doc_id == df.cluster_id).all()


def test_flagship_recall_vs_exact_allpairs_baseline(ray_session):
    """Pipeline-level recall gates against the in-repo exact all-pairs
    Jaccard baseline (no Python re-implementation needed):

    - the FULL flagship co-clusters every baseline co-cluster pair — the
      SimHash/substring passes backstop the LSH S-curve miss band exactly
      as SURVEY §7 designed (seed 41 plants a true 0.836-Jaccard pair the
      b=16/r=8 banding misses with ~1.3% probability; simhash catches it);
    - the minhash-only pass agrees with the baseline on >= 99% of docs.
    """
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.dedup import (find_duplicates,
                                                   jaccard_allpairs_clusters)
    from fuzzy_matcher_ray.sources.webpages import make_webpages
    # 150 docs: the boilerplate-heavy pages already explode to ~2M
    # inverted-index pairs (the baseline is output-bound by design);
    # larger corpora push past the driver fast path and take minutes
    pages, _ = make_webpages(150, seed=41)
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(pages)), pa.int64()),
        "url": pages["url"], "text": pages["text"], "lang": pages["lang"]}))
    exact = jaccard_allpairs_clusters(
        docs.select_columns(["doc_id", "text"]), CFG) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    full = find_duplicates(docs, CFG) \
        .to_pandas()[["doc_id", "cluster_id"]] \
        .sort_values("doc_id").reset_index(drop=True)
    fl = dict(zip(full.doc_id, full.cluster_id))
    by_cluster = {}
    for did, cid in zip(exact.doc_id, exact.cluster_id):
        by_cluster.setdefault(cid, []).append(did)
    for ids in by_cluster.values():
        for j in ids[1:]:
            assert fl[ids[0]] == fl[j], \
                f"baseline pair ({ids[0]},{j}) split by the full flagship"
    minhash = find_duplicates(docs, CFG, passes=("minhash",)) \
        .to_pandas()[["doc_id", "cluster_id"]] \
        .sort_values("doc_id").reset_index(drop=True)
    agree = (minhash.cluster_id.to_numpy() == exact.cluster_id.to_numpy())
    assert agree.mean() >= 0.99
