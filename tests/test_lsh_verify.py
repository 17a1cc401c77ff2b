"""The MinHash and SimHash passes share one exact-Jaccard verify: each
candidate row carries its pass's threshold, so the accepted pairs are the
union of the two passes' accept sets. Planted pairs pin each side of that
rule, and the join path (texts attached as columns, no broadcast) must
label like the broadcast path."""

import dataclasses

import numpy as np
import pyarrow as pa
import pytest

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.functions.minhash import (band_hashes,
                                                 minhash_signatures,
                                                 perm_params)
from fuzzy_matcher_ray.functions.shingle import shingle_batch, unique_per_doc
from fuzzy_matcher_ray.functions.simhash import hamming64, simhash_batch
from fuzzy_matcher_ray.sources.webpages import make_webpages
from fuzzy_matcher_ray.stages.joins import collect_table

CFG = PipelineConfig()
# letters that no OCR fold rewrites, so the sketch's folded text is norm_text
ALPHA = np.array(list("abdefghijkmopqstuwxyz"))


def _pair_props(t1: str, t2: str) -> tuple[float, bool, int]:
    """(Jaccard, shares an LSH band, SimHash Hamming distance)."""
    h, c = shingle_batch(pa.array([t1, t2]), CFG.shingle_k, CFG.seed)
    uh, uc = unique_per_doc(h, c)
    s1, s2 = set(uh[:uc[0]].tolist()), set(uh[uc[0]:].tolist())
    a, b = perm_params(CFG.num_perms, CFG.seed)
    bh = band_hashes(minhash_signatures(h, c, a, b), CFG.bands,
                     CFG.rows_per_band)
    sim = simhash_batch(h, c)
    return (len(s1 & s2) / len(s1 | s2), bool((bh[0] == bh[1]).any()),
            int(hamming64(sim[:1], sim[1:])[0]))


def _planted(j_lo: float, j_hi: float, band: bool, simhash: bool):
    """The first seeded text pair with Jaccard in [j_lo, j_hi) that shares
    an LSH band iff ``band`` and is within the SimHash Hamming bound iff
    ``simhash``. SimHash pairs repeat one short block 30 times before
    their tails (SimHash weighs shingles by count, Jaccard and MinHash do
    not); the others are a random text and a few substitutions of it."""
    for seed in range(5000):
        rng = np.random.default_rng(seed)
        if simhash:
            block = "".join(rng.choice(ALPHA, int(rng.integers(16, 40)))) * 30
            tail = "".join(rng.choice(ALPHA, int(rng.integers(10, 60))))
            if j_lo < 0.6:
                other = "".join(rng.choice(ALPHA, len(tail)))
            else:
                other = list(tail)
                for p in rng.choice(len(tail), int(rng.integers(1, 6)),
                                    replace=False):
                    other[p] = rng.choice(ALPHA)
                other = "".join(other)
            t1, t2 = block + tail, block + other
        else:
            t1 = "".join(rng.choice(ALPHA, 200))
            t2 = list(t1)
            for p in rng.choice(200, int(rng.integers(3, 9)), replace=False):
                t2[p] = rng.choice(ALPHA)
            t2 = "".join(t2)
        j, shares_band, ham = _pair_props(t1, t2)
        if j_lo <= j < j_hi and shares_band == band \
                and (ham <= CFG.simhash_hamming_max) == simhash:
            return t1, t2
    raise AssertionError("no planted pair found")


@pytest.fixture(scope="module")
def planted(ray_session):
    """Docs 0-1: a SimHash-only candidate, J in [0.7, 0.8). Docs 2-3: a
    MinHash-only candidate in the same band. Docs 4-5: a candidate of
    both passes with J in [0.45, 0.5)."""
    import ray.data as rd

    from fuzzy_matcher_ray.stages.normalize_stage import normalized_docs
    texts = [*_planted(0.7, 0.8, band=False, simhash=True),
             *_planted(0.7, 0.8, band=True, simhash=False),
             *_planted(0.45, 0.5, band=True, simhash=True)]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts)}))
    return normalized_docs(docs, CFG).materialize()


def _pairs(ds) -> set:
    t = collect_table(ds)
    return set(zip(t["a"].to_pylist(), t["b"].to_pylist()))


def test_planted_candidates(planted):
    """The planted pairs are candidates of exactly the intended passes."""
    from fuzzy_matcher_ray.pipelines.dedup import (minhash_pairs,
                                                   signature_table,
                                                   simhash_pairs)
    sigs = signature_table(planted, CFG).materialize()
    assert _pairs(minhash_pairs(planted, CFG, sigs)) == {(2, 3), (4, 5)}
    assert _pairs(simhash_pairs(planted, CFG, sigs)) == {(0, 1), (4, 5)}


@pytest.mark.parametrize("t, passes, want", [
    (0.8, ("minhash", "simhash"), {(0, 1)}),
    (0.8, ("minhash",), set()),
    (0.8, ("simhash",), {(0, 1)}),
    (0.45, ("minhash", "simhash"), {(0, 1), (2, 3), (4, 5)}),
    (0.45, ("minhash",), {(2, 3), (4, 5)}),
    (0.45, ("simhash",), {(0, 1)}),
])
def test_each_row_verifies_at_its_pass_threshold(planted, t, passes, want):
    """At t = 0.8 the SimHash-only pair passes the relaxed 0.7 and the
    MinHash-only pair fails 0.8. At t = 0.45 the relaxed threshold is 0.5,
    above t: the pair both passes propose, J in [0.45, 0.5), is accepted
    through its MinHash row. One pass alone accepts what that pass's own
    verify accepted before the two shared one."""
    from fuzzy_matcher_ray.pipelines.dedup import lsh_edges, signature_table
    cfg = dataclasses.replace(CFG, jaccard_threshold=t)
    sigs = signature_table(planted, cfg).materialize()
    assert _pairs(lsh_edges(planted, cfg, passes, sigs=sigs)) == want


def test_join_path_labels_match_broadcast(ray_session, tmp_path, monkeypatch):
    """With the text broadcast off the verifies attach texts by join: the
    flagship and a fold must label exactly as with the broadcast. Each
    run attaches texts twice: once for the shared LSH verify, once for
    the substring verify; each attach is two key-local joins (``a`` and
    ``b``), and the budget, read at call time, sends them there."""
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines import dedup
    from fuzzy_matcher_ray.pipelines.dedup import (find_duplicates,
                                                   incremental_update)
    from fuzzy_matcher_ray.stages import joins
    from fuzzy_matcher_ray.state.checkpoint import Checkpointer

    pages, _ = make_webpages(500, seed=23)
    tbl = pa.table({"doc_id": pa.array(range(len(pages)), pa.int64()),
                    "text": pages["text"]})
    a, b = tbl.slice(0, 320), tbl.slice(320)

    def labels(ds):
        t = ds.to_pandas()[["doc_id", "cluster_id"]]
        return t.sort_values("doc_id").reset_index(drop=True)

    def runs(tag):
        root = str(tmp_path / tag)
        find_duplicates(rd.from_arrow(a), CFG, checkpointer=Checkpointer(
            root, CFG.config_hash())).materialize()
        return (labels(find_duplicates(rd.from_arrow(tbl), CFG)),
                labels(incremental_update(root, rd.from_arrow(b), CFG)))

    flagship, fold = runs("broadcast")
    attached = []
    attach = dedup.attach_pair_texts
    monkeypatch.setattr(dedup, "attach_pair_texts",
                        lambda *a, **k: attached.append(1) or attach(*a, **k))
    keyed = []
    keyed_join = joins.keyed_join
    monkeypatch.setattr(joins, "keyed_join",
                        lambda *a, **k: keyed.append(1) or keyed_join(*a, **k))
    monkeypatch.setattr(joins, "BROADCAST_MAX_ROWS", 0)
    join_flagship, join_fold = runs("join")
    assert len(attached) == 2 * 3
    assert len(keyed) >= 2 * len(attached)
    assert flagship.equals(join_flagship)
    assert fold.equals(join_fold)
    assert flagship.equals(fold)


def test_shingle_set_artifact_matches_broadcast_on_many_partners(ray_session):
    """One batch: an anchor with 40 near-copy partners (1-12 substitutions
    each, so on both sides of 0.8), pairs among the partners and unrelated
    pairs, the docs spread over 3 artifact blocks. The artifact path
    (the batch's sets gathered from the blocks into one pool for the mask
    kernel) accepts exactly the broadcast path's pairs, at equal Jaccard."""
    import ray.data as rd

    from fuzzy_matcher_ray.stages.joins import BroadcastAttacher
    from fuzzy_matcher_ray.stages.normalize_stage import normalized_docs
    from fuzzy_matcher_ray.stages.verify import (JaccardVerifier,
                                                 build_shingle_sets)
    rng = np.random.default_rng(7)
    base = "".join(rng.choice(ALPHA, 400))
    texts = [base]
    for i in range(40):
        t = list(base)
        for p in rng.choice(400, i % 12 + 1, replace=False):
            t[p] = rng.choice(ALPHA)
        texts.append("".join(t))
    texts += ["".join(rng.choice(ALPHA, 300)) for _ in range(10)]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts)}))
    norm = normalized_docs(docs, CFG).repartition(3).materialize()
    sets_ref = build_shingle_sets(norm, CFG)
    assert sets_ref is not None and len(sets_ref[1]) == 3
    a = [0] * 40 + list(range(1, 40)) + list(range(41, 50))
    b = list(range(1, 41)) + list(range(2, 41)) + list(range(42, 51))
    batch = pa.table({"a": pa.array(a, pa.int64()),
                      "b": pa.array(b, pa.int64())})
    art = JaccardVerifier(CFG, sets_ref=sets_ref)
    brd = JaccardVerifier(
        CFG, text_ref=BroadcastAttacher(norm, "doc_id", ["norm_text"]).ref)
    assert 40 < len(art(batch)) < len(batch)
    assert art(batch).equals(brd(batch))
    # a batch over the later docs only: doc indices past its doc count
    tail = batch.slice(40 + 30)
    assert len(art(tail)) > 0
    assert art(tail).equals(brd(tail))
