"""Tiered-dedup cascade: planted-fixture oracles for the tier labels, the
final clusters, the exact≡LSH near-tier parity, and the soft weights.

The driver contract (test_entry_contract / CORRECTNESS rows) hash-checks
``tiered_dedup`` and ``soft_dedup_weights`` against the composed DuckDB
oracle at sf0.01 — where the synthetic corpus has near-dups but no exact
dups — so THIS file plants the exact-tier cases: byte-identical copies
after normalization, and short documents (normalized length < the shingle
width) that only the exact tier can deduplicate."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fuzzy_matcher_ray.pipelines.tier import (dup_funnel,
                                              keep_best_representatives,
                                              soft_dedup_weights, tier_counts,
                                              tiered_dedup)

BASE = ("the quick brown fox jumps over the lazy dog and runs far away "
        "from the river today")


@pytest.fixture()
def corpus(tmp_path):
    docs = {
        1: BASE,                       # keep — leads the near cluster
        2: BASE + " x",                # near-dup of 1 (Jaccard ≈ n/(n+1))
        3: "abc",                      # keep — too short to shingle
        4: "A b-c!",                   # normalizes to "abc": exact dup of 3
        5: "totally different unique document content right here",  # keep
        6: "The QUICK brown fox jumps over the lazy dog, and runs far "
           "away from the river today!",  # exact dup of 1 after normalize
        7: None,                       # null text ≡ empty doc
        8: "",                         # exact dup of 7 under the null rule
    }
    tbl = pa.table({
        "doc_id": pa.array(sorted(docs), pa.int64()),
        "text": pa.array([docs[k] for k in sorted(docs)], pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    return str(tmp_path)


EXPECT_CLUSTER = {1: 1, 2: 1, 3: 3, 4: 3, 5: 5, 6: 1, 7: 7, 8: 7}
EXPECT_TIER = {1: "keep", 2: "near", 3: "keep", 4: "exact", 5: "keep",
               6: "exact", 7: "keep", 8: "exact"}


def test_tiered_labels_and_clusters(ray_session, corpus):
    got = tiered_dedup(corpus).to_pandas()
    assert dict(zip(got.doc_id, got.cluster_id)) == EXPECT_CLUSTER
    assert dict(zip(got.doc_id, got.tier)) == EXPECT_TIER


def test_tiered_lsh_path_matches_exact(ray_session, corpus):
    exact = tiered_dedup(corpus).to_pandas()
    lsh = tiered_dedup(corpus, use_lsh=True).to_pandas()
    assert exact.equals(lsh)


def test_doc_winner_distributed_twin(ray_session, tmp_path, monkeypatch):
    """The min-rep kernel's distributed branch (range sort on the key,
    per-block segment min, boundary keys stitched on the driver) gives the
    driver path's (doc_id, w) rows: three copies of the fixture's docs, 24
    rows past a driver budget of ten 16-byte key rows."""
    from fuzzy_matcher_ray.pipelines.tier import _doc_winner

    base = {1: BASE, 2: BASE + " x", 3: "abc", 4: "A b-c!", 5: "unique",
            6: BASE.upper() + "!", 7: None, 8: ""}
    ids = [k + off for off in (0, 10, 20) for k in base]
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([base[i % 10] for i in ids], pa.string())}),
        str(tmp_path / "documents.parquet"))
    winner = {1: 1, 2: 2, 3: 3, 4: 3, 5: 5, 6: 1, 7: 7, 8: 7}
    want = {i: winner[i % 10] for i in ids}

    def rows():
        t = _doc_winner(str(tmp_path)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert dict(zip(t.doc_id, t.w)) == want
        return t

    driver = rows()
    monkeypatch.setenv("FMR_DRIVER_BYTES", str(10 * 16))
    assert rows().equals(driver)


def test_tier_counts_funnel(ray_session, corpus):
    got = tier_counts(corpus).to_pandas()
    assert dict(zip(got.tier, got.n_docs)) == {"exact": 3, "keep": 4,
                                               "near": 1}


def test_soft_dedup_weights(ray_session, corpus):
    got = soft_dedup_weights(corpus).to_pandas()
    w = dict(zip(got.doc_id, got.weight))
    assert w == {1: 1 / 3, 2: 1 / 3, 6: 1 / 3, 3: 0.5, 4: 0.5, 5: 1.0,
                 7: 0.5, 8: 0.5}
    # per final cluster the mass is one document's worth (float rounding)
    labels = tiered_dedup(corpus).to_pandas()
    merged = labels.merge(got, on="doc_id")
    sums = merged.groupby("cluster_id").weight.sum()
    assert np.allclose(sums.values, 1.0)


def test_keep_best_representatives(ray_session, corpus):
    """Per final tiered cluster: the longest RAW text wins (docs 4 and 2/6
    beat their min-id cluster mates), ties break to min doc_id (2 vs 6
    are both len(BASE)+2; null and '' are both 0)."""
    got = keep_best_representatives(corpus).to_pandas()
    best = {r.cluster_id: (r.doc_id, r.quality_len)
            for r in got.itertuples()}
    assert best == {
        1: (2, len(BASE) + 2),   # tie with doc 6 → min doc_id
        3: (4, 6),               # raw "A b-c!" beats raw "abc"
        5: (5, len("totally different unique document content right here")),
        7: (7, 0),               # null ≡ '' ≡ length 0, tie → 7
    }
    # one representative per cluster, clusters match the cascade's
    assert sorted(got.cluster_id) == sorted(
        set(EXPECT_CLUSTER.values()))


def test_keep_best_lsh_path_matches_exact(ray_session, corpus):
    exact = keep_best_representatives(corpus).to_pandas()
    lsh = keep_best_representatives(corpus, use_lsh=True).to_pandas()
    assert exact.equals(lsh)


@pytest.fixture()
def funnel_corpus(tmp_path):
    """One planted case per cascade pass: exact copies (E/F and a short
    pair under min_text_len), a high-Jaccard near-dup (C/D), and a pair
    sharing one >=200-char block inside otherwise-disjoint text (A/B:
    char-5-gram Jaccard ~0.3 — far below the 0.8 minhash threshold, only
    the substring pass can connect them)."""
    shared = ("common boilerplate navigation header that both pages carry "
              "verbatim character for character including this very long "
              "sentence which runs well past the two hundred character "
              "winnowing guarantee so the fingerprint pass must fire here "
              "because normalization strips the spaces and the shared "
              "block must stay over the minimum afterwards too")
    import pyarrow as _pa

    from fuzzy_matcher_ray.functions.normalize import normalize_array
    assert len(normalize_array(_pa.array([shared]))[0].as_py()) >= 250
    ua = ("page one body discusses entirely maritime topics harbors tides "
          "lighthouses gulls anchors and the slow rust of iron hulls in "
          "salt water over decades of neglect and repair cycles")
    ub = ("page two body covers alpine meadows marmots glaciers scree "
          "slopes and the silence above the treeline where weather turns "
          "without warning and paths vanish under early snowfall")
    near = ("the quick brown fox jumps over the lazy dog and runs far "
            "away from the river today toward the distant hills beyond")
    docs = {
        1: ua + " " + shared,            # A — keep (substring cluster rep)
        2: ub + " " + shared,            # B — removed by substring
        3: near,                         # C — keep (near cluster rep)
        4: near + " x",                  # D — removed by minhash
        5: "unique standalone document about nothing in particular",  # keep
        6: "Unique standalone document about nothing in particular!",
        #                                 ^ exact dup of 5 after normalize
        7: "tiny doc",                   # keep (exact-only tier, < 20 chars)
        8: "Tiny DOC",                   # exact dup of 7
    }
    tbl = pa.table({
        "doc_id": pa.array(sorted(docs), pa.int64()),
        "text": pa.array([docs[k] for k in sorted(docs)], pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    return str(tmp_path)


def test_dup_funnel_planted(ray_session, funnel_corpus):
    got = dup_funnel(funnel_corpus).to_pandas()
    f = dict(zip(got["pass"], got.n_removed))
    assert f["exact"] == 2          # docs 6 and 8
    assert f["minhash"] == 1        # doc 4
    assert f["substring"] == 1      # doc 2 — only the long shared block
    assert f["simhash"] == 0        # nothing left for the backstop here
    assert f["keep"] == 4
    assert (got.n_removed >= 0).all()
    assert got.n_removed.sum() == 8
    # cascade order then keep
    assert list(got["pass"]) == ["exact", "minhash", "simhash",
                                 "substring", "keep"]


def test_dup_funnel_pass_subset(ray_session, funnel_corpus):
    """Without the substring pass its doc survives; totals still sum."""
    got = dup_funnel(funnel_corpus, passes=("exact", "minhash")).to_pandas()
    f = dict(zip(got["pass"], got.n_removed))
    assert f == {"exact": 2, "minhash": 1, "keep": 5}


def test_short_docs_dedup_only_via_exact_tier(ray_session, corpus):
    """docs 3/4 share normalized text 'abc' (length 3 < shingle width 5):
    the pure all-pairs Jaccard pass cannot connect them — the tiered
    cascade must (its exact tier runs first)."""
    from fuzzy_matcher_ray.pipelines.dedup import jaccard_allpairs_clusters
    import ray.data as rd

    docs = rd.read_parquet(f"{corpus}/documents.parquet",
                           columns=["doc_id", "text"])
    brute = jaccard_allpairs_clusters(docs).to_pandas()
    b = dict(zip(brute.doc_id, brute.cluster_id))
    assert b[3] != b[4] or b[3] == 3 and b[4] == 4  # brute keeps them apart
    assert b[4] == 4
    tier = tiered_dedup(corpus).to_pandas()
    t = dict(zip(tier.doc_id, tier.cluster_id))
    assert t[3] == t[4] == 3


@pytest.mark.parametrize("seed", [3, 17])
def test_keep_best_invariants_random(ray_session, tmp_path, seed):
    """Randomized-corpus invariants: exactly one winner per tiered
    cluster; the winner is a member of its cluster; its quality_len is
    the cluster's max raw length; ties resolve to the min doc_id among
    max-length members."""
    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    vocab = ["ash", "birch", "cedar", "dune", "elm", "fjord", "grove"]
    texts = []
    for fam in range(25):
        base = " ".join(rng.choice(vocab, int(rng.integers(8, 25))))
        for c in range(int(rng.integers(1, 4))):
            if c == 0:
                texts.append(base)
            elif c == 1:
                texts.append(base.upper() + "!" * int(rng.integers(0, 4)))
            else:
                texts.append(base + " ok")
    # sprinkle null/empty rows
    texts.extend([None, "", None])
    d = str(tmp_path)
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    pq.write_table(tbl, f"{d}/documents.parquet")

    from fuzzy_matcher_ray.pipelines.tier import (keep_best_representatives,
                                                  tiered_dedup)
    labels = tiered_dedup(d).to_pandas()
    best = keep_best_representatives(d).to_pandas()

    raw_len = {i: (len(t) if t is not None else 0)
               for i, t in enumerate(texts)}
    by_cluster = labels.groupby("cluster_id").doc_id.apply(list).to_dict()
    assert sorted(best.cluster_id) == sorted(by_cluster)        # one each
    for r in best.itertuples():
        members = by_cluster[r.cluster_id]
        assert r.doc_id in members                              # membership
        mx = max(raw_len[m] for m in members)
        assert r.quality_len == mx                              # max length
        assert r.doc_id == min(m for m in members
                               if raw_len[m] == mx)             # tie rule
