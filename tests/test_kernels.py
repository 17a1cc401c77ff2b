"""Pure-kernel unit tests: normalize, similarity, minhash, simhash, suffix
arrays, fingerprints, union-find, the verifiers. These define parity with
the reference (SURVEY.md §5, FIXTURES.md F3). Only the verifier cases that
read texts from a ``ray.put`` broadcast start Ray."""

import numpy as np
import pyarrow as pa
import pytest

from fuzzy_matcher_ray.functions import normalize as nz
from fuzzy_matcher_ray.functions import similarity as sim
from fuzzy_matcher_ray.functions.fingerprint import (
    content_hash, exact_key, winnow_batch)
from fuzzy_matcher_ray.functions.minhash import (
    EMPTY_SIG, band_hashes, minhash_signatures, perm_params)
from fuzzy_matcher_ray.functions.shingle import (
    counts_to_offsets, segmented_intersection_counts, shingle_batch,
    unique_per_doc)
from fuzzy_matcher_ray.functions.simhash import (
    hamming64, simhash_batch, simhash_combo_keys)
from fuzzy_matcher_ray.functions.suffix import lcp_array, long_repeat_pairs, suffix_array
from fuzzy_matcher_ray.functions.unionfind import connected_components


# ---------------- normalize (normalize.go:9-15 parity, F3 goldens) ----------

@pytest.mark.parametrize("raw,expected", [
    ("John  O'Brien-2", "johnobrien2"),
    ("  HELLO, World!! 42 ", "helloworld42"),
    ("", ""),
    ("---", ""),
    ("MiXeD123", "mixed123"),
])
def test_normalize_scalar(raw, expected):
    assert nz.normalize_text(raw) == expected


def test_normalize_array_matches_scalar():
    # İ (U+0130) and K (U+212A) lowercase to ASCII i / k and are kept; ß,
    # the ﬃ ligature, CJK, emoji and other non-ASCII characters are dropped
    vals = ["John  O'Brien-2", "", "A b C", "x!y?z", "ÄÖÜ test",
            "İstanbul", "273 K", "Straße", "eﬃcient", "漢字 kanji 42",
            "ok 😀 👍🏽 done", None, "", "ZZ\u0000top\n9", None]

    def scalar(vs):
        return [None if v is None else nz.normalize_text(v) for v in vs]

    arr = pa.array(vals)
    out = nz.normalize_array(arr)
    assert out.type == pa.string()
    assert out.to_pylist() == scalar(vals)
    assert out.to_pylist()[5:7] == ["istanbul", "273k"]
    # a slice with a nonzero offset, and a chunked array of slices
    assert nz.normalize_array(arr.slice(4, 9)).to_pylist() == \
        scalar(vals[4:13])
    chunked = pa.chunked_array([arr.slice(0, 6), arr.slice(6, 0),
                                arr.slice(6)])
    assert nz.normalize_array(chunked).to_pylist() == scalar(vals)
    large = nz.normalize_array(pa.array(vals, pa.large_string()))
    assert large.type == pa.large_string()
    assert large.to_pylist() == scalar(vals)
    assert nz.normalize_array(pa.array([], pa.string())).to_pylist() == []


def test_fold_confusables():
    assert nz.fold_confusables("srnith") == "smith"
    # jonnath4n: nn→m, 4→a — one n/m mismatch vs jonathan remains (scored fuzzily)
    assert nz.fold_confusables("jonnath4n") == "jomathan"
    assert nz.fold_confusables("jonathan") == "jonathan"
    assert sim.levenshtein(nz.fold_confusables("jonnath4n"), "jonathan") <= 1
    arr = nz.fold_array(pa.array(["srnith", "vvilliam", "cl0ck", "b4d1"]))
    assert arr.to_pylist() == ["smith", "william", "dock", "badl"]


# ---------------- similarity kernels (distance_tests.json ranges) -----------

@pytest.mark.parametrize("s1,s2,lo,hi", [
    ("john", "john", 0.999, 1.0),
    ("john", "xyz", 0.0, 0.1),
    ("john", "jon", 0.70, 1.0),
    ("smith", "smyth", 0.60, 1.0),
    ("", "", 0.0, 0.001),
    ("john", "", 0.0, 0.001),
])
def test_jaro_winkler_ranges(s1, s2, lo, hi):
    v = sim.jaro_winkler(s1, s2)
    assert lo <= v <= hi, (s1, s2, v)


def test_jaro_winkler_values():
    # classic textbook values (prefix-boosted)
    assert abs(sim.jaro("john", "jon") - 0.9166666) < 1e-5
    assert abs(sim.jaro_winkler("john", "jon", long_tolerance=False) - 0.93333) < 1e-4


@pytest.mark.parametrize("s1,s2,d", [
    ("hello", "hello", 0), ("hello", "hallo", 1), ("", "abc", 3),
    ("kitten", "sitting", 3), ("flaw", "lawn", 2), ("abc", "", 3),
])
def test_levenshtein(s1, s2, d):
    assert sim.levenshtein(s1, s2) == d


def test_levenshtein_norm():
    assert sim.levenshtein_norm("hello", "hello") == 1.0
    assert abs(sim.levenshtein_norm("hello", "hallo") - 0.8) < 1e-9
    assert sim.levenshtein_norm("", "") == 1.0


def test_similarity_dispatch_default_is_one():
    # distance.go:35-36 — Default method returns constant 1.0
    assert sim.similarity("anything", "else", "exact") == 1.0


# ---------------- shingles / minhash ----------------------------------------

def test_shingle_batch_basic():
    arr = pa.array(["abcdef", "abcde", "abcd", "xyz", ""])
    h, c = shingle_batch(arr, k=5)
    assert c.tolist() == [2, 1, 0, 0, 0]
    offs = counts_to_offsets(c)
    # same 5-gram in different docs hashes identically
    assert h[offs[0]] == h[offs[1]]          # "abcde" in doc0 and doc1
    assert h[0] != h[1]


def test_shingle_no_cross_doc_windows():
    # "ab"+"cde" must NOT produce the shingle of "abcde"
    joined, _ = shingle_batch(pa.array(["abcde"]), k=5)
    split, c = shingle_batch(pa.array(["ab", "cde"]), k=5)
    assert c.sum() == 0 and len(split) == 0 and len(joined) == 1


def test_unique_per_doc():
    arr = pa.array(["aaaaaa", "abcdeabcde"])
    h, c = unique_per_doc(*shingle_batch(arr, k=5))
    assert c.tolist() == [1, 5]  # "aaaaa" x2 → 1; 6 grams, 5 distinct


def test_minhash_deterministic_and_accurate():
    rng = np.random.default_rng(7)
    base = "".join(rng.choice(list("abcdefgh"), 500))
    variant = base[:250] + "XXXX" + base[250:]
    arr = pa.array([base, variant, base])
    h, c = shingle_batch(arr, k=5)
    a, b = perm_params(128, seed=1)
    sig = minhash_signatures(h, c, a, b)
    sig2 = minhash_signatures(*shingle_batch(arr, k=5), a, b)
    assert (sig == sig2).all()                       # deterministic
    assert (sig[0] == sig[2]).all()                  # identical docs
    uh, uc = unique_per_doc(h, c)
    offs = counts_to_offsets(uc)
    ua, ub = uh[offs[0]:offs[1]], uh[offs[1]:offs[2]]
    true_j = len(np.intersect1d(ua, ub)) / len(np.union1d(ua, ub))
    est = (sig[0] == sig[1]).mean()     # fraction of equal components
    assert abs(est - true_j) < 0.15                  # 128 perms ⇒ σ≈0.04
    empty_sig = minhash_signatures(*shingle_batch(pa.array(["ab"]), k=5), a, b)
    assert (empty_sig == EMPTY_SIG).all()


def test_band_hashes_collision_semantics():
    a, b = perm_params(128, seed=1)
    arr = pa.array(["abcdefghijklmnop" * 20, "abcdefghijklmnop" * 20, "zzzz" * 100])
    sig = minhash_signatures(*shingle_batch(arr, k=5), a, b)
    bh = band_hashes(sig, 16, 8)
    assert bh.shape == (3, 16)
    assert (bh[0] == bh[1]).all()
    assert not (bh[0] == bh[2]).any()


# ---------------- simhash ----------------------------------------------------

def test_simhash_near_and_far():
    rng = np.random.default_rng(3)
    base = "".join(rng.choice(list("abcdefghij"), 800))
    near = base[:400] + "q" + base[401:]
    far = "".join(rng.choice(list("abcdefghij"), 800))
    h, c = shingle_batch(pa.array([base, near, far]), k=5)
    s = simhash_batch(h, c)
    d_near = hamming64(s[0:1], s[1:2])[0]
    d_far = hamming64(s[0:1], s[2:3])[0]
    assert d_near <= 6 and d_far > 10
    keys, ncombo = simhash_combo_keys(s)
    assert keys.shape == (3, 20) and ncombo == 20
    if d_near <= 3:
        assert (keys[0] == keys[1]).any()            # pigeonhole guarantee
    assert not (keys[0] == keys[2]).any()            # far docs don't collide


# ---------------- suffix array / substring dedup -----------------------------

def test_suffix_array_banana():
    s = np.frombuffer(b"banana", dtype=np.uint8)
    sa = suffix_array(s)
    assert sa.tolist() == [5, 3, 1, 0, 4, 2]
    lcp = lcp_array(s, sa)
    assert lcp.tolist() == [0, 1, 3, 0, 0, 2]


def test_long_repeat_pairs():
    shared = b"x" * 0 + bytes(range(65, 91)) * 10    # 260 distinct-ish bytes
    t1 = b"AAA" + shared + b"BBB"
    t2 = b"CCC" + shared + b"DDD"
    t3 = b"totally different content here" * 5
    a, b = long_repeat_pairs([t1, t2, t3], np.array([10, 20, 30]), min_len=200)
    assert set(zip(a.tolist(), b.tolist())) == {(10, 20)}


def _lcs(x: str, y: str) -> int:
    """Brute-force longest common substring: the classic DP, one numpy row
    per char of x."""
    if not x or not y:
        return 0
    xb = np.frombuffer(x.encode(), np.uint8)
    yb = np.frombuffer(y.encode(), np.uint8)
    prev = np.zeros(len(yb) + 1, np.int64)
    best = 0
    for c in xb:
        cur = np.zeros_like(prev)
        cur[1:] = np.where(yb == c, prev[:-1] + 1, 0)
        best = max(best, int(cur.max()))
        prev = cur
    return best


def _substring_cases(rng, min_len: int):
    """(text_a, text_b, pp) triples covering every route through the
    substring verifier: valid seeds, seeds off the shared run, null and
    out-of-range seeds, a seed on a short run while a long run exists,
    repetitive pairs past the lookup budget, docs shorter than min_len, a
    min_len run at every phase of the sample stride, and runs that touch a
    doc boundary."""
    def rand(n, alpha="abcdefghijklmnopqrstuvwxyz0123456789"):
        return "".join(rng.choice(list(alpha), n))

    def pack(pa_, pb_):
        return (pa_ << 21) | pb_

    cases = []
    for _ in range(60):
        run_len = int(rng.choice([min_len - 1, min_len, min_len + 1,
                                  int(rng.integers(10, 3 * min_len))]))
        alpha = "abc" if rng.random() < 0.3 else \
            "abcdefghijklmnopqrstuvwxyz0123456789"
        run = rand(run_len, alpha)
        pre_a, pre_b = int(rng.integers(0, 150)), int(rng.integers(0, 150))
        ta = rand(pre_a, alpha) + run + rand(int(rng.integers(0, 150)), alpha)
        tb = rand(pre_b, alpha) + run + rand(int(rng.integers(0, 150)), alpha)
        kind = rng.integers(0, 4)
        if kind == 0:                   # seed inside the shared run
            off = int(rng.integers(0, run_len))
            pp = pack(pre_a + off, pre_b + off)
        elif kind == 1:                 # seed whose window differs
            pp = pack(int(rng.integers(0, len(ta))),
                      int(rng.integers(0, len(tb))))
        elif kind == 2:                 # null seed
            pp = None
        else:                           # out-of-range seed
            pp = pack(len(ta) + int(rng.integers(0, 50)), 0)
        cases.append((ta, tb, pp))
    for _ in range(10):                 # seed on a short run, long run elsewhere
        short, long_ = rand(min_len // 2), rand(min_len + 20)
        ta = rand(30) + short + rand(40) + long_ + rand(30)
        tb = rand(50) + long_ + rand(25) + short + rand(10)
        cases.append((ta, tb, pack(30 + 3, 50 + min_len + 20 + 25 + 3)))
    for _ in range(4):                  # repetitive: past the lookup budget
        unit = rand(int(rng.integers(1, 4)), "ab")
        ta = unit * (30 * min_len // len(unit))
        tb = list(unit * (30 * min_len // len(unit)))
        for i in rng.integers(0, len(tb), int(rng.integers(0, 40))):
            tb[i] = "z"
        cases.append((ta, "".join(tb), None))
    for _ in range(6):                  # docs shorter than min_len
        t = rand(int(rng.integers(0, min_len)))
        cases.append((t, t, pack(0, 0)))
    for off in range(min_len):          # a min_len run at every sample phase
        run = rand(min_len)
        cases.append((rand(off) + run + rand(7), rand(11) + run, None))
    # runs of min_len - 1 ending (first pair) and starting (second pair) at
    # a doc boundary, where the neighbouring docs in the batch's byte buffer
    # continue them: a compare that steps past a doc's end reads as a match
    r1, r2 = rand(min_len - 2) + "a", "b" + rand(min_len - 2)
    cases.append(("a" + r1, "b" + r1, pack(1, 1)))
    cases.append((r2 + "a", r2 + "b", pack(min_len - 2, min_len - 2)))
    return cases


@pytest.mark.parametrize("source", ["broadcast", "columns"])
@pytest.mark.parametrize("chunks", ["default", "tiny"])
def test_substring_verifier_matches_lcs_oracle(source, chunks, request,
                                               monkeypatch):
    """SubstringVerifier accepts exactly the pairs whose brute-force longest
    common substring is >= substr_min_len, and reports a common_len that
    is a real common substring of at least that length — through both
    text sources, and with the lookup's byte and compare chunks shrunk to
    a few docs/candidates so every chunk boundary is crossed."""
    from fuzzy_matcher_ray.config import PipelineConfig
    from fuzzy_matcher_ray.stages import verify
    min_len = 40
    cfg = PipelineConfig(substr_min_len=min_len)
    cases = _substring_cases(np.random.default_rng(23), min_len)
    if chunks == "tiny":
        monkeypatch.setattr(verify, "_SUBSTR_CHUNK_BYTES", 700)
        monkeypatch.setattr(verify, "_CMP_CHUNK", 5)
    sa_calls = []
    sa = verify._sa_common_len
    monkeypatch.setattr(verify, "_sa_common_len",
                        lambda a, b: sa_calls.append(1) or sa(a, b))
    texts = {}
    a_ids, b_ids = [], []
    for ta, tb, _pp in cases:
        for t, ids in ((ta, a_ids), (tb, b_ids)):
            ids.append(texts.setdefault(t, 1000 + len(texts)))
    batch = pa.table({"a": pa.array(a_ids, pa.int64()),
                      "b": pa.array(b_ids, pa.int64()),
                      "pp": pa.array([c[2] for c in cases], pa.int64())})
    if source == "broadcast":
        request.getfixturevalue("ray_session")
        from fuzzy_matcher_ray.stages.joins import broadcast_table
        ver = verify.SubstringVerifier(cfg, text_ref=broadcast_table(
            pa.table({"doc_id": list(texts.values()),
                      "norm_text": list(texts)}), "doc_id", ["norm_text"]))
    else:
        ver = verify.SubstringVerifier(cfg)
        batch = batch.append_column("text_a", pa.array([c[0] for c in cases])) \
                     .append_column("text_b", pa.array([c[1] for c in cases]))
    out = ver(batch)
    lcs = {(a, b): _lcs(ta, tb) for a, b, (ta, tb, _) in zip(a_ids, b_ids, cases)}
    expect = {k for k, v in lcs.items() if v >= min_len}
    got = dict(zip(zip(out["a"].to_pylist(), out["b"].to_pylist()),
                   out["common_len"].to_pylist()))
    assert set(got) == expect
    assert all(min_len <= n <= lcs[k] for k, n in got.items())
    assert 0 < len(expect) < len(lcs)
    assert sa_calls                      # the repetitive pairs took the SA path


@pytest.mark.parametrize("verifier", ["jaccard", "substring"])
def test_verifier_rejects_doc_missing_from_broadcast(verifier, ray_session):
    """A pair naming a doc_id the text broadcast lacks raises instead of
    being verified against a neighbouring doc's text."""
    from fuzzy_matcher_ray.config import PipelineConfig
    from fuzzy_matcher_ray.stages.joins import broadcast_table
    from fuzzy_matcher_ray.stages.verify import (JaccardVerifier,
                                                 SubstringVerifier)
    text = "sharedtext" * 40
    ref = broadcast_table(pa.table({"doc_id": [1, 3], "norm_text": [text, text]}),
                          "doc_id", ["norm_text"])
    cfg = PipelineConfig()
    ver = (JaccardVerifier(cfg, text_ref=ref) if verifier == "jaccard"
           else SubstringVerifier(cfg, text_ref=ref))
    assert len(ver(pa.table({"a": [1], "b": [3]}))) == 1
    with pytest.raises(KeyError, match=r"\[2\]"):
        ver(pa.table({"a": [1], "b": [2]}))


# ---------------- fingerprints -----------------------------------------------

def test_content_hash_properties():
    arr = pa.array(["abc", "abd", "abc", "", "acb", "ab", "abc "])
    h = content_hash(arr)
    assert h[0] == h[2]
    assert len(set(h.tolist())) == 6                 # all others distinct
    # deterministic across calls
    assert (content_hash(arr) == h).all()


def test_exact_key_properties():
    arr = pa.array(["abc", "abd", "abc", "", "acb", "ab", "abc ", None])
    h1, h2 = exact_key(arr, seed=7)
    assert h1.dtype == h2.dtype == np.int64 and len(h1) == len(arr)
    keys = list(zip(h1.tolist(), h2.tolist()))
    assert keys[0] == keys[2]                 # equal texts, equal keys
    assert keys[3] == keys[7]                 # a null keys as the empty text
    assert len(set(keys)) == 6                # all other texts distinct
    assert keys[3] != (0, 0)                  # the empty text gets a key
    # the seed keys the hash: another seed gives other keys
    g1, g2 = exact_key(arr, seed=8)
    assert not set(keys) & set(zip(g1.tolist(), g2.tolist()))
    # a slice keys its own rows, deterministic across calls
    s1, s2 = exact_key(arr.slice(2, 3), seed=7)
    assert (s1 == h1[2:5]).all() and (s2 == h2[2:5]).all()
    assert exact_key(pa.array([], pa.string()), seed=7).shape == (2, 0)


def test_winnow_shared_substring_guarantee():
    rng = np.random.default_rng(11)
    shared = "".join(rng.choice(list("abcdefghijklmnop"), 300))
    d1 = "PREFIXONE" + shared + "SUFFIXONE"
    d2 = "zz" + shared + "qq"
    d3 = "".join(rng.choice(list("abcdefghijklmnop"), 300))
    fps, counts, positions = winnow_batch(pa.array([d1, d2, d3]), window=50, winnow=16)
    assert len(positions) == counts.sum()
    offs = counts_to_offsets(counts)
    f1 = set(fps[offs[0]:offs[1]].tolist())
    f2 = set(fps[offs[1]:offs[2]].tolist())
    f3 = set(fps[offs[2]:offs[3]].tolist())
    assert f1 & f2                                    # shared ≥ window+winnow-1
    assert not (f1 & f3)


# ---------------- sketch-kernel oracles --------------------------------------
# Slow reference implementations of the sliding argmin, winnowing, MinHash
# and SimHash kernels. "tiny" shrinks the kernels' chunk / block constants
# so chunk and doc-block boundaries fall inside and between docs.

def _argmin_oracle(h, w):
    """Leftmost argmin of every length-w window, one window at a time."""
    return np.array([i + int(np.argmin(h[i:i + w]))
                     for i in range(h.size - w + 1)], dtype=np.int64)


def _tie_heavy_hashes(rng, n):
    """Periodic arrays over a few values, so most windows hold tied minima."""
    period = int(rng.integers(1, 9))
    base = rng.integers(0, int(rng.integers(1, 4)), period).astype(np.uint64)
    return np.resize(base, n) + np.uint64(2**63)


@pytest.fixture(params=["default", "tiny"])
def sketch_blocks(request, monkeypatch):
    from fuzzy_matcher_ray.functions import fingerprint, shingle
    if request.param == "tiny":
        monkeypatch.setattr(fingerprint, "_ARGMIN_CHUNK", 5)
        monkeypatch.setattr(shingle, "DOC_BLOCK_SHINGLES", 7)
    return request.param


def test_sliding_argmin_matches_oracle(sketch_blocks):
    """Leftmost window argmins on tie-heavy periodic and random arrays, for
    windows of one power of two, several set bits (72 = 64 + 8), the whole
    array, and past 256 (the 16-bit index type)."""
    from fuzzy_matcher_ray.functions.fingerprint import _sliding_argmin
    rng = np.random.default_rng(31)
    for trial in range(60):
        n = int(rng.integers(1, 300))
        h = (_tie_heavy_hashes(rng, n) if trial % 3 else
             rng.integers(0, 2**64, n, dtype=np.uint64))
        for w in {1, 2, 8, min(72, n), n, int(rng.integers(1, n + 1))}:
            assert (_sliding_argmin(h, w) == _argmin_oracle(h, w)).all(), (n, w)
    h = np.full(600, 7, dtype=np.uint64)             # one long all-tie run
    assert (_sliding_argmin(h, 72) == np.arange(529)).all()


def _winnow_oracle(texts, window, winnow):
    """Per doc: the argmin of every winnow-window (or of the whole doc when
    it has fewer hashes), distinct by value keeping the lowest position,
    sorted by value."""
    fps, counts, positions = [], [], []
    for t in texts:
        h, _ = shingle_batch(pa.array([t], pa.string()), k=window, seed=0x51A3)
        sel = (_argmin_oracle(h, winnow) if h.size >= winnow else
               np.array([int(np.argmin(h))]) if h.size else np.empty(0, int))
        first = {}
        for p in sel.tolist():
            first.setdefault(int(h[p]), p)
        counts.append(len(first))
        for fp in sorted(first):
            fps.append(fp)
            positions.append(first[fp])
    return (np.array(fps, dtype=np.uint64), np.array(counts, dtype=np.int64),
            np.array(positions, dtype=np.int64))


def test_winnow_batch_matches_oracle(sketch_blocks):
    """winnow_batch == per-doc oracle over empty, null, one-hash, shorter-
    than-winnow, periodic (tie-heavy) and random docs in one batch."""
    rng = np.random.default_rng(37)
    window, winnow = 4, 9
    for _ in range(12):
        texts = []
        for _ in range(int(rng.integers(1, 25))):
            kind = int(rng.integers(0, 5))
            if kind == 0:
                texts.append(rng.choice(["", None, "abc"]))  # no hashes
            elif kind == 1:                                  # 1..winnow-1 hashes
                texts.append("".join(rng.choice(list("ab"), int(
                    rng.integers(window, window + winnow - 1)))))
            elif kind == 2:                                  # periodic
                texts.append("".join(rng.choice(list("xyz"), int(
                    rng.integers(1, 4)))) * int(rng.integers(2, 40)))
            else:
                texts.append("".join(rng.choice(list("abcdefgh"), int(
                    rng.integers(0, 200)))))
        got = winnow_batch(pa.array(texts, pa.string()), window, winnow)
        want = _winnow_oracle(texts, window, winnow)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and (g == w).all()


def _sketch_cases(rng):
    """(hashes, counts) batches: empty and one-shingle docs, tie-heavy and
    random hashes, and one doc longer than a default doc block."""
    cases = []
    for trial in range(8):
        counts = rng.integers(0, 40, int(rng.integers(1, 30)))
        counts[rng.random(counts.size) < 0.2] = 0
        counts[rng.random(counts.size) < 0.2] = 1
        n = int(counts.sum())
        h = (_tie_heavy_hashes(rng, n) if trial % 2 else
             rng.integers(0, 2**64, n, dtype=np.uint64))
        cases.append((h, counts.astype(np.int64)))
    cases.append((rng.integers(0, 2**64, 70_000, dtype=np.uint64),
                  np.array([0, 70_000, 0], dtype=np.int64)))
    return cases


def test_minhash_signatures_match_oracle(sketch_blocks):
    """Every signature entry == min over the doc of a*h + b (mod 2^64),
    one permutation and one doc at a time; zero-shingle docs stay
    EMPTY_SIG."""
    a, b = perm_params(16, seed=3)
    for h, counts in _sketch_cases(np.random.default_rng(41)):
        offs = counts_to_offsets(counts)
        want = np.full((len(counts), len(a)), EMPTY_SIG, dtype=np.uint64)
        for d in range(len(counts)):
            seg = h[offs[d]:offs[d + 1]]
            if seg.size:
                for j in range(len(a)):
                    want[d, j] = (seg * a[j] + b[j]).min()
        assert (minhash_signatures(h, counts, a, b) == want).all()


def test_simhash_batch_matches_oracle(sketch_blocks):
    """Bit j of each simhash is set iff more than half the doc's shingle
    hashes have bit j set (per-bit popcount sums); zero-shingle docs get 0."""
    for h, counts in _sketch_cases(np.random.default_rng(43)):
        offs = counts_to_offsets(counts)
        want = np.zeros(len(counts), dtype=np.uint64)
        for d in range(len(counts)):
            seg = h[offs[d]:offs[d + 1]]
            for j in range(64):
                ones = int(((seg >> np.uint64(j)) & np.uint64(1)).sum())
                if 2 * ones > seg.size:
                    want[d] |= np.uint64(1) << np.uint64(j)
        got = simhash_batch(h, counts)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()


# ---------------- Jaccard intersection kernel -------------------------------

def _intersection_case(seed: int):
    """Per-doc sorted-unique uint64 sets and pairs that reach every branch
    of ``segmented_intersection_counts``, in shuffled order.

    Docs 0-1 are empty, 2-7 tiny or large; 8 is a star anchor with 40
    partners. Anchors 20, 21 and 22 have three partners each, two of them
    copies of the other two anchors' sets, so a mask left set by any
    earlier group overcounts a later one. Docs 32+ form a chain of
    single-partner groups. Then self pairs, repeated and reversed pairs,
    empty sets as anchor, partner and single, and very unequal sizes."""
    rng = np.random.default_rng(seed)
    sizes = [0, 0, 1, 2, 5, 450, 580, 3] + rng.integers(0, 300, 92).tolist()
    # values spread over the whole uint64 range (int64-negative too),
    # drawn from 600 so that sets overlap
    mult = np.uint64(0x9E3779B97F4A7C15)
    sets = [np.sort(rng.choice(600, size=s, replace=False).astype(np.uint64)
                    * mult) for s in sizes]
    n_docs = len(sets)
    pairs = [(8, int(d)) for d in rng.choice(np.arange(32, n_docs), 40,
                                              replace=False)]
    for i, anchor in enumerate((20, 21, 22)):
        copy_a, copy_b, fresh = 23 + 3 * i, 24 + 3 * i, 25 + 3 * i
        sets[copy_a], sets[copy_b] = [sets[o].copy()
                                      for o in (20, 21, 22) if o != anchor]
        pairs += [(anchor, copy_a), (copy_b, anchor), (anchor, fresh)]
    pairs += [(i, i + 1) for i in range(32, n_docs - 1)]
    pairs += [(5, 5), (11, 11), (0, 0), (3, 40), (3, 40), (40, 3)]
    pairs += [(0, d) for d in range(4, 8)] + [(6, 1), (1, 2)]
    pairs += [(4, 6), (3, 6), (6, 3), (2, 5)]
    pairs = np.array(pairs, dtype=np.int64)[rng.permutation(len(pairs))]
    uh = np.concatenate(sets)
    uc = np.array([len(x) for x in sets], dtype=np.int64)
    want = [len(set(sets[a].tolist()) & set(sets[b].tolist())) for a, b in pairs]
    return uh, uc, pairs[:, 0].copy(), pairs[:, 1].copy(), want


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_segmented_intersection_counts_matches_set_oracle(seed):
    uh, uc, ia, ib, want = _intersection_case(seed)
    assert segmented_intersection_counts(uh, uc, ia, ib).tolist() == want
    # the same pairs reversed put the other endpoint first
    assert segmented_intersection_counts(uh, uc, ib, ia).tolist() == want


def test_segmented_intersection_counts_degenerate():
    none = np.zeros(0, dtype=np.int64)
    uc = np.array([0, 0, 0], dtype=np.int64)
    ia, ib = np.array([0, 1, 2, 0]), np.array([1, 2, 2, 0])
    assert segmented_intersection_counts(np.zeros(0, np.uint64), uc,
                                         ia, ib).tolist() == [0] * 4
    uh = np.array([3, 9], dtype=np.uint64)
    assert segmented_intersection_counts(uh, np.array([2]), none,
                                         none).tolist() == []


# ---------------- union-find -------------------------------------------------

def test_connected_components():
    ea = np.array([1, 2, 10, 11, 5])
    eb = np.array([2, 3, 11, 12, 5])
    nodes, labels = connected_components(ea, eb, nodes=np.array([1, 2, 3, 5, 10, 11, 12, 99]))
    lab = dict(zip(nodes.tolist(), labels.tolist()))
    assert lab[1] == lab[2] == lab[3] == 1
    assert lab[10] == lab[11] == lab[12] == 10
    assert lab[5] == 5 and lab[99] == 99


def test_batched_kernels_match_scalar():
    """similarity.py batched padded-matrix kernels ≡ scalar kernels on
    randomized inputs (the entity-match verifier depends on exact parity)."""
    import random

    from fuzzy_matcher_ray.functions.similarity import (
        jaro_winkler, jaro_winkler_batch, levenshtein, levenshtein_batch,
        levenshtein_norm, levenshtein_norm_batch)
    rng = random.Random(17)
    alpha = "abcdefgh01"
    def rs():
        return "".join(rng.choice(alpha) for _ in range(rng.randrange(0, 14)))
    a = [rs() for _ in range(500)] + ["", "john", "ben", "smith", "x"]
    b = [rs() for _ in range(500)] + ["", "john", "benjamin", "", "x"]
    jw = jaro_winkler_batch(a, b)
    lv = levenshtein_batch(a, b)
    ln = levenshtein_norm_batch(a, b)
    for i, (x, y) in enumerate(zip(a, b)):
        assert abs(jaro_winkler(x, y) - jw[i]) < 1e-12, (x, y)
        assert abs(levenshtein(x, y) - lv[i]) < 1e-12, (x, y)
        assert abs(levenshtein_norm(x, y) - ln[i]) < 1e-12, (x, y)


def test_confusable_levenshtein_costs():
    import numpy as np

    from fuzzy_matcher_ray.functions.normalize import confusable_table
    from fuzzy_matcher_ray.functions.similarity import levenshtein_batch
    ct = confusable_table()
    # symmetric pairs from the reference table (recurse.go:7-32)
    assert ct[ord("c"), ord("e")] and ct[ord("e"), ord("c")]
    assert ct[ord("0"), ord("o")] and ct[ord("o"), ord("0")]
    assert not ct[ord("c"), ord("b")]
    d = levenshtein_batch(["vase", "abc"], ["uase", "xbc"], ct, 0.25)
    assert d[0] == 0.25          # v↔u confusable
    assert d[1] == 1.0           # a↔x is not


def test_tune_lsh_picks_config_default_at_flagship_threshold():
    """(bands, rows) = (16, 8) at 128 perms and threshold 0.8 — the
    BASELINE.json signature config must be the tuner's own optimum, and
    PipelineConfig must agree (drift in any of the three fails here)."""
    from fuzzy_matcher_ray.config import PipelineConfig
    from fuzzy_matcher_ray.functions.minhash import (lsh_collision_prob,
                                                     tune_lsh)
    cfg = PipelineConfig()
    b, r, diag = tune_lsh(cfg.jaccard_threshold, num_perms=cfg.num_perms)
    assert (b, r) == (cfg.bands, cfg.rows_per_band) == (16, 8)
    assert diag["p_at_threshold"] == lsh_collision_prob(0.8, 16, 8)
    assert diag["p_at_threshold"] > 0.9          # recall-side of the curve


def test_tune_lsh_monotone_and_bounds():
    """Higher thresholds prefer more rows per band (sharper curves
    further right); risk integrand areas are valid probabilities."""
    from fuzzy_matcher_ray.functions.minhash import tune_lsh
    rows_picked = [tune_lsh(t)[1] for t in (0.3, 0.5, 0.8, 0.9)]
    assert rows_picked == sorted(rows_picked)
    for t in (0.3, 0.9):
        b, r, d = tune_lsh(t)
        assert b * r == 128
        assert 0 <= d["fp_area"] <= 1 and 0 <= d["fn_area"] <= 1
    import pytest
    with pytest.raises(ValueError):
        tune_lsh(1.0)
