"""Span/line dedup tier (pipelines/webtext) — planted-boilerplate oracle.

The SQL-parity check for token-span mode lives in test_entry_contract
(`span_dedup` oracle); here we pin the newline-line mode's semantics on a
corpus with planted boilerplate, plus the explode kernel's invariants.
"""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from fuzzy_matcher_ray.pipelines.webtext import (SpanExploder, _token_ngrams,
                                                 canonical_url, dedup_by_url,
                                                 dedup_spans, line_dedup)

BOILER = "cookie notice accept all"
DOCS = [
    (0, f"{BOILER}\nalpha unique first\ncommon footer"),
    (1, f"{BOILER}\nbeta unique second\ncommon footer"),
    (2, "gamma unique third"),
    (3, f"{BOILER}\ncommon footer"),          # loses everything
    (4, f"delta unique fourth\n{BOILER}"),
]


def _brute_line_dedup(docs):
    """O(total lines) reference: keep each line at its first (doc, ln)."""
    seen = set()
    out = {}
    for doc_id, text in sorted(docs):
        kept = []
        for line in text.split("\n"):
            if line not in seen:
                seen.add(line)
                kept.append(line)
        if kept:
            out[doc_id] = "\n".join(kept)
    return out


def test_line_dedup_planted_boilerplate(ray_session):
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in DOCS], pa.int64()),
        "text": pa.array([t for _, t in DOCS]),
    }))
    got = {r["doc_id"]: r["kept_text"] for r in line_dedup(ds).take_all()}
    assert got == _brute_line_dedup(DOCS)
    # the fully-boilerplate doc is gone; first doc keeps everything
    assert 3 not in got
    assert got[0] == DOCS[0][1]


def test_span_dedup_reconstructs_unique_docs(ray_session):
    texts = [f"w{i}a w{i}b w{i}c w{i}d w{i}e" for i in range(20)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(20), pa.int64()),
        "text": pa.array(texts),
    }))
    out = {r["doc_id"]: r["kept_text"]
           for r in dedup_spans(ds, span_tokens=3).take_all()}
    assert out == dict(enumerate(texts))    # nothing shared -> identity


def test_few_row_span_dedup_rebuilds_on_the_driver(ray_session):
    """A few-row ``dedup_spans``, collected, starts 2 Dataset executions
    (the winner groupby and the pin of the kept rows): the rebuild's
    ``map_segments`` sizes its lazy input off the plan and runs on the
    driver. While a lazy input always took the range sort (a sort and a
    boundary execution, then the interior map), it started 4."""
    from test_flagship_plan import ExecutionCounter

    from fuzzy_matcher_ray.stages.joins import collect_table
    texts = ["a b c d e f", "a b c x y z", "q r s a b c", None, ""]
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(range(5), pa.int64()),
                                 "text": pa.array(texts)}))
    with ExecutionCounter().installed() as counter:
        out = collect_table(dedup_spans(ds, span_tokens=3))
    assert counter.count == 2
    assert out.sort_by("doc_id").to_pylist() == [
        {"doc_id": 0, "kept_text": "a b c d e f"},
        {"doc_id": 1, "kept_text": "x y z"},
        {"doc_id": 2, "kept_text": "q r s"},
        {"doc_id": 4, "kept_text": ""}]


def test_canonical_url_kernel():
    cases = {
        "https://WWW.Example.com/Path/?utm=1#frag": "example.com/path",
        "http://example.com/path": "example.com/path",
        "example.com/path/": "example.com/path",
        "https://sub.example.com/a/b": "sub.example.com/a/b",
        "HTTPS://example.com": "example.com",
        "": "",
    }
    got = canonical_url(pa.array(list(cases))).to_pylist()
    assert got == list(cases.values())


def test_dedup_by_url_latest_crawl_wins(ray_session):
    big = 3 << 40                                    # ids beyond 32 bits
    rows = [  # (doc_id, url, ts_us)
        (big + 1, "https://a.com/x", 100),
        (big + 2, "http://www.A.com/x/", 300),       # same canon, latest
        (big + 3, "https://a.com/x?utm=2", 200),
        (5, "https://b.com", 50),
        (9, "https://b.com/", 50),                   # ts tie -> max doc_id
        (7, "https://c.com/only", 10),
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "url": pa.array([r[1] for r in rows]),
        "warc_ts": pa.array([r[2] for r in rows],
                            pa.timestamp("us")),
    }))
    got = {r["canon_url"]: r["doc_id"] for r in dedup_by_url(ds).take_all()}
    assert got == {"a.com/x": big + 2, "b.com": 9, "c.com/only": 7}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_token_ngrams_brute(n):
    texts = ["a b c d", "x", "", "p q", "one two three four five"]
    grams, doc_of = _token_ngrams(pa.array(texts), n)
    got = {}
    for g, d in zip(grams.to_pylist(), doc_of):
        got.setdefault(int(d), []).append(g)
    for d, text in enumerate(texts):
        toks = text.split(" ")
        want = [" ".join(toks[j:j + n]) for j in range(len(toks) - n + 1)]
        assert got.get(d, []) == want


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _texts = st.lists(st.text(alphabet=" \nabc", max_size=40), min_size=1,
                      max_size=8)

    @settings(max_examples=60, deadline=None)
    @given(_texts, st.integers(1, 4))
    def test_exploder_roundtrip_property(texts, w):
        t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts)})
        for ex in (SpanExploder(w, "\n"), SpanExploder(None, "\n")):
            out = ex(t)
            ids = out["doc_id"].to_numpy()
            lines = out["line"].to_pylist()
            for d, text in enumerate(texts):
                segs = [lines[i] for i in np.nonzero(ids == d)[0]]
                assert ex.joiner.join(segs) == text

    @settings(max_examples=60, deadline=None)
    @given(_texts, st.integers(1, 4))
    def test_token_ngrams_property(texts, n):
        grams, doc_of = _token_ngrams(pa.array(texts), n)
        by_doc = {}
        for g, d in zip(grams.to_pylist(), doc_of):
            by_doc.setdefault(int(d), []).append(g)
        for d, text in enumerate(texts):
            toks = text.split(" ")
            want = [" ".join(toks[j:j + n])
                    for j in range(len(toks) - n + 1)]
            assert by_doc.get(d, []) == want
except ImportError:                                    # pragma: no cover
    pass


@pytest.mark.parametrize("span_tokens,pattern", [(3, "\n"), (None, "\n")])
def test_exploder_partitions_text(span_tokens, pattern):
    """Explode invariants: spans tile each doc; joiner.join(spans) == text;
    pack strictly increasing within a doc."""
    texts = ["a b c d e f g", "", "x", "one two\nthree", "p q\n\nr"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    ex = SpanExploder(span_tokens, pattern)
    out = ex(t)
    ids = out["doc_id"].to_numpy()
    ln = out["ln"].to_numpy()
    lines = out["line"].to_pylist()
    pack = out["pack"].to_numpy()
    for d, text in enumerate(texts):
        mask = ids == d
        segs = [lines[i] for i in np.nonzero(mask)[0]]
        assert ex.joiner.join(segs) == text
        assert list(ln[mask]) == list(range(mask.sum()))
        assert (np.diff(pack[mask]) > 0).all()
    assert (pack == (ids.astype(np.int64) << 32 | ln)).all()


def test_redact_text_planted_pii_and_duckdb_parity():
    """Planted emails / IPs / phone runs: the Ray kernel redacts them, and
    DuckDB applying the SAME pattern constants produces byte-identical
    output (the real parity guarantee — the driver corpus has no PII)."""
    import duckdb

    from fuzzy_matcher_ray.pipelines.webtext import PII_PATTERNS, redact_text
    texts = [
        "contact john.doe+spam@ex-ample.co.uk today",
        "server at 192.168.0.1 and 8.8.8.8 responded",
        "call +1 (555) 123-4567 or (555)123-4567 now",
        "mixed a@b.io on 10.0.0.254 dial 555-123-9876",
        "no pii here at all",
        "",
        # the conservative phone rule must NOT eat dates/decimals/versions
        "released 2026-08-17, pi 3.14159, v1.2.3-400.5, order 5551234567",
        None,
    ]
    got = redact_text(pa.array(texts, pa.string())).to_pylist()
    assert "<EMAIL>" in got[0] and "@" not in got[0]
    assert got[1].count("<IP>") == 2
    assert got[2].count("<PHONE>") == 2 and "555" not in got[2]
    assert "<EMAIL>" in got[3] and "<IP>" in got[3] and "<PHONE>" in got[3]
    assert got[4] == texts[4] and got[5] == ""
    assert got[6] == texts[6]      # benign numbers untouched
    assert got[7] is None          # nulls propagate (SQL parity)
    expr = "t"
    for pat, tok in PII_PATTERNS:
        expr = f"regexp_replace({expr}, '{pat}', '{tok}', 'g')"
    con = duckdb.connect()
    oracle = [r[0] for r in con.execute(
        f"SELECT {expr} FROM (SELECT unnest(?) AS t)", [texts]).fetchall()]
    con.close()
    assert got == oracle


def test_chunk_documents_shapes(ray_session):
    """Chunking covers every token exactly once, in order."""
    from fuzzy_matcher_ray.pipelines.webtext import chunk_documents
    sf = "/root/testdata/sf0.001"
    out = chunk_documents(sf, chunk_tokens=7).to_pandas()
    import ray.data as rd
    docs = rd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "text"]).to_pandas()
    joined = out.groupby("doc_id")["chunk_text"].apply(" ".join)
    for did, text in zip(docs.doc_id, docs.text):
        assert joined[did] == text


def test_new_ops_degenerate_inputs(ray_session, tmp_path):
    """Empty and null-text documents tables through chunk/redact/shuffle:
    no crashes, and null semantics match the SQL oracles (null text ⇒ no
    chunks; null clean_text; rank only over existing rows)."""
    import duckdb
    import pyarrow.parquet as pq

    from fuzzy_matcher_ray.pipelines.textops import shuffle_epoch
    from fuzzy_matcher_ray.pipelines.webtext import chunk_documents, redact_pii

    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    pq.write_table(pa.table({"doc_id": pa.array([], pa.int64()),
                             "text": pa.array([], pa.string())}),
                   str(empty_dir / "documents.parquet"))
    assert shuffle_epoch(str(empty_dir)).count() == 0
    assert chunk_documents(str(empty_dir)).count() == 0
    assert redact_pii(str(empty_dir)).count() == 0

    null_dir = tmp_path / "nulls"
    null_dir.mkdir()
    pq.write_table(pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                             "text": pa.array(["a b c", None, ""],
                                              pa.string())}),
                   str(null_dir / "documents.parquet"))
    chunks = chunk_documents(str(null_dir), chunk_tokens=2).to_pandas()
    assert set(chunks.doc_id) == {1, 3}          # null doc dropped (SQL parity)
    red = redact_pii(str(null_dir)).to_pandas()
    assert red.clean_text.tolist()[:1] == ["a b c"]
    assert red.clean_text.isna().tolist() == [False, True, False]


def test_span_rebuild_block_boundaries(ray_session):
    """The vectorized rebuild (sort-on-pack + per-block segmented
    binary_join) must be exact when doc rows straddle block edges: force
    many input blocks so the sorted explode splits docs mid-block, and
    compare against a driver-side pandas oracle."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.webtext import dedup_spans

    rng = np.random.default_rng(3)
    vocab = ["alpha", "beta", "gamma", "delta"]
    texts, ids = [], []
    for i in range(120):
        # long docs (many spans each) with heavy cross-doc span repetition
        toks = [vocab[int(x)] for x in rng.integers(0, 4, 40)]
        texts.append(" ".join(toks))
        ids.append(i)
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts)})).repartition(16)
    got = dedup_spans(docs, span_tokens=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)

    # oracle: global first-occurrence per span, rebuild in (doc, ln) order
    seen, want = {}, {}
    for i, t in zip(ids, texts):
        toks = t.split(" ")
        for ln in range(0, -(-len(toks) // 3)):
            span = " ".join(toks[ln * 3:(ln + 1) * 3])
            if span not in seen:
                seen[span] = (i, ln)
    for span, (i, ln) in seen.items():
        want.setdefault(i, []).append((ln, span))
    import pandas as pd
    exp = pd.DataFrame(
        [(i, " ".join(s for _, s in sorted(v))) for i, v in want.items()],
        columns=["doc_id", "kept_text"]).sort_values("doc_id") \
        .reset_index(drop=True)
    assert got.equals(exp)


# --- Misra–Gries heavy-hitters sketch vs the exact anchor ---------------

SF_SMOKE = "/root/testdata/sf0.001"


def _exact_gram_counts(gram_n=2):
    """Driver-side exact corpus bigram counts (the truth table)."""
    import collections

    import pyarrow.parquet as pq
    texts = pq.read_table(f"{SF_SMOKE}/documents.parquet",
                          columns=["text"])["text"].to_pylist()
    c = collections.Counter()
    for t in texts:
        if not t:
            continue
        toks = t.split(" ")
        for i in range(len(toks) - gram_n + 1):
            c[" ".join(toks[i:i + gram_n])] += 1
    return c


def test_top_ngrams_sketch_exact_when_counters_large(ray_session):
    from fuzzy_matcher_ray.pipelines.webtext import (top_ngrams,
                                                     top_ngrams_sketch)
    exact = top_ngrams(SF_SMOKE, k=20).to_pandas()
    sk = top_ngrams_sketch(SF_SMOKE, k=20, counters=10**6).to_pandas()
    assert (sk["err_bound"] == 0).all()
    assert list(sk["gram"]) == list(exact["gram"])
    assert list(sk["n_approx"]) == list(exact["n"])


def test_top_ngrams_sketch_bound_holds(ray_session):
    from fuzzy_matcher_ray.pipelines.webtext import top_ngrams_sketch
    truth = _exact_gram_counts()
    # tiny counter budget → real compression, bound must still hold
    sk = top_ngrams_sketch(SF_SMOKE, k=10**6, counters=8).to_pandas()
    err = int(sk["err_bound"].iloc[0])
    assert err > 0  # the budget actually compressed something
    for gram, n_approx in zip(sk["gram"], sk["n_approx"]):
        t = truth[gram]
        assert n_approx <= t <= n_approx + err, (gram, n_approx, t, err)
    # mergeable-summaries guarantee: every gram with true count > err
    # is present in the sketch support
    support = set(sk["gram"])
    missing = [g for g, n in truth.items() if n > err and g not in support]
    assert not missing, missing[:5]


def test_decontaminate_bloom_one_sided(ray_session):
    """Bloom survivors ⊆ exact survivors (false positives only: the filter
    may over-drop, never keeps a contaminated doc), and at default sizing
    the over-drop is negligible. A degenerate 1-bit/1-probe filter still
    keeps the subset property while visibly over-dropping."""
    from fuzzy_matcher_ray.pipelines.webtext import (decontaminate,
                                                     decontaminate_bloom)

    sf = "/root/testdata/sf0.001"
    exact = set(decontaminate(sf).to_pandas().doc_id)
    bloom = set(decontaminate_bloom(sf).to_pandas().doc_id)
    assert bloom <= exact
    # default 16 bits/gram + 8 probes: fp ~6e-4 per gram; a doc needs >=5
    # FP grams to be wrongly dropped — expect (near-)zero over-drop
    assert len(bloom) >= 0.99 * len(exact)

    tiny = set(decontaminate_bloom(sf, bits_per_gram=1, k=1)
               .to_pandas().doc_id)
    assert tiny <= exact


def test_bloom_kernels_exactness():
    """Membership is exact for inserted keys (no false negatives), and the
    FP rate of a correctly-sized filter stays near theory."""
    import numpy as np

    from fuzzy_matcher_ray.pipelines.webtext import (_bloom_build,
                                                     _bloom_params,
                                                     _bloom_test)

    rng = np.random.default_rng(7)
    keys = rng.integers(0, 2**63, size=20_000, dtype=np.int64) \
        .astype(np.uint64)
    others = rng.integers(0, 2**63, size=20_000, dtype=np.int64) \
        .astype(np.uint64)
    others = others[~np.isin(others, keys)]
    n_bits = _bloom_params(len(keys), 16)
    bits = _bloom_build(keys, n_bits, 8)
    assert _bloom_test(bits, keys, 8).all()          # no false negatives
    fp = _bloom_test(bits, others, 8).mean()
    assert fp < 0.005                                 # theory ~6e-4


def test_hll_kernel_error_bound():
    """Register-level: estimate within 3σ (σ = 1.04/√m) across three
    magnitudes, and merging split register sets == one-pass registers."""
    import numpy as np

    from fuzzy_matcher_ray.pipelines.webtext import (_hll_estimate,
                                                     _hll_registers)

    p = 14
    rng = np.random.default_rng(11)
    for n in (500, 20_000, 400_000):
        h = rng.integers(0, 2**63, size=n, dtype=np.int64).astype(np.uint64)
        h = np.unique(h)
        est = _hll_estimate(_hll_registers(h, p))
        sigma = 1.04 / np.sqrt(1 << p)
        assert abs(est - len(h)) / len(h) < 3 * sigma, (n, est)
        # mergeability: max of split halves == one pass
        a = _hll_registers(h[: n // 2], p)
        b = _hll_registers(h[n // 2:], p)
        assert np.array_equal(np.maximum(a, b), _hll_registers(h, p))


def test_distinct_ngrams_hll_vs_exact(ray_session):
    """Pipeline-level: HLL estimate within 3σ of the exact distinct
    trigram count of the documents table."""
    import duckdb
    import numpy as np

    from fuzzy_matcher_ray.pipelines.webtext import distinct_ngrams_hll

    sf = "/root/testdata/sf0.001"
    est = distinct_ngrams_hll(sf).to_pandas().n_distinct_est[0]
    con = duckdb.connect()
    exact = con.execute(f"""
        WITH toks AS (
            SELECT doc_id, unnest(string_split(coalesce(text, ''), ' '))
                       AS tok,
                   generate_subscripts(string_split(coalesce(text, ''), ' '),
                                       1) AS pos
            FROM read_parquet('{sf}/documents.parquet')),
        grams AS (
            SELECT a.tok || ' ' || b.tok || ' ' || c.tok AS g
            FROM toks a
            JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
            JOIN toks c ON a.doc_id = c.doc_id AND c.pos = a.pos + 2)
        SELECT count(DISTINCT g) FROM grams""").fetchone()[0]
    con.close()
    sigma = 1.04 / np.sqrt(1 << 14)
    assert abs(est - exact) / exact < 3 * sigma, (est, exact)


def test_url_host_kernel():
    from fuzzy_matcher_ray.pipelines.webtext import url_host
    urls = pa.array([
        "https://WWW.Example.COM/a/b?q=1#f",   # scheme+www+path noise
        "http://example.com",                  # bare host
        "https://a.b.example.org:8080/x",      # port kept verbatim
        "ftp://files.example.net/pub/",        # any scheme strips
        "example.com/already/bare",            # scheme-less input
        None,                                  # null → empty string
    ])
    assert url_host(urls).to_pylist() == [
        "example.com", "example.com", "a.b.example.org:8080",
        "files.example.net", "example.com", ""]


def test_filter_blocked_hosts_planted(ray_session):
    from fuzzy_matcher_ray.pipelines.webtext import (filter_blocked_hosts,
                                                     url_host)
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "url": pa.array(["https://bad.example.com/x",
                         "https://WWW.BAD.EXAMPLE.COM/y?q=1",  # same host
                         "https://good.example.com/z",
                         "http://also-good.org"]),
    })
    kept = filter_blocked_hosts(rd.from_arrow(t), ["bad.example.com"]) \
        .to_pandas().sort_values("doc_id")
    assert kept.doc_id.tolist() == [3, 4]
    # every surviving host is off the blocklist
    assert "bad.example.com" not in set(
        url_host(pa.array(kept.url.tolist())).to_pylist())


def test_host_aggregate_partials_vs_duckdb(ray_session):
    import duckdb

    from fuzzy_matcher_ray.pipelines.webtext import host_aggregate
    rng = np.random.default_rng(3)
    hosts = [f"h{i}.example.com" for i in range(7)]
    n = 500
    pick = rng.integers(0, len(hosts), n)
    chars = rng.integers(1, 1000, n)
    t = pa.table({
        "url": pa.array([f"https://{hosts[i]}/p/{j}"
                         for j, i in enumerate(pick)]),
        "n_chars": pa.array(chars, pa.int64()),
    })
    # many small blocks so per-batch partials actually merge in the groupby
    got = host_aggregate(rd.from_arrow(t).repartition(13)) \
        .to_pandas().sort_values("host").reset_index(drop=True)
    want = duckdb.sql(
        "SELECT regexp_replace(regexp_replace(url, '^https://', ''),"
        "                      '/.*$', '') AS host,"
        "       count(*)::BIGINT AS n_docs, sum(n_chars)::BIGINT AS n_chars "
        "FROM t GROUP BY host ORDER BY host").df()
    assert got.host.tolist() == want.host.tolist()
    assert got.n_docs.tolist() == want.n_docs.tolist()
    assert got.n_chars.tolist() == want.n_chars.tolist()


def test_compression_ratio_exact_recompute(ray_session, tmp_path):
    import zlib

    import pyarrow.parquet as pq

    from fuzzy_matcher_ray.pipelines.webtext import compression_ratio
    texts = ["spam spam spam spam spam spam spam spam",
             "j8#kQz!m3@Xv9&wL2^pR5*tY7(bN4)cD6",
             "a perfectly ordinary english sentence about weather",
             None, ""]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = compression_ratio(str(tmp_path)).to_pandas()
    assert out.doc_id.tolist() == list(range(len(texts)))
    for i, s in enumerate(texts):
        b = (s or "").encode("utf-8")
        assert out.n_bytes[i] == len(b)
        comp = len(zlib.compress(b, 6)) if b else 0
        assert out.n_compressed[i] == comp
        want = int(np.floor(comp / len(b) * 1e6 + 0.5)) if b else 0
        assert out.ratio_e6[i] == want
    # repetitive boilerplate compresses better than random-ish glyphs
    assert out.ratio_e6[0] < out.ratio_e6[2] < out.ratio_e6[1]


def test_cap_per_host_planted(ray_session):
    from fuzzy_matcher_ray.pipelines.webtext import cap_per_host
    # host A: 4 docs (lengths 10,30,30,20) — keep 30@min-id and 30
    # host B: 1 doc — kept; host C: 2 equal-length docs — both kept, id order
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
        "url": pa.array(["https://a.com/1", "https://a.com/2",
                         "https://WWW.A.COM/3", "https://a.com/4",
                         "https://b.com/1", "https://c.com/1",
                         "https://c.com/2"]),
        "n_chars": pa.array([10, 30, 30, 20, 7, 5, 5], pa.int64()),
    })
    # many tiny blocks so the per-batch partial + per-group merge both run
    out = cap_per_host(rd.from_arrow(t).repartition(5), k=2).to_pandas() \
        .sort_values(["host", "doc_id"]).reset_index(drop=True)
    got = list(map(tuple, out[["host", "doc_id", "n_chars"]].to_numpy()))
    assert got == [("a.com", 2, 30), ("a.com", 3, 30), ("b.com", 5, 7),
                   ("c.com", 6, 5), ("c.com", 7, 5)]


def test_normalize_nfc_composes(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import unicodedata

    from fuzzy_matcher_ray.pipelines.textops import normalize_nfc
    texts = ["hello", None, ""]
    tbl = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                    "text": pa.array(texts, pa.string())})
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = normalize_nfc(str(tmp_path)).to_pandas()
    # every synthesized decomposed suffix composed: changed == 1 everywhere
    assert out.changed.tolist() == [1, 1, 1]
    for s in out.nfc_text:
        assert unicodedata.is_normalized("NFC", s)
        assert s[-1] in ("é", "à")   # precomposed é / à
    # regression guard for the vendored kernel: if pyarrow's utf8_normalize
    # ever starts composing, the unicodedata path can be retired
    import pyarrow.compute as pc
    broken = pc.utf8_normalize(pa.array(["é"]),
                               form="NFC").to_pylist()[0]
    assert broken in ("é", "é")


def test_quality_prune_ties_included(ray_session, tmp_path):
    """Threshold semantics: keep score >= the k-th largest (k=ceil(n/2)),
    TIES INCLUDED — an all-equal corpus keeps every doc, and a planted
    half-split keeps exactly the good half."""
    import pyarrow.parquet as pq

    from fuzzy_matcher_ray.pipelines.webtext import quality_prune

    d = tmp_path / "sf"
    d.mkdir()
    # all-ties: identical text => identical score => everything survives
    tbl = pa.table({
        "doc_id": pa.array(range(10), pa.int64()),
        "text": pa.array(["same text here"] * 10),
    })
    pq.write_table(tbl, str(d / "documents.parquet"))
    out = quality_prune(str(d)).to_pandas()
    assert len(out) == 10

    # planted split: 6 alphabetic docs vs 4 digit-heavy docs => the
    # threshold (k=5) lands inside the alphabetic tie-group, keeping all 6
    tbl2 = pa.table({
        "doc_id": pa.array(range(10), pa.int64()),
        "text": pa.array(["pure alpha words"] * 6 + ["123 456 789 000"] * 4),
    })
    pq.write_table(tbl2, str(d / "documents.parquet"))
    out2 = quality_prune(str(d)).to_pandas()
    assert sorted(out2.doc_id) == list(range(6))


def test_mix_epochs_copy_structure(ray_session, tmp_path):
    """Every doc appears exactly its weight-rule count of times with dense
    copy_idx 0..c-1; output size = Σ copies (the mixing-contract shape)."""
    import pyarrow.parquet as pq

    from fuzzy_matcher_ray.pipelines.textops import mix_epochs

    d = tmp_path / "sf"
    d.mkdir()
    n = 40
    tbl = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "source": pa.array([f"src{i % 7}" for i in range(n)]),
    })
    pq.write_table(tbl, str(d / "documents.parquet"))
    out = mix_epochs(str(d)).to_pandas()
    for i in range(n):
        idx = i % 7
        full = 1 + (idx % 2)
        bucket = (i * 2654435761) % 1000000007 % 10
        c = full + (1 if (idx % 3 == 0 and bucket < 5) else 0)
        g = out[out.doc_id == i]
        assert list(g.copy_idx) == list(range(c)), (i, c, list(g.copy_idx))
    assert len(out) == sum(
        1 + ((i % 7) % 2)
        + (1 if ((i % 7) % 3 == 0
                 and (i * 2654435761) % 1000000007 % 10 < 5) else 0)
        for i in range(n))


def test_mg_sketch_nul_tokens_excluded_not_folded(ray_session, tmp_path):
    """A document containing the literal reserved-delta token (or any
    NUL-bearing token) must be EXCLUDED from the gram support before
    sketching — never silently folded into err_bound (round-3 advice)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from fuzzy_matcher_ray.pipelines.webtext import top_ngrams_sketch

    texts = ["alpha beta alpha", "alpha \x00__MG_DELTA__ beta",
             "gamma \x00evil alpha"]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(3), pa.int64()),
        "text": pa.array(texts, pa.string())}),
        str(tmp_path / "documents.parquet"))
    out = top_ngrams_sketch(str(tmp_path), gram_n=1, k=10,
                            counters=64).to_pandas()
    assert not out.gram.str.contains("\x00").any()
    row = out[out.gram == "alpha"]
    # large budget ⇒ exact: 4 alphas, and err_bound 0 (no compression,
    # no NUL mass leaked into the offsets)
    assert row.n_approx.iloc[0] == 4
    assert row.err_bound.iloc[0] == 0


def test_host_quantiles_sketch_range_sort_branch(ray_session, monkeypatch):
    """With the driver branch off, the summaries are range-sorted on host
    and the quantiles extracted per block, hosts at block edges stitched
    on the driver: the same table as the driver branch's."""
    from fuzzy_matcher_ray.pipelines.webtext import host_quantiles_sketch

    for eps, batch_size in ((1e-9, 8192), (0.05, 64)):
        want = host_quantiles_sketch(SF_SMOKE, eps=eps,
                                     batch_size=batch_size).to_pandas()
        with monkeypatch.context() as m:
            m.setenv("FMR_DRIVER_BYTES", "0")
            got = host_quantiles_sketch(SF_SMOKE, eps=eps,
                                        batch_size=batch_size).to_pandas()
        assert len(got) == len(want) > 0
        assert got.equals(want)


def test_host_quantiles_sketch_exact_and_bounded(ray_session):
    """eps small ⇒ every order statistic kept ⇒ per-host quantiles EXACT
    (vs a numpy per-host oracle over the same synthesized hosts); coarse
    eps ⇒ returned values within the 2·eps·n_host rank bound."""
    import numpy as np
    from fuzzy_matcher_ray.pipelines.webtext import (_synth_host_urls,
                                                     host_quantiles_sketch,
                                                     url_host)
    import pyarrow.parquet as pq_
    sf = "/root/testdata/sf0.01"
    docs = pq_.read_table(f"{sf}/documents.parquet",
                          columns=["doc_id", "source", "n_chars"])
    hosts = url_host(_synth_host_urls(docs)).to_pylist()
    vals = docs["n_chars"].to_numpy()
    by_host = {}
    for h, v in zip(hosts, vals):
        by_host.setdefault(h, []).append(int(v))

    def rank_pick(sorted_vals, q):
        # the sketch's rule at k=1: first index with cum > q*(n-1)
        n = len(sorted_vals)
        cw = np.arange(1, n + 1)
        i = min(int(np.searchsorted(cw, q * (n - 1), side="right")), n - 1)
        return sorted_vals[i]

    exact = host_quantiles_sketch(sf, qs=(0.5, 0.9), eps=1e-9).to_pandas()
    for (h, q), grp in exact.groupby(["host", "q"]):
        sv = sorted(by_host[h])
        assert grp.value.iloc[0] == rank_pick(sv, q), (h, q)

    coarse = host_quantiles_sketch(sf, qs=(0.5,), eps=0.05,
                                   batch_size=64).to_pandas()
    assert set(coarse.host) == set(by_host)
    for _, row in coarse.iterrows():
        sv = np.array(sorted(by_host[row.host]))
        n = len(sv)
        rank = np.searchsorted(sv, row.value, side="left")
        target = 0.5 * (n - 1)
        assert abs(rank - target) <= max(2, 2 * 0.05 * n) + 1, \
            (row.host, rank, target, n)
