"""BPE trainer/tokenizer: pure-Python reference-implementation oracle
(Sennrich et al. 2016 semantics), driver-vs-distributed twin parity, and
DuckDB parity for the SQL-expressible word-count pass."""

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


# ---------------------------------------------------------------------------
# reference implementation: the textbook algorithm, one pair at a time,
# greedy left-to-right application — deliberately slow and obvious
# ---------------------------------------------------------------------------

def _ref_word_counts(texts):
    c = Counter()
    for t in texts:
        if t is None:
            continue
        for w in t.lower().split(" "):
            if w:
                c[w] += 1
    return c


def _ref_pair_counts(word_syms, counts):
    pc_ = Counter()
    for w, syms in word_syms.items():
        for i in range(len(syms) - 1):
            pc_[(syms[i], syms[i + 1])] += counts[w]
    return pc_


def _ref_apply(syms, a, b):
    out, i = [], 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def _ref_bpe_train(texts, n_merges, stop_below=2):
    counts = _ref_word_counts(texts)
    word_syms = {w: list(w) for w in counts}
    merges = []
    for rank in range(n_merges):
        pcs = _ref_pair_counts(word_syms, counts)
        if not pcs:
            break
        # deterministic winner: max count, ties by lexicographically
        # smallest (a, b) — the same total order as the engine
        m = max(pcs.values())
        cands = sorted([p for p, c in pcs.items() if c == m])
        a, b = cands[0]
        if m < stop_below:
            break
        merges.append((rank, a, b, m))
        word_syms = {w: _ref_apply(s, a, b) for w, s in word_syms.items()}
    return merges, word_syms


@pytest.fixture()
def bpe_corpus(tmp_path):
    texts = [
        "low low low lower lowest",
        "new newer newest new new",
        "wider wide wide widest",
        None,
        "",
        "aaa aaaa low new",          # overlap-run stress for (a,a) merges
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string())})
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    return str(tmp_path), texts


def test_word_counts_duckdb_parity(ray_session, bpe_corpus):
    import duckdb

    from fuzzy_matcher_ray.pipelines.bpe import word_counts
    sf, _ = bpe_corpus
    got = word_counts(sf).sort("word").to_pandas()
    con = duckdb.connect()
    exp = con.execute(f"""
        SELECT w AS word, count(*)::BIGINT AS cnt FROM (
          SELECT unnest(string_split(lower(text), ' ')) AS w
          FROM read_parquet('{sf}/documents.parquet'))
        WHERE w <> '' GROUP BY w ORDER BY w""").fetch_df()
    assert got.word.tolist() == exp.word.tolist()
    assert got.cnt.tolist() == exp.cnt.tolist()


def test_bpe_train_matches_reference(ray_session, bpe_corpus):
    """The driver loop gives the reference merges and starts one Dataset
    execution, the word counts': the pinned counts are collected by ref
    and sorted on the driver, not range-sorted in a second execution."""
    from test_flagship_plan import ExecutionCounter

    from fuzzy_matcher_ray.pipelines.bpe import bpe_train
    sf, texts = bpe_corpus
    with ExecutionCounter().installed() as counter:
        got = bpe_train(sf, n_merges=12).to_pandas()
    assert counter.count == 1
    exp, _ = _ref_bpe_train(texts, 12)
    assert list(map(tuple, got.itertuples(index=False))) == exp


def test_bpe_overlap_run_semantics(ray_session, tmp_path):
    """'aaaa' under merge (a,a) must segment as [aa, aa] (greedy
    left-to-right), 'aaa' as [aa, a] — the parity-critical corner."""
    from fuzzy_matcher_ray.pipelines.bpe import _apply_merge
    vals = np.array(list("aaaa") + list("aaa"), dtype=object)
    word_of = np.array([0] * 4 + [1] * 3, dtype=np.int64)
    v2, w2 = _apply_merge(vals, word_of, "a", "a")
    assert v2.tolist() == ["aa", "aa", "aa", "a"]
    assert w2.tolist() == [0, 0, 1, 1]


def test_bpe_distributed_twin_parity(ray_session, bpe_corpus, monkeypatch):
    """FMR_DRIVER_BYTES=0 forces the Dataset-per-round twin; the
    merge table must be byte-identical to the driver loop's."""
    import fuzzy_matcher_ray.pipelines.bpe as bpe
    sf, texts = bpe_corpus
    driver = bpe.bpe_train(sf, n_merges=8)
    monkeypatch.setenv("FMR_DRIVER_BYTES", "0")
    dist = bpe.bpe_train(sf, n_merges=8)
    assert driver.equals(dist)
    exp, _ = _ref_bpe_train(texts, 8)
    assert list(map(tuple, driver.to_pandas().itertuples(index=False))) == exp


def test_bpe_token_counts_match_reference(ray_session, bpe_corpus):
    from fuzzy_matcher_ray.pipelines.bpe import bpe_token_counts
    sf, texts = bpe_corpus
    out = bpe_token_counts(sf, n_merges=6).to_pandas()
    merges, word_syms = _ref_bpe_train(texts, 6)
    exp = []
    for t in texts:
        if t is None:
            exp.append(0)
        else:
            exp.append(sum(len(word_syms[w]) for w in t.lower().split(" ")
                           if w))
    assert out.doc_id.tolist() == list(range(len(texts)))
    assert out.n_bpe_tokens.tolist() == exp
    # coverage invariant: with zero merges every token is its char count
    from fuzzy_matcher_ray.pipelines.bpe import _MERGES_SCHEMA
    out0 = bpe_token_counts(sf, merges=_MERGES_SCHEMA.empty_table()) \
        .to_pandas()
    exp0 = [0 if t is None else sum(len(w) for w in t.lower().split(" "))
            for t in texts]
    assert out0.n_bpe_tokens.tolist() == exp0


def test_bpe_early_stop_and_empty(ray_session, tmp_path):
    """All-distinct-hapax corpus: no pair reaches count 2 ⇒ zero merges;
    empty corpus ⇒ empty merge table, zero-row token counts."""
    from fuzzy_matcher_ray.pipelines.bpe import bpe_token_counts, bpe_train
    tbl = pa.table({"doc_id": pa.array([0], pa.int64()),
                    "text": pa.array(["xy zq"], pa.string())})
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    assert bpe_train(str(tmp_path), n_merges=4).num_rows == 0
    out = bpe_token_counts(str(tmp_path), n_merges=4).to_pandas()
    assert out.n_bpe_tokens.tolist() == [4]

    empty = tmp_path / "empty"
    empty.mkdir()
    pq.write_table(pa.table({"doc_id": pa.array([], pa.int64()),
                             "text": pa.array([], pa.string())}),
                   str(empty / "documents.parquet"))
    assert bpe_train(str(empty), n_merges=4).num_rows == 0
