"""Term-relevance operators over the documents table: TF-IDF and BM25.

The retrieval/quality tier of a training-data pipeline (rank documents by
term salience, score docs against a query for relevance filtering or
dedup-priority ordering) — and the generalization of the reference's
"score candidates, keep top-k" query shape (fuzzy_matcher_core.go:281-287)
from edit-distance scores to corpus-statistical ones.

Shape (both ops, two streaming passes + one vocab-sized shuffle):

1. **df pass** — per-batch PARTIAL document frequencies (each doc lives in
   one row, so a batch-local unique per doc is exact) shrink the shuffle to
   distinct-terms-per-batch before the global ``groupby(term).sum`` — the
   same combiner pattern as ``webtext.top_ngrams``.
2. The aggregated vocabulary (term, df) is vocab-sized — orders of
   magnitude smaller than the corpus; it broadcasts via ``ray.put``. At
   open-web vocab sizes, prune with ``min_df`` (hapax legomena dominate raw
   vocab counts but can never rank: tf·idf of a df=1 term appears in one
   doc only) or swap the broadcast for a key-local join on term — the
   ``vocab_strategy="join"`` (``stages/joins.keyed_join``).
3. **score pass** — per-batch Arrow ``index_in`` maps tokens to vocab ids;
   scores and per-doc top-k come from one numpy lexsort per batch. No
   shuffle at all (per-doc top-k needs no cross-doc state).

Float parity with the DuckDB oracles: idf/score expressions are written as
the IDENTICAL sequence of IEEE double ops on integer inputs on both
engines; BM25 per-doc scores sum in FIXED-POINT (round(score·1e9) int64)
so no float-addition-order ambiguity survives into the hash check.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from fuzzy_matcher_ray.pipelines.webtext import _as_array
from fuzzy_matcher_ray.stages import gates
from fuzzy_matcher_ray.stages.joins import nbytes


def _tokens(text: pa.Array | pa.ChunkedArray):
    """Whitespace tokens of lower(text): (token values, doc index per token).
    Matches the SQL oracle's ``string_split(lower(text), ' ')`` exactly
    (null text → no tokens; empty string → one empty token, dropped by the
    empty-term filter both here and in SQL)."""
    toks = pc.split_pattern(pc.utf8_lower(pc.fill_null(_as_array(text), "")),
                            " ")
    offs = toks.offsets.to_numpy(zero_copy_only=False)
    doc_of = np.repeat(np.arange(len(offs) - 1), np.diff(offs))
    return toks.values, doc_of


def _df_table(docs, min_df: int):
    """Corpus (term, df) via per-batch partial counts → small groupby."""
    from ray.data.aggregate import Sum

    def _partial(t: pa.Table) -> pa.Table:
        v, doc_of = _tokens(t["text"])
        if len(v) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64())})
        tb = pa.table({"d": pa.array(doc_of), "term": v})
        tb = tb.filter(pc.not_equal(tb["term"], ""))
        agg = (tb.group_by(["term"])
               .aggregate([("d", "count_distinct")]))
        return pa.table({"term": agg["term"],
                         "df": pc.cast(agg["d_count_distinct"], pa.int64())})

    partials = docs.map_batches(_partial, batch_format="pyarrow")
    agg = partials.groupby("term").aggregate(Sum("df", alias_name="df"))
    if min_df > 1:
        agg = agg.filter(expr=f"df >= {min_df}")
    return agg


def _broadcast_vocab(df_ds, col: str = "df"):
    """Collect the vocab-sized count table, sort by term, ship once."""
    parts = list(df_ds.iter_batches(batch_size=1 << 20,
                                    batch_format="pyarrow"))
    if not parts:
        t = pa.table({"term": pa.array([], pa.string()),
                      col: pa.array([], pa.int64())})
    else:
        t = pa.concat_tables(parts)
    t = t.take(pc.sort_indices(t["term"]))
    terms = t["term"].combine_chunks()
    df = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
    return ray.put((terms, df))


_EMPTY_TF_ROWS = pa.table({"doc_id": pa.array([], pa.int64()),
                           "term": pa.array([], pa.string()),
                           "tf": pa.array([], pa.int64())})


def _tf_rows(t: pa.Table) -> pa.Table:
    """(doc_id, term, tf) rows of one batch — exact per batch because every
    doc's tokens live in its own row (batches never split a doc)."""
    v, doc_of = _tokens(t["text"])
    if len(v) == 0:
        return _EMPTY_TF_ROWS
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    tb = pa.table({"d": pa.array(doc_of), "term": v})
    tb = tb.filter(pc.not_equal(tb["term"], ""))
    if len(tb) == 0:
        return _EMPTY_TF_ROWS
    agg = tb.group_by(["d", "term"]).aggregate([("d", "count")])
    d = agg["d"].to_numpy(zero_copy_only=False)
    return pa.table({"doc_id": pa.array(ids[d]),
                     "term": agg["term"],
                     "tf": pc.cast(agg["d_count"], pa.int64())})


def _tfidf_join(docs, n_docs: int, df_agg, k: int):
    """TF-IDF at open-web vocabulary sizes: the df table attaches to the
    (doc, term, tf) rows on term (``joins.keyed_join`` — the
    vocabulary never reaches the driver), scores are row-local, and the
    per-doc top-k comes from ``grouped_topk`` (per-batch partial top-k +
    the same kernel over the residue). Byte-identical to the broadcast
    path: the idf/score doubles are the same IEEE expression on the same
    integers, and the (score desc, term asc) order is total per doc."""
    from fuzzy_matcher_ray.stages.joins import keyed_join
    from fuzzy_matcher_ray.stages.ranks import grouped_topk

    if df_agg.count() == 0:
        # termless corpus: the result is empty by definition
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "term": pa.array([], pa.string()),
            "score": pa.array([], pa.float64()),
            "rnk": pa.array([], pa.int64())}))
    tf_rows = docs.map_batches(_tf_rows, batch_format="pyarrow")
    joined = keyed_join(tf_rows, df_agg, ["term"], ["term"], {"df": "df"},
                        "inner")

    def _score_rows(t: pa.Table) -> pa.Table:
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        dfv = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        idf = np.log((n_docs + 1.0) / (dfv + 1.0)) + 1.0
        score = np.floor(tf * idf * 1e6 + 0.5) / 1e6
        return pa.table({"doc_id": t["doc_id"], "term": t["term"],
                         "score": pa.array(score)})

    scored = joined.map_batches(_score_rows, batch_format="pyarrow")
    out = grouped_topk(scored, "doc_id", "score", "term", k,
                       rank_col="rnk",
                       empty_schema=pa.schema([
                           ("doc_id", pa.int64()), ("term", pa.string()),
                           ("score", pa.float64())]))
    return out.sort(["doc_id", "rnk"])


def tfidf_top_terms(sf_dir: str, k: int = 3, min_df: int = 1,
                    vocab_strategy: str = "auto"):
    """(doc_id, term, score, rnk) — each doc's top-``k`` terms by TF-IDF,
    score = tf · (ln((N+1)/(df+1)) + 1) rounded 6dp (smoothed idf), ties by
    term asc. SQL-checked (the DuckDB oracle computes the identical
    expression over the same unnest).

    ``vocab_strategy``: ``"broadcast"`` ships the (term, df) table once via
    ``ray.put`` (right while the vocabulary is orders of magnitude smaller
    than the corpus); ``"join"`` attaches df key-locally onto the exploded
    (doc, term, tf) rows so nothing vocabulary-sized ever reaches the driver
    (the 10^9-term open-web shape); ``"auto"`` gates on the vocab's
    bytes (gate "vocab", ``stages/gates``). Both paths are byte-identical
    (tests/test_relevance.py parity test)."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    n_docs = docs.count()
    df_agg = _df_table(docs, min_df).materialize()
    if vocab_strategy == "auto":
        vocab_strategy = gates.decide("vocab", nbytes(df_agg))
    if vocab_strategy == "join":
        return _tfidf_join(docs, n_docs, df_agg, k)
    ref = _broadcast_vocab(df_agg)

    def _score(t: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "term": pa.array([], pa.string()),
                          "score": pa.array([], pa.float64()),
                          "rnk": pa.array([], pa.int64())})
        v, doc_of = _tokens(t["text"])
        if len(v) == 0:
            return empty
        terms, dfv = ray.get(ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        # index_in yields null (→ -1 after fill) for pruned/empty terms
        vid = pc.fill_null(pc.index_in(v, value_set=terms), -1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ok = vid >= 0
        vid, doc_of2 = vid[ok], doc_of[ok]
        if len(vid) == 0:
            return empty
        # tf per (doc, term-id): sort + run-length
        key = doc_of2.astype(np.int64) * np.int64(len(terms)) + vid
        key.sort()
        brk = np.nonzero(np.diff(key))[0] + 1
        starts = np.concatenate(([0], brk))
        tf = np.diff(np.append(starts, len(key))).astype(np.int64)
        kd = key[starts] // len(terms)
        kt = key[starts] % len(terms)
        idf = np.log((n_docs + 1.0) / (dfv[kt] + 1.0)) + 1.0
        score = np.floor(tf * idf * 1e6 + 0.5) / 1e6
        # per-doc top-k: one lexsort (doc asc, score desc, term-id asc —
        # vocab is term-sorted so term-id order == term order)
        order = np.lexsort((kt, -score, kd))
        kd, kt, score = kd[order], kt[order], score[order]
        seg = np.concatenate(([0], np.nonzero(np.diff(kd))[0] + 1))
        rank = np.arange(len(kd)) - np.repeat(seg, np.diff(
            np.append(seg, len(kd))))
        keep = rank < k
        return pa.table({
            "doc_id": pa.array(ids[kd[keep]]),
            "term": terms.take(pa.array(kt[keep])),
            "score": pa.array(score[keep]),
            "rnk": pa.array((rank[keep] + 1).astype(np.int64))})

    out = docs.map_batches(_score, batch_format="pyarrow")
    return out.sort(["doc_id", "rnk"])


def bm25_search(sf_dir: str, n_query_terms: int = 3, k: int = 10,
                k1: float = 1.2, b: float = 0.75):
    """(doc_id, score, rnk) — top-``k`` documents by BM25 against a
    deterministic query: the corpus's ``n_query_terms`` highest-df terms
    (ties term asc), so the DuckDB oracle rebuilds the identical query from
    the same table (the probes-from-the-table pattern).

    score(d) = Σ_t idf(t) · tf/(tf + k1·(1 − b + b·dl/avgdl)) with
    idf = ln(1 + (N − df + 0.5)/(df + 0.5)); per-term scores are summed in
    fixed-point (round 9dp → int64) so the hash check never depends on
    float addition order. Ranking: score desc, doc_id asc.

    Scale shape: the df aggregate is the only shuffle; query terms + stats
    broadcast; the score pass is one streaming map with per-batch partial
    top-k (exact under the final total order), merged on the tiny residue.
    """
    empty_out = pa.table({"doc_id": pa.array([], pa.int64()),
                          "score": pa.array([], pa.float64()),
                          "rnk": pa.array([], pa.int64())})
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    n_docs = docs.count()
    if n_docs == 0:
        return rd.from_arrow(empty_out)
    df_ds = _df_table(docs, 1)

    # query = the n_query_terms highest-df terms. Per-batch PARTIAL top-k
    # under the final total order (df desc, term asc) — each post-aggregate
    # batch forwards at most n_query_terms rows, so the driver sees an
    # O(blocks · n_query_terms) residue, never the vocabulary (same
    # partial-top-k argument as the score pass below).
    def _batch_top(t: pa.Table) -> pa.Table:
        if len(t) <= n_query_terms:
            return t
        idx = pc.sort_indices(t, sort_keys=[("df", "descending"),
                                            ("term", "ascending")])
        return t.take(idx[:n_query_terms])

    parts = list(df_ds.map_batches(_batch_top, batch_format="pyarrow")
                 .iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
    if not parts:
        return rd.from_arrow(empty_out)   # docs exist but carry no terms
    t = pa.concat_tables(parts)
    q = t.take(pc.sort_indices(t, sort_keys=[("df", "descending"),
                                             ("term", "ascending")])
               [:n_query_terms])
    q_terms = q["term"].combine_chunks().cast(pa.string())
    q_df = q["df"].to_numpy(zero_copy_only=False).astype(np.int64)

    # avgdl over ALL docs (null text = length-0 doc) — one tiny aggregate
    def _dl(tb: pa.Table) -> pa.Table:
        v, doc_of = _tokens(tb["text"])
        nz = np.zeros(len(tb), dtype=np.int64)
        if len(v):
            keep = pc.not_equal(v, "").to_numpy(zero_copy_only=False)
            np.add.at(nz, doc_of[keep.astype(bool)], 1)
        return pa.table({"dl": pa.array(nz)})
    from ray.data.aggregate import Sum
    total_tokens = docs.map_batches(_dl, batch_format="pyarrow") \
        .aggregate(Sum("dl", alias_name="s"))["s"]
    avgdl = float(total_tokens) / float(n_docs)
    idf = np.log(1.0 + (n_docs - q_df + 0.5) / (q_df + 0.5))
    ref = ray.put((q_terms, idf))

    def _score(tb: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "score_e9": pa.array([], pa.int64())})
        qt, qidf = ray.get(ref)
        v, doc_of = _tokens(tb["text"])
        ids = tb["doc_id"].to_numpy(zero_copy_only=False)
        n = len(tb)
        if n == 0:
            return empty
        dl = np.zeros(n, dtype=np.int64)
        if len(v):
            nonempty = pc.not_equal(v, "").to_numpy(zero_copy_only=False) \
                .astype(bool)
            np.add.at(dl, doc_of[nonempty], 1)
        tf = np.zeros((n, len(qt)), dtype=np.int64)
        if len(v):
            qi = pc.fill_null(pc.index_in(v, value_set=qt), -1) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            hit = qi >= 0
            np.add.at(tf, (doc_of[hit], qi[hit]), 1)
        denom = tf + k1 * (1.0 - b + b * (dl[:, None] / avgdl))
        per_term = qidf[None, :] * (tf / denom)
        e9 = np.floor(per_term * 1e9 + 0.5).astype(np.int64).sum(axis=1)
        # per-batch partial top-k under the final (score desc, id asc) order
        order = np.lexsort((ids, -e9))[: min(k, n)]
        return pa.table({"doc_id": pa.array(ids[order]),
                         "score_e9": pa.array(e9[order])})

    partials = docs.map_batches(_score, batch_format="pyarrow")
    mparts = list(partials.iter_batches(batch_size=1 << 20,
                                        batch_format="pyarrow"))
    if not mparts:
        return rd.from_arrow(empty_out)
    merged = pa.concat_tables(mparts)
    ids = merged["doc_id"].to_numpy(zero_copy_only=False)
    e9 = merged["score_e9"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, -e9))[:k]
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(ids[order]),
        "score": pa.array(e9[order] / 1e9),
        "rnk": pa.array(np.arange(1, len(order) + 1, dtype=np.int64))}))


def _tf_table(docs):
    """Corpus (term, c) TERM frequencies (total occurrences, not document
    frequencies) via the same per-batch-partial → small-groupby combiner
    shape as ``_df_table``."""
    from ray.data.aggregate import Sum

    def _partial(t: pa.Table) -> pa.Table:
        v, _ = _tokens(t["text"])
        if len(v) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "c": pa.array([], pa.int64())})
        tb = pa.table({"term": v}).filter(pc.not_equal(v, ""))
        agg = tb.group_by(["term"]).aggregate([("term", "count")])
        return pa.table({"term": agg["term"],
                         "c": pc.cast(agg["term_count"], pa.int64())})

    return docs.map_batches(_partial, batch_format="pyarrow") \
        .groupby("term").aggregate(Sum("c", alias_name="c"))


def _unigram_join(docs, tf_agg, total: float):
    """Unigram-LM scoring, key-local join shape (see unigram_doc_logprob)."""
    from ray.data.aggregate import Sum

    from fuzzy_matcher_ray.stages.joins import attach_columns, keyed_join

    if tf_agg.count() == 0:
        # termless corpus: skip the join; every doc scores (0, 0)
        return docs.map_batches(
            lambda t: pa.table({
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(np.zeros(len(t), np.int64)),
                "logprob_e9": pa.array(np.zeros(len(t), np.int64))}),
            batch_format="pyarrow").sort("doc_id")

    def _lp(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        lw = np.floor(np.log(c / total) * 1e9 + 0.5).astype(np.int64)
        return pa.table({"term": t["term"], "lw": pa.array(lw)})

    lp = tf_agg.map_batches(_lp, batch_format="pyarrow")
    tok = docs.map_batches(_tf_rows, batch_format="pyarrow")
    joined = keyed_join(tok, lp, ["term"], ["term"], {"lw": "lw"}, "inner")

    def _parts(t: pa.Table) -> pa.Table:
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        lw = t["lw"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"doc_id": t["doc_id"], "nt": pa.array(tf),
                         "lp": pa.array(tf * lw)})

    sums = joined.map_batches(_parts, batch_format="pyarrow") \
        .groupby("doc_id").aggregate(Sum("nt", alias_name="n_tokens"),
                                     Sum("lp", alias_name="logprob_e9")) \
        .materialize()
    ids = docs.select_columns(["doc_id"])
    out = attach_columns(ids, sums, "doc_id", "doc_id",
                         {"n_tokens": "n_tokens",
                          "logprob_e9": "logprob_e9"}, how="left")

    def _fill(t: pa.Table) -> pa.Table:
        z = pa.scalar(0, pa.int64())
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pc.fill_null(pc.cast(t["n_tokens"], pa.int64()), z),
            "logprob_e9": pc.fill_null(pc.cast(t["logprob_e9"], pa.int64()),
                                       z)})

    return out.map_batches(_fill, batch_format="pyarrow").sort("doc_id")


def unigram_doc_logprob(sf_dir: str, vocab_strategy: str = "auto"):
    """(doc_id, n_tokens, logprob_e9) — each document's log-probability
    under the corpus-fit unigram MLE language model, the CCNet/RedPajama
    perplexity-proxy quality signal (docs of improbable tokens score low;
    boilerplate scores high).

    logprob(d) = Σ_{tokens w of d} ln(c_w / N) with c_w the corpus count of
    ``w`` and N the corpus token total. The model is fit on the SAME corpus
    it scores, so every token is in-vocabulary and MLE needs no smoothing
    (a held-out variant would smooth). Per-token logs are fixed-pointed
    (``floor(ln(c/N)·1e9 + 0.5)`` → int64) BEFORE the per-doc sum, so the
    result is independent of float addition order and the DuckDB oracle
    hash-matches exactly.

    Scale shape: one vocab-sized ``groupby(term)`` with per-batch partial
    counts (the only shuffle); then either the vocabulary broadcasts once
    via ``ray.put`` and one streaming score pass runs
    (``vocab_strategy="broadcast"`` — right while the vocabulary is small
    vs the corpus), or — at open-web vocab sizes — the per-term logprobs
    attach key-locally onto the exploded (doc, term, tf) rows and per-doc sums come
    from one ``groupby(doc_id)`` over fixed-point ints
    (``vocab_strategy="join"``: the driver never holds the vocabulary).
    ``"auto"`` gates on vocab bytes (gate "vocab"); the two
    paths are byte-identical — fixed-pointing each term's log BEFORE any
    sum makes the result independent of addition order
    (tests/test_relevance.py parity test).
    """
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return unigram_doc_logprob_ds(docs, vocab_strategy=vocab_strategy)


def unigram_doc_logprob_ds(docs, vocab_strategy: str = "auto"):
    """``unigram_doc_logprob`` over an explicit (doc_id, text) Dataset —
    the composable form the curation recipe fits its LM on (scoring the
    SURVIVING corpus, not the raw table)."""
    from ray.data.aggregate import Sum
    tf_agg = _tf_table(docs).materialize()
    # one distributed scalar aggregate — the vocab-sized table never
    # streams through the driver just to be summed
    _tot = (tf_agg.aggregate(Sum("c", alias_name="s"))["s"]
            if tf_agg.count() else None)
    total = float(_tot or 0) or 1.0
    if vocab_strategy == "auto":
        vocab_strategy = gates.decide("vocab", nbytes(tf_agg))
    if vocab_strategy == "join":
        return _unigram_join(docs, tf_agg, total)
    ref = _broadcast_vocab(tf_agg, col="c")

    def _score(t: pa.Table) -> pa.Table:
        terms, cv = ray.get(ref)
        lw = np.floor(np.log(cv.astype(np.float64) / total) * 1e9 + 0.5) \
            .astype(np.int64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        n = len(t)
        ntok = np.zeros(n, dtype=np.int64)
        lp = np.zeros(n, dtype=np.int64)
        v, doc_of = _tokens(t["text"])
        if len(v):
            keep = pc.not_equal(v, "").to_numpy(zero_copy_only=False) \
                .astype(bool)
            vid = pc.fill_null(pc.index_in(v, value_set=terms), -1) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            keep &= vid >= 0
            np.add.at(ntok, doc_of[keep], 1)
            np.add.at(lp, doc_of[keep], lw[vid[keep]])
        return pa.table({"doc_id": pa.array(ids),
                         "n_tokens": pa.array(ntok),
                         "logprob_e9": pa.array(lp)})

    return docs.map_batches(_score, batch_format="pyarrow").sort("doc_id")


def ccnet_buckets(sf_dir: str, k: int = 3, vocab_strategy: str = "auto"):
    """(doc_id, lang, n_tokens, avg_lp_e9, bucket) — CCNet-style
    per-language head/middle/tail quality bucketing (Wenzek et al.,
    arXiv:1911.00359): documents are scored by a language model and split
    into k quality tiers per language; the tier decides whether a doc
    enters the training mix.

    Score = ``unigram_doc_logprob``'s corpus-fit LM logprob normalized per
    token: ``avg_lp_e9 = floor(logprob_e9 / n_tokens)`` — exact int64
    floor division, no float in the ordering key, so the DuckDB oracle
    hash-matches bit for bit (the SQL side uses a mod-corrected exact
    floor because DuckDB's ``//`` truncates while numpy floors). Tokenless
    (null/empty) docs score 0 and land in bucket 1; upstream quality gates
    (``quality_filter``) are what drop them. Buckets follow SQL
    ``ntile(k)`` semantics per language over (avg_lp_e9 DESC, doc_id ASC):
    bucket 1 = most probable under the LM (head) … k = least (tail); with
    n docs in a language the first n mod k buckets hold ceil(n/k) docs,
    the rest floor(n/k).

    Scale shape: LM fit + scoring is ``unigram_doc_logprob``'s (one
    vocab-sized ``groupby(term)``; vocabulary broadcast under the vocab
    gate, key-local term join past it). Bucketing adds: one lang attach onto
    the slim score table, one range sort of 4 slim columns, a
    block-metadata position stamp (``stamp_global_positions`` — block data
    never reaches the driver), and a languages-sized Min/Count aggregate
    joined back. Document text is read once, by the LM fit; nothing wider
    than (doc_id, lang, 2×int64) ever shuffles here. The stamp stays where
    ``grouped_topk`` moved onto ``joins.map_segments``: a group here is a
    whole language, a large share of the corpus, that ``map_segments``
    would gather into one worker task, while the stamp gathers no rows.
    """
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "lang"])
    return ccnet_buckets_ds(docs, k=k, vocab_strategy=vocab_strategy)


def ccnet_buckets_ds(docs, k: int = 3, vocab_strategy: str = "auto"):
    """``ccnet_buckets`` over an explicit (doc_id, text, lang) Dataset —
    the composable form: the curation recipe fits the LM on and buckets
    its current SURVIVOR set, not the raw table.

    ``docs`` is consumed twice (lang attach + LM fit); pass a cheap
    Dataset (a parquet read / checkpoint read), as the curation recipe
    does — re-execution then costs one extra pruned read, not a pipeline
    replay."""
    from ray.data.aggregate import Count, Min

    from fuzzy_matcher_ray.stages.joins import attach_columns
    from fuzzy_matcher_ray.stages.ranks import stamp_global_positions

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "lang": pa.array([], pa.string()),
                      "n_tokens": pa.array([], pa.int64()),
                      "avg_lp_e9": pa.array([], pa.int64()),
                      "bucket": pa.array([], pa.int64())})
    langs = docs.select_columns(["doc_id", "lang"])
    if langs.count() == 0:
        # zero-row corpus: Ray infers no schema for the empty read, which
        # the broadcast attach cannot collect — nothing to bucket anyway
        return rd.from_arrow(empty)
    scores = unigram_doc_logprob_ds(docs.select_columns(["doc_id", "text"]),
                                    vocab_strategy=vocab_strategy)
    t = attach_columns(scores, langs, "doc_id", "doc_id", {"lang": "lang"},
                       how="left")

    def _avg(tb: pa.Table) -> pa.Table:
        lp = tb["logprob_e9"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nt = tb["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        avg = np.zeros(len(tb), dtype=np.int64)
        m = nt > 0
        avg[m] = lp[m] // nt[m]
        return pa.table({"doc_id": tb["doc_id"],
                         "lang": pc.fill_null(tb["lang"], ""),
                         "n_tokens": tb["n_tokens"],
                         "avg_lp_e9": pa.array(avg)})

    slim = t.map_batches(_avg, batch_format="pyarrow")
    if slim.count() == 0:
        return rd.from_arrow(empty)
    ordered = slim.sort(["lang", "avg_lp_e9", "doc_id"],
                        descending=[False, True, False])
    stamped = stamp_global_positions(ordered, col="__pos")
    sizes = stamped.groupby("lang").aggregate(
        Min("__pos", alias_name="__gpos"), Count(alias_name="__gsz"))
    joined = attach_columns(stamped, sizes, "lang", "lang",
                            {"__gpos": "__gpos", "__gsz": "__gsz"},
                            how="inner")

    def _bucket(tb: pa.Table) -> pa.Table:
        pos = pc.subtract(tb["__pos"], tb["__gpos"]) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        n = tb["__gsz"].to_numpy(zero_copy_only=False).astype(np.int64)
        q, r = n // k, n % k
        big = r * (q + 1)
        bucket = np.where(pos < big, pos // np.maximum(q + 1, 1),
                          r + (pos - big) // np.maximum(q, 1)) + 1
        return pa.table({"doc_id": tb["doc_id"], "lang": tb["lang"],
                         "n_tokens": tb["n_tokens"],
                         "avg_lp_e9": tb["avg_lp_e9"],
                         "bucket": pa.array(bucket.astype(np.int64))})

    return joined.map_batches(_bucket, batch_format="pyarrow") \
        .sort("doc_id")
