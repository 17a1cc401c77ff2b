"""Distributed BPE (byte-pair-encoding) vocabulary training + tokenization.

The tokenizer-training tier of a pretraining-data pipeline: learn the merge
table from corpus word frequencies (Sennrich et al. 2016, arXiv:1508.07909 —
the algorithm is public: count adjacent symbol pairs weighted by word
frequency, merge the most frequent pair, repeat), then apply the learned
merges to count BPE tokens per document (the unit `pack_sequences` and token
budgets are denominated in). Generalizes the reference's per-field string
normalization (normalize.go:9-15) from character class folding to learned
subword segmentation.

Shape:

1. **word-count pass** — per-batch partial (word, cnt) counts → one
   vocabulary-sized `groupby(word).sum` (combiner-first, the same pattern as
   `webtext.top_ngrams`). The word table is orders of magnitude smaller than
   the corpus: every later pass runs over it, never over the corpus again.
2. **merge loop** — each round needs one global (a, b) pair-count aggregate
   and one symbol-stream rewrite. While its bytes fit the driver budget
   (gate "words", `stages/gates`) the word table collects to the driver
   and the rounds run locally on the in-memory symbol stream (one
   lexsort-scale numpy kernel per round, no per-round engine overhead).
   Beyond it — open-web vocabularies — the distributed twin keeps the
   words as a Dataset of `(syms: list<string>, cnt)` rows: per-batch
   partial pair counts → `groupby(["a","b"]).sum` → a 1-row
   sort/limit picks the winner → one `map_batches` applies the merge, with a
   `materialize()` per round so lineage stays O(1). BOTH paths run the SAME
   numpy kernels on the same total ordering, so they are byte-identical
   (parity-tested; `FMR_DRIVER_BYTES=0` forces the distributed twin).
3. **tokenize pass** — merges are rank-ordered constants (n_merges rows);
   they broadcast once via `ray.put`. Each batch segments only its DISTINCT
   words (vocabulary-bounded work), applies the merges in rank order with
   the same kernel, and maps token counts back to documents.

Determinism: pair counts are exact int64 sums; the winning pair is
(max count, then lexicographically smallest (a, b)) — no float, no RNG, no
batch-layout dependence. Merge application is greedy left-to-right within
each word (overlap runs resolved by position parity), exactly the reference
semantics pinned by the pure-Python oracle in tests/test_bpe.py.
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


def _words_of(text: pa.Array | pa.ChunkedArray):
    """Whitespace words of lower(text), empties dropped — the same token
    definition as relevance._tokens so BPE token counts and TF-IDF terms
    agree on what a word is."""
    toks = pc.split_pattern(pc.utf8_lower(pc.fill_null(_as_array(text), "")),
                            " ")
    v = toks.values
    return v.filter(pc.not_equal(v, ""))


def word_counts(sf_dir: str):
    """Corpus (word, cnt) — per-batch partial counts → one small groupby.
    SQL-expressible (DuckDB unnest+count parity in tests/test_bpe.py)."""
    from ray.data.aggregate import Sum

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def _partial(t: pa.Table) -> pa.Table:
        v = _words_of(t["text"])
        if len(v) == 0:
            return pa.table({"word": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        agg = pa.table({"word": v}).group_by(["word"]).aggregate(
            [("word", "count")])
        return pa.table({"word": agg["word"],
                         "cnt": pc.cast(agg["word_count"], pa.int64())})

    partials = docs.map_batches(_partial, batch_format="pyarrow")
    return partials.groupby("word").aggregate(Sum("cnt", alias_name="cnt"))


# ---------------------------------------------------------------------------
# shared numpy kernels: one flat symbol stream (vals, word_of) + per-word
# weights. Both the driver loop and the distributed per-batch partials run
# exactly these.
# ---------------------------------------------------------------------------

def _char_stream(words: list[str]):
    """Split words into per-character symbol streams.

    Returns (vals: object ndarray of 1-char strings, word_of: int64
    ndarray). The only Python-level iteration is ''.join / list() — both
    C loops — so the kernel stays vectorized even though symbols are
    Python strings.
    """
    joined = "".join(words)
    vals = np.array(list(joined), dtype=object) if joined else \
        np.array([], dtype=object)
    lens = np.fromiter((len(w) for w in words), dtype=np.int64,
                       count=len(words))
    word_of = np.repeat(np.arange(len(words), dtype=np.int64), lens)
    return vals, word_of


def _pair_counts(vals: np.ndarray, word_of: np.ndarray,
                 weights: np.ndarray) -> pa.Table:
    """(a, b, cnt) adjacent-pair counts over the stream, each occurrence
    weighted by its word's corpus count (overlaps count, per Sennrich)."""
    if len(vals) < 2:
        return pa.table({"a": pa.array([], pa.string()),
                         "b": pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64())})
    same = word_of[1:] == word_of[:-1]
    idx = np.nonzero(same)[0]
    if len(idx) == 0:
        return pa.table({"a": pa.array([], pa.string()),
                         "b": pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64())})
    t = pa.table({"a": pa.array(vals[idx], pa.string()),
                  "b": pa.array(vals[idx + 1], pa.string()),
                  "cnt": pa.array(weights[word_of[idx]], pa.int64())})
    agg = t.group_by(["a", "b"]).aggregate([("cnt", "sum")])
    return pa.table({"a": agg["a"], "b": agg["b"],
                     "cnt": pc.cast(agg["cnt_sum"], pa.int64())})


def _best_pair(counts: pa.Table):
    """Deterministic winner: max cnt, ties by lexicographically smallest
    (a, b). Returns (a, b, cnt) or None on an empty table."""
    if counts.num_rows == 0:
        return None
    order = pc.sort_indices(counts, sort_keys=[("cnt", "descending"),
                                               ("a", "ascending"),
                                               ("b", "ascending")])
    row = counts.take(order[:1])
    return (row["a"][0].as_py(), row["b"][0].as_py(),
            row["cnt"][0].as_py())


def _apply_merge(vals: np.ndarray, word_of: np.ndarray, a: str, b: str):
    """Greedy left-to-right merge of every (a, b) adjacency into a+b.

    Overlap chains (only possible when a == b, e.g. 'aaa' under (a,a))
    resolve by position parity within each run of consecutive matches —
    exactly greedy left-to-right, fully vectorized.
    """
    if len(vals) < 2:
        return vals, word_of
    matched = (vals[:-1] == a) & (vals[1:] == b) & \
        (word_of[1:] == word_of[:-1])
    m = np.nonzero(matched)[0]
    if len(m) == 0:
        return vals, word_of
    new_run = np.empty(len(m), dtype=bool)
    new_run[0] = True
    new_run[1:] = (m[1:] - m[:-1]) > 1
    run_id = np.cumsum(new_run) - 1
    run_start = m[new_run][run_id]
    keep = m[((m - run_start) % 2) == 0]
    out = vals.copy()
    out[keep] = a + b
    drop = np.zeros(len(vals), dtype=bool)
    drop[keep + 1] = True
    return out[~drop], word_of[~drop]


def _syms_table(vals: np.ndarray, word_of: np.ndarray, cnt: np.ndarray,
                n_words: int) -> pa.Table:
    """Pack the stream back into (syms: list<string>, cnt) rows."""
    lens = np.bincount(word_of, minlength=n_words).astype(np.int64)
    offsets = np.zeros(n_words + 1, dtype=np.int32)
    np.cumsum(lens, out=offsets[1:])
    syms = pa.ListArray.from_arrays(pa.array(offsets),
                                    pa.array(vals, pa.string()))
    return pa.table({"syms": syms, "cnt": pa.array(cnt, pa.int64())})


def _unpack_syms(t: pa.Table):
    """(syms, cnt) rows → flat (vals, word_of, cnt ndarray). list_flatten /
    list_value_length respect slice offsets, unlike raw .values."""
    syms = _as_array(t["syms"])
    vals = pc.list_flatten(syms).to_numpy(zero_copy_only=False)
    lens = pc.list_value_length(syms).to_numpy(
        zero_copy_only=False).astype(np.int64)
    word_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    cnt = _as_array(t["cnt"]).to_numpy(zero_copy_only=False).astype(np.int64)
    return vals, word_of, cnt


_MERGES_SCHEMA = pa.schema([("rank", pa.int64()), ("a", pa.string()),
                            ("b", pa.string()), ("cnt", pa.int64())])


def bpe_train(sf_dir: str, n_merges: int = 32, min_count: int = 1
              ) -> pa.Table:
    """Learn the first ``n_merges`` BPE merges from the corpus.

    Returns the merge table (rank, a, b, cnt) — rank is application order,
    cnt the pair's corpus frequency at selection time. Stops early when no
    pair occurs ≥ max(2, min_count) times (merging hapax pairs never helps
    a tokenizer). Iterative by nature — not SQL-expressible; the exact
    oracle is the pure-Python reference implementation in tests/test_bpe.py.
    """
    wc = word_counts(sf_dir)
    if min_count > 1:
        wc = wc.filter(expr=f"cnt >= {min_count}")
    wc = wc.materialize()
    stop_below = max(2, min_count)
    if gates.decide("words", nbytes(wc)) == "driver":
        wt = wc.sort("word").take_all()
        words = [r["word"] for r in wt]
        weights = np.array([r["cnt"] for r in wt], dtype=np.int64)
        vals, word_of = _char_stream(words)
        merges = []
        for rank in range(n_merges):
            best = _best_pair(_pair_counts(vals, word_of, weights))
            if best is None or best[2] < stop_below:
                break
            a, b, cnt = best
            merges.append((rank, a, b, cnt))
            vals, word_of = _apply_merge(vals, word_of, a, b)
        return _merges_table(merges)
    return _bpe_train_distributed(wc, n_merges, stop_below)


def _merges_table(merges: list[tuple]) -> pa.Table:
    if not merges:
        return _MERGES_SCHEMA.empty_table()
    r, a, b, c = zip(*merges)
    return pa.table({"rank": pa.array(r, pa.int64()),
                     "a": pa.array(a, pa.string()),
                     "b": pa.array(b, pa.string()),
                     "cnt": pa.array(c, pa.int64())})


def _bpe_train_distributed(wc, n_merges: int, stop_below: int) -> pa.Table:
    """The open-web twin: words stay a Dataset; each round is one partial
    pair-count pass + a pair-keyed groupby + a broadcast 1-row winner + one
    rewrite pass, materialized so per-round lineage stays O(1). Byte-
    identical to the driver loop (weighted pair counts merge by sum across
    any batch layout; the winner rule is a total order)."""
    from ray.data.aggregate import Sum

    def _to_syms(t: pa.Table) -> pa.Table:
        words = _as_array(t["word"]).to_pylist()
        cnt = _as_array(t["cnt"]).to_numpy(zero_copy_only=False)
        vals, word_of = _char_stream(words)
        return _syms_table(vals, word_of, cnt.astype(np.int64), len(words))

    ds = wc.map_batches(_to_syms, batch_format="pyarrow").materialize()
    merges: list[tuple] = []
    for rank in range(n_merges):
        def _partial(t: pa.Table) -> pa.Table:
            vals, word_of, cnt = _unpack_syms(t)
            return _pair_counts(vals, word_of, cnt)

        counts = ds.map_batches(_partial, batch_format="pyarrow") \
            .groupby(["a", "b"]).aggregate(Sum("cnt", alias_name="cnt"))
        top = counts.sort(["cnt", "a", "b"],
                          descending=[True, False, False]) \
            .limit(1).take_all()
        if not top or top[0]["cnt"] < stop_below:
            break
        a, b, cnt = top[0]["a"], top[0]["b"], top[0]["cnt"]
        merges.append((rank, a, b, cnt))

        def _rewrite(t: pa.Table, a=a, b=b) -> pa.Table:
            vals, word_of, cnt = _unpack_syms(t)
            vals, word_of = _apply_merge(vals, word_of, a, b)
            return _syms_table(vals, word_of, cnt, t.num_rows)

        ds = ds.map_batches(_rewrite, batch_format="pyarrow").materialize()
    return _merges_table(merges)


def _segment_words(words: list[str], merges: list[tuple]) -> np.ndarray:
    """Apply the rank-ordered merges to each word; returns the per-word
    BPE token count (int64 ndarray). Work is bounded by the distinct-word
    stream, not the corpus."""
    vals, word_of = _char_stream(words)
    for a, b in merges:
        vals, word_of = _apply_merge(vals, word_of, a, b)
    return np.bincount(word_of, minlength=len(words)).astype(np.int64)


def bpe_token_counts(sf_dir: str, n_merges: int = 32,
                     merges: pa.Table | None = None):
    """(doc_id, n_bpe_tokens) — documents tokenized with the learned merges.

    Trains (or takes) the merge table, broadcasts it once via ``ray.put``
    (n_merges rows), and counts per-doc BPE tokens in one streaming pass:
    each batch segments only its DISTINCT lowercased words and maps counts
    back through an ``index_in`` lookup — per-batch work is vocabulary-
    bounded even when documents repeat words heavily.
    """
    if merges is None:
        merges = bpe_train(sf_dir, n_merges=n_merges)
    pairs = list(zip(merges["a"].to_pylist(), merges["b"].to_pylist()))
    ref = ray.put(pairs)

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def _count(t: pa.Table) -> pa.Table:
        m = ray.get(ref)
        toks = pc.split_pattern(
            pc.utf8_lower(pc.fill_null(_as_array(t["text"]), "")), " ")
        v = toks.values
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        nonempty = pc.not_equal(v, "")
        uniq = pc.unique(v.filter(nonempty))
        # empty tokens (split artifacts of leading/trailing/double spaces)
        # count 0; every distinct real word counts its segmentation length
        if len(uniq) == 0:
            per_tok = np.zeros(len(v), dtype=np.int64)
        else:
            n_per_word = _segment_words(uniq.to_pylist(), m)
            word_ids = pc.fill_null(pc.index_in(v, uniq), -1) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            per_tok = np.where(word_ids < 0, 0,
                               n_per_word[np.maximum(word_ids, 0)])
        doc_of = np.repeat(np.arange(len(offs) - 1), np.diff(offs))
        n_doc = np.bincount(doc_of, weights=per_tok,
                            minlength=t.num_rows).astype(np.int64)
        return pa.table({"doc_id": t["doc_id"],
                         "n_bpe_tokens": pa.array(n_doc, pa.int64())})

    return docs.map_batches(_count, batch_format="pyarrow").sort("doc_id")
