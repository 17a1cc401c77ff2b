"""Web-text sub-document dedup: the corpus-level exact span/line tier.

Production web pipelines (C4, RefinedWeb) run an exact sub-document dedup
tier BEFORE fuzzy dedup: every repeated line (or fixed-width token span) is
dropped except its first global occurrence, and documents are rebuilt from
the survivors. This generalizes the reference's whole-entry exact-key dedup
(fuzzy_matcher_core.go Insert path) to sub-document granularity.

Ray-Data shape (all stages stream):

1. explode — ``map_batches`` splits each doc into spans with a fully
   vectorized Arrow kernel (``split_pattern`` → offset arithmetic →
   ``ListArray.from_arrays`` → ``binary_join``); emits
   ``(doc_id, ln, line, pack)`` rows where ``pack = doc_id·2^32 + ln`` is
   the lexicographic (doc_id, ln) order key packed into one int64.
2. winner — ``groupby(line).aggregate(Min(pack))``: one hash-partitioned
   shuffle keyed by span content. At web scale the key would be the span's
   64/128-bit content hash (cf. pipelines/dedup.py exact pass) so only
   fixed-width keys move; raw strings are kept here for exact SQL parity.
3. keep — join the winner pack back onto the exploded rows
   (broadcast-or-shuffle via ``attach_columns``) and keep rows whose own
   pack equals the winner pack (the first global occurrence).
4. rebuild — one segmented ``binary_join`` over doc_id segments
   (``joins.map_segments``: a range sort on doc_id, the kernel per block,
   block-edge docs re-joined on the driver; zero per-doc Python dispatch).
   Output-proportional; docs that lose every span (exact full dups) drop
   out.

Scale assumptions (documented per the custom-operator rule): doc_id < 2^31
and spans-per-doc < 2^32 for the pack key; span strings are bounded by
``span_tokens`` · max-token-length so no single group in the winner shuffle
exceeds a block.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from fuzzy_matcher_ray.stages.joins import (as_dataset, attach_columns,
                                            map_segments)


def _as_array(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    return col


class SpanExploder:
    """Vectorized doc → span rows. ``span_tokens`` mode chunks the
    whitespace token stream into non-overlapping windows of that many
    tokens (C4-style span); ``pattern`` mode (span_tokens=None) treats each
    ``pattern``-delimited line as a span (RefinedWeb-style line dedup)."""

    def __init__(self, span_tokens: int | None = 10, pattern: str = "\n"):
        self.span_tokens = span_tokens
        self.pattern = pattern
        self.joiner = " " if span_tokens is not None else pattern

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = _as_array(t["doc_id"]).to_numpy(zero_copy_only=False)
        text = pc.fill_null(_as_array(t["text"]), "")
        if self.span_tokens is not None:
            toks = pc.split_pattern(text, " ")
            offs = toks.offsets.to_numpy(zero_copy_only=False)
            n = np.diff(offs)                           # tokens per doc
            w = self.span_tokens
            nspans = -(-n // w)                         # ceil; 0 only if n==0
            total = int(nspans.sum())
            doc_of = np.repeat(np.arange(len(n)), nspans)
            first = np.concatenate(([0], np.cumsum(nspans)[:-1]))
            ln = np.arange(total, dtype=np.int64) - np.repeat(first, nspans)
            starts = offs[:-1][doc_of] + ln * w
            # spans tile each doc contiguously, so consecutive starts double
            # as list offsets; the final boundary is the last doc's end.
            span_offs = np.append(starts, offs[-1]).astype(np.int32)
            spans = pa.ListArray.from_arrays(pa.array(span_offs, pa.int32()),
                                             toks.values)
            lines = pc.binary_join(spans, " ")
        else:
            parts = pc.split_pattern(text, self.pattern)
            offs = parts.offsets.to_numpy(zero_copy_only=False)
            n = np.diff(offs)
            total = int(n.sum())
            doc_of = np.repeat(np.arange(len(n)), n)
            first = np.concatenate(([0], np.cumsum(n)[:-1]))
            ln = np.arange(total, dtype=np.int64) - np.repeat(first, n)
            lines = parts.values
        out_ids = ids[doc_of].astype(np.int64)
        pack = (out_ids << np.int64(32)) | ln
        return pa.table({"doc_id": pa.array(out_ids),
                         "ln": pa.array(ln),
                         "line": lines,
                         "pack": pa.array(pack)})


def _keep_winners(t: pa.Table) -> pa.Table:
    mask = pc.equal(t["pack"], t["win"])
    # pack = (doc_id << 32) | ln: one sort key for the rebuild stage below
    return t.filter(mask).select(["doc_id", "line", "pack"])


def _segmented_rebuild(t: pa.Table, joiner: str) -> pa.Table:
    """Docs rebuilt from their surviving span rows, fully vectorized: one
    sort on pack (== (doc_id, ln)), doc segments from one np.diff over
    doc_id, the joined text from one ``ListArray.from_arrays`` (zero-copy
    values slice) + ``binary_join``."""
    if len(t) == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "kept_text": pa.array([], pa.string())})
    t = t.take(pc.sort_indices(t["pack"]))
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    starts = np.concatenate(([0], np.nonzero(ids[1:] != ids[:-1])[0] + 1))
    offsets = np.append(starts, len(ids)).astype(np.int32)
    la = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                  _as_array(t["line"]))
    return pa.table({"doc_id": pa.array(ids[starts]),
                     "kept_text": pc.binary_join(la, joiner)})


def dedup_spans(docs, *, span_tokens: int | None = 10, pattern: str = "\n"):
    """Corpus-level exact span/line dedup over a (doc_id, text) Dataset.

    Returns (doc_id, kept_text): each doc rebuilt from the spans whose first
    global occurrence (min (doc_id, ln)) it owns; docs that keep nothing are
    dropped (they were exact full duplicates of earlier docs).
    """
    from ray.data.aggregate import Min

    exploder = SpanExploder(span_tokens, pattern)
    # null-text docs contribute no spans (string_split(NULL) drops the row
    # in the SQL oracle); empty strings still yield one empty span
    docs = docs.map_batches(
        lambda t: t.filter(pc.is_valid(t["text"])), batch_format="pyarrow")
    ex = docs.map_batches(exploder, batch_format="pyarrow")
    # materialize the aggregated winner table: the groupby is a barrier
    # anyway, and both attach_columns' size probe and the join itself
    # consume it — without this the explode+aggregate would execute twice.
    winners = (ex.groupby("line")
               .aggregate(Min("pack", alias_name="win"))
               .materialize())
    kept = attach_columns(ex, winners, "line", "line", {"win": "win"},
                          how="inner")
    kept = kept.map_batches(_keep_winners, batch_format="pyarrow")
    return _rebuild_docs(kept, exploder.joiner)


def _rebuild_docs(kept, joiner: str):
    """Surviving (doc_id, line, pack) rows → (doc_id, kept_text) docs.

    ``_segmented_rebuild`` over doc_id segments (``map_segments``): zero
    per-doc Python dispatch (the round-2 map_groups rebuild cost ~1 ms per
    doc — untenable at 10^9 docs). Shared by ``dedup_spans`` (keep-first)
    and ``drop_boilerplate`` (drop-frequent).
    """
    return map_segments(kept, ["doc_id"],
                        lambda t: _segmented_rebuild(t, joiner))


def span_dedup(sf_dir: str, span_tokens: int = 10):
    """(doc_id, kept_text) — token-span dedup tier over the documents table
    (SQL-checked: the DuckDB oracle rebuilds via unnest + window + agg)."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return dedup_spans(docs, span_tokens=span_tokens).sort("doc_id")


def line_dedup(docs):
    """(doc_id, kept_text) — newline-delimited exact line dedup (RefinedWeb
    boilerplate removal) over any (doc_id, text) Dataset."""
    return dedup_spans(docs, span_tokens=None, pattern="\n").sort("doc_id")


def drop_boilerplate(docs, *, span_tokens: int | None = 10,
                     pattern: str = "\n", min_docs: int = 3):
    """Frequency-based boilerplate removal over a (doc_id, text) Dataset.

    Drops EVERY occurrence of any span appearing in >= ``min_docs``
    DISTINCT documents (nav bars, cookie banners, license blocks — the
    CCNet-style line-frequency filter), where ``dedup_spans`` keeps the
    first occurrence. Returns (doc_id, kept_text); docs that keep nothing
    (pure boilerplate) drop out.

    Shape: explode (the same vectorized kernel as ``dedup_spans``) →
    per-batch distinct (line, doc) partial document-frequency counts —
    EXACT, because every doc's spans live in exactly one batch — → one
    hash groupby summing the partials → the flagged side (tiny: spans
    shared by >= min_docs docs) joins back broadcast-or-shuffle via
    ``attach_columns`` → survivors rebuilt by the shared segmented kernel.
    One content-keyed shuffle total, same as the winner pass.
    """
    from ray.data.aggregate import Sum

    exploder = SpanExploder(span_tokens, pattern)
    docs = docs.map_batches(
        lambda t: t.filter(pc.is_valid(t["text"])), batch_format="pyarrow")
    ex = docs.map_batches(exploder, batch_format="pyarrow")

    def _partial_df(t: pa.Table) -> pa.Table:
        d = pa.table({"line": t["line"], "doc_id": t["doc_id"]}) \
            .group_by(["line", "doc_id"]).aggregate([])
        c = d.group_by("line").aggregate([("doc_id", "count")])
        return pa.table({"line": c["line"],
                         "nd": pc.cast(c["doc_id_count"], pa.int64())})

    # materialize the small flagged side: attach_columns probes its size
    # and then joins it — unmaterialized, the groupby would execute twice
    bad = (ex.map_batches(_partial_df, batch_format="pyarrow")
           .groupby("line").aggregate(Sum("nd", alias_name="nd"))
           .filter(expr=f"nd >= {min_docs}").materialize())
    marked = attach_columns(ex, bad, "line", "line", {"nd": "nd_bad"},
                            how="left")
    kept = marked.map_batches(
        lambda t: t.filter(pc.is_null(t["nd_bad"]))
                   .select(["doc_id", "line", "pack"]),
        batch_format="pyarrow")
    return _rebuild_docs(kept, exploder.joiner)


def boilerplate_prune(sf_dir: str, span_tokens: int = 10, min_docs: int = 3):
    """(doc_id, kept_text) — boilerplate-span removal over the documents
    table (SQL-checked: the DuckDB oracle counts distinct docs per span and
    rebuilds via string_agg)."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return drop_boilerplate(docs, span_tokens=span_tokens,
                            min_docs=min_docs).sort("doc_id")


# ---------------------------------------------------------------------------
# URL-level ops (re-crawl collapse over the input_hint page schema)
# ---------------------------------------------------------------------------

def canonical_url(url: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Canonical form of a URL column, fully vectorized Arrow kernels:
    lowercase, strip scheme(s) + leading ``www.`` repeats, strip
    ``#fragment`` and ``?query``, strip trailing slashes.
    ``http(s)://WWW.A.com/x/?u=1#f`` and ``https://a.com/x`` canonicalize
    identically. Idempotent (a projection): every rule strips ALL leading /
    trailing repeats, so re-canonicalizing a canonical URL is a no-op
    (property-tested)."""
    u = pc.utf8_lower(pc.fill_null(_as_array(url), ""))
    u = pc.replace_substring_regex(u, r"^(?:[a-z][a-z0-9+.-]*://)+", "")
    u = pc.replace_substring_regex(u, r"^(?:www\.)+", "")
    u = pc.replace_substring_regex(u, r"[#?].*$", "")
    return pc.replace_substring_regex(u, r"/+$", "")


def dedup_by_url(pages):
    """Re-crawl collapse: one row per canonical URL — the LATEST crawl wins
    (max ``warc_ts``; max ``doc_id`` tiebreak for identical timestamps).

    Input: any Dataset carrying (doc_id, url[, warc_ts]). Returns the winning
    (canon_url, doc_id). Winner selection is exact for full-range int64 ids:
    one hash groupby finds each URL's max timestamp, a join-back filter keeps
    only latest-crawl rows (ties included), and a second groupby over that
    residue — at most a handful of rows per URL — breaks ties by max doc_id.
    Without a ``warc_ts`` column every row ties at ts=0 and max doc_id wins.
    """
    from ray.data.aggregate import Max

    def _prep(t: pa.Table) -> pa.Table:
        ts = (pc.cast(_as_array(t["warc_ts"]), pa.int64())
              if "warc_ts" in t.schema.names
              else pa.nulls(len(t), pa.int64()).fill_null(0))
        return pa.table({"canon_url": canonical_url(t["url"]),
                         "ts": ts,
                         "doc_id": pc.cast(_as_array(t["doc_id"]), pa.int64())})

    prepped = pages.map_batches(_prep, batch_format="pyarrow")
    latest = (prepped.groupby("canon_url")
              .aggregate(Max("ts", alias_name="max_ts")).materialize())
    tied = attach_columns(prepped, latest, "canon_url", "canon_url",
                          {"max_ts": "max_ts"}, how="inner")

    def _keep_latest(t: pa.Table) -> pa.Table:
        return (t.filter(pc.equal(t["ts"], t["max_ts"]))
                .select(["canon_url", "doc_id"]))

    tied = tied.map_batches(_keep_latest, batch_format="pyarrow")
    return tied.groupby("canon_url").aggregate(Max("doc_id",
                                                   alias_name="doc_id"))


def url_collapse(sf_dir: str):
    """(canon_url, doc_id) — re-crawl collapse, SQL-checked.

    The documents table carries no URL column, so messy crawl URLs are
    synthesized deterministically per row (four scheme/www/query/fragment
    variants over a ``doc_id % 97`` page key — many doc_ids per canonical
    URL); the DuckDB oracle rebuilds the same strings and canonicalization
    with string/regexp functions. Winner = max doc_id per canonical URL
    (no warc_ts ⇒ every row ties at ts=0)."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source"])

    PRE = np.array(["https://example.com/", "HTTP://WWW.EXAMPLE.COM/",
                    "https://example.com/", "https://www.example.com/"])
    POST = np.array(["", "/", "?utm=1", "#frag"])

    def _mk_url(t: pa.Table) -> pa.Table:
        did = _as_array(t["doc_id"])
        ids = did.to_numpy(zero_copy_only=False)
        v = ids % 4
        page = pa.array((ids % 97).astype("U"))
        base = pc.binary_join_element_wise(_as_array(t["source"]), page, "/")
        url = pc.binary_join_element_wise(
            pa.array(PRE[v]), base, pa.array(POST[v]), "")
        return pa.table({"doc_id": did, "url": url})

    return dedup_by_url(docs.map_batches(_mk_url, batch_format="pyarrow")) \
        .sort("canon_url")


def url_host(url: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Host component of each URL: the canonical form truncated at the
    first path separator. Ports/userinfo pass through verbatim (crawl
    URLs in the input_hint shape carry neither); registered-domain
    reduction (public-suffix policy) is a caller-side mapping over the
    distinct host set, which is tiny relative to the corpus."""
    return pc.replace_substring_regex(canonical_url(url), r"/.*$", "")


def host_aggregate(pages, char_col: str = "n_chars"):
    """Per-host corpus stats — the host-level quality/volume view every
    web pipeline builds before per-document filtering (host blocklists,
    per-domain caps, Gopher's "fraction of docs from top hosts").

    Input: Dataset with (url, ``char_col``). Output: (host, n_docs,
    n_chars). Each batch collapses to ≤ |hosts-in-batch| partial rows via
    a batch-local Arrow group_by BEFORE the shuffle, so the exchange is
    O(batches × hosts), never O(docs) — hosts number ~10^8 while docs
    number ~10^12, and partials absorb the skew of megasites."""
    from ray.data.aggregate import Sum

    def _partial(t: pa.Table) -> pa.Table:
        g = pa.table({"host": url_host(t["url"]),
                      "nd": pa.array(np.ones(len(t), np.int64)),
                      "nc": pc.cast(pc.fill_null(_as_array(t[char_col]), 0),
                                    pa.int64())})
        return g.group_by("host").aggregate([("nd", "sum"), ("nc", "sum")])

    return (pages.map_batches(_partial, batch_format="pyarrow")
            .groupby("host")
            .aggregate(Sum("nd_sum", alias_name="n_docs"),
                       Sum("nc_sum", alias_name="n_chars")))


def filter_blocked_hosts(pages, blocked_hosts):
    """Drop every page whose host is on the blocklist (UT1-style domain
    filtering). The blocklist rides the task closure as one Arrow value
    set — a streaming ``is_in`` membership pass, zero shuffle; at 10^6+
    entries broadcast it once via ``ray.put`` like decontaminate's
    eval-gram set."""
    blocked = pa.array(sorted(set(blocked_hosts)), pa.string())

    def _keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(pc.is_in(url_host(t["url"]),
                                           value_set=blocked)))

    return pages.map_batches(_keep, batch_format="pyarrow")


_HOST_SCHEMES = np.array(["https://", "http://www.", "HTTPS://WWW.",
                          "http://"])
_HOST_TLDS = np.array(["com", "org", "net"])
BLOCKED_HOSTS_FIXTURE = ("src3.example.com", "src7.example.net",
                         "src12.example.org")


def _synth_host_urls(t: pa.Table) -> pa.Array:
    """Deterministic messy crawl URLs with VARIED hosts for the documents
    table (which carries no URL column): host = ``{source}.example.{tld}``
    with tld keyed by ``doc_id % 3``, scheme/www noise keyed by
    ``doc_id % 4``. The DuckDB oracles rebuild the same hosts directly."""
    ids = _as_array(t["doc_id"]).to_numpy(zero_copy_only=False)
    page = pa.array((ids % 97).astype("U"))
    return pc.binary_join_element_wise(
        pa.array(_HOST_SCHEMES[ids % 4]), _as_array(t["source"]),
        pa.scalar(".example."), pa.array(_HOST_TLDS[ids % 3]),
        pa.scalar("/p/"), page, "")


def host_stats(sf_dir: str):
    """(host, n_docs, n_chars) per synthesized host, SQL-checked."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source", "n_chars"])

    def _mk(t: pa.Table) -> pa.Table:
        return pa.table({"url": _synth_host_urls(t),
                         "n_chars": t["n_chars"]})

    return host_aggregate(docs.map_batches(_mk, batch_format="pyarrow")) \
        .sort("host")


def host_block_filter(sf_dir: str):
    """(doc_id, host) for documents surviving the fixture blocklist,
    SQL-checked (the oracle carries the same literal host list)."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source"])

    def _mk(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"],
                         "url": _synth_host_urls(t)})

    kept = filter_blocked_hosts(
        docs.map_batches(_mk, batch_format="pyarrow"),
        BLOCKED_HOSTS_FIXTURE)

    def _out(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "host": url_host(t["url"])})

    return kept.map_batches(_out, batch_format="pyarrow").sort("doc_id")


def _token_ngrams(text: pa.Array, n: int) -> tuple[pa.Array, np.ndarray]:
    """All positional token ``n``-grams of each text, fully vectorized.

    Returns (gram strings, doc-index per gram). Gram j of doc i is tokens
    [j, j+n) joined by ' '; docs with fewer than n tokens contribute none.
    """
    toks = pc.split_pattern(pc.fill_null(text, ""), " ")
    offs = toks.offsets.to_numpy(zero_copy_only=False)
    v = toks.values
    cnt = np.maximum(np.diff(offs) - (n - 1), 0)
    total = int(cnt.sum())
    doc_of = np.repeat(np.arange(len(cnt)), cnt)
    first = np.concatenate(([0], np.cumsum(cnt)[:-1]))
    j = np.arange(total, dtype=np.int64) - np.repeat(first, cnt)
    base = offs[:-1][doc_of] + j
    parts = [pc.take(v, pa.array(base + s)) for s in range(n)]
    # last arg of binary_join_element_wise is the separator
    grams = pc.binary_join_element_wise(*parts, " ") if n > 1 else parts[0]
    return grams, doc_of


def decontaminate(sf_dir: str, n_eval: int = 20, gram_n: int = 3,
                  max_hits: int = 5):
    """Benchmark decontamination: drop corpus docs overlapping the eval set.

    The eval set is docs with doc_id < ``n_eval``; a corpus doc (doc_id >=
    n_eval) is contaminated when >= ``max_hits`` of its positional token
    ``gram_n``-grams appear anywhere in the eval set. Returns surviving
    (doc_id), sorted — the standard pre-training hygiene op.

    Shape: the eval gram set is tiny by construction (eval benchmarks are
    KBs, corpora are TBs), so it is collected once and broadcast via
    ``ray.put``; the corpus pass is one streaming ``map_batches`` with an
    Arrow ``is_in`` membership kernel — no shuffle at all.
    """
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return decontaminate_ds(ds, ds, n_eval, gram_n, max_hits)


def decontaminate_ds(docs, eval_source, n_eval: int = 20, gram_n: int = 3,
                     max_hits: int = 5):
    """``decontaminate`` over explicit Datasets — the composable form:
    ``docs`` is the corpus to filter (its doc_id < ``n_eval`` rows are
    dropped as eval members regardless), ``eval_source`` supplies the eval
    set (its doc_id < ``n_eval`` rows) — the curation recipe passes the
    ORIGINAL table there so the eval grams don't shrink as upstream stages
    prune the corpus."""
    ds = docs
    ev = eval_source.filter(expr=f"doc_id < {n_eval}")

    def _grams(t: pa.Table) -> pa.Table:
        g, _ = _token_ngrams(_as_array(t["text"]), gram_n)
        return pa.table({"g": pc.unique(g)})

    eval_parts = list(
        ev.map_batches(_grams, batch_format="pyarrow")
        .iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
    # gramless eval set (too-short/empty docs): an empty string set — every
    # corpus doc trivially passes the overlap gate
    eval_set = (pc.unique(pa.concat_tables(eval_parts)["g"].combine_chunks())
                if eval_parts else pa.array([], pa.string()))
    ref = ray.put(eval_set)

    def _survivors(t: pa.Table) -> pa.Table:
        ids = _as_array(t["doc_id"]).to_numpy(zero_copy_only=False)
        keep_mask = ids >= n_eval
        g, doc_of = _token_ngrams(_as_array(t["text"]), gram_n)
        hit = pc.is_in(g, value_set=ray.get(ref)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        h = np.bincount(doc_of, weights=hit, minlength=len(ids))
        keep_mask &= h < max_hits
        return pa.table({"doc_id": pa.array(ids[keep_mask], pa.int64())})

    return ds.map_batches(_survivors, batch_format="pyarrow").sort("doc_id")


def contamination_scores(sf_dir: str, n_eval: int = 20, gram_n: int = 3):
    """(doc_id, n_grams, n_hits, contam_pm) — GRADED eval-set contamination
    per corpus doc: how many of its positional token n-grams appear in the
    eval set, as a count and an integer per-mille fraction (``decontaminate``
    is the binary drop; this is the report the threshold is tuned from).

    Same shape as decontaminate: tiny eval gram set collected once and
    broadcast via ``ray.put``; the corpus pass is one streaming
    ``map_batches`` (is_in membership + two bincounts) — no shuffle.
    Gram-less docs score (0, 0, 0), matching the oracle's LEFT JOIN.
    """
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    ev = ds.filter(expr=f"doc_id < {n_eval}")

    def _grams(t: pa.Table) -> pa.Table:
        g, _ = _token_ngrams(_as_array(t["text"]), gram_n)
        return pa.table({"g": pc.unique(g)})

    eval_parts = list(
        ev.map_batches(_grams, batch_format="pyarrow")
        .iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
    # gramless eval set (too-short/empty docs): an empty string set — every
    # corpus doc trivially passes the overlap gate
    eval_set = (pc.unique(pa.concat_tables(eval_parts)["g"].combine_chunks())
                if eval_parts else pa.array([], pa.string()))
    ref = ray.put(eval_set)

    def _score(t: pa.Table) -> pa.Table:
        ids = _as_array(t["doc_id"]).to_numpy(zero_copy_only=False)
        keep = ids >= n_eval
        g, doc_of = _token_ngrams(_as_array(t["text"]), gram_n)
        hit = pc.is_in(g, value_set=ray.get(ref)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        total = np.bincount(doc_of, minlength=len(ids)).astype(np.int64)
        hits = np.bincount(doc_of, weights=hit,
                           minlength=len(ids)).astype(np.int64)
        pm = hits * 1000 // np.maximum(total, 1)
        return pa.table({
            "doc_id": pa.array(ids[keep], pa.int64()),
            "n_grams": pa.array(total[keep]),
            "n_hits": pa.array(hits[keep]),
            "contam_pm": pa.array(pm[keep]),
        })

    return ds.map_batches(_score, batch_format="pyarrow").sort("doc_id")


def neardup_contamination(sf_dir: str, n_eval: int = 20, shingle_k: int = 5):
    """(doc_id, max_jacc_pm) — NEAR-DUP eval-set contamination per corpus
    doc: the maximum exact char-``shingle_k``-gram Jaccard similarity
    against any eval doc (doc_id < ``n_eval``), as integer per-mille.

    The fuzzy counterpart of ``contamination_scores`` (positional-gram
    membership): a training doc can leak an eval answer through light
    paraphrase that exact gram hits under-count; fuzzy decontamination
    thresholds on this score. Shingling/normalization matches
    ``dedup_jaccard_brute`` (64-bit shingle hashes stand in for shingle
    identity — the established exact-Jaccard convention here).

    Shape: eval benchmarks are KBs while corpora are TBs, so the eval
    shingle index (hash-sorted array + eval-doc slot + set size) is built
    once and broadcast via ``ray.put``; the corpus pass is one streaming
    ``map_batches`` — per batch, distinct corpus shingles probe the sorted
    index with two searchsorted calls, matches expand to (doc, eval) pair
    intersection counts via one bincount, and exact Jaccard maxes over the
    eval axis. No shuffle at all. The per-batch counter is a dense
    (batch_docs × eval_docs) int64 matrix — right for benchmark-sized eval
    sets (10^1-10^4 docs); a much larger "eval" side should use the
    inverted-index join of ``jaccard_allpairs_clusters`` instead.
    """
    from fuzzy_matcher_ray.functions.normalize import normalize_array
    from fuzzy_matcher_ray.functions.shingle import (shingle_batch,
                                                     unique_per_doc)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    ev = ds.filter(expr=f"doc_id < {n_eval}")

    def _shingle_rows(t: pa.Table):
        norm = normalize_array(pc.fill_null(_as_array(t["text"]), ""))
        h, c = shingle_batch(norm, shingle_k, 0)
        uh, uc = unique_per_doc(h, c)
        ids = _as_array(t["doc_id"]).to_numpy(zero_copy_only=False)
        return ids.astype(np.int64), uh.view(np.int64), uc.astype(np.int64)

    def _ev_rows(t: pa.Table) -> pa.Table:
        ids, uh, uc = _shingle_rows(t)
        return pa.table({"sh": pa.array(uh),
                         "eid": pa.array(np.repeat(ids, uc))})

    parts = list(ev.map_batches(_ev_rows, batch_format="pyarrow")
                 .iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
    if parts:
        et = pa.concat_tables(parts).combine_chunks()
        e_h = et["sh"].to_numpy(zero_copy_only=False)
        e_id = et["eid"].to_numpy(zero_copy_only=False)
    else:
        e_h = np.empty(0, np.int64)
        e_id = np.empty(0, np.int64)
    _slots, slot_of, e_size = np.unique(e_id, return_inverse=True,
                                        return_counts=True)
    order = np.argsort(e_h, kind="stable")
    ref = ray.put((e_h[order], slot_of[order].astype(np.int64),
                   e_size.astype(np.int64)))

    def _score(t: pa.Table) -> pa.Table:
        e_hs, e_slot, e_sz = ray.get(ref)
        n_slots = len(e_sz)
        ids, uh, uc = _shingle_rows(t)
        keep = ids >= n_eval
        pm_max = np.zeros(len(ids), np.int64)
        if n_slots and uh.size:
            doc_of = np.repeat(np.arange(len(ids)), uc)
            lo = np.searchsorted(e_hs, uh, "left")
            hi = np.searchsorted(e_hs, uh, "right")
            m = hi - lo
            total = int(m.sum())
            if total:
                rep = np.repeat(np.arange(len(uh)), m)
                offs = np.concatenate(([0], np.cumsum(m)[:-1]))
                pos = (np.arange(total, dtype=np.int64)
                       - np.repeat(offs, m) + np.repeat(lo, m))
                key = doc_of[rep] * n_slots + e_slot[pos]
                c = np.bincount(key, minlength=len(ids) * n_slots) \
                    .astype(np.int64).reshape(len(ids), n_slots)
                union = uc[:, None] + e_sz[None, :] - c
                pm = np.where(c > 0, c * 1000 // np.maximum(union, 1), 0)
                pm_max = pm.max(axis=1)
        return pa.table({"doc_id": pa.array(ids[keep]),
                         "max_jacc_pm": pa.array(pm_max[keep])})

    return ds.map_batches(_score, batch_format="pyarrow").sort("doc_id")


def _bloom_params(n_keys: int, bits_per_key: int) -> int:
    """Power-of-two bit count ≥ bits_per_key·n_keys (mask-indexable)."""
    want = max(64, bits_per_key * max(n_keys, 1))
    return 1 << int(want - 1).bit_length()


def _bloom_build(hashes: np.ndarray, n_bits: int, k: int) -> np.ndarray:
    """Packed uint64 Bloom bit array; k double-hashed probes per key."""
    bits = np.zeros(n_bits // 64, np.uint64)
    h1 = hashes.astype(np.uint64)
    h2 = (h1 >> np.uint64(32)) | np.uint64(1)
    mask = np.uint64(n_bits - 1)
    for i in range(k):
        idx = (h1 + np.uint64(i) * h2) & mask
        np.bitwise_or.at(bits, (idx >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (idx & np.uint64(63)))
    return bits


def _bloom_test(bits: np.ndarray, hashes: np.ndarray, k: int) -> np.ndarray:
    """Membership mask (true ⇒ maybe-present; false ⇒ definitely absent)."""
    n_bits = len(bits) * 64
    h1 = hashes.astype(np.uint64)
    h2 = (h1 >> np.uint64(32)) | np.uint64(1)
    mask = np.uint64(n_bits - 1)
    hit = np.ones(len(hashes), bool)
    for i in range(k):
        idx = (h1 + np.uint64(i) * h2) & mask
        word = bits[(idx >> np.uint64(6)).astype(np.int64)]
        hit &= ((word >> (idx & np.uint64(63))) & np.uint64(1)) != 0
    return hit


def decontaminate_bloom(sf_dir: str, n_eval: int = 20, gram_n: int = 3,
                        max_hits: int = 5, bits_per_gram: int = 16,
                        k: int = 8):
    """``decontaminate``'s scale path: the eval gram set becomes a fixed-size
    Bloom filter instead of an exact value set.

    The exact path broadcasts every distinct eval gram string — fine for
    benchmark-sized eval sets, but a 10^9-gram holdout (multi-benchmark
    suites, dedup-against-validation at pre-training scale) wants O(bits)
    not O(strings): at 16 bits/gram + 8 probes the filter is ~2 GB for 10^9
    grams with ~6e-4 false-positive rate, shipped once via ``ray.put``.
    Error is ONE-SIDED in the safe direction: false positives only, so the
    Bloom path may drop extra clean docs (needs ≥ ``max_hits`` FP grams in
    one doc) but can never keep a contaminated one —
    survivors(bloom) ⊆ survivors(exact), asserted by tests/test_webtext.py.
    Rows-only in the driver contract (approximate by design; the exact
    path ``decontaminate`` is the SQL-checked anchor).
    """
    from fuzzy_matcher_ray.functions.fingerprint import content_hash

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    ev = ds.filter(expr=f"doc_id < {n_eval}")

    def _grams(t: pa.Table) -> pa.Table:
        g, _ = _token_ngrams(_as_array(t["text"]), gram_n)
        return pa.table({"g": pc.unique(g)})

    eval_parts = list(
        ev.map_batches(_grams, batch_format="pyarrow")
        .iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
    eval_grams = (pc.unique(pa.concat_tables(eval_parts)["g"]
                            .combine_chunks())
                  if eval_parts else pa.array([], pa.string()))
    n_bits = _bloom_params(len(eval_grams), bits_per_gram)
    bits = _bloom_build(content_hash(eval_grams), n_bits, k)
    ref = ray.put(bits)

    def _survivors(t: pa.Table) -> pa.Table:
        ids = _as_array(t["doc_id"]).to_numpy(zero_copy_only=False)
        keep_mask = ids >= n_eval
        g, doc_of = _token_ngrams(_as_array(t["text"]), gram_n)
        hit = _bloom_test(ray.get(ref), content_hash(g), k)
        h = np.bincount(doc_of, weights=hit.astype(np.int64),
                        minlength=len(ids))
        keep_mask &= h < max_hits
        return pa.table({"doc_id": pa.array(ids[keep_mask], pa.int64())})

    return ds.map_batches(_survivors, batch_format="pyarrow").sort("doc_id")


def _bigram_counts(text: pa.Array, n_rows: int,
                   gram_n: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (total, distinct) positional ``gram_n``-gram counts — the
    within-doc repetition signal (Gopher duplicate-n-gram rule). Batch-local
    Arrow group_by; correct globally because each doc lives in one row."""
    g, doc_of = _token_ngrams(text, gram_n)
    n = np.zeros(n_rows, np.int64)
    nd = np.zeros(n_rows, np.int64)
    if len(g):
        agg = (pa.table({"d": pa.array(doc_of), "g": g})
               .group_by("d")
               .aggregate([("g", "count"), ("g", "count_distinct")]))
        d = agg["d"].to_numpy(zero_copy_only=False)
        n[d] = agg["g_count"].to_numpy(zero_copy_only=False)
        nd[d] = agg["g_count_distinct"].to_numpy(zero_copy_only=False)
    return n, nd


def repetition_scores(sf_dir: str):
    """(doc_id, n_bigrams, n_distinct) — within-doc repetition counters
    (n_bigrams - n_distinct = duplicated positional bigrams). Pure
    streaming map, no shuffle."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def _f(t: pa.Table) -> pa.Table:
        n, nd = _bigram_counts(_as_array(t["text"]), len(t))
        return pa.table({"doc_id": t["doc_id"],
                         "n_bigrams": pa.array(n),
                         "n_distinct": pa.array(nd)})

    return ds.map_batches(_f, batch_format="pyarrow").sort("doc_id")


def quality_filter(sf_dir: str, min_tokens: int = 5, min_stop_hits: int = 1,
                   max_dup_bigrams: int = 8):
    """Gopher-style document gate: keep docs with >= ``min_tokens``
    whitespace tokens, >= ``min_stop_hits`` stopword hits (language
    signal), and <= ``max_dup_bigrams`` duplicated positional bigrams
    (repetition signal). Returns surviving (doc_id), sorted. One
    streaming map over existing Arrow kernels — no shuffle."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return quality_filter_ds(ds, min_tokens, min_stop_hits, max_dup_bigrams)


def quality_filter_ds(docs, min_tokens: int = 5, min_stop_hits: int = 1,
                      max_dup_bigrams: int = 8):
    """``quality_filter`` over an explicit (doc_id, text) Dataset — the
    composable form the curation recipe chains."""
    from fuzzy_matcher_ray.functions.textstats import (stopword_hits,
                                                       token_count)

    ds = docs

    def _f(t: pa.Table) -> pa.Table:
        text = pc.fill_null(_as_array(t["text"]), "")  # null doc == empty
        toks = token_count(text).to_numpy(zero_copy_only=False)
        stops = stopword_hits(text).to_numpy(zero_copy_only=False)
        n, nd = _bigram_counts(text, len(t))
        keep = ((toks >= min_tokens) & (stops >= min_stop_hits)
                & ((n - nd) <= max_dup_bigrams))
        return pa.table({"doc_id": pc.cast(_as_array(t["doc_id"]),
                                           pa.int64())}).filter(
                                               pa.array(keep))

    return ds.map_batches(_f, batch_format="pyarrow").sort("doc_id")


def top_ngrams(sf_dir: str, gram_n: int = 2, k: int = 20):
    """(gram, n) — the ``k`` most frequent token ``gram_n``-grams corpus-wide
    (vocab/BPE-seed counting). Deterministic order: count desc, gram asc.

    Shape: per-batch PARTIAL counts (``np.unique`` inside ``map_batches`` —
    the combiner) shrink the shuffle to distinct-grams-per-batch before the
    global ``groupby(gram).sum``; the final sort+limit moves only the small
    aggregated table.
    """
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def _partial(t: pa.Table) -> pa.Table:
        g, _ = _token_ngrams(_as_array(t["text"]), gram_n)
        vc = g.value_counts()
        return pa.table({"gram": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    partials = ds.map_batches(_partial, batch_format="pyarrow")
    agg = partials.groupby("gram").aggregate(Sum("n", alias_name="n"))
    return agg.sort(["n", "gram"], descending=[True, False]).limit(k)


def _hll_registers(hashes: np.ndarray, p: int) -> np.ndarray:
    """HyperLogLog register array (2^p uint8) from 64-bit key hashes.

    Register j = max rank over keys routed to j, rank = 1 + leading-zero
    count of the low (64-p) hash bits. The floor(log2) uses ``np.frexp``
    (x = m·2^e, 0.5 ≤ m < 1 ⇒ floor(log2 x) = e-1) — exact, no float
    rounding edge at powers of two.
    """
    from fuzzy_matcher_ray.functions.shingle import splitmix64

    m = 1 << p
    regs = np.zeros(m, np.uint8)
    if len(hashes) == 0:
        return regs
    # finalize: register routing needs uniform HIGH bits — a caller whose
    # keys only span part of the 64-bit range (e.g. sign-cleared ids) would
    # otherwise strand registers at zero and saturate the estimator
    h = splitmix64(hashes.astype(np.uint64))
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rem = h & np.uint64((1 << (64 - p)) - 1)
    rank = np.empty(len(h), np.uint8)
    nz = rem != 0
    _, e = np.frexp(rem[nz].astype(np.float64))
    rank[nz] = ((64 - p) - (e - 1)).astype(np.uint8)
    rank[~nz] = np.uint8(64 - p + 1)
    np.maximum.at(regs, idx, rank)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    """Standard bias-corrected HLL estimate with the small-range
    (linear-counting) correction; 64-bit hashes need no large-range one."""
    m = float(len(regs))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    if est <= 2.5 * m:
        zeros = int(np.count_nonzero(regs == 0))
        if zeros:
            est = m * np.log(m / zeros)
    return float(est)


def distinct_ngrams_hll(sf_dir: str, gram_n: int = 3, p: int = 14):
    """One-row (n_distinct_est:int64, p:int64) — corpus-wide distinct token
    ``gram_n``-gram cardinality via HyperLogLog (the mergeable-sketch
    counterpart of an exact COUNT(DISTINCT): vocabulary sizing, shard
    dedup-rate monitoring, join-cardinality planning).

    Shape: each batch reduces to ONE 2^p-byte register row (16 KB at
    p=14) inside ``map_batches``; registers merge by elementwise max on
    the driver — associative, commutative, idempotent, so the result is
    independent of batching and the exchange is O(batches · 2^p) bytes
    with NO shuffle at all (an exact distinct count is a vocabulary-sized
    groupby — the dominant exchange at 10^12 docs). Standard error
    ≈ 1.04/√2^p (~0.8 % at p=14), bound-tested vs the exact count in
    tests/test_webtext.py; rows-only in the driver contract (approximate
    by design).
    """
    from fuzzy_matcher_ray.functions.fingerprint import content_hash

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    m = 1 << p

    def _partial(t: pa.Table) -> pa.Table:
        g, _ = _token_ngrams(_as_array(t["text"]), gram_n)
        regs = _hll_registers(content_hash(pc.unique(g)), p)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    merged = np.zeros(m, np.uint8)
    for t in ds.map_batches(_partial, batch_format="pyarrow") \
               .iter_batches(batch_size=1 << 10, batch_format="pyarrow"):
        for buf in t["regs"].to_pylist():
            np.maximum(merged, np.frombuffer(buf, np.uint8), out=merged)
    est = int(round(_hll_estimate(merged)))
    return rd.from_arrow(pa.table({"n_distinct_est": pa.array([est],
                                                              pa.int64()),
                                   "p": pa.array([p], pa.int64())}))


# reserved key carrying each batch's Misra–Gries subtraction offset through
# the same groupby as the data. Tokens are arbitrary whitespace-split text,
# so a document COULD contain a literal NUL — ``_partial`` drops any gram
# containing "\x00" (matching no meaningful vocabulary) before sketching,
# which makes the reserved key provably collision-free.
_MG_DELTA_KEY = "\x00__MG_DELTA__"


def top_ngrams_sketch(sf_dir: str, gram_n: int = 2, k: int = 20,
                      counters: int = 512):
    """(gram, n_approx, err_bound) — mergeable heavy-hitters sketch, the
    scale path next to the exact ``top_ngrams`` anchor.

    ``top_ngrams``'s combiner emits distinct-grams-PER-BATCH rows, so its
    global ``groupby(gram)`` shuffle grows with the corpus vocabulary — at
    10^12 documents that is the dominant exchange. This pass caps every
    batch at ``counters`` rows with a Misra–Gries compress (subtract the
    (counters+1)-th largest per-batch count from all counters, keep the
    positive ones), making the shuffle O(batches · counters) regardless of
    vocabulary. Merging MG summaries by pointwise addition preserves the
    guarantee (Agarwal et al., "Mergeable Summaries", PODS 2012):

        n_approx ≤ true_count ≤ n_approx + err_bound,

    where ``err_bound`` = Σ per-batch subtraction offsets, carried through
    the SAME groupby under the reserved ``_MG_DELTA_KEY`` row and surfaced
    as a constant column (every gram whose true count exceeds err_bound is
    guaranteed present in the sketch support). The bound is checked against
    the exact path in tests/test_webtext.py; with ``counters`` ≥ the
    per-batch vocabulary the output equals ``top_ngrams`` exactly with
    err_bound 0.
    """
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def _partial(t: pa.Table) -> pa.Table:
        g, _ = _token_ngrams(_as_array(t["text"]), gram_n)
        # NUL-bearing grams can never be real vocabulary and would collide
        # with the reserved delta key's namespace — drop them up front
        g = g.filter(pc.invert(pc.match_substring(g, "\x00")))
        vc = g.value_counts()
        grams = vc.field("values")
        cnts = vc.field("counts").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        delta = np.int64(0)
        if len(cnts) > counters:
            # (counters+1)-th largest = ascending order statistic at
            # len-counters-1; strict > keeps ≤ `counters` survivors
            delta = np.partition(cnts, len(cnts) - counters - 1)[
                len(cnts) - counters - 1]
            keep = cnts > delta
            grams = grams.filter(pa.array(keep))
            cnts = cnts[keep] - delta
        return pa.table({
            "gram": pa.concat_arrays(
                [grams.cast(pa.string()),
                 pa.array([_MG_DELTA_KEY], pa.string())]),
            "n": pa.array(np.concatenate((cnts, [delta])))})

    partials = ds.map_batches(_partial, batch_format="pyarrow")
    agg = partials.groupby("gram").aggregate(Sum("n", alias_name="n")) \
        .materialize()
    def _only_delta(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["gram"], _MG_DELTA_KEY))

    def _no_delta(t: pa.Table) -> pa.Table:
        return t.filter(pc.not_equal(t["gram"], _MG_DELTA_KEY))

    delta_row = agg.map_batches(_only_delta, batch_format="pyarrow") \
        .take_all()
    err = int(delta_row[0]["n"]) if delta_row else 0
    top = agg.map_batches(_no_delta, batch_format="pyarrow") \
        .sort(["n", "gram"], descending=[True, False]).limit(k)
    return top.map_batches(
        lambda t: pa.table({"gram": t["gram"], "n_approx": t["n"],
                            "err_bound": pa.array([err] * len(t),
                                                  pa.int64())}),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Training-prep ops: chunking + PII redaction (C4-style hygiene)
# ---------------------------------------------------------------------------

def chunk_documents(sf_dir: str, chunk_tokens: int = 32):
    """(doc_id, chunk_id, chunk_text) — split each doc's whitespace token
    stream into consecutive ``chunk_tokens``-token windows (the training
    sequence-prep fan-out). Reuses the SpanExploder kernel (vectorized
    Arrow offsets arithmetic, one pass, no per-row Python); SQL-checked via
    the same unnest+window oracle shape as span_dedup. Null-text docs are
    dropped — matching the oracle, where unnest(string_split(NULL))
    produces no rows."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    docs = docs.map_batches(
        lambda t: t.filter(pc.is_valid(t["text"])), batch_format="pyarrow")

    def _rename(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "chunk_id": t["ln"],
                         "chunk_text": t["line"]})

    return (docs.map_batches(SpanExploder(span_tokens=chunk_tokens),
                             batch_format="pyarrow")
            .map_batches(_rename, batch_format="pyarrow")
            .sort(["doc_id", "chunk_id"]))


# RE2 on the Arrow side, RE2 in DuckDB: the SAME pattern strings run in
# both engines, which is what makes the oracle byte-exact.
# The phone pattern is deliberately CONSERVATIVE (3-3-4 groups with
# separators, optional +country / (area)): a permissive "long digit run"
# rule redacts ISO dates, decimals and version strings — corrupting far
# more benign training text than the PII it catches. Bare unpunctuated
# 10-digit runs are left alone for the same reason (order ids, hashes).
PII_PATTERNS: tuple[tuple[str, str], ...] = (
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b(?:\d{1,3}\.){3}\d{1,3}\b", "<IP>"),
    (r"(?:\+\d{1,2}[ .-])?(?:\(\d{3}\)[ .-]?|\b\d{3}[ .-])\d{3}[ .-]\d{4}\b",
     "<PHONE>"),
)


def redact_text(text: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Replace emails / IPv4s / phone numbers with typed tokens — the
    standard pre-training PII hygiene pass, fully vectorized. Nulls
    propagate (regexp over NULL is NULL — matching the SQL oracle)."""
    u = _as_array(text)
    for pat, token in PII_PATTERNS:
        u = pc.replace_substring_regex(u, pat, token)
    return u


def redact_pii(sf_dir: str):
    """(doc_id, clean_text) — PII-redacted documents table, SQL-checked
    (DuckDB regexp_replace with the identical RE2 patterns)."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return docs.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"],
                            "clean_text": redact_text(t["text"])}),
        batch_format="pyarrow").sort("doc_id")


def extract_html_pages(sf_dir: str, n_docs: int = 2000, seed: int = 7):
    """(url, n_chars, byte_identical) — HTML→text extraction proof rows.

    Synthesizes the F1 Common-Crawl-style table (url, warc_ts, html:binary,
    text, lang) deterministically (sources/webpages.encode_html renders the
    full text into a realistic page), runs the ``HtmlExtractor`` actor-pool
    stage on the binary column, and emits one row per url carrying the
    extracted length plus whether extraction reproduced the stored text
    BYTE-IDENTICALLY (the input_hint invariant; every row must say true —
    asserted hard in tests/test_html_extract.py, surfaced here so the
    driver's rows-only check sees the proof column). ``sf_dir`` is unused:
    the crawl table is its own fixture, cached under /tmp.
    """
    from fuzzy_matcher_ray.sources.webpages import write_webpages
    from fuzzy_matcher_ray.stages.extract_stage import extract_pages

    path = write_webpages("/tmp/fm_ray_pages", n_docs, seed)
    ds = rd.read_parquet(path, columns=["url", "html", "text"])

    def _stash(t: pa.Table) -> pa.Table:
        return pa.table({"url": t["url"], "html": t["html"],
                         "stored": t["text"]})

    def _proof(t: pa.Table) -> pa.Table:
        n = pc.cast(pc.utf8_length(_as_array(t["text"])), pa.int64())
        return pa.table({"url": t["url"], "n_chars": n,
                         "byte_identical": pc.equal(t["text"], t["stored"])})

    out = extract_pages(ds.map_batches(_stash, batch_format="pyarrow"))
    return out.map_batches(_proof, batch_format="pyarrow").sort("url")


def compression_ratio(sf_dir: str, level: int = 6):
    """(doc_id, n_bytes, n_compressed, ratio_e6) — per-document zlib
    compression ratio, the Dolma/RedPajama-v2 quality signal (highly
    compressible docs are repetitive boilerplate; incompressible ones are
    often binary junk or gibberish; natural prose sits in a mid band that
    the caller thresholds).

    ratio_e6 = floor(n_compressed / n_bytes · 1e6 + 0.5) as int64 (0 for
    empty/null docs) — fixed-point so downstream equality checks never
    touch float division order. One streaming map, zero shuffle; the
    per-row ``zlib.compress`` C call is inherent to the op (one codec call
    per payload, as with the multimodal decoders) — the surrounding
    batch machinery stays Arrow. No SQL oracle (DuckDB has no zlib);
    the pytest oracle recomputes with the same stdlib codec.
    """
    import zlib

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def _f(t: pa.Table) -> pa.Table:
        texts = pc.fill_null(_as_array(t["text"]), "").to_pylist()
        raw = np.empty(len(texts), np.int64)
        comp = np.empty(len(texts), np.int64)
        for i, s in enumerate(texts):
            b = s.encode("utf-8")
            raw[i] = len(b)
            comp[i] = len(zlib.compress(b, level)) if b else 0
        ratio = np.zeros(len(texts), np.int64)
        nz = raw > 0
        ratio[nz] = np.floor(comp[nz] / raw[nz] * 1e6 + 0.5).astype(np.int64)
        return pa.table({"doc_id": t["doc_id"], "n_bytes": pa.array(raw),
                         "n_compressed": pa.array(comp),
                         "ratio_e6": pa.array(ratio)})

    return docs.map_batches(_f, batch_format="pyarrow").sort("doc_id")


def cap_per_host(pages, k: int = 2, char_col: str = "n_chars"):
    """Keep at most ``k`` pages per host, preferring the longest (min
    doc_id ties) — domain balancing, the cap web pipelines apply so
    megasites can't dominate the training mix.

    Input: Dataset with (doc_id, url, ``char_col``). Output slim
    (host, doc_id, n_chars) winners. Per-batch PARTIAL top-k first (each
    batch forwards at most k rows per host it contains), then the same
    kernel over that k·hosts-sized residue
    (``stages/ranks.grouped_topk``) — the page text never shuffles, the
    full table never moves, and no per-group Python dispatch remains
    (same shape as textops.topk_per_source).
    """
    from fuzzy_matcher_ray.stages.ranks import grouped_topk

    def _slim(t: pa.Table) -> pa.Table:
        return pa.table({
            "host": url_host(t["url"]),
            "doc_id": pc.cast(_as_array(t["doc_id"]), pa.int64()),
            "n_chars": pc.cast(pc.fill_null(_as_array(t[char_col]), 0),
                               pa.int64())})

    slim = pages.map_batches(_slim, batch_format="pyarrow")
    return as_dataset(grouped_topk(slim, "host", "n_chars", "doc_id", k,
                                   empty_schema=pa.schema([
                                       ("host", pa.string()),
                                       ("doc_id", pa.int64()),
                                       ("n_chars", pa.int64())])))


def host_cap(sf_dir: str, k: int = 2):
    """(host, doc_id, n_chars) — the ≤``k`` longest docs per synthesized
    host, SQL-checked (DuckDB window row_number oracle)."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source", "n_chars"])

    def _mk(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"],
                         "url": _synth_host_urls(t),
                         "n_chars": t["n_chars"]})

    return cap_per_host(docs.map_batches(_mk, batch_format="pyarrow"), k) \
        .sort(["host", "n_chars", "doc_id"], descending=[False, True, False])


def _synth_hosts(t: pa.Table) -> pa.Array:
    """Just the host of _synth_host_urls (no scheme/path noise) — the
    per-host report key. The DuckDB oracles rebuild it directly."""
    ids = _as_array(t["doc_id"]).to_numpy(zero_copy_only=False)
    return pc.binary_join_element_wise(
        _as_array(t["source"]), pa.scalar(".example."),
        pa.array(_HOST_TLDS[ids % 3]), "")


def host_dup_stats(sf_dir: str):
    """(host, n_docs, n_unique, n_dups, dup_rate_pm) — per-host exact
    duplication health report: how much of each host's crawl is copies.
    ``dup_rate_pm`` = dups per mille (integer, exact SQL parity).

    The curation signal behind per-host crawl budgets: a host whose pages
    are 90% boilerplate copies gets its fetch budget cut. Shape: per-batch
    Arrow partial (group (host, norm_text) within the batch) → one
    ``groupby(host, norm_text)`` shuffle sums the partials → per-batch
    per-host partial → tiny ``groupby(host)`` merge. Keys here are the raw
    normalized strings for exact SQL parity; at web scale the shuffle key
    would be the 128-bit content hash (cf. pipelines/dedup.py exact pass),
    same topology.
    """
    from ray.data.aggregate import Sum

    from fuzzy_matcher_ray.functions.normalize import normalize_array

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source", "text"])

    def _slim(t: pa.Table) -> pa.Table:
        g = pa.table({
            "host": _synth_hosts(t),
            "norm_text": pc.fill_null(normalize_array(t["text"]), ""),
        }).group_by(["host", "norm_text"]).aggregate([([], "count_all")])
        return pa.table({"host": g["host"], "norm_text": g["norm_text"],
                         "cnt": pc.cast(g["count_all"], pa.int64())})

    keyed = docs.map_batches(_slim, batch_format="pyarrow") \
        .groupby(["host", "norm_text"]).sum("cnt")

    def _per_host(t: pa.Table) -> pa.Table:
        g = pa.table({"host": t["host"], "cnt": t["sum(cnt)"]}) \
            .group_by("host").aggregate([("cnt", "sum"), ([], "count_all")])
        return pa.table({"host": g["host"],
                         "n_docs": pc.cast(g["cnt_sum"], pa.int64()),
                         "n_unique": pc.cast(g["count_all"], pa.int64())})

    merged = keyed.map_batches(_per_host, batch_format="pyarrow") \
        .groupby("host").aggregate(Sum("n_docs", alias_name="n_docs"),
                                   Sum("n_unique", alias_name="n_unique"))

    def _rates(t: pa.Table) -> pa.Table:
        nd = t["n_docs"].to_numpy(zero_copy_only=False).astype(np.int64)
        nu = t["n_unique"].to_numpy(zero_copy_only=False).astype(np.int64)
        dups = nd - nu
        return pa.table({
            "host": t["host"],
            "n_docs": pa.array(nd), "n_unique": pa.array(nu),
            "n_dups": pa.array(dups),
            "dup_rate_pm": pa.array(dups * 1000 // np.maximum(nd, 1)),
        })

    return merged.map_batches(_rates, batch_format="pyarrow").sort("host")


def quality_prune(sf_dir: str, keep_frac: float = 0.5):
    """(doc_id, score) — keep the corpus' top ``keep_frac`` of docs by an
    integer alphabetic-density score (alpha chars per mille of total),
    ties at the threshold included.

    The "prune the bottom half by quality" pretrain curation op. The
    threshold is the k-th largest score, k = ceil(keep_frac·n), found
    EXACTLY and distributed: range ``sort`` on the slim (score) column,
    per-block remote ``len`` builds the offset prefix sum, and ONE scalar
    order statistic is picked remotely where its block lives (same shape
    as events.value_quantiles) — the corpus text never leaves the workers
    and the driver holds one integer. Filter is a streaming expr pushdown.
    Fixed-point score keeps exact SQL parity (no float quantile
    interpolation anywhere).
    """
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def _score(t: pa.Table) -> pa.Table:
        from fuzzy_matcher_ray.functions.textstats import char_classes
        cls = char_classes(pc.fill_null(t["text"], ""))
        total = cls["n_chars_total"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        alpha = cls["n_alpha"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"doc_id": t["doc_id"],
                         "score": pa.array(alpha * 1000
                                           // np.maximum(total, 1))})

    scored = docs.map_batches(_score, batch_format="pyarrow").materialize()
    refs = scored.select_columns(["score"]).sort("score") \
        .materialize().to_arrow_refs()
    _len = ray.remote(num_cpus=0)(lambda tb: len(tb))
    sizes = np.array(ray.get([_len.remote(r) for r in refs]), dtype=np.int64)
    n = int(sizes.sum())
    if n == 0:
        return rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                       "score": pa.array([], pa.int64())}))
    k = min(max(int(np.ceil(keep_frac * n)), 1), n)
    j = n - k                                   # asc index of k-th largest
    offs = np.concatenate(([0], np.cumsum(sizes)))
    b = int(np.searchsorted(offs, j, side="right") - 1)
    _pick = ray.remote(num_cpus=0)(lambda tb, i: tb["score"][i].as_py())
    thr = int(ray.get(_pick.remote(refs[b], j - int(offs[b]))))
    return scored.filter(expr=f"score >= {thr}").sort("doc_id")


def host_quantiles_sketch(sf_dir: str, qs: tuple = (0.5, 0.9),
                          eps: float = 0.01, batch_size: int = 8192):
    """(host, q, value) — per-host mergeable length quantiles: the GROUPED
    member of the sketch family (`events.value_quantiles_sketch` is the
    global one). Host doc-length distributions (p50/p95) are the standard
    crawl-health view next to `host_stats`.

    Shape: the per-batch combiner sorts (host, n_chars) once (lexsort) and
    keeps every ⌊2·eps·n_seg⌋-th order statistic PER host segment with its
    covered weight — summaries are (host, value, weight) rows, mergeable by
    concatenation, ≤ 1/(2·eps)+2 rows per (batch, host). The summaries
    run through ``joins.map_segments`` on host: one kernel sorts a
    segment's rows by (host, value) and extracts every host's quantiles
    with a segmented cumulative-weight searchsorted (no per-host
    dispatch), on the driver while the summaries are small, else per
    range of a range sort on host, each host at a range edge on one of
    its ranges (the span-dedup rebuild's shape). Rank error ≤ 2·eps·n_host
    (per-batch segment sizes sum to the host's total), tested against the
    exact per-host quantiles.
    """
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source", "n_chars"])

    def _summary(t: pa.Table) -> pa.Table:
        host = url_host(_synth_host_urls(t)).to_numpy(zero_copy_only=False)
        v = _as_array(t["n_chars"]).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.lexsort((v, host))
        h, v = host[order], v[order]
        n = len(h)
        if n == 0:
            return pa.table({"host": pa.array([], pa.string()),
                             "value": pa.array([], pa.int64()),
                             "weight": pa.array([], pa.int64())})
        brk = np.empty(n, dtype=bool)
        brk[0] = True
        brk[1:] = h[1:] != h[:-1]
        seg_id = np.cumsum(brk) - 1
        seg_start = np.nonzero(brk)[0]
        seg_len = np.diff(np.append(seg_start, n))
        k_of_seg = np.maximum(1, (2 * eps * seg_len).astype(np.int64))
        rel = np.arange(n) - seg_start[seg_id]
        pick = (rel % k_of_seg[seg_id]) == 0
        w = np.minimum(k_of_seg[seg_id], seg_len[seg_id] - rel)[pick]
        return pa.table({"host": pa.array(h[pick]),
                         "value": pa.array(v[pick]),
                         "weight": pa.array(w, pa.int64())})

    summ = docs.map_batches(_summary, batch_format="pyarrow",
                            batch_size=batch_size).materialize()
    qs_arr = np.asarray(qs, dtype=np.float64)

    def _extract(t: pa.Table) -> pa.Table:
        """Quantiles for every host of ``t``, which holds all of each of
        its hosts' summary rows: one (host, value) sort, then one
        segmented cumulative-weight searchsorted per q."""
        t = t.sort_by([("host", "ascending"), ("value", "ascending")])
        h = _as_array(t["host"]).to_numpy(zero_copy_only=False)
        v = _as_array(t["value"]).to_numpy(zero_copy_only=False)
        w = _as_array(t["weight"]).to_numpy(zero_copy_only=False)
        n = len(h)
        if n == 0:
            return pa.table({"host": pa.array([], pa.string()),
                             "q": pa.array([], pa.float64()),
                             "value": pa.array([], pa.int64())})
        brk = np.empty(n, dtype=bool)
        brk[0] = True
        brk[1:] = h[1:] != h[:-1]
        seg_start = np.nonzero(brk)[0]
        seg_end = np.append(seg_start[1:], n)
        cw = np.cumsum(w)
        seg_cum_start = cw[seg_start] - w[seg_start]
        seg_tot = cw[seg_end - 1] - seg_cum_start
        hosts_out, q_out, v_out = [], [], []
        for q in qs_arr:
            target = seg_cum_start + q * (seg_tot - 1)
            idx = np.minimum(np.searchsorted(cw, target, side="right"),
                             seg_end - 1)
            hosts_out.append(h[seg_start])
            q_out.append(np.full(len(seg_start), q))
            v_out.append(v[idx])
        return pa.table({
            "host": pa.array(np.concatenate(hosts_out), pa.string()),
            "q": pa.array(np.concatenate(q_out), pa.float64()),
            "value": pa.array(np.concatenate(v_out).astype(np.int64))})

    return map_segments(summ, ["host"], _extract).sort(["host", "q"])
