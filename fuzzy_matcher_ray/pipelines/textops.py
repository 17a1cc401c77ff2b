"""Text-analysis pipelines over the ``documents`` table.

Training-data operators (lang-id heuristic, quality counters, token counts,
fingerprints) plus the normalize/exact-dedup query surface. All outputs use
integer or exactly-reproducible columns so the DuckDB oracle hash-matches.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.functions.fingerprint import winnow_batch
from fuzzy_matcher_ray.functions.normalize import normalize_array
from fuzzy_matcher_ray.functions.textstats import (
    char_classes, quality_tier, stopword_hits, token_count)


def _docs(sf_dir: str):
    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])


def normalized_text(sf_dir: str):
    """(doc_id, norm_text) — the byte-identical normalization invariant
    (normalize.go:9-15; oracle: regexp_replace(lower(text),'[^a-zA-Z0-9]+','','g'))."""
    def _f(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"],
                         "norm_text": normalize_array(t["text"])})
    return _docs(sf_dir).map_batches(_f, batch_format="pyarrow")


def _filled_norm(sf_dir: str):
    """normalized_text with NULLs filled to '': the dedup gates define a
    null doc as an empty doc (both engines — the oracles coalesce), and a
    null groupby key would crash Ray's sort-based shuffle partitioning."""
    return normalized_text(sf_dir).map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"],
                            "norm_text": pc.fill_null(t["norm_text"], "")}),
        batch_format="pyarrow")


def exact_dedup_first(sf_dir: str):
    """Keep the min doc_id per normalized text (exact dedup winner list).

    groupby(norm_text) is the hash-partitioned shuffle; at web scale the key
    would be the 64-bit content hash (pipelines/dedup.py) — here the raw
    string keys keep the SQL oracle exact.
    """
    from ray.data.aggregate import Min
    ds = _filled_norm(sf_dir)
    kept = ds.groupby("norm_text").aggregate(Min("doc_id", alias_name="doc_id"))
    return kept.select_columns(["doc_id"]).sort("doc_id")


def exact_clusters(sf_dir: str):
    """(doc_id, cluster_id) where cluster_id = min doc_id sharing norm text."""
    from ray.data.aggregate import Min
    ds = _filled_norm(sf_dir)
    reps = ds.groupby("norm_text").aggregate(Min("doc_id", alias_name="cluster_id"))
    from fuzzy_matcher_ray.stages.joins import attach_columns
    out = attach_columns(ds, reps, "norm_text", "norm_text",
                         {"cluster_id": "cluster_id"}, how="inner")
    return out.select_columns(["doc_id", "cluster_id"]).sort("doc_id")


def cluster_representatives(sf_dir: str):
    """(cluster_id, doc_id, n_chars) — per exact-dup cluster, the BEST
    surviving copy: longest raw text, ties broken by min doc_id (the
    training-data "keep best copy" selection policy, vs the arbitrary
    min-id winner of ``exact_dedup_first``).

    Shape: one groupby(norm_text) labels clusters (min doc_id = label);
    everything after runs over slim (cluster_id, doc_id, n_chars) rows —
    max-length per cluster, then min doc_id among the maxima — so the text
    column never re-shuffles. SQL-checked (window-argmax parity).
    """
    from ray.data.aggregate import Max, Min

    from fuzzy_matcher_ray.stages.joins import attach_columns

    def _slim(t: pa.Table) -> pa.Table:
        filled = pc.fill_null(t["text"], "")
        return pa.table({
            "doc_id": t["doc_id"],
            "norm_text": pc.fill_null(normalize_array(t["text"]), ""),
            "n_chars": pc.cast(pc.utf8_length(filled), pa.int64())})

    slim = _docs(sf_dir).map_batches(_slim, batch_format="pyarrow") \
        .materialize()
    reps = slim.groupby("norm_text").aggregate(
        Min("doc_id", alias_name="cluster_id"))
    labeled = attach_columns(slim, reps, "norm_text", "norm_text",
                             {"cluster_id": "cluster_id"}, how="inner") \
        .select_columns(["cluster_id", "doc_id", "n_chars"]).materialize()
    mx = labeled.groupby("cluster_id").aggregate(
        Max("n_chars", alias_name="max_chars"))
    best = attach_columns(labeled, mx, "cluster_id", "cluster_id",
                          {"max_chars": "max_chars"}, how="inner")

    def _winners(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["n_chars"], t["max_chars"]))
        return pa.table({"cluster_id": t["cluster_id"],
                         "doc_id": t["doc_id"], "n_chars": t["n_chars"]})

    out = best.map_batches(_winners, batch_format="pyarrow") \
        .groupby("cluster_id").aggregate(Min("doc_id", alias_name="doc_id"),
                                         Max("n_chars", alias_name="n_chars"))
    return out.sort("cluster_id")


def token_counts(sf_dir: str):
    """(doc_id, n_tokens) — whitespace-delimited token count."""
    def _f(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"],
                         "n_tokens": pc.cast(token_count(t["text"]), pa.int64())})
    return _docs(sf_dir).map_batches(_f, batch_format="pyarrow")


def _pack(ds, window: int, stamp_mode: str = "distributed"):
    """Core of ``pack_sequences`` over a (doc_id, text) Dataset."""
    from fuzzy_matcher_ray.stages.ranks import stamp_global_prefix_sums

    def _tc(t: pa.Table) -> pa.Table:
        toks = pc.cast(token_count(pc.fill_null(t["text"], "")), pa.int64())
        return pa.table({"doc_id": t["doc_id"], "tc": toks})

    slim = ds.map_batches(_tc, batch_format="pyarrow").sort("doc_id")
    stamped = stamp_global_prefix_sums(slim, "tc", col="off",
                                       mode=stamp_mode)

    def _explode(t: pa.Table) -> pa.Table:
        tc = t["tc"].to_numpy(zero_copy_only=False).astype(np.int64)
        off = t["off"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        keep = tc > 0
        tc, off, ids = tc[keep], off[keep], ids[keep]
        first = off // window
        cnt = (off + tc - 1) // window - first + 1
        ridx = np.repeat(np.arange(len(ids), dtype=np.int64), cnt)
        intra = (np.arange(int(cnt.sum()), dtype=np.int64)
                 - np.repeat(np.cumsum(cnt) - cnt, cnt))
        seq = first[ridx] + intra
        return pa.table({
            "seq_id": pa.array(seq),
            "doc_id": pa.array(ids[ridx]),
            "tok_start": pa.array(np.maximum(0, seq * window - off[ridx])),
            "tok_end": pa.array(np.minimum(tc[ridx],
                                           (seq + 1) * window - off[ridx])),
        })

    return stamped.map_batches(_explode, batch_format="pyarrow") \
                  .sort(["seq_id", "doc_id"])


def pack_sequences(sf_dir: str, window: int = 64,
                   stamp_mode: str = "distributed"):
    """(seq_id, doc_id, tok_start, tok_end) — pretraining sequence packing:
    the corpus's whitespace tokens, concatenated in doc_id order, cut into
    fixed ``window``-token sequences. A doc spanning several windows emits
    one row per window with its in-doc token range [tok_start, tok_end);
    zero-token (or null) docs emit nothing.

    Only a slim (doc_id, n_tokens) table ever moves: global token offsets
    are a distributed EXCLUSIVE prefix sum over the doc_id-sorted slim
    table (per-block remote sums → O(blocks) driver ints → per-block
    stamp — ``stages/ranks.stamp_global_prefix_sums``), then each block
    vectorized-explodes its own rows into their window spans. Text never
    shuffles; no whole-corpus driver materialization at any scale."""
    return _pack(_docs(sf_dir), window, stamp_mode)


def text_quality(sf_dir: str):
    """(doc_id, n_chars_total, n_alpha, n_digit, n_space, stop_hits, tier).

    Integer quality counters + the coarse gate tier (≙ ValidateEntry,
    example_source.go:84-101).
    """
    def _f(t: pa.Table) -> pa.Table:
        text = pc.fill_null(t["text"], "")   # null doc == empty doc
        cls = char_classes(text)
        hits = stopword_hits(text)
        toks = token_count(text)
        tier = quality_tier(
            toks.to_numpy(zero_copy_only=False).astype(np.int64),
            cls["n_chars_total"].to_numpy(zero_copy_only=False).astype(np.int64),
            hits.to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table({
            "doc_id": t["doc_id"],
            "n_chars_total": pc.cast(cls["n_chars_total"], pa.int64()),
            "n_alpha": pc.cast(cls["n_alpha"], pa.int64()),
            "n_digit": pc.cast(cls["n_digit"], pa.int64()),
            "n_space": pc.cast(cls["n_space"], pa.int64()),
            "stop_hits": hits,
            "tier": pa.array(tier.astype(np.int64)),
        })
    return _docs(sf_dir).map_batches(_f, batch_format="pyarrow")


def lang_guess(sf_dir: str):
    """(doc_id, lang_guess) — stopword-hit heuristic ('en' vs 'other')."""
    def _f(t: pa.Table) -> pa.Table:
        hits = stopword_hits(pc.fill_null(t["text"], ""))
        guess = pc.if_else(pc.greater(hits, pa.scalar(0)),
                           pa.scalar("en"), pa.scalar("other"))
        return pa.table({"doc_id": t["doc_id"], "lang_guess": guess})
    return _docs(sf_dir).map_batches(_f, batch_format="pyarrow")


def topk_longest(sf_dir: str, k: int = 10):
    """Top-k docs by char length (desc), doc_id asc tiebreak — global
    sort+limit (≙ sort+truncate, fuzzy_matcher_core.go:281-287)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "n_chars"])
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(k)


def docs_by_lang_source(sf_dir: str):
    """Grouped aggregate: count + total chars per (lang, source)."""
    from ray.data.aggregate import Count, Sum
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "source", "n_chars"])
    out = ds.groupby(["lang", "source"]).aggregate(
        Count(alias_name="n_docs"), Sum("n_chars", alias_name="total_chars"))
    return out.sort(["lang", "source"])


def remove_tombstoned(sf_dir: str, modulus: int = 97):
    """Anti-join removal (≙ RemoveEntries, clean.go:93-134): tombstones =
    doc_ids divisible by ``modulus``; returns surviving (doc_id) sorted."""
    from fuzzy_matcher_ray.state.tombstones import remove_ids
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _tombs(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % modulus == 0))

    tombs = docs.map_batches(_tombs, batch_format="pyarrow")
    return remove_ids(docs, tombs).sort("doc_id")


def ngram_jaccard_adjacent(sf_dir: str, k: int = 5):
    """Verify-kernel parity query: exact k-gram Jaccard of consecutive-id doc
    pairs, rounded to 6 dp (SQL oracle recomputes via substring unnest)."""
    from fuzzy_matcher_ray.stages.verify import JaccardVerifier, attach_pair_texts
    cfg = PipelineConfig(shingle_k=k)
    ds = normalized_text(sf_dir).materialize()

    def _pairs(t: pa.Table) -> pa.Table:
        return pa.table({"a": t["doc_id"],
                         "b": pc.add(t["doc_id"], pa.scalar(1, pa.int64()))})
    pairs = ds.map_batches(_pairs, batch_format="pyarrow")
    wt = attach_pair_texts(pairs, ds)     # inner join drops the last id
    ver = wt.map_batches(JaccardVerifier(cfg, threshold=0.0), batch_format="pyarrow")

    def _round(t: pa.Table) -> pa.Table:
        return pa.table({"a": t["a"], "b": t["b"],
                         "jaccard": pc.round(t["jaccard"], ndigits=6, round_mode="half_towards_infinity")})
    return ver.map_batches(_round, batch_format="pyarrow").sort(["a", "b"])


def sample_stratified(sf_dir: str, en_keep: int = 3, other_keep: int = 1,
                      buckets: int = 10):
    """Deterministic stratified sampling for data mixing: keep
    ``en_keep``/``buckets`` of docs whose lang is 'en' and
    ``other_keep``/``buckets`` of the rest, chosen by a pure function of
    doc_id (Knuth multiplicative hash mod a prime) so the sample is stable
    across runs/partitionings and needs NO shuffle. Returns (doc_id, lang).

    At 100 TB this is the pattern for split/mixture construction: the hash
    decision rides inside the streaming read, nothing moves.
    """
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang"])

    def _f(t: pa.Table) -> pa.Table:
        # doc_id < 2^31 keeps the product exact in int64 (no wrap) so the
        # SQL oracle's non-wrapping BIGINT arithmetic agrees bit-for-bit.
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = (ids * 2654435761) % 1000000007 % buckets
        is_en = pc.equal(t["lang"], pa.scalar("en")).to_numpy(
            zero_copy_only=False)
        keep = bucket < np.where(is_en, en_keep, other_keep)
        return t.filter(pa.array(keep))

    return ds.map_batches(_f, batch_format="pyarrow").sort("doc_id")


def mix_epochs(sf_dir: str, buckets: int = 10, frac_keep: int = 5):
    """(doc_id, source, copy_idx) — weighted source OVERSAMPLING for
    pretrain data mixing: each doc is repeated per its source's mixing
    weight, fractional weights resolved by a pure hash of doc_id (the
    deterministic analog of "epochs per source" in published pretrain
    recipes, where high-quality sources repeat 2-3x per pass).

    Weight rule (deterministic from the source name so the SQL oracle can
    rebuild it): ``idx = int(source[3:])``; full copies = ``1 + idx % 2``,
    plus one extra copy iff ``idx % 3 == 0`` AND the doc's Knuth-hash
    bucket (< ``frac_keep`` of ``buckets``) selects it — i.e. weights of
    1.0 / 1.5 / 2.0 / 2.5 by source class.

    Streaming shape: the repeat rides inside ``map_batches`` as one
    ``np.repeat`` (no shuffle, no state); at 100 TB this is the pattern for
    mixture construction — output size = Σ weights, nothing moves twice.
    ``doc_id < 2^31`` keeps the hash product exact in int64 (same contract
    as sample_stratified).
    """
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source"])
    return mix_epochs_ds(ds, buckets, frac_keep)


def mix_epochs_ds(docs, buckets: int = 10, frac_keep: int = 5):
    """``mix_epochs`` over an explicit (doc_id, source) Dataset — the
    composable form the curation recipe chains."""
    ds = docs

    def _f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = pc.cast(pc.utf8_slice_codeunits(t["source"], 3),
                      pa.int64()).to_numpy(zero_copy_only=False)
        full = 1 + (idx % 2)
        bucket = (ids * 2654435761) % 1000000007 % buckets
        extra = ((idx % 3 == 0) & (bucket < frac_keep)).astype(np.int64)
        copies = full + extra
        rep = np.repeat(np.arange(len(ids), dtype=np.int64), copies)
        starts = np.cumsum(copies) - copies
        copy_idx = np.arange(rep.size, dtype=np.int64) - starts[rep]
        return pa.table({
            "doc_id": pa.array(ids[rep]),
            "source": pc.take(t["source"], pa.array(rep)),
            "copy_idx": pa.array(copy_idx),
        })

    return ds.map_batches(_f, batch_format="pyarrow") \
        .sort(["doc_id", "copy_idx"])


def topk_per_source(sf_dir: str, k: int = 3):
    """(source, doc_id, n_chars) — the k longest docs per source
    (window-function shape). Per-batch PARTIAL top-k first (each batch
    forwards at most k rows per source), then the same kernel over that
    k·sources residue (``stages/ranks.grouped_topk``) — the full table
    never shuffles and no per-group Python runs anywhere.
    """
    from fuzzy_matcher_ray.stages.ranks import grouped_topk

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["source", "doc_id", "n_chars"])
    out = grouped_topk(ds, "source", "n_chars", "doc_id", k,
                       empty_schema=pa.schema([
                           ("source", pa.string()), ("doc_id", pa.int64()),
                           ("n_chars", pa.int64())]))
    return out.sort(["source", "n_chars", "doc_id"],
                    descending=[False, True, False])


def fingerprint_counts(sf_dir: str, cfg: PipelineConfig | None = None):
    """(doc_id, n_fingerprints) — winnowed fingerprint cardinality per doc
    (rolling-hash document fingerprinting; no SQL oracle)."""
    cfg = cfg or PipelineConfig()

    def _f(t: pa.Table) -> pa.Table:
        norm = normalize_array(t["text"])
        _, counts, _pos = winnow_batch(norm, cfg.substr_window, cfg.substr_winnow, cfg.seed)
        return pa.table({"doc_id": t["doc_id"],
                         "n_fingerprints": pa.array(counts)})
    return _docs(sf_dir).map_batches(_f, batch_format="pyarrow").sort("doc_id")


def shuffle_epoch(sf_dir: str, epoch: int = 1, stamp_mode: str = "distributed"):
    """(doc_id, shuffle_rank) — deterministic epoch shuffle order for
    training: rank = position of doc_id under the Knuth multiplicative
    hash salted by ``epoch``. A distributed range ``sort`` on the hash
    (the standard epoch-shuffling pattern: different epoch → different
    but reproducible permutation; no RNG state, resumable mid-epoch).
    SQL-checked via row_number over the same non-wrapping arithmetic.

    The global rank is stamped DISTRIBUTED: the range sort leaves blocks
    in key order, so rank = block-offset prefix sum + in-block position;
    the offsets come from block METADATA row counts and every block stamps
    itself in its own Ray task (``stages/ranks.stamp_global_positions``) —
    no whole-dataset driver materialization at any corpus size.
    ``stamp_mode="driver"`` is the test-only parity oracle."""
    from fuzzy_matcher_ray.stages.ranks import stamp_global_positions

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    if ds.limit(1).count() == 0:
        # empty input: the lazy sort keys would not resolve on a
        # schema-less zero-block dataset
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "shuffle_rank": pa.array([], pa.int64())}))

    def _key(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # doc_id < 2^31 and epoch small: products stay exact in int64
        h = ((ids + epoch) * 2654435761) % 1000000007
        return pa.table({"doc_id": t["doc_id"], "h": pa.array(h)})

    keyed = ds.map_batches(_key, batch_format="pyarrow").sort(["h", "doc_id"])
    stamped = stamp_global_positions(keyed, col="shuffle_rank",
                                     mode=stamp_mode)
    return stamped.select_columns(["doc_id", "shuffle_rank"]).sort("doc_id")


def normalize_nfc(sf_dir: str):
    """(doc_id, nfc_text, changed) — Unicode NFC normalization, the
    multilingual-pipeline canonicalization step (decomposed accent
    sequences fold to their precomposed forms so equality/dedup keys
    agree across crawl encoders). One streaming Arrow kernel pass
    (``utf8_normalize``), zero shuffle.

    The sf fixture is ASCII, so a deterministic DECOMPOSED suffix is
    synthesized per row (combining acute/grave keyed by ``doc_id % 2``)
    to make the query non-vacuous; the DuckDB oracle builds the same
    strings with ``chr()`` and checks ``nfc_normalize`` parity exactly.
    """
    docs = _docs(sf_dir)

    def _f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        base = pc.utf8_slice_codeunits(
            pc.fill_null(t["text"], ""), 0, 8)
        # doc_id%2==0 → "e" + U+0301 (combining acute), else "a" + U+0300
        suffix = np.where(ids % 2 == 0, "e\u0301", "a\u0300")
        raw = pc.binary_join_element_wise(base, pa.array(suffix), "")
        # pyarrow 16.1.0's utf8_normalize(form="NFC") performs NO canonical
        # composition (e + U+0301 comes back decomposed) — the Arrow kernel
        # cannot be trusted here (same vendor-kernel caveat as pc.coalesce
        # in stages/cluster.py). CPython's UCD does it right; a per-row C
        # call, as with the codec ops.
        import unicodedata
        nfc = pa.array([unicodedata.normalize("NFC", s)
                        for s in raw.to_pylist()], pa.string())
        changed = pc.cast(pc.not_equal(nfc, raw), pa.int64())
        return pa.table({"doc_id": t["doc_id"], "nfc_text": nfc,
                         "changed": changed})

    return docs.map_batches(_f, batch_format="pyarrow").sort("doc_id")


def cluster_size_histogram(sf_dir: str):
    """(size, n_clusters) — the exact-dup cluster-size distribution, the
    dedup-health report every corpus run ships with (a fat tail of giant
    clusters means boilerplate leakage; all-singletons means the corpus
    was already deduped). Two nested aggregations over slim rows: cluster
    sizes from one groupby over (doc_id, cluster_id) labels, then the
    size histogram from a second groupby over the cluster-sized result —
    each exchange is no larger than its input's distinct-key count."""
    from ray.data.aggregate import Count
    labels = exact_clusters(sf_dir)
    sizes = labels.groupby("cluster_id").aggregate(
        Count("doc_id", alias_name="size"))
    hist = sizes.groupby("size").aggregate(
        Count("cluster_id", alias_name="n_clusters"))
    return hist.sort("size")
