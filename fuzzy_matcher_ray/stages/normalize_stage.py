"""Normalize + gate stage.

≙ reference Build-time per-entry work (``fuzzy_matcher_core.go:59-106``):
NormalizeField (normalize.go:9-15) + ValidateEntry tiering
(example_source.go:84-101 — degenerate records take the exact-only path)
+ the exact-dedup key. Stateless, Arrow in / Arrow out (zero-copy from the
object store), in three passes over the batch's bytes: ``utf8_lower``, a
numpy byte filter to ``[a-z0-9]`` (``normalize_array``) and one keyed
blake2b-128 digest per doc (``exact_key``, the ``text_hash`` and
``text_hash2`` columns). The wide raw ``text``/``html`` columns are
dropped here so they never flow through a shuffle (SURVEY.md §7 "hard
parts"). The OCR fold is not stored: the sketch map
(stages/minhash_stage.py ``Signatures``) folds the fuzzy docs' text
in-kernel, the only place that reads it.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.functions.fingerprint import exact_key
from fuzzy_matcher_ray.functions.normalize import normalize_array

TIER_SKIP = -1        # empty normalized text → unmatchable, always a singleton
#                       (≙ reject on missing required field, fuzzy_matcher_core.go:230-234)
TIER_EXACT_ONLY = 0   # too short / degenerate → exact-hash dedup only
TIER_FUZZY = 1        # full MinHash / SimHash / substring treatment


class NormalizeGate:
    """(doc_id, text [, url], ...) → (doc_id, norm_text, text_hash,
    text_hash2, tier [, url]).

    A plain function would do (no real per-actor state) but we keep the
    callable-class shape so the config is deserialized once per worker.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        norm = normalize_array(text)
        n_norm = pc.binary_length(norm)     # ASCII: one byte a char
        tier = pc.if_else(
            pc.greater_equal(n_norm, pa.scalar(self.cfg.min_text_len)),
            pa.scalar(TIER_FUZZY, pa.int8()), pa.scalar(TIER_EXACT_ONLY, pa.int8()))
        tier = pc.if_else(pc.equal(n_norm, pa.scalar(0)),
                          pa.scalar(TIER_SKIP, pa.int8()), tier)
        # the 128-bit exact-dup key, two int64 halves: no per-group text
        # comparison needed even at 10^12 docs
        h1, h2 = exact_key(norm, self.cfg.seed)
        cols = {
            "doc_id": batch["doc_id"],
            "norm_text": norm,
            "text_hash": pa.array(h1),
            "text_hash2": pa.array(h2),
            "tier": tier,
        }
        if "url" in batch.column_names:
            # rides to the clusters output, so no join fetches it back
            cols["url"] = batch["url"]
        return pa.table(cols)


def normalized_docs(docs, cfg: PipelineConfig, batch_size: int | None = None):
    """docs Dataset (doc_id:int64, text:string [, url:string, ...]) →
    normalized Dataset (``url`` passes through when present)."""
    return docs.map_batches(
        NormalizeGate(cfg), batch_format="pyarrow",
        batch_size=batch_size or cfg.batch_size, zero_copy_batch=True)
