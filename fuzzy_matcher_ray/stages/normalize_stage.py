"""Normalize + gate stage.

≙ reference Build-time per-entry work (``fuzzy_matcher_core.go:59-106``):
NormalizeField (normalize.go:9-15) + ValidateEntry tiering
(example_source.go:84-101 — degenerate records take the exact-only path).
Stateless, fully vectorized, Arrow in / Arrow out (zero-copy from the object
store). The wide raw ``text``/``html`` columns are dropped here so they never
flow through a shuffle (SURVEY.md §7 "hard parts").
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.functions.fingerprint import content_hash
from fuzzy_matcher_ray.functions.normalize import fold_array, normalize_array

TIER_SKIP = -1        # empty normalized text → unmatchable, always a singleton
#                       (≙ reject on missing required field, fuzzy_matcher_core.go:230-234)
TIER_EXACT_ONLY = 0   # too short / degenerate → exact-hash dedup only
TIER_FUZZY = 1        # full MinHash / SimHash / substring treatment


class NormalizeGate:
    """(doc_id, text [, url], ...) → (doc_id, norm_text, fold_text, n_norm,
    text_hash, text_hash2, tier [, url]).

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
        fold = fold_array(norm) if self.cfg.ocr_fold else norm
        n_norm = pc.utf8_length(norm)
        tier = pc.if_else(
            pc.greater_equal(n_norm, pa.scalar(self.cfg.min_text_len)),
            pa.scalar(TIER_FUZZY, pa.int8()), pa.scalar(TIER_EXACT_ONLY, pa.int8()))
        tier = pc.if_else(pc.equal(n_norm, pa.scalar(0)),
                          pa.scalar(TIER_SKIP, pa.int8()), tier)
        # two independent 64-bit hashes = a 128-bit exact-dup key: collision
        # probability ~2^-128 ⇒ no per-group text comparison needed even at
        # 10^12 docs
        thash = pa.array(content_hash(norm, seed=self.cfg.seed).view(np.int64))
        thash2 = pa.array(content_hash(norm, seed=self.cfg.seed ^ 0x5F3759DF).view(np.int64))
        cols = {
            "doc_id": batch["doc_id"],
            "norm_text": norm,
            "fold_text": fold,
            "n_norm": pc.cast(n_norm, pa.int64()),
            "text_hash": thash,
            "text_hash2": thash2,
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
