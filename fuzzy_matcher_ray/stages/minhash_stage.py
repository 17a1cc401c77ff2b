"""The sketch stage and the key rows derived from it: MinHash band rows,
SimHash combination-key rows, winnow rows.

≙ reference trie construction + search fan-out
(``fuzzy_matcher_core.go:29-56`` Insert, ``recurse.go:67-175`` Recurse): the
queryable in-RAM index dissolves into key-row datasets on the object store —
docs sharing a key are LSH candidates.

``Signatures`` is the one per-doc sketch map: each fuzzy-tier doc's text is
read once and leaves one row holding its MinHash bands, its SimHash and its
winnowed fingerprints with their positions. The flagship runs it over each
exact group's rep only, one row per distinct fuzzy text. ``add_stage`` runs
it as Ray Data tasks over one instance built when the stage is planned
(permutation parameters are derived once in ``__init__``, never per
batch). The three key-row derivations (``band_key_rows``,
``simhash_key_rows``, ``winnow_key_rows``) are plain per-batch reshapes of
that table, run through ``joins.map_blocks``: on the driver when the
sketch is materialized and small, as a Ray map otherwise. Per-batch work
is vectorized numpy over the concatenated batch bytes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.functions.fingerprint import winnow_batch
from fuzzy_matcher_ray.functions.minhash import band_hashes, minhash_signatures, perm_params
from fuzzy_matcher_ray.functions.normalize import fold_array
from fuzzy_matcher_ray.functions.shingle import counts_to_offsets, shingle_batch
from fuzzy_matcher_ray.functions.simhash import (COMBO_KEYS, simhash_batch,
                                                 simhash_combo_keys)
from fuzzy_matcher_ray.stages.joins import map_blocks
from fuzzy_matcher_ray.stages.normalize_stage import TIER_FUZZY

# bytes of the sketch's fp and pos lists per winnow row (one int64 each)
_WINNOW_ROW_BYTES = 16


def _fuzzy_subset(batch: pa.Table) -> pa.Table:
    return batch.filter(pc.equal(batch["tier"], TIER_FUZZY))


def _int64_lists(values: np.ndarray, counts: np.ndarray) -> pa.ListArray:
    """``values`` cut into one list per doc of ``counts[i]`` items."""
    offsets = pa.array(counts_to_offsets(counts).astype(np.int32))
    return pa.ListArray.from_arrays(offsets, pa.array(values, pa.int64()))


class Signatures:
    """(doc_id, norm_text, tier) → ONE sketch row per fuzzy-tier doc:
    (doc_id, bands: fixed_size_list<int64>[b], simhash: int64,
    fp: list<int64>, pos: list<int64>).

    The single shingle pass of the pipeline (round-1 verdict item 1): MinHash
    band hashes and the SimHash both come from the same rolling-hash shingle
    array over the OCR-folded text (``fold_array``, when ``cfg.ocr_fold``),
    and the winnowed window fingerprints (with each one's char offset, the
    substring verifier's seed) from the unfolded text, so each doc is read
    once for every pass. Downstream, the key-row derivations explode this
    compact table — never the text. Exact-only docs emit nothing — they are
    handled by the content-hash pre-pass (≙ short-name exact tier,
    example_source.go:28-39).
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.a, self.b = perm_params(cfg.num_perms, cfg.seed)   # once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        batch = _fuzzy_subset(batch)
        if len(batch) == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "bands": pa.FixedSizeListArray.from_arrays(
                    pa.array([], pa.int64()), cfg.bands),
                "simhash": pa.array([], pa.int64()),
                "fp": pa.array([], pa.list_(pa.int64())),
                "pos": pa.array([], pa.list_(pa.int64()))})
        norm = batch["norm_text"]
        if isinstance(norm, pa.ChunkedArray):
            norm = norm.combine_chunks()
        fold = fold_array(norm) if cfg.ocr_fold else norm
        hashes, counts = shingle_batch(fold, cfg.shingle_k, cfg.seed)
        sig = minhash_signatures(hashes, counts, self.a, self.b)
        bh = band_hashes(sig, cfg.bands, cfg.rows_per_band)      # (n, bands)
        sim = simhash_batch(hashes, counts)
        fps, fp_counts, positions = winnow_batch(
            norm, cfg.substr_window, cfg.substr_winnow, cfg.seed)
        return pa.table({
            "doc_id": batch["doc_id"],
            "bands": pa.FixedSizeListArray.from_arrays(
                pa.array(bh.reshape(-1).view(np.int64), pa.int64()), cfg.bands),
            "simhash": pa.array(sim.view(np.int64), pa.int64()),
            "fp": _int64_lists(fps.view(np.int64), fp_counts),
            "pos": _int64_lists(positions, fp_counts),
        })


def band_key_rows(sigs, cfg: PipelineConfig):
    """Signature rows → LSH band key rows (band:int8, band_hash:int64, doc_id).

    Pure reshape of the compact signature table (no text, no hashing).
    Handles both fixed_size_list (in-memory) and list (parquet round-trip).
    """
    band_ids = np.arange(cfg.bands, dtype=np.int8)

    def _f(t: pa.Table) -> pa.Table:
        n = len(t)
        flat = pc.list_flatten(t["bands"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "band": pa.array(np.tile(band_ids, n)),
            "band_hash": pa.array(flat, pa.int64()),
            "doc_id": pa.array(np.repeat(
                t["doc_id"].to_numpy(zero_copy_only=False), cfg.bands)),
        })

    return map_blocks(sigs, _f, lambda ds: ds.count() * cfg.bands)


def simhash_key_rows(sigs, cfg: PipelineConfig):
    """Signature rows → Manku combination-key rows
    (block:int8, block_val:int64, simhash:int64, doc_id).

    6-piece / choose-3 combination keys (20 per doc, ~32 bits each):
    pigeonhole-complete for Hamming distance <= 3 with ~2^16x fewer random
    key collisions than 16-bit block keys — the backstop pass for
    near-threshold misses of the MinHash S-curve. Derived from the 64-bit
    simhash column only — no text access.
    """

    def _f(t: pa.Table) -> pa.Table:
        sim = t["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        keys, n_combos = simhash_combo_keys(sim)                 # (n, 20)
        combo_ids = np.arange(n_combos, dtype=np.int8)
        return pa.table({
            "block": pa.array(np.tile(combo_ids, len(t))),
            "block_val": pa.array(keys.reshape(-1).view(np.int64)),
            "simhash": pa.array(np.repeat(sim, n_combos).view(np.int64)),
            "doc_id": pa.array(np.repeat(
                t["doc_id"].to_numpy(zero_copy_only=False), n_combos)),
        })

    return map_blocks(sigs, _f, lambda ds: ds.count() * COMBO_KEYS)


def winnow_key_rows(sigs):
    """Signature rows → winnow key rows (fp:int64, doc_id, pos:int64): the
    flatten of the sketch's fp and pos lists, one row per fingerprint, in
    the order ``Winnower`` emits them. The sketch's byte size bounds the
    row count (every row is one int64 in each list)."""

    def _f(t: pa.Table) -> pa.Table:
        n = pc.list_value_length(t["fp"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "fp": pc.list_flatten(t["fp"]),
            "doc_id": pa.array(np.repeat(
                t["doc_id"].to_numpy(zero_copy_only=False), n)),
            "pos": pc.list_flatten(t["pos"]),
        })

    return map_blocks(sigs, _f, lambda ds: ds.size_bytes() // _WINNOW_ROW_BYTES)


class Winnower:
    """(doc_id, norm_text, tier) → fingerprint rows (fp, doc_id, pos), the
    rows ``winnow_key_rows`` flattens out of the sketch, as a map of its own.

    Winnowed window fingerprints: any two docs sharing an exact substring of
    length >= window + winnow - 1 share at least one fp — the co-location key
    for the substring-dedup (suffix-array verify) stage.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        batch = _fuzzy_subset(batch)
        if len(batch) == 0:
            return pa.table({"fp": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64())})
        fps, counts, positions = winnow_batch(batch["norm_text"], cfg.substr_window,
                                              cfg.substr_winnow, cfg.seed)
        doc_ids = batch["doc_id"].to_numpy()
        return pa.table({
            "fp": pa.array(fps.view(np.int64)),
            "doc_id": pa.array(np.repeat(doc_ids, counts)),
            "pos": pa.array(positions),
        })


def add_stage(docs_norm, cls, cfg: PipelineConfig):
    """Run a signature stage as stateless-instance tasks: the per-worker
    state is a 2 KB permutation matrix rebuilt in ~50 us — far below the
    actor-pool amortization threshold, and elastic tasks avoid idle CPU
    reservation (pool startup costs ~5 s per stage on a cold cluster).
    Stages with heavy per-actor state pool on their own (see
    pipelines/multimodal.py)."""
    return docs_norm.map_batches(
        cls(cfg), batch_format="pyarrow", batch_size=cfg.batch_size,
        zero_copy_batch=True)
