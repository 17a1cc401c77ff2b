"""Entity matching: the reference's flagship ``Search`` query as a Ray
pipeline — multi-field normalized fuzzy matching with weighted scoring,
thresholds and per-query top-k.

Parity map (vs ``/root/reference``):
- normalize per field            ← normalize.go:9-15
- OCR confusable folding (fuzzy keys + verify) ← recurse.go:7-41 tables
- verify-time confusable substitution discount ← recurse.go single-char
  swaps (candidate search counts a swap as one ordinary edit; set
  ``ocr_confusable_cost < 1`` to forgive them further — applied pairwise per
  aligned position, so no transitive alphabet collapse)
- short-record exact-only tier   ← example_source.go:28-39 (avg len <= 3.5);
  enforced at BOTH key emission and verification (an exact-tier record never
  fuzzy-matches, whichever side of the join it is on)
- per-record dynamic parameters  ← GetSearchParameters
  (example_source.go:20-81): an optional per-row ``max_edits`` column on the
  query table caps that row's edit budget; 0 ⇒ exact-only tier for the row
- candidate generation           ← trie Recurse/BFS (recurse.go:67-175) —
  here: hashed character-n-gram blocking keys per (field, gram); fuzzy-tier
  records emit gram hashes, exact-tier/exact-method fields emit the
  whole-value hash only (same Horner hash ⇒ a value of length == gram_k
  meets matching grams; the tier rule in the verifier rejects non-identical
  short-record matches, example_source.go exact-only rule)
- per-field verification         ← CalculateSimilarity dispatch
  (distance.go:19-38) + MinDistances reject (fuzzy_matcher_core.go:249-252)
- per-field edit cap             ← per-field MaxEdits bound on the trie walk
- missing required field reject  ← fuzzy_matcher_core.go:230-234
- weighted sum                   ← fuzzy_matcher_core.go:262-267
- global edit budget             ← CleanMatches (clean.go:54-90)
- sort desc + top-k              ← fuzzy_matcher_core.go:281-287
- TTL filter / tombstones        ← clean.go:29-51 / clean.go:93-134 as
  read-time predicates (state/tombstones.py)

Scale shape: both sides are Datasets; blocking is one key-local kernel
(``_block_pairs`` over ``joins.key_local``) on slim (field int32, gram
int64-hash) key rows; verification is a fully batched numpy kernel over
candidate pairs (similarity.py batched JW/Levenshtein — no per-row Python
in any hot stage); field values attach by broadcast lookup (small index)
or key-local lookup (both sides large); the per-query top-k is
``stages/ranks.grouped_topk`` by (score desc, rec_id asc).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from fuzzy_matcher_ray.config import EntityMatchConfig
from fuzzy_matcher_ray.stages.candidates import dedup_pairs
from fuzzy_matcher_ray.functions.normalize import (
    confusable_table, fold_array, normalize_array)
from fuzzy_matcher_ray.functions.similarity import (
    _jw_padded, _lev_padded, pad_utf32)
from fuzzy_matcher_ray.stages.joins import (
    SIDE, as_dataset, attach_columns, key_codes, key_local, sort_rows)
from fuzzy_matcher_ray.stages.ranks import grouped_topk

_HASH_P = np.uint64(1099511628211)     # FNV-1a prime, Horner base
_HASH_PAD = np.uint64(0xFFFFFFFFFFFFFFFF)


def _horner_full(mat: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Whole-string Horner hash over padded codepoint rows (uint64 wrap)."""
    n = mat.shape[0]
    h = np.zeros(n, dtype=np.uint64)
    for t in range(mat.shape[1]):
        active = t < lens
        if not active.any():
            break
        h[active] = h[active] * _HASH_P + mat[active, t].astype(np.uint64)
    return h


def _window_hashes(mat: np.ndarray, lens: np.ndarray, k: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row k-gram Horner hashes: (n, W) uint64 + validity mask.

    Rows with 0 < len < k get their whole-string hash in column 0 (same
    Horner scheme, so it equals the other side's whole-value key for the
    same short string).
    """
    from numpy.lib.stride_tricks import sliding_window_view
    n, L = mat.shape
    if L < k:
        mat = np.concatenate([mat, np.zeros((n, k - L), dtype=mat.dtype)], axis=1)
        L = k
    win = sliding_window_view(mat, k, axis=1)          # (n, W, k) view
    W = win.shape[1]
    h = np.zeros((n, W), dtype=np.uint64)
    for t in range(k):
        h = h * _HASH_P + win[:, :, t].astype(np.uint64)
    valid = np.arange(W)[None, :] < np.maximum(lens - k + 1, 0)[:, None]
    short = (lens > 0) & (lens < k)
    if short.any():
        h[short, 0] = _horner_full(mat[short], lens[short])
        valid[short, 0] = True
    return h, valid


def _normalized_fields(batch: pa.Table, cfg: EntityMatchConfig) -> dict:
    out = {}
    for f in cfg.fields:
        if f in batch.schema.names:
            col = batch[f]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            out[f] = normalize_array(pc.fill_null(col, ""))
    return out


def _exact_tier_np(norm: dict, cfg: EntityMatchConfig, n: int) -> np.ndarray:
    """Vectorized short-record rule (example_source.go:28-39):
    avg(len(firstname), len(surname)) <= threshold ⇒ exact-only tier.
    Falls back to the average over all fields when those are absent."""
    probe = [f for f in ("firstname", "surname") if f in norm]
    if not probe:
        probe = list(norm)
    if not probe:
        return np.zeros(n, dtype=bool)
    total = np.zeros(n, dtype=np.float64)
    for f in probe:
        total += pc.utf8_length(norm[f]).to_numpy(zero_copy_only=False)
    return (total / len(probe)) <= cfg.short_avg_len


def _row_max_edits(batch: pa.Table, col: str, n: int) -> np.ndarray | None:
    """Per-record dynamic edit budget (≙ GetSearchParameters MaxEdits)."""
    if col not in batch.schema.names:
        return None
    v = batch[col]
    if isinstance(v, pa.ChunkedArray):
        v = v.combine_chunks()
    # cast to int64 BEFORE fill_null: the sentinel doesn't fit narrower
    # column types (an int32 max_edits column would raise ArrowInvalid)
    out = pc.fill_null(pc.cast(v, pa.int64()), 2 ** 31) \
        .to_numpy(zero_copy_only=False)
    return out.astype(np.int64)


_KEY_SCHEMA = pa.schema([("rec_id", pa.int64()), ("field", pa.int32()),
                         ("gram", pa.int64())])


class _KeyEmitter:
    """Record rows → hashed blocking-key rows (rec_id, field, gram).

    Fully vectorized: Arrow normalize/fold, numpy sliding-window Horner
    hashes, per-row gram dedup via a row sort — zero per-row Python."""

    def __init__(self, cfg: EntityMatchConfig, id_col: str):
        self.cfg = cfg
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n = len(batch)
        if n == 0:
            return _KEY_SCHEMA.empty_table()
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        norm = _normalized_fields(batch, cfg)
        tier = _exact_tier_np(norm, cfg, n)
        me = _row_max_edits(batch, "max_edits", n)
        if me is not None:
            tier = tier | (me == 0)
        ids_parts, field_parts, gram_parts = [], [], []
        for fi, (f, params) in enumerate(cfg.fields.items()):
            if f not in norm:
                continue
            arr = norm[f]
            lens = pc.utf8_length(arr).to_numpy(zero_copy_only=False).astype(np.int64)
            nonempty = lens > 0
            fuzzy = nonempty & ~tier & (params.max_edits > 0)
            exact = nonempty & ~fuzzy
            if exact.any():
                # whole-value key on the raw normalized value — exact fields
                # never take OCR branches (editable-fields mask,
                # fuzzy_matcher_core.go:129-140)
                mat, ls = pad_utf32(arr.filter(pa.array(exact)).to_pylist())
                ids_parts.append(ids[exact])
                field_parts.append(np.full(int(exact.sum()), fi, np.int32))
                gram_parts.append(_horner_full(mat, ls))
            if fuzzy.any():
                src = arr.filter(pa.array(fuzzy))
                if cfg.ocr_fold:
                    src = fold_array(src)
                mat, ls = pad_utf32(src.to_pylist())
                h, valid = _window_hashes(mat, ls, cfg.gram_k)
                hs = np.sort(np.where(valid, h, _HASH_PAD), axis=1)
                keep = hs != _HASH_PAD
                keep[:, 1:] &= hs[:, 1:] != hs[:, :-1]   # row-local dedup
                cnt = keep.sum(axis=1)
                ids_parts.append(np.repeat(ids[fuzzy], cnt))
                field_parts.append(np.full(int(cnt.sum()), fi, np.int32))
                gram_parts.append(hs[keep])
        if not ids_parts:
            return _KEY_SCHEMA.empty_table()
        return pa.table({
            "rec_id": pa.array(np.concatenate(ids_parts), pa.int64()),
            "field": pa.array(np.concatenate(field_parts), pa.int32()),
            "gram": pa.array(np.concatenate(gram_parts).view(np.int64), pa.int64()),
        })


class _Verifier:
    """(query_id, rec_id, q_<field>…, i_<field>… [, q_max_edits]) → scored
    matches. Fully batched: Arrow normalize/fold + numpy JW/Levenshtein
    kernels over the pair axis; no per-row Python."""

    def __init__(self, cfg: EntityMatchConfig):
        self.cfg = cfg
        self.conf = confusable_table() if (
            cfg.ocr_fold and cfg.ocr_confusable_cost < 1.0) else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n = len(batch)
        if n == 0:
            return self._empty()
        qn = {f: normalize_array(pc.fill_null(_chunked(batch[f"q_{f}"]), ""))
              for f in cfg.fields if f"q_{f}" in batch.schema.names}
        vn = {f: normalize_array(pc.fill_null(_chunked(batch[f"i_{f}"]), ""))
              for f in cfg.fields if f"i_{f}" in batch.schema.names}
        q_tier = _exact_tier_np(qn, cfg, n)
        i_tier = _exact_tier_np(vn, cfg, n)
        budget = np.full(n, float(cfg.global_max_edits))
        me = _row_max_edits(batch, "q_max_edits", n)
        if me is not None:
            q_tier = q_tier | (me == 0)
            budget = np.minimum(budget, me)
        # an exact-tier record never fuzzy-matches, whichever side it is on
        # (short-record exact-only rule; reference rejects non-identical
        # matches for short records)
        tier_exact = q_tier | i_tier
        scores = np.zeros(n, dtype=np.float64)
        edits = np.zeros(n, dtype=np.float64)
        ok = np.ones(n, dtype=bool)
        for f, params in cfg.fields.items():
            q, v = qn.get(f), vn.get(f)
            if q is None or v is None:
                if params.required:
                    ok[:] = False
                continue
            q_len = pc.utf8_length(q).to_numpy(zero_copy_only=False)
            v_len = pc.utf8_length(v).to_numpy(zero_copy_only=False)
            missing = (q_len == 0) | (v_len == 0)
            if params.required:
                ok &= ~missing           # missing required ⇒ reject
            consider = ok & ~missing
            eq = pc.equal(q, v).to_numpy(zero_copy_only=False).astype(bool)
            exact_req = tier_exact | (params.method == "exact") | (params.max_edits == 0)
            ok &= ~(consider & exact_req & ~eq)
            scores[consider & exact_req & eq] += params.weight
            fz = consider & ~exact_req
            if not fz.any():
                continue
            sel = pa.array(fz)
            qf, vf = q.filter(sel), v.filter(sel)
            if cfg.ocr_fold:
                # score the folded forms so confusable damage (srnith↔smith)
                # doesn't burn the similarity budget (≙ recurse.go OCR
                # branches finding the candidate within edit budget)
                qf, vf = fold_array(qf), fold_array(vf)
            A, la = pad_utf32(qf.to_pylist())
            B, lb = pad_utf32(vf.to_pylist())
            if params.method == "levenshtein":
                d = _lev_padded(A, la, B, lb, self.conf, cfg.ocr_confusable_cost)
                mx = np.maximum(la, lb).astype(np.float64)
                sims = np.where(mx > 0, 1.0 - d / np.maximum(mx, 1), 1.0)
            else:
                sims = _jw_padded(A, la, B, lb)
                d = None
            # prefix completion is trie *depth*, not edits (BFS completion,
            # breadth_first_search.go:25-101) — "ben"→"benjamin" costs 0
            mn = np.minimum(la, lb)
            run = np.ones(len(la), dtype=bool)
            cp = np.zeros(len(la), dtype=np.int64)
            for t_ in range(min(A.shape[1], B.shape[1])):
                run &= (t_ < mn) & (A[:, t_] == B[:, t_])
                cp += run
            is_prefix = cp == mn
            # reuse the levenshtein-method distance — the O(L² · pairs) DP
            # is the verify hot path's most expensive kernel, never run it
            # twice on identical inputs
            if d is None:
                d = _lev_padded(A, la, B, lb, self.conf,
                                cfg.ocr_confusable_cost)
            ed = np.where(is_prefix, 0.0, d)
            passed = (sims >= params.min_similarity) & (ed <= params.max_edits)
            idx = np.nonzero(fz)[0]
            ok[idx[~passed]] = False
            scores[idx] += params.weight * sims
            edits[idx] += ed
        ok &= edits <= budget + 1e-9      # ≙ CleanMatches budget
        ok &= scores >= cfg.min_score
        keep = pa.array(ok)
        return pa.table({
            "query_id": _chunked(batch["query_id"]).filter(keep),
            "rec_id": _chunked(batch["rec_id"]).filter(keep),
            "score": pa.array(scores[ok]),
            "total_edits": pa.array(np.round(edits[ok]).astype(np.int64)),
        })

    @staticmethod
    def _empty() -> pa.Table:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rec_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64()),
                         "total_edits": pa.array([], pa.int64())})


def _chunked(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _block_pairs(t: pa.Table) -> pa.Table:
    """(a, b): every query × index ``rec_id`` pair sharing a (field, gram)
    key in ``t``: key rows of both tables tagged by ``joins.SIDE`` (query
    0, index 1, its rec_id in ``SIDE_0``), holding every index row of
    each key of its query rows. Each query row finds its key's run of
    index rows by ``searchsorted``."""
    code = key_codes(t, ["field", "gram"])
    is_q = t[SIDE].to_numpy(zero_copy_only=False) == 0
    order = np.argsort(code[~is_q], kind="stable")
    icode = code[~is_q][order]
    irid = t[f"{SIDE}_0"].filter(pa.array(~is_q)).to_numpy()[order]
    lo = np.searchsorted(icode, code[is_q], "left")
    cnt = np.searchsorted(icode, code[is_q], "right") - lo
    at = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(cnt.sum())
    qrid = t["rec_id"].filter(pa.array(is_q)).to_numpy()
    return pa.table({"a": pa.array(np.repeat(qrid, cnt), pa.int64()),
                     "b": pa.array(irid[at], pa.int64())})


def match_entities(index_ds, query_ds, cfg: EntityMatchConfig | None = None,
                   id_col: str = "id", query_id_col: str = "query_id"):
    """Find top-k fuzzy matches in ``index_ds`` for every row of ``query_ds``.

    Returns (query_id, rec_id, score, rnk) — ≙ FuzzyMatch ranking
    (fuzzy_types/types.go:44-47 + sort/truncate fuzzy_matcher_core.go:281-287).
    A ``max_edits`` int column on ``query_ds``, when present, sets a
    per-record edit budget (0 ⇒ exact-only) — ≙ GetSearchParameters
    (example_source.go:20-81).
    """
    cfg = cfg or EntityMatchConfig()
    fields = list(cfg.fields)

    empty = rd.from_arrow(pa.table({
        "query_id": pa.array([], pa.int64()),
        "rec_id": pa.array([], pa.int64()),
        "score": pa.array([], pa.float64()),
        "total_edits": pa.array([], pa.int64()),
        "rnk": pa.array([], pa.int64())}))
    idx_keys = index_ds.map_batches(_KeyEmitter(cfg, id_col),
                                    batch_format="pyarrow").materialize()
    q_keys = query_ds.map_batches(_KeyEmitter(cfg, query_id_col),
                                  batch_format="pyarrow").materialize()
    if idx_keys.count() == 0 or q_keys.count() == 0:
        return empty
    # blocking join: one key-local kernel over both key tables, cut at
    # (field, gram-hash)
    keys = ["field", "gram"]
    pairs = key_local(q_keys, idx_keys, keys, keys, ["rec_id"], _block_pairs)
    # verify-once dedup via the shared pair helper: driver lexsort under
    # the row threshold (a Ray hash groupby costs ~15 s fixed on one box),
    # distributed groupby beyond — (a, b) are ORDERED (query, record)
    # tuples here, which dedup_pairs preserves
    cands = dedup_pairs(pairs).map_batches(
        lambda t: pa.table({"query_id": t["a"], "rec_id": t["b"]}),
        batch_format="pyarrow").materialize()
    if cands.count() == 0:
        return empty
    # attach field values of both sides
    for f in fields:
        cands = attach_columns(cands, query_ds.select_columns([query_id_col, f]),
                               "query_id", query_id_col, {f: f"q_{f}"},
                               how="inner")
        cands = attach_columns(cands, index_ds.select_columns([id_col, f]),
                               "rec_id", id_col, {f: f"i_{f}"},
                               how="inner")
    try:
        has_me = "max_edits" in (query_ds.schema().names or [])
    except Exception:
        has_me = False
    if has_me:
        cands = attach_columns(
            cands, query_ds.select_columns([query_id_col, "max_edits"]),
            "query_id", query_id_col, {"max_edits": "q_max_edits"},
            how="inner")
    scored = cands.map_batches(_Verifier(cfg), batch_format="pyarrow",
                               batch_size=4096)

    out = grouped_topk(scored, "query_id", "score", "rec_id", cfg.top_k,
                       rank_col="rnk", empty_schema=_Verifier._empty().schema)
    return as_dataset(sort_rows(out, ["query_id", "rnk"]))


# Deterministic probe corruptions over customer names — the same five kinds
# as pipelines/fuzzy_query.py PROBE_SPECS so the DuckDB oracle can rebuild
# them in SQL from the same table.
def _corrupt(name: str, kind: int) -> str:
    if kind == 0:
        return name[:-1]                                    # drop last
    if kind == 1:
        return (name[0] + name[2] + name[1] + name[3:]
                if len(name) > 3 else name[0] + name)       # swap 2nd/3rd
    if kind == 2:
        return name.replace("o", "0", 1).replace("l", "1", 1)   # ocr digits
    if kind == 3:
        return name[1:]                                     # drop first
    return name[0] + name                                   # double first


def match_customers(sf_dir: str, k: int = 3):
    """Oracle-checked entity-match query: fuzzy top-k customer lookup.

    Index = the ``customer`` table (id = c_custkey, one field ``name`` =
    c_name); probes = deterministic corruptions of the first five customer
    names. Single levenshtein-method field, no OCR fold, no thresholds —
    the DuckDB oracle reproduces the exact score ``1 - lev/maxlen`` on
    normalized names, so the driver hash-checks (query_id, rec_id, rnk).

    Blocking note: every c_name shares the "customer" prefix grams, so the
    blocking join degenerates to probes × customers here — candidate
    completeness is exact, and with 5 probes the fan-out is trivial. (Real
    name corpora block sub-linearly; this query is the correctness anchor,
    not the scale path.)
    """
    import duckdb
    con = duckdb.connect()
    rows = con.sql(
        f"select c_custkey, c_name from read_parquet('{sf_dir}/customer.parquet') "
        "where c_custkey < 5 order by c_custkey").fetchall()
    con.close()
    q_tbl = pa.table({
        "query_id": pa.array([ck for ck, _ in rows], pa.int64()),
        # corruption kind keyed on c_custkey so the SQL oracle rebuilds the
        # identical probes from the same table
        "name": pa.array([_corrupt(nm, ck % 5) for ck, nm in rows],
                         pa.string()),
    })
    idx = rd.read_parquet(f"{sf_dir}/customer.parquet",
                          columns=["c_custkey", "c_name"]) \
            .rename_columns({"c_name": "name"})
    from fuzzy_matcher_ray.config import FieldParams
    cfg = EntityMatchConfig(
        fields={"name": FieldParams(1.0, "levenshtein", 0.0, 64)},
        global_max_edits=1 << 20, top_k=k, ocr_fold=False)
    out = match_entities(idx, rd.from_arrow(q_tbl), cfg,
                         id_col="c_custkey", query_id_col="query_id")
    return out.select_columns(["query_id", "rec_id", "rnk"])
