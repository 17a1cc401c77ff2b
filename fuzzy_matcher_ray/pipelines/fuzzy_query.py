"""Fuzzy top-k matching over a name column — the reference ``Search`` query
shape (probe → candidates → score → top-k) as a Ray pipeline with an exact
integer-distance oracle.

Probes are deterministic corruptions of real ``part.p_name`` values (OCR-style
digit/letter swaps + a dropped char, mirroring the reference's typo corpora,
``tests/test_data/fuzzy_search_cases.json``). Scoring uses Levenshtein
distance (integer ⇒ exact DuckDB parity via its ``levenshtein`` function);
ranking is (distance asc, p_partkey asc) with top-k per probe
(≙ sort+truncate, fuzzy_matcher_core.go:281-287).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from fuzzy_matcher_ray.functions.similarity import _lev_padded, pad_utf32
from fuzzy_matcher_ray.stages.joins import as_dataset, sort_rows
from fuzzy_matcher_ray.stages.ranks import grouped_topk

# (probe_id, corruption) — applied to the p_name of partkey == probe_id.
PROBE_SPECS: tuple[tuple[int, str], ...] = ((0, "drop_last"), (1, "swap"),
                                            (2, "ocr"), (3, "drop_first"),
                                            (4, "double"))


def make_probes(sf_dir: str) -> list[tuple[int, str]]:
    """Deterministic probe strings from the first five part names."""
    import duckdb
    con = duckdb.connect()
    rows = con.sql(
        f"select p_partkey, p_name from read_parquet('{sf_dir}/part.parquet') "
        "where p_partkey < 5 order by p_partkey").fetchall()
    con.close()
    probes = []
    for (pk, name), (_, kind) in zip(rows, PROBE_SPECS):
        if kind == "drop_last":
            s = name[:-1]
        elif kind == "swap" and len(name) > 3:
            s = name[0] + name[2] + name[1] + name[3:]
        elif kind == "ocr":
            s = name.replace("o", "0", 1).replace("l", "1", 1)
        elif kind == "drop_first":
            s = name[1:]
        else:
            s = name[0] + name
        probes.append((pk, s))
    return probes


def fuzzy_topk_levenshtein(sf_dir: str, k: int = 3):
    """(probe_id, p_partkey, dist, rnk) — top-k parts per probe by edit
    distance. Broadcast probes (ray.put once), one batched DP per probe per
    batch (similarity.py ``_lev_padded`` — no per-row Python), per-batch
    partial top-k under the final (dist, p_partkey) order, then one
    ``stages/ranks.grouped_topk`` by (dist asc, p_partkey asc)."""
    probes = make_probes(sf_dir)
    ref = ray.put(probes)
    parts = rd.read_parquet(f"{sf_dir}/part.parquet",
                            columns=["p_partkey", "p_name"])

    def _score(t: pa.Table) -> pa.Table:
        pr = ray.get(ref)
        names = [nm or "" for nm in t["p_name"].to_pylist()]
        keys = t["p_partkey"].to_numpy(zero_copy_only=False)
        n = len(names)
        if n == 0:
            return pa.table({"probe_id": pa.array([], pa.int64()),
                             "p_partkey": pa.array([], pa.int64()),
                             "dist": pa.array([], pa.int64())})
        B, lb = pad_utf32(names)
        key_rank = np.empty(n, dtype=np.int64)
        key_rank[np.argsort(keys, kind="stable")] = np.arange(n)
        out_pid, out_key, out_dist = [], [], []
        kk = min(k, n)
        for pid, ptext in pr:
            arow, la1 = pad_utf32([ptext])
            A = np.broadcast_to(arow[0], (n, arow.shape[1]))
            d = _lev_padded(A, np.full(n, la1[0]), B, lb).astype(np.int64)
            # partial top-k per batch: selection under the exact final order
            sel = np.argsort((d << 32) | key_rank, kind="stable")[:kk]
            out_pid.append(np.full(kk, pid, np.int64))
            out_key.append(keys[sel])
            out_dist.append(d[sel])
        return pa.table({"probe_id": pa.array(np.concatenate(out_pid)),
                         "p_partkey": pa.array(np.concatenate(out_key)),
                         "dist": pa.array(np.concatenate(out_dist))})

    scored = parts.map_batches(_score, batch_format="pyarrow", batch_size=4096)

    out = grouped_topk(scored, "probe_id", "dist", "p_partkey", k,
                       rank_col="rnk", descending=False,
                       empty_schema=pa.schema([
                           ("probe_id", pa.int64()), ("p_partkey", pa.int64()),
                           ("dist", pa.int64())]))
    return as_dataset(sort_rows(out, ["probe_id", "rnk"]))
