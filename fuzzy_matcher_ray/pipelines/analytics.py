"""Relational analytics over the TPC-H-ish tables: the multi-table
join-aggregate shape (fact → fact → dimension → tiny dimension).

Not a reference operator per se — the reference's data model is a single
entry table — but the canonical test that the engine's JOIN machinery
(stages/joins.py broadcast-vs-shuffle switch) composes into real query
plans: a user of this repo who also needs reporting-style aggregates over
their corpus metadata should not need a second engine.

Scale shape, stage by stage:
- column-pruned reads (only join keys + measures leave the parquet);
- revenue computed per row in FIXED-POINT int64 (price·(1−disc) is exact
  at 4 decimals, so round(x·10⁴) is an integer — float SUM order can
  never shift the hash check);
- lineitem→orders and →customer attach via ``attach_columns`` (broadcast
  under the row threshold, key-local join beyond — the 10^12-row
  path);
- per-batch PARTIAL sums by nationkey (25 hot keys would all collide in a
  naive groupby; the combiner reduces each batch to ≤25 rows before the
  tiny global groupby);
- nation names attach from a broadcast dimension at the end.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from fuzzy_matcher_ray.stages.joins import attach_columns


def revenue_by_nation(sf_dir: str):
    """(n_name, revenue_e4, n_items) — lineitem revenue Σ price·(1−discount)
    per customer nation, in exact fixed-point (revenue_e4 = revenue·10⁴ as
    int64), item count per nation; sorted by n_name. SQL-checked."""
    from ray.data.aggregate import Sum

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def _rev(t: pa.Table) -> pa.Table:
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        # price has 2 decimals, discount 2 → the product is exact at 4:
        # round(x·1e4) is an integer on both engines (no .5 ties possible)
        rev = np.floor(price * (1.0 - disc) * 1e4 + 0.5).astype(np.int64)
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "rev_e4": pa.array(rev)})

    rows = li.map_batches(_rev, batch_format="pyarrow")
    rows = attach_columns(rows, rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]),
        "l_orderkey", "o_orderkey", {"o_custkey": "custkey"}, how="inner")
    rows = attach_columns(rows, rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]),
        "custkey", "c_custkey", {"c_nationkey": "nationkey"}, how="inner")

    def _partial(t: pa.Table) -> pa.Table:
        nk = t["nationkey"].to_numpy(zero_copy_only=False)
        rev = t["rev_e4"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(nk, return_inverse=True)
        sums = np.bincount(inv, weights=rev.astype(np.float64))
        # bincount weights go through float64 — exact for |sum| < 2^53,
        # which a per-batch partial of 4-decimal prices never approaches
        cnts = np.bincount(inv)
        return pa.table({"nationkey": pa.array(u),
                         "revenue_e4": pa.array(sums.astype(np.int64)),
                         "n_items": pa.array(cnts.astype(np.int64))})

    partials = rows.map_batches(_partial, batch_format="pyarrow")
    agg = partials.groupby("nationkey").aggregate(
        Sum("revenue_e4", alias_name="revenue_e4"),
        Sum("n_items", alias_name="n_items"))
    out = attach_columns(agg, rd.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]),
        "nationkey", "n_nationkey", {"n_name": "n_name"}, how="inner")
    return out.select_columns(["n_name", "revenue_e4", "n_items"]) \
        .sort("n_name")


def order_priority_counts(sf_dir: str):
    """(o_orderpriority, n_orders) — orders with at least one lineitem
    received later than committed (TPC-H Q4 shape: EXISTS semi-join →
    distinct-key reduction → tiny groupby). The semi-join side is reduced
    to DISTINCT order keys per batch BEFORE the join (the combiner), so
    the join input is bounded by distinct orders, not lineitems.

    The synthetic lineitem table has no commit/receipt dates, so the
    predicate is the deterministic surrogate ``l_linenumber >= 4`` (late
    lines) — same expression in the SQL oracle."""
    from ray.data.aggregate import Count

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_linenumber"])

    def _late_keys(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        late = t.filter(pc.greater_equal(t["l_linenumber"], 4))
        u = pc.unique(late["l_orderkey"])
        return pa.table({"l_orderkey": u})

    late = li.map_batches(_late_keys, batch_format="pyarrow")
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority"])
    # semi-join: late keys may repeat across batches — dedup once via a
    # keyed groupby, then an inner attach keeps only orders with a late line
    late_u = late.groupby("l_orderkey").aggregate(
        Count(alias_name="n_late"))
    hit = attach_columns(orders, late_u, "o_orderkey", "l_orderkey",
                         {"n_late": "n_late"}, how="inner")
    out = hit.groupby("o_orderpriority").aggregate(
        Count(alias_name="n_orders"))
    return out.sort("o_orderpriority")


def pricing_summary(sf_dir: str, cutoff: str = "1998-09-02"):
    """(l_returnflag, l_linestatus, sum_qty_e2, sum_base_e2, sum_disc_e4,
    sum_charge_e6, n_rows) — the TPC-H Q1 shape: scan-heavy multi-measure
    aggregate over lineitem with a date predicate pushed into the first
    batch pass. All measures are EXACT fixed-point int64 (quantity/price
    have 2 decimals, price·(1−disc) 4, ·(1+tax) 6 — floor(x·10^s + 0.5) is
    the same float64 op on both engines, so the hash check can never drift
    on summation order). Per-batch partials reduce each batch to ≤6 rows
    (|returnflag|×|linestatus|) before the tiny global groupby. SQL-checked.
    """
    from ray.data.aggregate import Sum

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax", "l_shipdate"])
    cut = pa.scalar(np.datetime64(cutoff, "us"), pa.timestamp("us"))

    def _partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = t.filter(pc.less_equal(t["l_shipdate"], cut))
        empty = pa.table({
            "k": pa.array([], pa.string()),
            "sum_qty_e2": pa.array([], pa.int64()),
            "sum_base_e2": pa.array([], pa.int64()),
            "sum_disc_e4": pa.array([], pa.int64()),
            "sum_charge_e6": pa.array([], pa.int64()),
            "n_rows": pa.array([], pa.int64())})
        if len(t) == 0:
            return empty
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        tax = t["l_tax"].to_numpy(zero_copy_only=False)
        qty_e2 = np.floor(qty * 1e2 + 0.5).astype(np.int64)
        base_e2 = np.floor(price * 1e2 + 0.5).astype(np.int64)
        disc_e4 = np.floor(price * (1.0 - disc) * 1e4 + 0.5).astype(np.int64)
        charge_e6 = np.floor(price * (1.0 - disc) * (1.0 + tax) * 1e6
                             + 0.5).astype(np.int64)
        key = pc.binary_join_element_wise(
            t["l_returnflag"].combine_chunks()
            if isinstance(t["l_returnflag"], pa.ChunkedArray)
            else t["l_returnflag"],
            t["l_linestatus"].combine_chunks()
            if isinstance(t["l_linestatus"], pa.ChunkedArray)
            else t["l_linestatus"], "|")
        kn = key.to_numpy(zero_copy_only=False)
        u, inv = np.unique(kn, return_inverse=True)
        # float64 bincount weights: a batch partial of charge_e6 tops out
        # around 4096·10^11 < 2^53 — exact
        def _s(v):
            return pa.array(np.bincount(inv, weights=v.astype(np.float64))
                            .astype(np.int64))
        return pa.table({"k": pa.array(u, pa.string()),
                         "sum_qty_e2": _s(qty_e2),
                         "sum_base_e2": _s(base_e2),
                         "sum_disc_e4": _s(disc_e4),
                         "sum_charge_e6": _s(charge_e6),
                         "n_rows": pa.array(np.bincount(inv)
                                            .astype(np.int64))})

    partials = li.map_batches(_partial, batch_format="pyarrow")

    def _split(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        parts = pc.split_pattern(t["k"].combine_chunks()
                                 if isinstance(t["k"], pa.ChunkedArray)
                                 else t["k"], "|")
        return pa.table({
            "l_returnflag": pc.list_element(parts, 0),
            "l_linestatus": pc.list_element(parts, 1),
            "sum_qty_e2": t["sum_qty_e2"],
            "sum_base_e2": t["sum_base_e2"],
            "sum_disc_e4": t["sum_disc_e4"],
            "sum_charge_e6": t["sum_charge_e6"],
            "n_rows": t["n_rows"]})

    return partials.groupby("k").aggregate(
        Sum("sum_qty_e2", alias_name="sum_qty_e2"),
        Sum("sum_base_e2", alias_name="sum_base_e2"),
        Sum("sum_disc_e4", alias_name="sum_disc_e4"),
        Sum("sum_charge_e6", alias_name="sum_charge_e6"),
        Sum("n_rows", alias_name="n_rows")).map_batches(
        _split, batch_format="pyarrow").sort(
        ["l_returnflag", "l_linestatus"])
