"""Streaming-shaped operators over the ``events`` table.

Ray Data is a batch engine (no watermarks); the stream semantics here follow
the guide pattern: the table is an ordered log, per-user operators are one
vectorized kernel over whole users (``joins.map_segments`` on user_id, no
per-group Python), windows are grouped aggregates over assigned window
keys, and TTL expiry is a read-time predicate (≙ the reference expiry
heap ``Clean``, clean.go:29-51, applied on every Search).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from fuzzy_matcher_ray.stages.joins import as_dataset, map_segments, sort_rows

TTL_CUTOFF = "2024-01-15 00:00:00"   # fixed, deterministic (no wall-clock)


def _events(sf_dir: str, columns=None):
    return rd.read_parquet(f"{sf_dir}/events.parquet", columns=columns)


def events_alive_by_type(sf_dir: str, cutoff: str = TTL_CUTOFF):
    """TTL filter + grouped aggregate: events at/after the cutoff survive;
    count + value sum per event_type (value rounded 6dp)."""
    from ray.data.aggregate import Count, Sum
    ds = _events(sf_dir, ["ts", "event_type", "value"])
    import numpy as np
    cut = pa.scalar(np.datetime64(cutoff.replace(" ", "T"), "us"), pa.timestamp("us"))
    alive = ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t["ts"], cut)),
        batch_format="pyarrow")
    out = alive.groupby("event_type").aggregate(
        Count(alias_name="n_events"), Sum("value", alias_name="total_value"))

    def _round(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "n_events": t["n_events"],
                         "total_value": pc.round(t["total_value"], ndigits=6, round_mode="half_towards_infinity")})
    return out.map_batches(_round, batch_format="pyarrow").sort("event_type")


def user_hourly_windows(sf_dir: str, max_users: int = 40):
    """Tumbling 1-hour windows per user: (user_id, window_start, n, sum value).

    Window assignment is a vectorized ts truncation inside ``map_batches``
    (shuffle-free), then one grouped aggregate over (user, window) — the
    partial-aggregate-then-small-groupby pattern for stream windows at scale.
    """
    from ray.data.aggregate import Count, Sum
    ds = _events(sf_dir, ["ts", "user_id", "value"])

    def _assign(t: pa.Table) -> pa.Table:
        keep = pc.less(t["user_id"], pa.scalar(max_users))
        t = t.filter(keep)
        win = pc.floor_temporal(t["ts"], unit="hour")
        return pa.table({"user_id": t["user_id"], "window_start": win,
                         "value": t["value"]})

    assigned = ds.map_batches(_assign, batch_format="pyarrow")
    out = assigned.groupby(["user_id", "window_start"]).aggregate(
        Count(alias_name="n_events"), Sum("value", alias_name="total_value"))

    def _round(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"],
                         "window_start": t["window_start"],
                         "n_events": t["n_events"],
                         "total_value": pc.round(t["total_value"], ndigits=6, round_mode="half_towards_infinity")})
    return out.map_batches(_round, batch_format="pyarrow").sort(
        ["user_id", "window_start"])


def _merge_partial_sessions(uid: np.ndarray, first: np.ndarray,
                            last: np.ndarray, nev: np.ndarray,
                            gap_us: int):
    """Vectorized gap-merge of (user, first_ts, last_ts, n) partial-session
    rows SORTED by (user, first_ts): adjacent rows of one user merge when the
    next first is within ``gap_us`` of the previous last (partials of one
    user are non-overlapping time ranges, so adjacency is the full rule)."""
    n = len(uid)
    brk = np.ones(n, dtype=bool)
    if n > 1:
        brk[1:] = (uid[1:] != uid[:-1]) | (first[1:] - last[:-1] > gap_us)
    starts = np.nonzero(brk)[0]
    return uid[starts], first[starts], np.add.reduceat(nev, starts)


def user_sessions(sf_dir: str, gap_minutes: int = 30,
                  max_users: int | None = None):
    """Session windows over the FULL user range: session breaks at gaps >
    ``gap_minutes``. (user_id, session_start, n_events).

    Scale shape (no per-user Python dispatch — the round-2 version was one
    pandas call per user): one range sort on (user_id, ts), then a per-BLOCK
    vectorized gap-cumsum emits PARTIAL sessions (user, first, last, n) —
    session-count-proportional, events never leave their block — and a final
    stitch merges partials across block edges with the same vectorized rule.
    The stitch is ``joins.map_segments`` over the partials on user_id: on
    the driver while they are small (32 B/row), else per block of a range
    sort on user_id.
    """
    gap_us = gap_minutes * 60_000_000
    ds = _events(sf_dir, ["ts", "user_id"])
    if max_users is not None:
        ds = ds.map_batches(
            lambda t: t.filter(pc.less(t["user_id"], pa.scalar(max_users))),
            batch_format="pyarrow")
    sorted_ds = ds.sort(["user_id", "ts"]).materialize()
    no_partials = pa.schema([(c, pa.int64()) for c in (
        "user_id", "first", "last", "n_events")]).empty_table()

    def _partials(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return no_partials
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        brk = np.ones(len(uid), dtype=bool)
        brk[1:] = (uid[1:] != uid[:-1]) | (ts[1:] - ts[:-1] > gap_us)
        starts = np.nonzero(brk)[0]
        ends = np.append(starts[1:], len(uid)) - 1
        return pa.table({
            "user_id": pa.array(uid[starts]),
            "first": pa.array(ts[starts]),
            "last": pa.array(ts[ends]),
            "n_events": pa.array((ends - starts + 1).astype(np.int64))})

    partials = sorted_ds.map_batches(_partials, batch_format="pyarrow",
                                     batch_size=None, zero_copy_batch=True) \
        .materialize()

    def _stitch(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        first = t["first"].to_numpy(zero_copy_only=False)
        last = t["last"].to_numpy(zero_copy_only=False)
        nev = t["n_events"].to_numpy(zero_copy_only=False)
        order = np.lexsort((first, uid))
        u, f, n = _merge_partial_sessions(uid[order], first[order],
                                          last[order], nev[order], gap_us)
        return pa.table({
            "user_id": pa.array(u, pa.int64()),
            "session_start": pa.array(f, pa.int64()).cast(
                pa.timestamp("us")),
            "n_events": pa.array(n.astype(np.int64))})

    if partials.count() == 0:     # a sort of no rows would drop the schema
        return rd.from_blocks([_stitch(no_partials)])
    return map_segments(partials, ["user_id"], _stitch) \
        .sort(["user_id", "session_start"])


def user_sliding_windows(sf_dir: str, size_minutes: int = 60,
                         hop_minutes: int = 15, max_users: int = 40):
    """Sliding windows (size 60 min, hop 15 min) per user:
    (user_id, window_start, n_events, total_value).

    The third standard window shape next to tumbling/session: with
    size = k·hop each event belongs to exactly k windows, assigned by a
    vectorized epoch-bucket explode inside ``map_batches`` (k rows out per
    event, no Python loop), then the same partial-aggregate-then-small-
    groupby as the tumbling path. SQL-checked against DuckDB time_bucket
    (hop divides both engines' bucket origins, so floors agree)."""
    from ray.data.aggregate import Count, Sum
    assert size_minutes % hop_minutes == 0
    k = size_minutes // hop_minutes
    hop_us = hop_minutes * 60_000_000
    ds = _events(sf_dir, ["ts", "user_id", "value"])

    def _assign(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["user_id"], pa.scalar(max_users)))
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        base = (us // hop_us) * hop_us
        starts = (base[:, None] - np.arange(k, dtype=np.int64) * hop_us) \
            .reshape(-1)
        # replicate rows via Arrow take (NOT numpy repeat: a null value
        # would become NaN and poison the window Sum, diverging from the
        # oracle's null-ignoring sum)
        rep = pa.array(np.repeat(np.arange(len(t), dtype=np.int64), k))
        return pa.table({
            "user_id": pc.take(t["user_id"], rep),
            "window_start": pa.array(starts).cast(pa.timestamp("us")),
            "value": pc.take(t["value"], rep)})

    assigned = ds.map_batches(_assign, batch_format="pyarrow")
    out = assigned.groupby(["user_id", "window_start"]).aggregate(
        Count(alias_name="n_events"), Sum("value", alias_name="total_value"))

    def _round(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"], "window_start": t["window_start"],
            "n_events": t["n_events"],
            "total_value": pc.round(t["total_value"], ndigits=6,
                                    round_mode="half_towards_infinity")})
    return out.map_batches(_round, batch_format="pyarrow").sort(
        ["user_id", "window_start"])


def _sides_projector(left_type: str, right_type: str):
    """Shared pre-shuffle projection of the custom join ops: keep the two
    event streams, mark sides."""
    def _sides(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array([left_type, right_type]))
        t = t.filter(keep)
        return pa.table({
            "event_id": t["event_id"], "user_id": t["user_id"],
            "ts": t["ts"],
            "is_left": pc.equal(t["event_type"], pa.scalar(left_type))})
    return _sides


def _by_user_ts(t: pa.Table):
    """The join kernels' ordering: the projected sides sorted by
    (user_id, ts, is_left), so a right row precedes a left row at equal
    ts → (sorted table, user ids, ts as int64 us, is_left, the index of
    each row's user's first row)."""
    st = t.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                    ("is_left", "ascending")])
    uid = st["user_id"].to_numpy(zero_copy_only=False)
    ts = pc.cast(st["ts"], pa.int64()).to_numpy(zero_copy_only=False)
    left = st["is_left"].to_numpy(zero_copy_only=False).astype(bool)
    pos = np.arange(len(st))
    brk = np.ones(len(st), dtype=bool)
    brk[1:] = uid[1:] != uid[:-1]
    return st, uid, ts, left, np.maximum.accumulate(np.where(brk, pos, 0))


def _asof_rows(t: pa.Table) -> pa.Table:
    """The as-of kernel over whole users: in (user, ts, right-first)
    order a running max of the right rows' positions gives each row the
    last right row at or before it, and a left row has a prior iff that
    row is its user's."""
    st, _, ts, left, ustart = _by_user_ts(t)
    last_right = np.maximum.accumulate(np.where(left, -1, np.arange(len(st))))
    prior = ts[np.maximum(last_right, 0)][left]
    missing = (last_right < ustart)[left]
    return st.filter(pa.array(left)).select(["event_id", "user_id", "ts"]) \
        .append_column("prior_ts", pa.array(
            prior, pa.int64(), mask=missing).cast(pa.timestamp("us")))


def _band_counts(t: pa.Table, win_us: int) -> pa.Table:
    """The range-count kernel over whole users: two searchsorteds of each
    left row's (user_id, ts) and (user_id, ts - window) over the right
    rows' (user_id, ts) keys, whose difference is the band count."""
    st, uid, ts, left, _ = _by_user_ts(t)
    key = np.empty(len(st), dtype=[("u", np.int64), ("t", np.int64)])
    key["u"], key["t"] = uid, ts
    right, probe = key[~left], key[left]
    n = np.searchsorted(right, probe, side="right")
    probe["t"] -= win_us
    n -= np.searchsorted(right, probe, side="left")
    return st.filter(pa.array(left)).select(["event_id", "user_id", "ts"]) \
        .append_column("n_in_range", pa.array(n, pa.int64()))


def _join_sides(sf_dir: str, left_type: str, right_type: str, kernel):
    """``kernel`` over the two projected event streams cut at user_id
    changes (``joins.map_segments``: on the driver while they are small,
    else per block of a range sort on user_id), sorted by event_id (on
    the driver while the result is driver blocks: ``joins.sort_rows``)."""
    sides = _events(sf_dir, ["event_id", "ts", "user_id", "event_type"]) \
        .map_batches(_sides_projector(left_type, right_type),
                     batch_format="pyarrow").materialize()
    return as_dataset(sort_rows(map_segments(sides, ["user_id"], kernel),
                                "event_id"))


def asof_latest_prior(sf_dir: str, left_type: str = "purchase",
                      right_type: str = "signup"):
    """AS-OF JOIN: for every ``left_type`` event, the user's latest
    ``right_type`` event at-or-before it (attribution join) —
    (event_id, user_id, ts, prior_ts nullable).

    Ray Data has no asof join; ``_asof_rows`` runs over whole users
    (``_join_sides``), one vectorized pass with no per-user Python
    (greatest right.ts <= left.ts, exactly DuckDB ASOF semantics). The
    DuckDB oracle is a native ASOF LEFT JOIN.
    """
    return _join_sides(sf_dir, left_type, right_type, _asof_rows)


def range_join_count(sf_dir: str, left_type: str = "error",
                     right_type: str = "click", window_minutes: int = 5):
    """Banded RANGE JOIN: for every ``left_type`` event, how many of the
    user's ``right_type`` events fall in [ts - window, ts] —
    (event_id, user_id, ts, n_in_range).

    Same composition as the as-of join (``_join_sides``); the kernel
    (``_band_counts``) is TWO vectorized searchsorteds — no pair
    materialization at all, so a hot user costs O(n log n), not O(n²).
    DuckDB oracle: LEFT JOIN with a BETWEEN band + count aggregate.
    """
    win_us = window_minutes * 60_000_000
    return _join_sides(sf_dir, left_type, right_type,
                       lambda t: _band_counts(t, win_us))


def value_quantiles_sketch(sf_dir: str, qs: tuple = (0.25, 0.5, 0.75, 0.9),
                           eps: float = 0.005, batch_size: int = 8192):
    """(q, value) — MERGEABLE quantile sketch over events.value: the scale
    path next to the exact order-statistic anchor (``value_quantiles``).

    Per-batch summary (the combiner): sort the batch, keep every
    ``k_i = max(1, floor(2·eps·n_i))``-th order statistic with weight =
    the number of raw rows it stands for (plus the batch max, weight of the
    remainder). Summaries are (value, weight) rows — mergeable by plain
    concatenation, size ≤ n_i/k_i + 2 per batch — and the driver merge
    sorts them once and reads each quantile off the cumulative weights.

    Rank-error bound: within batch i a summary value's cumulative weight
    differs from its true in-batch rank by < k_i ≤ 2·eps·n_i, so the merged
    cumulative rank of any returned value is within Σ 2·eps·n_i = 2·eps·n
    of its true global rank (tested against the exact path in
    tests/test_events_joins.py). Each returned value is a REAL data value —
    the sketch never interpolates, so (unlike quantile_cont) it is
    approximate in rank, exact in membership.
    """
    ds = _events(sf_dir, ["value"]).map_batches(
        lambda t: t.filter(pc.is_valid(t["value"])), batch_format="pyarrow")

    def _summary(t: pa.Table) -> pa.Table:
        v = np.sort(t["value"].to_numpy(zero_copy_only=False))
        n = len(v)
        if n == 0:
            return pa.table({"value": pa.array([], pa.float64()),
                             "weight": pa.array([], pa.int64())})
        k = max(1, int(2 * eps * n))
        picks = np.arange(0, n, k)
        w = np.full(len(picks), k, dtype=np.int64)
        w[-1] = n - picks[-1]                      # remainder
        return pa.table({"value": pa.array(v[picks].astype(np.float64)),
                         "weight": pa.array(w)})

    summ = ds.map_batches(_summary, batch_format="pyarrow",
                          batch_size=batch_size)
    parts = list(summ.iter_batches(batch_size=1 << 20,
                                   batch_format="pyarrow"))
    if not parts:
        return rd.from_arrow(pa.table({
            "q": pa.array(list(qs), pa.float64()),
            "value": pa.nulls(len(qs), pa.float64())}))
    t = pa.concat_tables(parts)
    v = t["value"].to_numpy(zero_copy_only=False)
    w = t["weight"].to_numpy(zero_copy_only=False)
    if len(v) == 0 or w.sum() == 0:
        return rd.from_arrow(pa.table({
            "q": pa.array(list(qs), pa.float64()),
            "value": pa.nulls(len(qs), pa.float64())}))
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    cw = np.cumsum(w)
    n = int(cw[-1])
    out = [float(v[min(np.searchsorted(cw, q * (n - 1), side="right"),
                       len(v) - 1)]) for q in qs]
    return rd.from_arrow(pa.table({"q": pa.array(list(qs), pa.float64()),
                                   "value": pa.array(out, pa.float64())}))


def value_quantiles(sf_dir: str, qs: tuple = (0.25, 0.5, 0.75, 0.9)):
    """(q, value) — EXACT continuous quantiles of events.value, matching
    DuckDB ``quantile_cont`` bit-for-bit.

    Distributed shape: range ``sort`` on value, block-offset prefix-sum
    locates the two order statistics each quantile interpolates between,
    only those ≤ 2·|qs| rows leave the cluster, and the driver does the
    linear interpolation h = (n-1)·q. The oracle-checkable anchor for
    ``value_quantiles_sketch`` — the mergeable-summary path that avoids
    this one's global sort at 10^12 rows."""
    import ray
    ds = _events(sf_dir, ["value"]).map_batches(
        lambda t: t.filter(pc.is_valid(t["value"])), batch_format="pyarrow")
    refs = ds.sort("value").materialize().to_arrow_refs()
    # block row counts WITHOUT fetching data: one tiny remote len() per
    # block (runs where the block lives); only the blocks that actually
    # hold a needed order statistic are pulled to the driver afterwards
    count = ray.remote(num_cpus=0)(lambda tb: len(tb))
    sizes = np.array(ray.get([count.remote(r) for r in refs]), dtype=np.int64)
    n = int(sizes.sum())
    if n == 0:
        # ungrouped-aggregate semantics: one (q, NULL) row per quantile,
        # exactly what quantile_cont over zero rows yields in the oracle
        return rd.from_arrow(pa.table({
            "q": pa.array(list(qs), pa.float64()),
            "value": pa.nulls(len(qs), pa.float64())}))
    offs = np.concatenate(([0], np.cumsum(sizes)))
    positions = sorted({int(f((n - 1) * q))
                        for q in qs for f in (np.floor, np.ceil)})
    # fetch each order statistic as a SCALAR via a remote pick where the
    # block lives — the blocks themselves never cross to the driver
    pick = ray.remote(num_cpus=0)(lambda tb, j: tb["value"][j].as_py())
    picked = ray.get([
        pick.remote(refs[int(np.searchsorted(offs, i, side="right") - 1)],
                    i - int(offs[np.searchsorted(offs, i, "right") - 1]))
        for i in positions])
    at = dict(zip(positions, (float(v) for v in picked)))
    out_q, out_v = [], []
    for q in qs:
        h = (n - 1) * q
        lo, hi = int(np.floor(h)), int(np.ceil(h))
        frac = h - lo
        # symmetric lerp — quantile_cont's exact float expression; the
        # one-sided vlo + frac*(vhi-vlo) differs in the last ulp
        v = at[lo] if hi == lo else at[lo] * (1 - frac) + at[hi] * frac
        out_q.append(q)
        out_v.append(v)
    return rd.from_arrow(pa.table({"q": pa.array(out_q, pa.float64()),
                                   "value": pa.array(out_v, pa.float64())}))
