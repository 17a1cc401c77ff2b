"""Custom join/window operators over events: degenerate-group semantics the
driver fixtures don't exercise (the contract suite covers the happy path)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_events(tmp_path, rows):
    """rows: (event_id, ts_us, user_id, event_type, value)"""
    tbl = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([r[4] for r in rows], pa.float64()),
    })
    pq.write_table(tbl, str(tmp_path / "events.parquet"))
    return str(tmp_path)


MIN = 60_000_000


def test_asof_user_without_right_side(ray_session, tmp_path):
    """A user whose first (and only) events are purchases must get NULL
    prior_ts, not an IndexError (ASOF LEFT JOIN semantics)."""
    from fuzzy_matcher_ray.pipelines.events import asof_latest_prior
    sf = _write_events(tmp_path, [
        (1, 10 * MIN, 7, "purchase", 1.0),     # user 7: no signup at all
        (2, 5 * MIN, 8, "signup", 1.0),
        (3, 9 * MIN, 8, "purchase", 1.0),      # user 8: prior at 5min
        (4, 2 * MIN, 9, "purchase", 1.0),      # user 9: signup AFTER buy
        (5, 6 * MIN, 9, "signup", 1.0),
    ])
    out = asof_latest_prior(sf).to_pandas().set_index("event_id")
    assert out.loc[1].prior_ts is None or out.loc[1].isna().prior_ts
    assert out.loc[3].prior_ts == np.datetime64(5 * MIN, "us")
    assert out.loc[4].isna().prior_ts        # right exists but only later


def test_range_join_counts_band(ray_session, tmp_path):
    from fuzzy_matcher_ray.pipelines.events import range_join_count
    sf = _write_events(tmp_path, [
        (1, 10 * MIN, 1, "error", 1.0),
        (2, 6 * MIN, 1, "click", 1.0),     # inside [5,10]
        (3, 4 * MIN, 1, "click", 1.0),     # outside
        (4, 10 * MIN, 1, "click", 1.0),    # boundary: inclusive
        (5, 3 * MIN, 2, "error", 1.0),     # user 2: no clicks
    ])
    out = range_join_count(sf).to_pandas().set_index("event_id")
    assert out.loc[1].n_in_range == 2
    assert out.loc[5].n_in_range == 0


@pytest.mark.parametrize("forced", [False, True])
def test_joins_user_across_block_edges(ray_session, monkeypatch, forced):
    """Both join kernels run over whole users: on the driver, and with
    ``FMR_DRIVER_BYTES=0`` per block of a range sort on user_id,
    with user 3's 600 events spread over every input block (a user cut
    across sorted ranges, run on one of them, is in
    ``test_distributed_paths::test_map_sorted_stitches_boundary_keys``).
    The rows of the two tests above keep their expectations, and every
    row equals a brute-force scan of its user's events."""
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines import events as ev

    rng = np.random.default_rng(5)
    rows = [(1, 10 * MIN, 7, "purchase"), (2, 5 * MIN, 8, "signup"),
            (3, 9 * MIN, 8, "purchase"), (4, 2 * MIN, 9, "purchase"),
            (5, 6 * MIN, 9, "signup"), (6, 10 * MIN, 1, "error"),
            (7, 6 * MIN, 1, "click"), (8, 4 * MIN, 1, "click"),
            (9, 10 * MIN, 1, "click"), (10, 3 * MIN, 2, "error")]
    kinds = ["purchase", "signup", "error", "click"]
    for i in range(600):       # a hot user, ties at equal ts included
        rows.append((100 + i, int(rng.integers(0, 240)) * MIN, 3,
                     kinds[int(rng.integers(0, 4))]))
    tbl = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string())})
    monkeypatch.setattr(ev, "_events",
                        lambda sf_dir, columns=None:
                        rd.from_arrow(tbl).repartition(8))
    if forced:
        monkeypatch.setenv("FMR_DRIVER_BYTES", "0")

    def _ts(kind):
        return {r[0]: (r[2], r[1]) for r in rows if r[3] == kind}

    asof = ev.asof_latest_prior("ignored").to_pandas().set_index("event_id")
    signups = list(_ts("signup").values())
    for eid, (u, t) in _ts("purchase").items():
        prior = max((s for v, s in signups if v == u and s <= t),
                    default=None)
        got = asof.loc[eid].prior_ts
        assert (pd.isna(got) if prior is None
                else got == np.datetime64(prior, "us")), eid
    assert asof.loc[3].prior_ts == np.datetime64(5 * MIN, "us")
    assert asof.loc[1].isna().prior_ts and asof.loc[4].isna().prior_ts

    band = ev.range_join_count("ignored").to_pandas().set_index("event_id")
    clicks = list(_ts("click").values())
    for eid, (u, t) in _ts("error").items():
        want = sum(v == u and t - 5 * MIN <= s <= t for v, s in clicks)
        assert band.loc[eid].n_in_range == want, eid
    assert band.loc[6].n_in_range == 2 and band.loc[10].n_in_range == 0


def test_sliding_windows_null_value(ray_session, tmp_path):
    """A NULL value must not poison the window sums (oracle sums ignore
    NULLs); count still includes the row."""
    import duckdb

    from fuzzy_matcher_ray.pipelines.events import user_sliding_windows
    rows = [(1, 10 * MIN, 1, "view", 2.5), (2, 12 * MIN, 1, "view", None),
            (3, 40 * MIN, 1, "view", 4.0)]
    tbl = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([r[4] for r in rows], pa.float64()),
    })
    pq.write_table(tbl, str(tmp_path / "events.parquet"))
    out = user_sliding_windows(str(tmp_path)).to_pandas()
    assert not out.total_value.isna().any()
    # the [0, 60min) window holds all three events; the null contributes to
    # the count but not the sum
    w0 = out[out.window_start == np.datetime64(0, "us")]
    assert w0.n_events.tolist() == [3] and w0.total_value.tolist() == [6.5]


def test_user_sessions_block_boundaries_and_twin(ray_session, monkeypatch):
    """The vectorized sessionizer must be exact when one user's events
    straddle sorted-block edges, and the stitch's range-sort branch must
    equal its driver branch byte-for-byte."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines import events as ev

    rng = np.random.default_rng(9)
    rows = []
    base = np.datetime64("2024-01-01T00:00:00", "us")
    for u in range(7):
        t = base + np.timedelta64(int(rng.integers(0, 10**6)), "us")
        for _ in range(400):       # long per-user streams -> straddle blocks
            step_min = int(rng.choice([1, 5, 29, 31, 90]))
            t = t + np.timedelta64(step_min, "m")
            rows.append((u, t))
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    tbl = pa.table({"user_id": pa.array(df.user_id, pa.int64()),
                    "ts": pa.array(df.ts).cast(pa.timestamp("us"))})

    def fake_events(sf_dir, columns=None):
        return rd.from_arrow(tbl).repartition(16)

    monkeypatch.setattr(ev, "_events", fake_events)
    got = ev.user_sessions("ignored").to_pandas()

    # pandas oracle
    def _oracle(g):
        g = g.sort_values("ts")
        sid = (g["ts"].diff() > pd.Timedelta(minutes=30)).cumsum()
        out = g.groupby(sid).agg(session_start=("ts", "min"),
                                 n_events=("ts", "size"))
        out["user_id"] = g["user_id"].iloc[0]
        return out.reset_index(drop=True)
    exp = (df.groupby("user_id", group_keys=False)[df.columns]
           .apply(_oracle)
           .sort_values(["user_id", "session_start"])
           .reset_index(drop=True)[["user_id", "session_start", "n_events"]])
    got2 = got.sort_values(["user_id", "session_start"]).reset_index(drop=True)
    exp = exp.astype({"n_events": "int64",
                      "session_start": "datetime64[us]"})  # pandas defaults ns
    assert got2.astype({"n_events": "int64"}).equals(exp)

    # range-sort branch: force the stitch off the driver
    monkeypatch.setenv("FMR_DRIVER_BYTES", "0")
    twin = ev.user_sessions("ignored").to_pandas() \
        .sort_values(["user_id", "session_start"]).reset_index(drop=True)
    assert twin.equals(got2)


def test_value_quantiles_sketch_rank_bound(ray_session):
    """The mergeable sketch's returned values must be real data values whose
    global rank is within the documented 2·eps·n bound of the target rank,
    for every requested quantile, at sf0.01 against the exact sorted array."""
    import duckdb
    import numpy as np

    from fuzzy_matcher_ray.pipelines.events import value_quantiles_sketch

    sf = "/root/testdata/sf0.01"
    eps = 0.005
    got = value_quantiles_sketch(sf, eps=eps).to_pandas()
    con = duckdb.connect()
    vals = np.sort(con.sql(
        f"select value from read_parquet('{sf}/events.parquet') "
        "where value is not null").df()["value"].to_numpy())
    con.close()
    n = len(vals)
    assert len(got) == 4
    for _, row in got.iterrows():
        # membership: the sketch never interpolates
        assert (vals == row.value).any()
        # rank bound: |rank(value) - q·(n-1)| <= 2·eps·n (rank = any index
        # of the value in the sorted array, take the closest)
        idx = np.nonzero(vals == row.value)[0]
        target = row.q * (n - 1)
        err = np.abs(idx - target).min()
        assert err <= 2 * eps * n, (row.q, err, 2 * eps * n)


def test_value_quantiles_sketch_matches_exact_closely(ray_session):
    """Sanity: sketch values land close to the exact quantile values (the
    rank bound implies value closeness on this smooth distribution)."""
    from fuzzy_matcher_ray.pipelines.events import (value_quantiles,
                                                    value_quantiles_sketch)
    sf = "/root/testdata/sf0.01"
    exact = value_quantiles(sf).to_pandas().set_index("q")["value"]
    sk = value_quantiles_sketch(sf).to_pandas().set_index("q")["value"]
    spread = exact.max() - exact.min()
    for q in exact.index:
        assert abs(exact[q] - sk[q]) <= 0.05 * spread, (q, exact[q], sk[q])
