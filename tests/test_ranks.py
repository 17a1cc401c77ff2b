"""stages/ranks: distributed global-position stamp + grouped top-k (its
driver and range-sort merges, and the executions it starts).

The stamp's driver mode exists only as the parity oracle; the distributed
mode (block-metadata prefix sum + per-block stamp tasks) is the production
path and must be byte-identical to it.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def rng():
    return np.random.default_rng(404)


def test_stamp_distributed_matches_driver(ray_session, rng):
    import ray.data as rd

    from fuzzy_matcher_ray.stages.ranks import stamp_global_positions
    vals = rng.permutation(5000).astype(np.int64)
    ds = rd.from_arrow(pa.table({"v": vals})).repartition(7).sort("v")
    a = stamp_global_positions(ds, col="pos", mode="distributed") \
        .to_pandas().sort_values("v").reset_index(drop=True)
    b = stamp_global_positions(ds, col="pos", mode="driver") \
        .to_pandas().sort_values("v").reset_index(drop=True)
    assert a.equals(b)
    # after a sort, position == rank of the value
    assert (a["pos"].to_numpy() == np.arange(5000)).all()


def test_stamp_empty(ray_session):
    import ray.data as rd

    from fuzzy_matcher_ray.stages.ranks import stamp_global_positions
    ds = rd.from_arrow(pa.table({"v": pa.array([], pa.int64())}))
    out = stamp_global_positions(ds, col="pos")
    # NB: Ray's to_pandas() drops columns on zero-row datasets — assert on
    # the Dataset schema, which must stay pinned for downstream sorts
    assert out.count() == 0 and out.schema().names == ["v", "pos"]


def test_shuffle_epoch_distributed_matches_driver(ray_session):
    from fuzzy_matcher_ray.pipelines.textops import shuffle_epoch
    dist = shuffle_epoch(SF, stamp_mode="distributed").to_pandas()
    drv = shuffle_epoch(SF, stamp_mode="driver").to_pandas()
    assert dist.equals(drv) and len(dist) == 500


def _topk_oracle(df: pd.DataFrame, group: str, value: str, idc: str,
                 k: int) -> pd.DataFrame:
    df = df.sort_values([group, value, idc],
                        ascending=[True, False, True])
    out = df.groupby(group, sort=True).head(k)
    return out.reset_index(drop=True)


def test_grouped_topk_matches_pandas_oracle(ray_session, rng):
    import ray.data as rd

    from fuzzy_matcher_ray.stages.ranks import grouped_topk
    n = 4000
    tbl = pa.table({
        "g": pa.array([f"grp{int(x)}" for x in rng.integers(0, 37, n)]),
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        # small value range forces plenty of ties → tiebreak correctness
        "val": pa.array(rng.integers(0, 9, n).astype(np.int64))})
    ds = rd.from_arrow(tbl).repartition(6)
    got = grouped_topk(ds, "g", "val", "doc_id", 5) \
        .to_pandas().sort_values(["g", "val", "doc_id"],
                                 ascending=[True, False, True]) \
        .reset_index(drop=True)
    want = _topk_oracle(tbl.to_pandas(), "g", "val", "doc_id", 5)
    assert got.equals(want[got.columns.tolist()].reset_index(drop=True))


def test_grouped_topk_rank_col(ray_session, rng):
    import ray.data as rd

    from fuzzy_matcher_ray.stages.ranks import grouped_topk
    tbl = pa.table({
        "g": pa.array((["a"] * 6) + (["b"] * 2)),
        "doc_id": pa.array(np.arange(8, dtype=np.int64)),
        "val": pa.array([5, 5, 9, 1, 1, 1, 3, 3], type=pa.int64())})
    out = grouped_topk(rd.from_arrow(tbl).repartition(3), "g", "val",
                       "doc_id", 3, rank_col="rnk") \
        .to_pandas().sort_values(["g", "rnk"]).reset_index(drop=True)
    assert out[out.g == "a"].doc_id.tolist() == [2, 0, 1]   # 9, then 5s by id
    assert out[out.g == "a"].rnk.tolist() == [1, 2, 3]
    assert out[out.g == "b"].doc_id.tolist() == [6, 7]
    assert out[out.g == "b"].rnk.tolist() == [1, 2]


def test_grouped_topk_distributed_merge(ray_session, rng, monkeypatch):
    """The merge's range-sort branch (``DRIVER_EXPLODE_MAX_ROWS = 0``)
    over a residue from 7 blocks, every group in each, and the rank
    column, against the pandas oracle (a group cut across sorted blocks
    is in test_distributed_paths' ``topk`` stitch case)."""
    import ray.data as rd

    from fuzzy_matcher_ray.stages import candidates
    from fuzzy_matcher_ray.stages.ranks import grouped_topk
    monkeypatch.setattr(candidates, "DRIVER_EXPLODE_MAX_ROWS", 0)
    n = 4000
    tbl = pa.table({
        "g": pa.array([f"grp{int(x)}" for x in rng.integers(0, 5, n)]),
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "val": pa.array(rng.integers(0, 9, n).astype(np.int64))})
    got = grouped_topk(rd.from_arrow(tbl).repartition(7), "g", "val",
                       "doc_id", 3, rank_col="rnk") \
        .to_pandas().sort_values(["g", "rnk"]).reset_index(drop=True)
    want = _topk_oracle(tbl.to_pandas(), "g", "val", "doc_id", 3)
    want["rnk"] = want.groupby("g").cumcount() + 1
    assert got.equals(want[got.columns.tolist()])


def test_topk_per_source_runs_in_two_executions(ray_session):
    """The partial pass's materialize and the final sort: the merge runs
    on the driver over the pinned residue. With the residue sort, stamp,
    ``Min`` groupby and attach it took 5."""
    from test_entry_contract import SF_DIR
    from test_flagship_plan import ExecutionCounter

    from fuzzy_matcher_ray.pipelines.textops import topk_per_source
    from fuzzy_matcher_ray.stages.joins import collect_table
    with ExecutionCounter().installed() as counter:
        out = collect_table(topk_per_source(SF_DIR))
    assert len(out) > 0
    assert counter.count == 2


@pytest.mark.parametrize("query,executions", [("knn_topk", 2),
                                               ("asof_latest_prior", 1)])
def test_sorted_queries_sort_on_the_driver(ray_session, query, executions):
    """A result the merge built on the driver is sorted there
    (``joins.sort_rows``): knn_topk runs its score map and partial top-k
    pass, asof_latest_prior only its side projection. With a
    ``Dataset.sort`` over that result they took 3 and 2."""
    from test_entry_contract import SF_DIR
    from test_flagship_plan import ExecutionCounter

    from fuzzy_matcher_ray.pipelines.events import asof_latest_prior
    from fuzzy_matcher_ray.pipelines.knn import knn_topk
    from fuzzy_matcher_ray.stages.joins import collect_table
    fn = {"knn_topk": knn_topk, "asof_latest_prior": asof_latest_prior}
    with ExecutionCounter().installed() as counter:
        out = collect_table(fn[query](SF_DIR))
    assert len(out) > 0
    assert counter.count == executions


def test_grouped_topk_empty(ray_session):
    import ray.data as rd

    from fuzzy_matcher_ray.stages.ranks import grouped_topk
    sch = pa.schema([("g", pa.string()), ("doc_id", pa.int64()),
                     ("val", pa.int64())])
    ds = rd.from_arrow(sch.empty_table())
    out = grouped_topk(ds, "g", "val", "doc_id", 2, empty_schema=sch)
    # (same to_pandas-on-empty caveat as test_stamp_empty)
    assert out.count() == 0 and out.schema().names == ["g", "doc_id", "val"]


def test_prefix_sum_stamp_distributed_matches_driver(ray_session, rng):
    import ray.data as rd

    from fuzzy_matcher_ray.stages.ranks import stamp_global_prefix_sums
    n = 4000
    keys = rng.permutation(n).astype(np.int64)
    w = rng.integers(0, 9, n).astype(np.int64)
    w[::13] = 0                                   # zero weights mid-stream
    tb = pa.table({"k": keys, "w": pa.array(w).cast(pa.int64())})
    # nulls must count as 0
    wn = w.astype(object)
    wn[::17] = None
    tb = tb.set_column(1, "w", pa.array(wn.tolist(), pa.int64()))
    ds = rd.from_arrow(tb).repartition(6).sort("k")
    a = stamp_global_prefix_sums(ds, "w", col="off", mode="distributed") \
        .to_pandas().sort_values("k").reset_index(drop=True)
    b = stamp_global_prefix_sums(ds, "w", col="off", mode="driver") \
        .to_pandas().sort_values("k").reset_index(drop=True)
    assert a.equals(b)
    # exclusive running sum in key order
    wv = np.nan_to_num(a["w"].to_numpy(dtype=np.float64)).astype(np.int64)
    assert (a["off"].to_numpy() == np.cumsum(wv) - wv).all()


def test_pack_sequences_distributed_matches_driver(ray_session):
    from fuzzy_matcher_ray.pipelines.textops import pack_sequences
    dist = pack_sequences(SF, stamp_mode="distributed").to_pandas()
    drv = pack_sequences(SF, stamp_mode="driver").to_pandas()
    assert dist.equals(drv) and len(dist) > 500
    # packing invariants: contiguous full windows; per-doc ranges tile the
    # doc's token count in order
    spans = dist.assign(n=dist.tok_end - dist.tok_start)
    per_seq = spans.groupby("seq_id")["n"].sum().to_numpy()
    assert (per_seq[:-1] == 64).all() and 0 < per_seq[-1] <= 64
    for _, g in spans.groupby("doc_id"):
        g = g.sort_values("seq_id")
        assert g.tok_start.iloc[0] == 0
        assert (g.tok_start.to_numpy()[1:] == g.tok_end.to_numpy()[:-1]).all()
        assert (g.seq_id.to_numpy()[1:] - g.seq_id.to_numpy()[:-1] == 1).all()
