"""Regression tests for the round-1 advisor findings (ADVICE.md):

1. empty broadcast lookup table must not crash (joins._Lookup IndexError);
   end-to-end: find_duplicates on a duplicate-free corpus returns singletons.
2. winnow_batch fingerprints must not depend on batch composition
   (small-doc reduceat segment bug).
3. labelling off the driver must not split long chains (it once ran
   min-label propagation under a round cap; union-find per range with
   contraction has no cap).
"""

import os

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st


def _docs_ds(texts):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "url": pa.array([f"u{i}" for i in range(len(texts))]),
        "text": pa.array(texts),
    }))


def test_attach_columns_empty_broadcast_side(ray_session):
    import ray.data as rd

    from fuzzy_matcher_ray.stages.joins import attach_columns
    left = rd.from_arrow(pa.table({"k": pa.array([1, 2, 3], pa.int64())}))
    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                    "v": pa.array([], pa.string())}))
    inner = attach_columns(left, empty, "k", "k", {"v": "v"}, how="inner")
    assert inner.count() == 0
    outer = attach_columns(left, empty, "k", "k", {"v": "v"}, how="left")
    t = outer.to_pandas()
    assert len(t) == 3 and t["v"].isna().all()


def test_find_duplicates_no_duplicates_returns_singletons(ray_session):
    from fuzzy_matcher_ray.config import PipelineConfig
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    rng = np.random.default_rng(3)
    # long random texts: no near-dups, no shared substrings → zero edges in
    # every pass (the empty-label-table crash path from ADVICE r1)
    alphabet = np.array(list("abcdefghijklmnopqrstuvwxyz "))
    texts = ["".join(rng.choice(alphabet, size=300)) for _ in range(40)]
    out = find_duplicates(_docs_ds(texts), PipelineConfig()).to_pandas()
    assert len(out) == 40
    assert (out["cluster_id"].to_numpy() ==
            out["doc_id"].to_numpy()).all()


def test_find_duplicates_simhash_only_no_edges(ray_session):
    from fuzzy_matcher_ray.config import PipelineConfig
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    rng = np.random.default_rng(5)
    alphabet = np.array(list("abcdefghijklmnopqrstuvwxyz "))
    texts = ["".join(rng.choice(alphabet, size=250)) for _ in range(25)]
    out = find_duplicates(_docs_ds(texts), PipelineConfig(),
                          passes=("simhash",)).to_pandas()
    assert len(out) == 25
    assert (out["cluster_id"].to_numpy() == out["doc_id"].to_numpy()).all()


def test_winnow_small_doc_fingerprints_batch_independent():
    from fuzzy_matcher_ray.functions.fingerprint import winnow_batch
    window, winnow = 4, 8
    short = "abcdefgh"                 # 5 window-hashes: 0 < cnt < winnow
    filler1 = "zzyyxxwwvvuuttssrrqqppoonnmm" * 4
    filler2 = "1234567890" * 12

    def fps_of(texts, idx):
        fp, counts, _pos = winnow_batch(pa.array(texts), window, winnow)
        offs = np.concatenate(([0], np.cumsum(counts)))
        return sorted(fp[offs[idx]: offs[idx + 1]].tolist())

    a = fps_of([short, filler1, short], 0)
    b = fps_of([short, filler1, short], 2)
    c = fps_of([filler2, short, filler1], 1)
    d = fps_of([short], 0)
    assert a == b == c == d and len(d) == 1


def test_distributed_labels_long_chain_converges(ray_session, monkeypatch):
    """A 1,500-node path, far deeper than any round cap, labelled with
    the driver budget forced to 0 (every range and key-local operator on
    Ray), over 4 ranges: the contraction has no round cap to run out of. Its edges run
    once in ascending and once in descending id order, so the ranges get
    different local roots."""
    import ray.data as rd

    from fuzzy_matcher_ray.config import PipelineConfig
    from fuzzy_matcher_ray.stages.cluster import cluster_edges
    monkeypatch.setenv("FMR_DRIVER_BYTES", "0")
    n = 1500
    docs = rd.from_arrow(pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64))}))
    cfg = PipelineConfig()
    a = np.arange(n - 1, dtype=np.int64)
    for ends in (a, a[::-1]):
        edges = rd.from_arrow([pa.table({"a": c, "b": c + 1})
                               for c in np.array_split(ends, 4)])
        out = cluster_edges(edges, docs, cfg).to_pandas()
        assert len(out) == n
        assert (out["cluster_id"] == 0).all()


def _named_graph(kind: str, n: int, blocks: int) -> list[tuple]:
    """(a, b) node-index pairs of one named graph, one list per block."""
    i = np.arange(n)
    if kind == "cut":
        # each block a path of its own n+1 nodes plus one edge from its
        # last node to the next block's first
        g = n + 1
        return [(np.r_[j * g + i, j * g + n],
                 np.r_[j * g + i + 1, (j + 1) % blocks * g])
                for j in range(blocks)]
    a, b = {"pairs": (2 * i, 2 * i + 1), "path": (i, i + 1),
            # the hub has the largest id: each range roots at a leaf
            "star": (i, np.full(n, n))}[kind]
    return list(zip(np.array_split(a, blocks), np.array_split(b, blocks)))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["pairs", "path", "star", "cut"]),
       n=st.integers(1, 40), blocks=st.sampled_from([1, 2, 7]),
       data=st.data())
def test_forced_labels_equal_union_find(ray_session, kind, n, blocks, data):
    """``component_labels`` with the driver budget forced to 0 over the
    named graphs cut in 1, 2 and 7 ranges on Ray equals one union-find
    over all edges byte for byte. Node ids are permuted (the star's hub
    keeps the largest), so local roots move between ranges. (One budget
    covers the labels and the ranges' key-local steps alike, so a
    contraction over driver blocks is no longer a branch of its own.)"""
    import ray.data as rd

    from fuzzy_matcher_ray.config import PipelineConfig
    from fuzzy_matcher_ray.functions.unionfind import connected_components
    from fuzzy_matcher_ray.stages.cluster import component_labels
    from fuzzy_matcher_ray.stages.joins import collect_table

    parts = _named_graph(kind, n, blocks)
    size = 1 + max(int(max(a.max(initial=0), b.max(initial=0)))
                   for a, b in parts)
    ids = np.array(data.draw(st.permutations(range(size))), np.int64) * 3
    if kind == "star":
        ids[[np.argmax(ids), n]] = ids[[n, np.argmax(ids)]]
    tables = [pa.table({"a": np.minimum(ids[a], ids[b]),
                        "b": np.maximum(ids[a], ids[b])}) for a, b in parts]
    nodes, labels = connected_components(
        *(np.concatenate([t[c].to_numpy() for t in tables]) for c in "ab"))
    want = pa.table({"node": nodes, "label": labels})
    # hypothesis runs every example in one function-scoped fixture, so
    # the env var is set and restored here instead of by monkeypatch
    budget = os.environ.get("FMR_DRIVER_BYTES")
    os.environ["FMR_DRIVER_BYTES"] = "0"
    try:
        got = collect_table(component_labels(rd.from_arrow(tables),
                                             PipelineConfig()))
    finally:
        if budget is None:
            del os.environ["FMR_DRIVER_BYTES"]
        else:
            os.environ["FMR_DRIVER_BYTES"] = budget
    assert got.sort_by("node").equals(want)
