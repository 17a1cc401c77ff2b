"""Link-graph ops: href-extraction oracle, PageRank vs a float reference
and structural invariants, and driver-vs-distributed byte parity."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd


def _edge_ds(pairs):
    t = pa.table({"src": pa.array([a for a, _ in pairs], pa.string()),
                  "dst": pa.array([b for _, b in pairs], pa.string())})
    return rd.from_arrow(t)


def _ref_pagerank_float(pairs, n_iter=10, d=0.85):
    nodes = sorted({x for p in pairs for x in p})
    idx = {n: i for i, n in enumerate(nodes)}
    out = {}
    for a, b in pairs:
        out.setdefault(a, []).append(b)
    r = {n: 1.0 for n in nodes}
    for _ in range(n_iter):
        nxt = {n: (1 - d) for n in nodes}
        for a, dsts in out.items():
            share = d * r[a] / len(dsts)
            for b in dsts:
                nxt[b] += share
        r = nxt
    return r


PAIRS = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"),
         ("d", "c"),             # d is dangling-source only (no in-links)
         ("e", "c")]             # c is the hub


def test_pagerank_matches_float_reference(ray_session):
    from fuzzy_matcher_ray.pipelines.graph import SCALE, pagerank
    got = {r["node"]: r["rank"] for r in pagerank(_edge_ds(PAIRS)).take_all()}
    ref = _ref_pagerank_float(PAIRS)
    assert set(got) == set(ref)
    for n in ref:
        # fixed-point floor sheds ≤1 unit per edge per round: 10 rounds ×
        # 6 edges ⇒ ≤60 units ≈ 6e-5 of SCALE — assert ppm-level agreement
        assert abs(got[n] / SCALE - ref[n]) < 1e-3, (n, got[n] / SCALE,
                                                     ref[n])
    # structural: the hub out-ranks everything; no-in-link nodes sit at
    # the teleport floor
    assert got["c"] == max(got.values())
    base_like = min(got.values())
    assert got["d"] == base_like and got["e"] == base_like


def test_pagerank_driver_distributed_parity(ray_session, monkeypatch):
    import fuzzy_matcher_ray.pipelines.graph as g
    driver = {r["node"]: r["rank"]
              for r in g.pagerank(_edge_ds(PAIRS), n_iter=6).take_all()}
    monkeypatch.setenv("FMR_DRIVER_BYTES", "0")
    dist = {r["node"]: r["rank"]
            for r in g.pagerank(_edge_ds(PAIRS), n_iter=6).take_all()}
    assert driver == dist


def test_pagerank_empty_and_self_loop_free(ray_session):
    from fuzzy_matcher_ray.pipelines.graph import pagerank
    empty = _edge_ds([])
    assert pagerank(empty).count() == 0


def test_extract_links_oracle(ray_session):
    from fuzzy_matcher_ray.pipelines.graph import extract_links
    html = (b'<html><body>'
            b'<a href="/about">x</a>'
            b'<a href="https://other.example/p">y</a>'
            b'<a href="#frag">skip</a>'
            b'<a href="mailto:a@b.c">skip</a>'
            b'<a href="/about">dup</a>'
            b'<a href="https://h.example/me">self</a>'
            b'</body></html>')
    pages = rd.from_arrow(pa.table({
        "url": pa.array(["https://h.example/me"], pa.string()),
        "html": pa.array([html], pa.binary())}))
    got = sorted((r["src"], r["dst"]) for r in extract_links(pages).take_all())
    assert got == [("https://h.example/me", "https://h.example/about"),
                   ("https://h.example/me", "https://other.example/p")]


def test_link_pagerank_e2e(ray_session):
    """Fixture crawl → extracted graph → ranks: every node positive, the
    result deterministic across runs, and nav targets ('/', '/about')
    near the top (every page links to them)."""
    from fuzzy_matcher_ray.pipelines.graph import link_pagerank
    a = link_pagerank("unused", n_docs=300, seed=7, n_iter=5).take_all()
    b = link_pagerank("unused", n_docs=300, seed=7, n_iter=5).take_all()
    assert a == b
    assert len(a) > 300                       # pages + link targets
    assert all(r["rank"] > 0 for r in a)
    top_nodes = [r["node"] for r in a[:300]]
    assert any(n.endswith(".example/") for n in top_nodes)
    assert any(n.endswith("/about") for n in top_nodes)
