"""Link-graph operators over Common-Crawl-style pages: href extraction and
PageRank centrality.

Host/page centrality is a standard web-corpus quality signal (the original
PageRank (Page et al. 1999) and its use in crawl frontier/quality ranking
are public work); in a pretraining pipeline it feeds host-level quality
priors next to `webtext.host_stats` / blocklists. Generalizes the
reference's "score then keep best" shape (fuzzy_matcher_core.go:281-287)
from per-pair edit scores to whole-graph link scores.

Shape:

1. **extract_links** — one streaming `map_batches` over (url, html): a
   compiled href regex per payload (per-payload parsing is inherent, the
   same honest cost as `HtmlExtractor` / `compression_ratio`), relative
   paths resolved against the page's own scheme://host. Output is the slim
   (src, dst) edge table; the html column never leaves the stage.
2. **pagerank** — iterative: rank_new(v) = base + Σ_{u→v} ⌊d·rank(u) /
   outdeg(u)⌋ over DISTINCT edges, all arithmetic int64 fixed point
   (damping in ppm, ranks in SCALE units) so integer addition order cannot
   matter — the driver loop and the Dataset-per-iteration twin are
   byte-identical (parity-tested; `FMR_GRAPH_DRIVER_MAX_ROWS=0` forces the
   twin). Below the gate the edge list collects to the driver (slim rows);
   beyond it each iteration is: attach ranks onto edges by src
   (`stages/joins.attach_columns` — broadcast under its own gate,
   key-local beyond) → per-batch contribution kernel → `groupby(node).sum` →
   left-attach back onto the node table, materialized per round so lineage
   stays O(1). Dangling-node mass evaporates each round (the classic
   no-redistribution variant) and integer floor division sheds ≤1 unit per
   edge — both documented, deterministic, and irrelevant to the signal's
   use as a relative quality prior.

Determinism: no float, no RNG; ranks are exact int64 functions of the
distinct edge set. SCALE = 10^6 keeps Σ ranks ≤ N·10^6 — inside int64 up
to N = 10^12 nodes, the design corpus — and the contribution kernel is
decomposed (see ``_contrib_of``) so its intermediates are bounded by the
rank itself: hub nodes of arbitrary in-link mass cannot overflow the
d·rank product either.
"""

from __future__ import annotations

import os as _os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from fuzzy_matcher_ray.pipelines.webtext import _as_array

# edge tables at or below this row count collect to the driver for the
# in-memory power iteration (~50 B/edge ⇒ ~800 MB at the ceiling); beyond
# it the Dataset-per-iteration twin runs — the open-web path. 0 forces the
# twin (parity-test / scaling-bench convention, same as
# FMR_DRIVER_EXPLODE_MAX_ROWS).
DRIVER_EDGES_MAX_ROWS = int(_os.environ.get(
    "FMR_GRAPH_DRIVER_MAX_ROWS", 16_000_000))

SCALE = 1_000_000          # rank fixed-point units per node at init
PPM = 1_000_000            # damping denominator

_HREF_RE = re.compile(rb'href="([^"]*)"')
_ROOT_RE = re.compile(r"^(https?://[^/]+)")


def extract_links(pages):
    """(src, dst) distinct edges from the html column.

    Input: Dataset with (url, html: binary). Absolute http(s) hrefs pass
    through; root-relative ones resolve against the src page's
    scheme://host; anchors/mailto/scheme-relative are skipped. Self-loops
    are dropped (they only feed rank back to their own node).
    """
    def _edges(t: pa.Table) -> pa.Table:
        urls = _as_array(t["url"]).to_pylist()
        htmls = _as_array(t["html"]).to_pylist()
        src, dst = [], []
        for u, h in zip(urls, htmls):
            if not u or not h:
                continue
            m = _ROOT_RE.match(u)
            root = m.group(1) if m else None
            for raw in _HREF_RE.findall(h):
                href = raw.decode("utf-8", "replace")
                if href.startswith(("http://", "https://")):
                    d = href
                elif href.startswith("/") and root:
                    d = root + href
                else:
                    continue
                if d != u:
                    src.append(u)
                    dst.append(d)
        e = pa.table({"src": pa.array(src, pa.string()),
                      "dst": pa.array(dst, pa.string())})
        # batch-local dedup (combiner); the global distinct runs after
        return e.group_by(["src", "dst"]).aggregate([])

    edges = pages.map_batches(_edges, batch_format="pyarrow")
    from ray.data.aggregate import Count
    return edges.groupby(["src", "dst"]).aggregate(
        Count(alias_name="_m")).drop_columns(["_m"])


def _contrib_of(rank: np.ndarray, outdeg: np.ndarray,
                damping_ppm: int) -> np.ndarray:
    """⌊d·rank/(PPM·outdeg)⌋ in exact int64 — THE shared kernel of both paths.

    Decomposed so no intermediate can overflow: a naive
    ``damping_ppm * rank`` wraps once a hub's rank exceeds ~1.08e13 units
    (≈1e7 in-links of average mass), exactly the open-web regime.  Using
    the nested-floor identity ⌊x/(a·b)⌋ = ⌊⌊x/a⌋/b⌋ with x = d·rank,
    a = PPM, b = outdeg, and computing ⌊d·rank/PPM⌋ via the split
    rank = q·PPM + r  ⇒  ⌊d·rank/PPM⌋ = d·q + ⌊d·r/PPM⌋, every
    intermediate is ≤ rank (d < PPM, r < PPM ⇒ d·r < PPM² ≈ 1e12), so the
    kernel is exact for ANY rank representable in int64.
    """
    q, r = rank // PPM, rank % PPM
    scaled = damping_ppm * q + (damping_ppm * r) // PPM  # = ⌊d·rank/PPM⌋
    return scaled // outdeg


def pagerank(edges, n_iter: int = 10, damping_ppm: int = 850_000):
    """(node, rank) int64 fixed-point PageRank over a distinct edge list.

    ``edges`` is a Dataset with string columns (src, dst), already
    distinct. Node set = union of srcs and dsts; every node starts at
    SCALE and receives base = ⌊(1-d)·SCALE⌋ each round.
    """
    n_edges = edges.count()
    if n_edges <= DRIVER_EDGES_MAX_ROWS:
        t = _collect(edges)
        return rd.from_arrow(_pagerank_driver(t, n_iter, damping_ppm))
    return _pagerank_distributed(edges, n_iter, damping_ppm)


def _collect(ds) -> pa.Table:
    parts = list(ds.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
    if not parts:
        return pa.table({"src": pa.array([], pa.string()),
                         "dst": pa.array([], pa.string())})
    return pa.concat_tables(parts).combine_chunks()


def _pagerank_driver(edges: pa.Table, n_iter: int,
                     damping_ppm: int) -> pa.Table:
    src = edges["src"].to_numpy(zero_copy_only=False)
    dst = edges["dst"].to_numpy(zero_copy_only=False)
    nodes = np.unique(np.concatenate([src, dst])) if len(src) else \
        np.array([], dtype=object)
    sid = np.searchsorted(nodes, src)
    did = np.searchsorted(nodes, dst)
    n = len(nodes)
    outdeg = np.bincount(sid, minlength=n).astype(np.int64)
    rank = np.full(n, SCALE, dtype=np.int64)
    base = ((PPM - damping_ppm) * SCALE) // PPM
    for _ in range(n_iter):
        contrib = _contrib_of(rank[sid], outdeg[sid], damping_ppm)
        nxt = np.full(n, base, dtype=np.int64)
        np.add.at(nxt, did, contrib)
        rank = nxt
    return pa.table({"node": pa.array(nodes, pa.string()),
                     "rank": pa.array(rank, pa.int64())})


def _pagerank_distributed(edges, n_iter: int, damping_ppm: int):
    """The open-web twin: per iteration, ranks attach onto the edge table
    by src, a per-batch kernel emits (node=dst, c), a node-keyed groupby
    sums, and the sums left-attach back onto the node table. Integer sums
    are order-free, so this is byte-identical to the driver loop."""
    from ray.data.aggregate import Count, Sum

    from fuzzy_matcher_ray.stages.joins import attach_columns

    edges = edges.materialize()
    srcs = edges.select_columns(["src"]) \
        .map_batches(lambda t: pa.table({"node": t["src"]}),
                     batch_format="pyarrow")
    dsts = edges.select_columns(["dst"]) \
        .map_batches(lambda t: pa.table({"node": t["dst"]}),
                     batch_format="pyarrow")
    nodes = srcs.union(dsts).groupby("node") \
        .aggregate(Count(alias_name="_m")).drop_columns(["_m"]).materialize()
    outdeg = edges.groupby("src").aggregate(Count(alias_name="outdeg"))
    edges_deg = attach_columns(edges, outdeg, "src", "src",
                               {"outdeg": "outdeg"}, how="inner") \
        .materialize()

    base = ((PPM - damping_ppm) * SCALE) // PPM

    def _init(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"],
                         "rank": pa.array(np.full(t.num_rows, SCALE,
                                                  dtype=np.int64))})

    ranks = nodes.map_batches(_init, batch_format="pyarrow").materialize()
    for _ in range(n_iter):
        with_rank = attach_columns(edges_deg, ranks, "src", "node",
                                   {"rank": "rank"}, how="inner")

        def _contrib(t: pa.Table) -> pa.Table:
            r = _as_array(t["rank"]).to_numpy(zero_copy_only=False)
            d = _as_array(t["outdeg"]).to_numpy(zero_copy_only=False)
            c = _contrib_of(r.astype(np.int64), d.astype(np.int64),
                            damping_ppm)
            return pa.table({"node": t["dst"],
                             "c": pa.array(c, pa.int64())})

        sums = with_rank.map_batches(_contrib, batch_format="pyarrow") \
            .groupby("node").aggregate(Sum("c", alias_name="c"))
        joined = attach_columns(nodes, sums, "node", "node", {"c": "c"},
                                how="left")

        def _next(t: pa.Table) -> pa.Table:
            c = pc.fill_null(t["c"], 0)
            return pa.table({
                "node": t["node"],
                "rank": pc.add(pc.cast(c, pa.int64()),
                               pa.scalar(base, pa.int64()))})

        ranks = joined.map_batches(_next, batch_format="pyarrow") \
            .materialize()
    return ranks


def link_pagerank(sf_dir: str, n_docs: int = 2000, seed: int = 7,
                  n_iter: int = 10):
    """(node, rank) over the synthetic crawl's extracted link graph.

    Same fixture convention as ``webtext.extract_html_pages`` (``sf_dir``
    unused — the crawl table is its own deterministic fixture): read the
    (url, html) columns, extract distinct edges, run 10 fixed-point
    PageRank rounds. Iterative — not SQL-expressible; rows-only contract,
    exact twin/reference oracles in tests/test_graph.py.
    """
    from fuzzy_matcher_ray.sources.webpages import write_webpages

    path = write_webpages("/tmp/fm_ray_pages", n_docs, seed)
    pages = rd.read_parquet(path, columns=["url", "html"])
    out = pagerank(extract_links(pages), n_iter=n_iter)
    return out.sort(["rank", "node"], descending=[True, False])
