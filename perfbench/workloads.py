"""Seeded workload corpora for the dedup benchmark.

Every workload is built from ``sources.webpages.make_webpages`` (or derived
from it) and written once per (workload, seed) as Parquet under the cache
directory. The program under test only ever sees those files: the pages
file(s) go through ``webpages_source``; the truth sidecar stays with the
benchmark.

Why each workload exists (BENCHMARK.json carries the same one-liners):

- ``flagship``: the default planted-duplicate mix through ``find_duplicates``.
  It is shuffled (so duplicates cross shard boundaries) and also cut into 2
  shards, which only the traced run folds with ``dedup_sharded`` from a
  fresh state root (``find_duplicates`` over the first, then
  ``incremental_update``) for the fold and checkpoint layers.
- ``boilerplate_skew``: 30% of the docs share one ~300-token block with
  per-doc token mutations near the 0.8 Jaccard threshold plus a unique tail.
  Band groups past ``max_band_group`` exercise the star+chain cap, verify
  (about two thirds of the wall), and one mega-component in clustering.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# Bump when any generator below changes its output for the same seed, so a
# stale cached corpus is never reused.
GEN_VERSION = 3

# Columns ``webpages_source`` reads; the html column is never written.
_PAGE_COLUMNS = ["url", "warc_ts", "text", "lang"]


@dataclass(frozen=True)
class Spec:
    name: str
    n_docs: int
    shards: int = 1
    boiler_frac: float = 0.0


SPECS = {
    "flagship": Spec("flagship", 1500, shards=2),
    "boilerplate_skew": Spec("boilerplate_skew", 500, boiler_frac=0.3),
}

WARMUP = Spec("warmup", 200)


@dataclass(frozen=True)
class Corpus:
    """Paths of one generated workload: ``whole`` is the pages file the
    timed pipeline reads, ``shards`` the same docs cut into the pages files
    the traced chain folds, in fold order (just ``whole`` for one shard),
    ``truth`` the sidecar (url, true_cluster_id)."""
    spec: Spec
    seed: int
    shards: list[str]
    whole: str
    truth: str


def _words(rng: np.random.Generator, n: int) -> list[str]:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    return ["".join(w) for w in rng.choice(letters, size=(n, 7))]


def boilerplate_docs(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` docs sharing one 300-token block. Each doc replaces 5-13 of the
    block's tokens and appends a 7-token unique tail, which centres pairwise
    5-gram Jaccard on the 0.8 threshold (about half the pairs on each side).
    The mutation counts cycle through 5-13 rather than being drawn, so every
    seed gives the same mix of near and far pairs."""
    block = _words(rng, 300)
    out = []
    for k in range(n):
        toks = list(block)
        n_mut = 5 + k % 9
        fresh = _words(rng, n_mut + 7)
        for i, j in enumerate(rng.choice(len(toks), n_mut, replace=False)):
            toks[j] = fresh[i]
        out.append(" ".join(toks + fresh[n_mut:]))
    return out


def _pages_and_truth(spec: Spec, seed: int) -> tuple[pa.Table, pa.Table]:
    from fuzzy_matcher_ray.sources.webpages import make_webpages

    rng = np.random.default_rng([seed, GEN_VERSION, len(spec.name)])
    n_boiler = int(round(spec.n_docs * spec.boiler_frac))
    pages, truth = make_webpages(spec.n_docs - n_boiler, seed=seed)
    pages = pages.select(_PAGE_COLUMNS)
    truth = truth.select(["url", "true_cluster_id"])
    if n_boiler:
        texts = boilerplate_docs(rng, n_boiler)
        urls = [f"https://boiler.example/page/{i}" for i in range(n_boiler)]
        ts = pa.array(np.full(n_boiler, np.datetime64("2024-06-01", "us")))
        pages = pa.concat_tables([pages, pa.table({
            "url": pa.array(urls, pa.string()), "warc_ts": ts,
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n_boiler, pa.string())})])
        # the boilerplate members are one true cluster
        boiler_id = int(pc.max(truth["true_cluster_id"]).as_py() or 0) + 1
        truth = pa.concat_tables([truth, pa.table({
            "url": pa.array(urls, pa.string()),
            "true_cluster_id": pa.array([boiler_id] * n_boiler, pa.int64())})])
    if spec.shards > 1 or n_boiler:
        # shuffle so planted clusters and boilerplate cross block and shard
        # boundaries instead of sitting in one contiguous run
        pages = pages.take(pa.array(rng.permutation(len(pages))))
    return pages, truth


def build(spec: Spec, seed: int, cache_dir: str) -> Corpus:
    """Generate (or reuse) the corpus of ``spec`` for ``seed``."""
    stem = os.path.join(cache_dir, f"{spec.name}-v{GEN_VERSION}-{spec.n_docs}-{seed}")
    whole = f"{stem}-pages.parquet"
    shard_paths = ([f"{stem}-shard{i}.parquet" for i in range(spec.shards)]
                   if spec.shards > 1 else [whole])
    corpus = Corpus(spec, seed, shard_paths, whole, f"{stem}-truth.parquet")
    files = {*shard_paths, whole, corpus.truth}
    if all(os.path.exists(p) for p in files):
        return corpus
    os.makedirs(cache_dir, exist_ok=True)
    pages, truth = _pages_and_truth(spec, seed)
    bounds = np.linspace(0, len(pages), spec.shards + 1).astype(int)
    tables = {corpus.truth: truth, whole: pages}
    if spec.shards > 1:
        tables.update((p, pages.slice(lo, hi - lo)) for p, lo, hi in
                      zip(shard_paths, bounds[:-1], bounds[1:]))
    # write to temp names and rename, so a killed run never leaves a
    # partial corpus that a later run would take as cached
    for path, table in tables.items():
        pq.write_table(table, path + ".tmp")
        os.replace(path + ".tmp", path)
    return corpus
