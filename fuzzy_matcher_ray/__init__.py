"""fuzzy_matcher_ray — a Ray-Data-native near-duplicate detection + clustering engine.

A from-scratch engine with the query semantics of the reference Fuzzy-Matcher
(normalized multi-field similarity matching, two-phase candidate generation +
precise verification, weighted scoring, thresholding, top-k, incremental
add/remove/expiry), generalized to web-scale near-duplicate detection:

- exact dedup (content-hash groupby)
- MinHash/LSH near-dup (5-gram shingles, 128 perms, b=16 r=8)
- SimHash Hamming-band near-dup
- substring dedup (winnowed fingerprints + per-partition suffix arrays)
- distributed connected components (union-find per range + contraction)
- entity matching (per-field Jaro-Winkler / Levenshtein / exact, weighted)
- embedding k-NN + cosine near-dup
- text analysis (lang-id, quality, token counts, fingerprints)

Everything is expressed as ``ray.data.Dataset`` pipelines: ``map_batches`` over
zero-copy Arrow batches, actor pools for stateful stages, ``groupby`` for the
wide shuffles. No global mutable index exists anywhere — the reference's trie
(``/root/reference/fuzzy_matcher_core/fuzzy_matcher_core.go:14-19``) dissolves
into columnar signature artifacts on the object store.
"""

# Environment shim: fsspec's HTTP filesystem needs aiohttp (absent here).
# The first failed import leaves a partially-initialized module in
# sys.modules; Ray's path resolution then hits a plain ImportError it does
# not catch (it only catches ModuleNotFoundError). Register a stub module —
# Ray only ever uses HTTPFileSystem in isinstance checks.
try:  # pragma: no cover - environment dependent
    from fsspec.implementations.http import HTTPFileSystem as _HTTPFS  # noqa: F401
except Exception:  # ModuleNotFoundError (aiohttp) or partial-import ImportError
    import sys as _sys
    import types as _types

    _m = _types.ModuleType("fsspec.implementations.http")

    class _StubHTTPFileSystem:  # never instantiated — isinstance-only
        pass

    _m.HTTPFileSystem = _StubHTTPFileSystem
    _sys.modules["fsspec.implementations.http"] = _m

from fuzzy_matcher_ray.config import PipelineConfig, EntityMatchConfig

__all__ = ["PipelineConfig", "EntityMatchConfig"]
__version__ = "0.1.0"
