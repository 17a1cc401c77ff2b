"""Similarity kernels: Jaro-Winkler, Levenshtein, Jaccard, weighted scores.

Parity targets:
- ``/root/reference/fuzzy_matcher_core/distance.go:19-38``: JaroWinkler via
  matchr (long-tolerance variant), Levenshtein normalized as
  ``1 - dist/max(len)``, "Default" method constant 1.0 (exact-match fields are
  gated upstream, not scored).
- weighted sum ``score = Σ weight_f · sim_f``: fuzzy_matcher_core.go:262-267.

Reference tests assert score *ranges*, not exact floats (scores depend on
matchr internals) — these implementations follow the published Jaro-Winkler /
Winkler long-string formulas and land inside every golden range
(tests/test_data/distance_tests.json).
"""

from __future__ import annotations

import numpy as np


def jaro(s1: str, s2: str) -> float:
    """Classic Jaro similarity. Empty-vs-anything → 0.0 (matchr behavior)."""
    len1, len2 = len(s1), len(s2)
    if len1 == 0 or len2 == 0:
        return 0.0
    if s1 == s2:
        return 1.0
    window = max(len1, len2) // 2 - 1
    if window < 0:
        window = 0
    match1 = [False] * len1
    match2 = [False] * len2
    matches = 0
    for i, c in enumerate(s1):
        lo = max(0, i - window)
        hi = min(len2, i + window + 1)
        for j in range(lo, hi):
            if not match2[j] and s2[j] == c:
                match1[i] = True
                match2[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    # transpositions
    t = 0
    j = 0
    for i in range(len1):
        if match1[i]:
            while not match2[j]:
                j += 1
            if s1[i] != s2[j]:
                t += 1
            j += 1
    t //= 2
    m = float(matches)
    return (m / len1 + m / len2 + (m - t) / m) / 3.0


def jaro_winkler(s1: str, s2: str, long_tolerance: bool = True,
                 prefix_weight: float = 0.1, boost_threshold: float = 0.7,
                 prefix_size: int = 4) -> float:
    """Jaro-Winkler with the long-string adjustment (matchr JaroWinkler(_,_,true))."""
    j = jaro(s1, s2)
    if j == 0.0:
        return 0.0
    len1, len2 = len(s1), len(s2)
    prefix = 0
    for a, b in zip(s1, s2):
        if a != b or prefix >= prefix_size:
            break
        prefix += 1
    sim = j
    if j > boost_threshold and prefix > 0:
        sim = j + prefix * prefix_weight * (1.0 - j)
    if long_tolerance and min(len1, len2) > 4:
        # Winkler long-string variant: extra credit for many matches in long strings
        # (published Jaro-Winkler long-tolerance formula; matchr implements it too)
        m = _jaro_matches(s1, s2)
        if m - prefix >= 2 and 2 * m >= min(len1, len2) + prefix:
            sim = sim + (1.0 - sim) * (m - prefix - 1) / (len1 + len2 - 2 * (prefix - 1))
    return sim


def _jaro_matches(s1: str, s2: str) -> int:
    """Number of Jaro matching characters (helper for long tolerance)."""
    len1, len2 = len(s1), len(s2)
    window = max(max(len1, len2) // 2 - 1, 0)
    match2 = [False] * len2
    matches = 0
    for i, c in enumerate(s1):
        for j in range(max(0, i - window), min(len2, i + window + 1)):
            if not match2[j] and s2[j] == c:
                match2[j] = True
                matches += 1
                break
    return matches


def levenshtein(s1: str, s2: str) -> int:
    """Unit-cost edit distance, numpy row-DP (vectorized over the inner loop)."""
    if s1 == s2:
        return 0
    if not s1:
        return len(s2)
    if not s2:
        return len(s1)
    a = np.frombuffer(s1.encode("utf-32-le"), dtype=np.uint32)
    b = np.frombuffer(s2.encode("utf-32-le"), dtype=np.uint32)
    prev = np.arange(len(b) + 1, dtype=np.int64)
    for i, ca in enumerate(a, 1):
        cur = np.empty_like(prev)
        cur[0] = i
        sub = prev[:-1] + (b != ca)
        np.minimum(sub, prev[1:] + 1, out=cur[1:])
        # insertion needs a sequential scan-min; do it with a cummin trick:
        # cur[j] = min(cur[j], cur[j-1]+1) left-to-right == cummin of cur - j, + j
        steps = np.arange(len(cur), dtype=np.int64)
        cur = np.minimum.accumulate(cur - steps) + steps
        prev = cur
    return int(prev[-1])


def levenshtein_norm(s1: str, s2: str) -> float:
    """1 - dist/max(byte-len) — distance.go:24-33 (Go len() is bytes; ASCII ⇒ chars)."""
    max_len = max(len(s1.encode()), len(s2.encode()))
    if max_len == 0:
        return 1.0
    return 1.0 - levenshtein(s1, s2) / max_len


def similarity(s1: str, s2: str, method: str) -> float:
    """Dispatch ≙ CalculateSimilarity (distance.go:19-38)."""
    if method == "jaro_winkler":
        return jaro_winkler(s1, s2, long_tolerance=True)
    if method == "levenshtein":
        return levenshtein_norm(s1, s2)
    return 1.0  # "exact"/Default: constant; equality gating happens upstream


# ---------------------------------------------------------------------------
# Batched kernels: the per-pair scalar kernels above, vectorized across the
# pair axis over padded uint32 code-point matrices. Intended for SHORT fields
# (names, dates, titles — the entity-match verify shape); per-step cost is
# O(n_pairs) numpy ops, total O(Lmax·Lmax) steps. Exactly equivalent to the
# scalar kernels (asserted in tests/test_kernels.py on random inputs).
# ---------------------------------------------------------------------------

def pad_utf32(strs: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """List of strings → (codepoint matrix (n, Lmax) uint32 zero-padded, lens).

    NUL never occurs in normalized text, so 0 is a safe pad: kernels also mask
    by length and never rely on pad inequality alone.
    """
    n = len(strs)
    lens = np.fromiter((len(s) for s in strs), dtype=np.int64, count=n)
    lmax = max(int(lens.max()) if n else 0, 1)
    mat = np.zeros((n, lmax), dtype=np.uint32)
    if n and lens.sum() > 0:
        flat = np.frombuffer("".join(strs).encode("utf-32-le"), dtype=np.uint32)
        mask = np.arange(lmax)[None, :] < lens[:, None]
        mat[mask] = flat
    return mat, lens


def _jaro_padded(A: np.ndarray, la: np.ndarray, B: np.ndarray, lb: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Batched Jaro. Returns (similarity, match_count) per row."""
    n, La = A.shape
    Lb = B.shape[1]
    window = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    match1 = np.zeros((n, La), dtype=bool)
    match2 = np.zeros((n, Lb), dtype=bool)
    for i in range(La):
        active = i < la
        if not active.any():
            break
        found = ~active
        lo = np.maximum(0, i - window)
        hi = np.minimum(lb, i + window + 1)
        ca = A[:, i]
        for j in range(Lb):
            if found.all():
                break
            m = (~found) & (j >= lo) & (j < hi) & (~match2[:, j]) & (B[:, j] == ca)
            match2[:, j] |= m
            found |= m
        match1[:, i] = found & active
    matches = match1.sum(axis=1)
    mmax = int(matches.max()) if n else 0
    t = np.zeros(n, dtype=np.int64)
    if mmax > 0:
        # matched chars of each side in order; transpositions = mismatches
        orda = np.zeros((n, mmax), dtype=np.uint32)
        ordb = np.zeros((n, mmax), dtype=np.uint32)
        r1, c1 = np.nonzero(match1)
        orda[r1, (np.cumsum(match1, axis=1) - 1)[r1, c1]] = A[r1, c1]
        r2, c2 = np.nonzero(match2)
        ordb[r2, (np.cumsum(match2, axis=1) - 1)[r2, c2]] = B[r2, c2]
        valid = np.arange(mmax)[None, :] < matches[:, None]
        t = ((orda != ordb) & valid).sum(axis=1) // 2
    m = matches.astype(np.float64)
    sim = np.zeros(n, dtype=np.float64)
    nz = matches > 0
    sim[nz] = (m[nz] / la[nz] + m[nz] / lb[nz] + (m[nz] - t[nz]) / m[nz]) / 3.0
    return sim, matches


def _jw_padded(A: np.ndarray, la: np.ndarray, B: np.ndarray, lb: np.ndarray,
               long_tolerance: bool = True) -> np.ndarray:
    j, matches = _jaro_padded(A, la, B, lb)
    n = len(la)
    # common prefix, capped at 4 (prefix_size)
    pmax = min(4, A.shape[1], B.shape[1])
    run = np.ones(n, dtype=bool)
    prefix = np.zeros(n, dtype=np.int64)
    for t_ in range(pmax):
        run &= (t_ < la) & (t_ < lb) & (A[:, t_] == B[:, t_])
        prefix += run
    sim = np.where((j > 0.7) & (prefix > 0), j + prefix * 0.1 * (1.0 - j), j)
    if long_tolerance:
        minlen = np.minimum(la, lb)
        lt = (minlen > 4) & (matches - prefix >= 2) & (2 * matches >= minlen + prefix)
        denom = (la + lb - 2 * (prefix - 1)).astype(np.float64)
        adj = (matches - prefix - 1) / denom
        sim = np.where(lt, sim + (1.0 - sim) * adj, sim)
    sim[j == 0.0] = 0.0
    return sim


def _lev_padded(A: np.ndarray, la: np.ndarray, B: np.ndarray, lb: np.ndarray,
                conf_table: np.ndarray | None = None,
                conf_cost: float = 1.0) -> np.ndarray:
    """Batched edit distance (float64). ``conf_table`` (128×128 bool) marks
    char pairs whose substitution costs ``conf_cost`` instead of 1 — the
    verify-time OCR-confusable forgiveness (≙ recurse.go:7-32 swaps, which
    the reference counts as ordinary single edits during candidate search)."""
    n, La = A.shape
    Lb = B.shape[1]
    prev = np.tile(np.arange(Lb + 1, dtype=np.float64), (n, 1))
    result = lb.astype(np.float64).copy()          # rows with la == 0
    steps = np.arange(Lb + 1, dtype=np.float64)
    for i in range(1, La + 1):
        ca = A[:, i - 1]
        neq = B != ca[:, None]
        if conf_table is None:
            subcost = neq.astype(np.float64)
        else:
            conf = conf_table[np.minimum(ca, 127)[:, None], np.minimum(B, 127)]
            subcost = np.where(neq, np.where(conf, conf_cost, 1.0), 0.0)
        cur = np.empty_like(prev)
        cur[:, 0] = i
        np.minimum(prev[:, :-1] + subcost, prev[:, 1:] + 1.0, out=cur[:, 1:])
        # left-to-right insertion scan-min == cummin of (cur - j) + j
        cur = np.minimum.accumulate(cur - steps, axis=1) + steps
        done = la == i
        if done.any():
            result[done] = cur[done, lb[done]]
        prev = cur
    return result


def jaro_winkler_batch(a: list[str], b: list[str]) -> np.ndarray:
    """Vectorized jaro_winkler(long_tolerance=True) over paired string lists."""
    if not a:
        return np.empty(0, dtype=np.float64)
    A, la = pad_utf32(a)
    B, lb = pad_utf32(b)
    return _jw_padded(A, la, B, lb)


def levenshtein_batch(a: list[str], b: list[str],
                      conf_table: np.ndarray | None = None,
                      conf_cost: float = 1.0) -> np.ndarray:
    """Vectorized unit-cost edit distance; optional confusable discount."""
    if not a:
        return np.empty(0, dtype=np.float64)
    A, la = pad_utf32(a)
    B, lb = pad_utf32(b)
    return _lev_padded(A, la, B, lb, conf_table, conf_cost)


def levenshtein_norm_batch(a: list[str], b: list[str],
                           conf_table: np.ndarray | None = None,
                           conf_cost: float = 1.0) -> np.ndarray:
    """1 - dist/max(byte-len) per pair (distance.go:24-33)."""
    if not a:
        return np.empty(0, dtype=np.float64)
    d = levenshtein_batch(a, b, conf_table, conf_cost)
    mx = np.maximum(
        np.fromiter((len(s.encode()) for s in a), dtype=np.int64, count=len(a)),
        np.fromiter((len(s.encode()) for s in b), dtype=np.int64, count=len(b)))
    out = np.ones(len(a), dtype=np.float64)
    nz = mx > 0
    out[nz] = 1.0 - d[nz] / mx[nz]
    return out

