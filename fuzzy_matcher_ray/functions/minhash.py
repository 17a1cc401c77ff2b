"""MinHash signatures + LSH band hashes, fully vectorized.

This is the scalable replacement for the reference's bounded-edit trie search
(``/root/reference/fuzzy_matcher_core/recurse.go:67-175``): the edit-bounded
exploration radius becomes the LSH band parameters (b=16, r=8 per
BASELINE.json). Permutations are multiply-add hashes over 64-bit shingle
hashes — ``h' = a*h + b (mod 2^64)`` with odd ``a`` — derived deterministically
from the config seed, so signatures are reproducible across processes,
parallelism levels and resumes.
"""

from __future__ import annotations

import numpy as np

from fuzzy_matcher_ray.functions.shingle import counts_to_offsets, doc_blocks, splitmix64

EMPTY_SIG = np.uint64(0xFFFFFFFFFFFFFFFF)


def perm_params(num_perms: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (a, b) multiply-add parameters; a forced odd."""
    rng = np.random.default_rng(seed ^ 0xA5A5_1234)
    a = rng.integers(0, 2 ** 63, size=num_perms, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    b = rng.integers(0, 2 ** 63, size=num_perms, dtype=np.uint64)
    return a, b


def minhash_signatures(hashes: np.ndarray, counts: np.ndarray,
                       a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n_docs, num_perms) uint64 signature matrix.

    Documents with zero shingles get all-EMPTY_SIG rows (excluded from
    banding by the caller — they take the exact-only tier).
    """
    n_docs = len(counts)
    num_perms = len(a)
    sig = np.full((n_docs, num_perms), EMPTY_SIG, dtype=np.uint64)
    if hashes.size == 0:
        return sig
    nonempty = counts > 0
    offs = counts_to_offsets(counts[nonempty])
    mins = np.empty((num_perms, len(offs) - 1), dtype=np.uint64)
    # per-perm 1D passes: contiguous uint64 multiply-add is SIMD-vectorized
    # (~35x faster than the broadcast (m, k) 2D product) and 1D reduceat is
    # likewise much faster than its axis=0 2D form. Cache-blocked: all perms
    # run over one block of whole docs (hashes + one reused scratch stay in
    # L2) before the next block, instead of streaming the whole batch
    # through L3/DRAM three times per perm.
    for d0, d1 in doc_blocks(offs):
        lo, hi = offs[d0], offs[d1]
        block = hashes[lo:hi]
        starts = offs[d0:d1] - lo
        scratch = np.empty_like(block)
        for j in range(num_perms):
            np.multiply(block, a[j], out=scratch)  # uint64 wraparound intended
            np.add(scratch, b[j], out=scratch)
            np.minimum.reduceat(scratch, starts, out=mins[j, d0:d1])
    sig[nonempty, :] = mins.T
    return sig


def band_hashes(sig: np.ndarray, bands: int, rows_per_band: int) -> np.ndarray:
    """(n_docs, bands) uint64 — FNV-1a fold of each band's rows + finalizer.

    Docs sharing a value in any band column are LSH candidates
    (≙ candidate emission at trie terminals, utils.go:28-40).
    """
    n, p = sig.shape
    assert p == bands * rows_per_band, (p, bands, rows_per_band)
    cube = sig.reshape(n, bands, rows_per_band)
    h = np.full((n, bands), np.uint64(0xCBF29CE484222325), dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    for j in range(rows_per_band):
        h = (h ^ cube[:, :, j]) * prime
    # mix band index in so identical row-content in different bands differs
    h = splitmix64(h ^ np.arange(bands, dtype=np.uint64)[None, :])
    return h


def lsh_collision_prob(s: float, bands: int, rows: int) -> float:
    """P(candidate | Jaccard s) for (bands, rows) banding: 1-(1-s^r)^b —
    the standard S-curve (MMDS ch.3, public formulation)."""
    return 1.0 - (1.0 - s ** rows) ** bands


def tune_lsh(threshold: float, num_perms: int = 128,
             fn_weight: float = 10.0, grid: int = 200
             ) -> tuple[int, int, dict]:
    """Pick (bands, rows) for ``num_perms`` minimizing the integrated
    banding risk around ``threshold``.

    Risk = ∫₀ᵗ P(s) ds  +  fn_weight · ∫ₜ¹ (1 − P(s)) ds — false-candidate
    area below the threshold (wasted verify work: cheap, each candidate is
    one vectorized Jaccard) plus missed-pair area above it (recall loss:
    expensive, weighted ``fn_weight``× because the north rule demands
    dup-pair recall ≥ 0.99). Deterministic midpoint quadrature on a fixed
    grid; ties prefer more bands (recall). Returns (bands, rows,
    diagnostics) with the achieved curve points; the config default
    (16, 8) at 128 perms is exactly what this picks at the flagship's
    jaccard_threshold = 0.8 — asserted in tests so the tuner and the
    shipped default cannot drift apart silently.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    best = None
    for rows in range(1, num_perms + 1):
        if num_perms % rows:
            continue
        bands = num_perms // rows
        ss = (np.arange(grid) + 0.5) / grid
        p = 1.0 - (1.0 - ss ** rows) ** bands
        below = ss < threshold
        fp = p[below].sum() / grid
        fn = (1.0 - p[~below]).sum() / grid
        risk = fp + fn_weight * fn
        key = (risk, -bands)
        if best is None or key < best[0]:
            best = (key, bands, rows, {"fp_area": float(fp),
                                       "fn_area": float(fn),
                                       "risk": float(risk)})
    _, bands, rows, diag = best
    diag["p_at_threshold"] = lsh_collision_prob(threshold, bands, rows)
    return bands, rows, diag
