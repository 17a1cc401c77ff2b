"""Text normalization + OCR-confusable folding.

Parity target: ``/root/reference/fuzzy_matcher_core/normalize.go:9-15`` —
lowercase, then delete every run matching ``[^a-zA-Z0-9]+``. The per-row
invariant (BASELINE.json input_hint) is byte-identical normalized text per
url, so both the vectorized Arrow kernel and the scalar Python kernel here
implement exactly that rule and are cross-checked in tests.

OCR folding derives from the reference's misread tables
(``/root/reference/fuzzy_matcher_core/recurse.go:7-41``). The reference
branches on confusables *during trie search* (one edit per swap); at scale we
instead canonicalize before hashing, so OCR variants land in the same LSH
buckets. We deliberately apply only the non-chaining direction — digits →
letters plus the multi-char digrams (rn/nn→m, vv→w, cl→d) — because the full
symmetric table is transitively connected (o~a~4~h, c~e~3~8~b~6~g...) and a
closure-fold would collapse most of the alphabet. Verification always runs on
the *unfolded* normalized text, mirroring the reference where
``CalculateSimilarity`` scores raw normalized values
(fuzzy_matcher_core.go:220-267).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fuzzy_matcher_ray.functions.shingle import string_buffer

_NORM_RE = re.compile(r"[^a-zA-Z0-9]+")

# Multi-char OCR digrams, applied first, leftmost-first — recurse.go:34-41.
# Only the to-shorter direction so folding terminates and is deterministic.
MULTI_FOLDS: tuple[tuple[str, str], ...] = (
    ("rn", "m"),
    ("nn", "m"),
    ("vv", "w"),
    ("cl", "d"),
)

# Digit → letter folds — the non-chaining subset of recurse.go:7-32.
DIGIT_FOLDS: tuple[tuple[str, str], ...] = (
    ("0", "o"), ("1", "l"), ("2", "z"), ("3", "e"), ("4", "a"),
    ("5", "s"), ("6", "b"), ("7", "t"), ("8", "b"), ("9", "g"),
)

_DIGIT_TABLE = str.maketrans({a: b for a, b in DIGIT_FOLDS})

# Full single-char OCR misread table (recurse.go:7-32), lowercased. Too
# transitively connected to FOLD (a closure-fold would collapse most of the
# alphabet), but safe as a *verify-time substitution-cost discount*: an edit
# between confusable chars may cost less than a full edit without any
# transitive collapse, because costs apply pairwise per aligned position.
OCR_MISREADS: dict[str, str] = {
    "0": "odq", "1": "li", "2": "zs", "3": "e8b", "4": "ah", "5": "s",
    "6": "bgg", "7": "ty", "8": "b3b", "9": "gq", "o": "0a", "i": "1l",
    "l": "1i", "b": "836", "g": "69", "z": "2", "c": "eo", "s": "5",
    "n": "mr", "a": "o", "e": "c", "r": "n", "v": "u", "u": "v",
}

_CONF_TABLE: "object" = None


def confusable_table():
    """(128, 128) bool numpy table: [ord(a), ord(b)] ⇒ a↔b is an OCR
    confusable pair (symmetric closure of OCR_MISREADS). Cached."""
    global _CONF_TABLE
    if _CONF_TABLE is None:
        t = np.zeros((128, 128), dtype=bool)
        for a, bs in OCR_MISREADS.items():
            for b in bs:
                t[ord(a), ord(b)] = True
                t[ord(b), ord(a)] = True
        _CONF_TABLE = t
    return _CONF_TABLE


def normalize_text(s: str) -> str:
    """Scalar reference implementation (normalize.go:9-15 semantics)."""
    return _NORM_RE.sub("", s.lower())


def fold_confusables(s: str) -> str:
    """Scalar OCR fold: digrams first, then digit→letter translation."""
    for a, b in MULTI_FOLDS:
        s = s.replace(a, b)
    return s.translate(_DIGIT_TABLE)


def normalize_array(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized normalize over an Arrow string array: ``utf8_lower``,
    then one numpy pass that deletes every byte outside ``[a-z0-9]``.

    Byte deletion is the regex's character deletion: after ``utf8_lower``
    every ASCII letter is lower-case, and every byte of a non-ASCII
    character is >= 0x80, so the kept bytes are exactly the kept
    characters (İ U+0130 and K U+212A, the code points that lowercase to
    ASCII, are lowered before the filter). Nulls stay null."""
    lowered = pc.utf8_lower(arr)
    if isinstance(lowered, pa.ChunkedArray):
        lowered = lowered.combine_chunks()
    data, offsets = string_buffer(lowered)
    kept = np.flatnonzero((np.subtract(data, 97, dtype=np.uint8) < 26)
                          | (np.subtract(data, 48, dtype=np.uint8) < 10))
    # each row's new bounds: the kept bytes before its old bounds
    bounds = np.searchsorted(kept, offsets).astype(
        np.int64 if pa.types.is_large_string(lowered.type) else np.int32)
    validity = (pc.is_valid(lowered).buffers()[1]
                if lowered.null_count else None)
    return pa.Array.from_buffers(
        lowered.type, len(lowered),
        [validity, pa.py_buffer(bounds), pa.py_buffer(data[kept])],
        null_count=lowered.null_count)


def fold_array(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized OCR fold (literal replaces — no regex cost)."""
    out = arr
    for a, b in MULTI_FOLDS:
        out = pc.replace_substring(out, pattern=a, replacement=b)
    for a, b in DIGIT_FOLDS:
        out = pc.replace_substring(out, pattern=a, replacement=b)
    if isinstance(out, pa.ChunkedArray):
        out = out.combine_chunks()
    return out
