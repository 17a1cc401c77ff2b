"""Pipeline configuration.

The reference carries per-field dynamic parameters
(``/root/reference/fuzzy_types/types.go:50-63``: MaxDepth/MaxEdits/Weights/
CalculationMethods/MinDistances + core flags OCR on/off, global MaxEdits,
expiration on/off). Here those become two small frozen dataclasses that are
captured by value into ``map_batches`` callables — i.e. broadcast once per
actor/task by Ray's closure serialization, never re-shipped per batch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class PipelineConfig:
    """Config for the near-duplicate detection pipelines (flagship).

    Defaults follow BASELINE.json: 5-gram shingles, 128-perm MinHash,
    LSH b=16 x r=8.
    """

    # --- shingling / signatures ---
    shingle_k: int = 5              # char k-grams over normalized text
    num_perms: int = 128            # MinHash permutations
    bands: int = 16                 # LSH bands
    rows_per_band: int = 8          # rows per band (bands*rows == num_perms)
    seed: int = 0x5EED_F00D         # all hash-parameter derivation
    # --- thresholds ---
    jaccard_threshold: float = 0.8  # verified-pair acceptance
    simhash_hamming_max: int = 3    # SimHash pass: max Hamming distance
    # --- gates (≙ ValidateEntry short-name rule, example_source.go:84-101) ---
    min_text_len: int = 20          # shorter normalized docs → exact-only tier
    ocr_fold: bool = True           # fold OCR confusables before hashing
    # --- candidate generation skew handling ---
    max_band_group: int = 64        # groups larger than this emit star+chain
    verify_budget_per_doc: int | None = None  # cap verify work per doc by
    # keeping each doc's top-N candidate pairs ranked by band-agreement
    # count (the LSH estimate of Jaccard) — ≙ ComputeScore/MaxHeap
    # best-first priority bounding trie exploration (utils.go:54-68,
    # breadth_first_search.go:25-101). None (default) verifies every
    # candidate; set on adversarial corpora where near-threshold boilerplate
    # makes the pair table explode past O(docs)
    # edges instead of all-pairs (connectivity-preserving skew cap; the
    # recall trade-off is gated by the planted hot-band test in
    # tests/test_dedup_e2e.py: same-family docs in a hot group stay
    # connected through the star root or their own non-boilerplate bands)
    # --- substring dedup ---
    substr_window: int = 128        # fingerprint window (chars, normalized);
    # power of two ⇒ the rolling hash is pure window doubling on two
    # ping-pong scratch buffers (no per-level temporaries)
    substr_winnow: int = 72         # winnowing: min of each 72-hash window
    # detection guarantee: shared substrings >= window + winnow - 1 (=199)
    # chars always produce a shared fingerprint; substr_min_len=200 > 199.
    # (larger windows ⇒ near-dup pairs with only ~150-char runs rarely share
    # a fingerprint at all ⇒ far fewer spurious substring candidates)
    substr_min_len: int = 200       # min shared substring to count as dup
    # --- execution ---
    batch_size: int = 1024          # docs per batch through signature stage
    verify_batch_size: int = 4096   # pairs per batch through Jaccard verify
    # Precompute every doc's sorted-unique shingle set once (zero-copy
    # plasma artifact) and intersect verify pairs against it, instead of
    # re-shingling each batch's distinct docs. Measured A/B at 100k docs /
    # 32 cpus: the extra corpus pass + 1.8 GB plasma materialize costs ~25 s
    # while per-batch recompute (post buffer-trim fix) costs ~2 s total —
    # so default OFF. Turn on for pair-heavy corpora (candidate pairs >>
    # 3x docs, e.g. boilerplate-dominated web shards) where each doc would
    # otherwise be re-shingled tens of times across verify batches.
    use_shingle_set_artifact: bool = False
    # (bigger batches raise the distinct-doc dedup ratio in the verifier —
    # each distinct doc is shingled once per batch)
    join_num_partitions: int = 32   # blocks, key-local join ranges (∝ CPUs)
    # --- TTL (≙ ExpiryHeap, clean.go:29-51, as a read-time predicate) ---
    ttl_mode: bool = False

    @property
    def driver_uf_max_edges(self) -> int:
        """Edges (16 B each) within ``FMR_DRIVER_BYTES`` (``stages/gates``),
        read now; kept read-only for ``perfbench/layers.py``."""
        from fuzzy_matcher_ray.stages import gates
        return gates.budget(gates.DRIVER) // 16

    def config_hash(self) -> str:
        """Stable hash of all semantic parameters — keys checkpoint manifests."""
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


# Per-field calculation methods — ≙ CalculationMethod enum fuzzy_types/types.go:8-15
METHOD_JARO_WINKLER = "jaro_winkler"
METHOD_LEVENSHTEIN = "levenshtein"
METHOD_EXACT = "exact"  # reference "Default": constant 1.0, gating upstream


@dataclass(frozen=True)
class FieldParams:
    """≙ FuzzyMatcherParameters for one field (fuzzy_types/types.go:50-56)."""

    weight: float = 1.0
    method: str = METHOD_JARO_WINKLER
    min_similarity: float = 0.7     # ≙ MinDistances: reject below
    max_edits: int = 2              # 0 → exact-only field
    required: bool = True           # missing ⇒ reject (fuzzy_matcher_core.go:230-234)


@dataclass(frozen=True)
class EntityMatchConfig:
    """Config for the entity-match pipeline (reference Search parity).

    Default field set mirrors the reference example source
    (``/root/reference/fuzzy_classes/example_source.go:20-81``): weights
    firstname 0.2 / surname 0.4 / birthdate 0.4, min sims 0.7/0.9/1.0,
    methods jaro/jaro/exact; weights sum to 1.0
    (integration_test.go:365-402 invariant).
    """

    fields: dict = field(default_factory=lambda: {
        "firstname": FieldParams(0.2, METHOD_JARO_WINKLER, 0.7, 2),
        "surname": FieldParams(0.4, METHOD_JARO_WINKLER, 0.9, 2),
        "birthdate": FieldParams(0.4, METHOD_EXACT, 1.0, 0),
    })
    global_max_edits: int = 4       # ≙ CoreParams.MaxEdits (clean.go:54-90)
    top_k: int = 5                  # ≙ sort+truncate fuzzy_matcher_core.go:281-287
    min_score: float = 0.0
    gram_k: int = 2                 # blocking n-gram size (candidate generation)
    ocr_fold: bool = True
    # verify-time single-char OCR confusable substitution cost (recurse.go:7-32
    # pairs). 1.0 = reference parity (an OCR swap costs one ordinary edit,
    # EditCount++ in ProcessNode); < 1.0 forgives confusable swaps in both the
    # edit budget and levenshtein-method similarity, pairwise per aligned
    # position (no transitive alphabet collapse).
    ocr_confusable_cost: float = 1.0
    # short-field exact-only tier ≙ example_source.go:28-39:
    # avg(len(first), len(sur)) <= 3.5 ⇒ exact-only
    short_avg_len: float = 3.5

    def __post_init__(self):
        total = sum(p.weight for p in self.fields.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"field weights must sum to 1.0, got {total}")
