"""Mutation surface: tombstone removal + TTL expiry — as read-time predicates.

≙ reference ``RemoveEntries`` (trie surgery, clean.go:93-134) and the expiry
min-heap ``Clean`` (clean.go:29-51). Artifacts here are immutable columnar
files, so removal = anti-join against a tombstone id table and expiry = a
vectorized timestamp predicate applied at every pipeline start (the reference
likewise re-cleans on every Search, fuzzy_matcher.go:29-32).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from fuzzy_matcher_ray.stages.joins import attach_columns


def remove_ids(docs, tombstones, key: str = "doc_id",
               num_partitions: int = 32):
    """Drop rows of ``docs`` whose ``key`` appears in ``tombstones`` (doc_id)."""
    return attach_columns(docs, tombstones, key, "doc_id", {}, how="anti",
                          num_partitions=num_partitions)


class TtlValidationError(ValueError):
    """A row violates the TTL-mode expiry invariant (null/zero valid_until)."""


def validate_ttl(docs, col: str = "valid_until"):
    """TTL-mode schema invariant — ≙ ``Build`` erroring on a zero expiry when
    ``UseExpiration`` is set (fuzzy_matcher_core.go:85-95): with ``ttl_mode``
    on, every row must carry a non-null, non-epoch ``valid_until``. Raises
    ``TtlValidationError`` from the offending task (fails the run) instead of
    silently keeping invalid rows forever.
    """
    epoch = pa.scalar(0, pa.timestamp("us"))

    def _check(t: pa.Table) -> pa.Table:
        if col not in t.schema.names:
            raise TtlValidationError(
                f"ttl_mode requires a '{col}' column; schema has {t.schema.names}")
        bad = pc.or_kleene(pc.is_null(t[col]),
                           pc.equal(t[col], epoch))
        n_bad = pc.sum(pc.cast(pc.fill_null(bad, True), pa.int64())).as_py() or 0
        if n_bad:
            raise TtlValidationError(
                f"ttl_mode: {n_bad} row(s) with null/zero '{col}' "
                "(Build error on zero expiry, fuzzy_matcher_core.go:85-95)")
        return t

    return docs.map_batches(_check, batch_format="pyarrow")


def filter_expired(docs, now, col: str = "valid_until",
                   ttl_mode: bool = False):
    """Keep rows with valid_until >= now (nulls = no expiry → kept).

    ``now`` must be passed in explicitly (deterministic pipelines — no
    wall-clock reads inside stages). With ``ttl_mode=True`` the TTL
    invariant is enforced first: any null/zero ``valid_until`` row fails the
    run (``validate_ttl``).
    """
    if ttl_mode:
        docs = validate_ttl(docs, col)
    now_scalar = pa.scalar(now, pa.timestamp("us")) if not isinstance(now, pa.Scalar) else now

    def _f(t: pa.Table) -> pa.Table:
        if col not in t.schema.names:
            return t
        alive = pc.fill_null(pc.greater_equal(t[col], now_scalar), True)
        return t.filter(alive)

    return docs.map_batches(_f, batch_format="pyarrow")
