"""Per-stage Parquet checkpoints with manifests (lineage + metrics).

The reference has no checkpoint/resume (everything lives in one process
heap); at 10^12-doc scale every stage must be resumable. Layout:

    <root>/<stage>/data/part-NNNNN.parquet — one file per non-empty block
    <root>/<stage>/_MANIFEST.json          — config hash, rows, wall secs,
                                             columns

``stage()`` has one path. A stage with a manifest of the same config hash
(the lineage key) resumes as a lazy Parquet read of its data. Any other
stage builds and is pinned (``materialize()``, or the driver blocks a
driver branch built); when the checkpointer is enabled, the pinned blocks
are then written (tmp dir → os.replace) and the pinned dataset is
returned, not a read-back. A checkpointed run executes the same program
as an uncheckpointed one, plus the writes. A
killed run resumes by skipping every completed stage; sub-stage
granularity comes from running the pipeline per input shard (each shard
gets its own checkpoint root).
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.block import BlockAccessor

from fuzzy_matcher_ray.stages.joins import as_dataset, block_refs, is_pinned


class Checkpointer:
    def __init__(self, root: str, config_hash: str, enabled: bool = True):
        self.root = root
        self.config_hash = config_hash
        self.enabled = enabled
        self.metrics: dict[str, dict] = {}
        if enabled:
            os.makedirs(root, exist_ok=True)

    def _paths(self, stage: str) -> tuple[str, str]:
        d = os.path.join(self.root, stage)
        return os.path.join(d, "data"), os.path.join(d, "_MANIFEST.json")

    def manifest(self, stage: str) -> dict | None:
        """The manifest of a checkpoint of ``stage`` that ``stage()`` would
        resume (data present, same config hash), else None."""
        data_dir, manifest = self._paths(stage)
        if not (os.path.isdir(data_dir) and os.path.isfile(manifest)):
            return None
        try:
            with open(manifest) as f:
                m = json.load(f)
        except (json.JSONDecodeError, OSError):
            return None
        return m if m.get("config_hash") == self.config_hash else None

    def has(self, stage: str) -> bool:
        return self.manifest(stage) is not None

    def drop(self, stage: str) -> None:
        """Forget ``stage``'s checkpoint: the next ``stage()`` rebuilds it
        (and replaces its data)."""
        os.remove(self._paths(stage)[1])

    def stage(self, name: str, build_fn, empty_schema=None,
              meta: dict | None = None):
        """The stage dataset: a lazy read of its checkpoint when one is
        valid, else ``build_fn()`` pinned (every stage has several
        consumers), its blocks written when the checkpointer is enabled.

        ``empty_schema``: pyarrow schema of the empty part written when the
        stage has no rows, whose schema Ray may not derive (e.g. an empty
        edge set on a duplicate-free corpus). ``meta``: extra manifest
        fields, written when the stage builds. The manifest's ``rows`` and
        ``columns`` are read off the pinned blocks' metadata."""
        data_dir, manifest = self._paths(name)
        if self.enabled and self.has(name):
            self.metrics.setdefault(name, {})["resumed"] = True
            return rd.read_parquet(data_dir)
        t0 = time.perf_counter()
        ds = build_fn()
        if not is_pinned(ds):
            ds = ds.materialize()
        if not self.enabled:
            return ds
        tmp = os.path.join(self.root, name, f".tmp-{uuid.uuid4().hex[:8]}")
        _write_blocks(ds, tmp, empty_schema)
        if os.path.isdir(data_dir):
            shutil.rmtree(data_dir)
        os.replace(tmp, data_dir)
        rows = ds.count()
        sch = ds.schema() if rows else _empty_part_schema(ds, empty_schema)
        m = {"stage": name, "config_hash": self.config_hash, "rows": rows,
             "wall_sec": round(time.perf_counter() - t0, 3),
             "resumed": False, "columns": sch.names, **(meta or {})}
        with open(manifest, "w") as f:
            json.dump(m, f, indent=2)
        self.metrics[name] = m
        return ds


def _write_blocks(ds, path: str, empty_schema=None) -> None:
    """Write ``ds`` into the directory ``path`` as Parquet: one Ray task per
    block, each writing a non-empty block as ``part-NNNNN.parquet``, NNNNN
    the block's index, so a retried task overwrites its own file.

    A pinned dataset's block refs are read off its plan, with no
    execution (driver blocks are put in the object store for it:
    ``joins.as_dataset``); a lazy one's stream from one execution. A
    zero-row dataset would leave no file, which breaks the atomic
    tmp→rename and a later ``read_parquet``, so one empty part then pins
    the schema (``_empty_part_schema``). A failed write removes ``path``:
    the callers write into a fresh tmp dir, renamed into place only once
    it is whole.
    """
    refs = block_refs(as_dataset(ds)) if is_pinned(ds) else None
    if refs is None:
        refs = (r for bundle in ds.iter_internal_ref_bundles()
                for r in bundle.block_refs)
    os.makedirs(path, exist_ok=True)
    try:
        if not any(ray.get([_write_block.remote(ref, path, i)
                            for i, ref in enumerate(refs)])):
            pq.write_table(_empty_part_schema(ds, empty_schema).empty_table(),
                           os.path.join(path, "part-empty.parquet"))
    except BaseException:
        shutil.rmtree(path, ignore_errors=True)
        raise


def _write_part(block, path: str, i: int) -> bool:
    """Write one block as ``path/part-{i:05d}.parquet``; False, writing
    nothing, when it has no rows."""
    t = BlockAccessor.for_block(block).to_arrow()
    if t.num_rows == 0:
        return False
    pq.write_table(t, os.path.join(path, f"part-{i:05d}.parquet"))
    return True


_write_block = ray.remote(_write_part)


def _empty_part_schema(ds, empty_schema=None) -> pa.Schema:
    """The schema of a zero-row stage's empty part: the caller's
    ``empty_schema``, else ``ds``'s (which may execute a lazy plan)."""
    if empty_schema is not None:
        return empty_schema
    sch = ds.schema()
    return (sch.base_schema if sch is not None else None) or pa.schema([])


def write_atomic(ds, out_dir: str, partition_label: str | None = None) -> str:
    """Write a Dataset to ``out_dir`` atomically (tmp dir → rename).

    ``Dataset.write_parquet`` into an existing directory APPENDS part files —
    a rerun silently doubles the output. This writes to a temp sibling and
    replaces, so reruns are idempotent. With ``partition_label`` the output
    lands in ``out_dir/<label>/`` — one directory per input shard/key range,
    the resumable-output layout (a failed multi-shard run skips labels that
    already exist).
    """
    target = os.path.join(out_dir, partition_label) if partition_label else out_dir
    parent = os.path.dirname(target.rstrip("/")) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".tmp-{uuid.uuid4().hex[:8]}")
    _write_blocks(ds, tmp)
    if os.path.isdir(target):
        shutil.rmtree(target)
    os.replace(tmp, target)
    return target


def run_report(root: str):
    """Lineage + metrics table over every ``_MANIFEST.json`` under ``root``
    (recursive — one row per stage per checkpoint root, so a sharded
    chain's per-shard roots all appear). The operational read-side of the
    north rule's "checkpointed per partition with lineage and throughput
    metrics": wall seconds, row counts, resume/prune flags and the config
    lineage key per stage, as a queryable Arrow table.

    Columns: (path, stage, config_hash, rows, wall_sec, resumed, pruned,
    n_files, data_bytes) — rows/wall are -1 when a manifest predates them
    (prune tombstones keep lineage but drop data)."""
    rows = {"path": [], "stage": [], "config_hash": [], "rows": [],
            "wall_sec": [], "resumed": [], "pruned": [], "n_files": [],
            "data_bytes": []}
    for dirpath, _dirnames, filenames in sorted(os.walk(root)):
        if "_MANIFEST.json" not in filenames:
            continue
        try:
            with open(os.path.join(dirpath, "_MANIFEST.json")) as f:
                m = json.load(f)
        except (json.JSONDecodeError, OSError):
            continue
        data_dir = os.path.join(dirpath, "data")
        n_files = b = 0
        if os.path.isdir(data_dir):
            for fn in os.listdir(data_dir):
                fp = os.path.join(data_dir, fn)
                if os.path.isfile(fp):
                    n_files += 1
                    b += os.path.getsize(fp)
        rows["path"].append(os.path.relpath(dirpath, root))
        rows["stage"].append(m.get("stage") or os.path.basename(dirpath))
        rows["config_hash"].append(str(m.get("config_hash", "")))
        rows["rows"].append(int(m.get("rows", -1)))
        rows["wall_sec"].append(float(m.get("wall_sec", -1.0)))
        rows["resumed"].append(bool(m.get("resumed", False)))
        rows["pruned"].append(bool(m.get("pruned", False)))
        rows["n_files"].append(n_files)
        rows["data_bytes"].append(b)
    return pa.table({
        "path": pa.array(rows["path"], pa.string()),
        "stage": pa.array(rows["stage"], pa.string()),
        "config_hash": pa.array(rows["config_hash"], pa.string()),
        "rows": pa.array(rows["rows"], pa.int64()),
        "wall_sec": pa.array(rows["wall_sec"], pa.float64()),
        "resumed": pa.array(rows["resumed"], pa.bool_()),
        "pruned": pa.array(rows["pruned"], pa.bool_()),
        "n_files": pa.array(rows["n_files"], pa.int64()),
        "data_bytes": pa.array(rows["data_bytes"], pa.int64()),
    })
