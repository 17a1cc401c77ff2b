"""Per-stage Parquet checkpoints with manifests (lineage + metrics).

The reference has no checkpoint/resume (everything lives in one process
heap); at 10^12-doc scale every stage must be resumable. Layout:

    <root>/<stage>/data/part-*.parquet   — the stage output
    <root>/<stage>/_MANIFEST.json        — config hash, rows, wall secs, schema

``stage()`` returns the cached dataset when a manifest with the same config
hash exists (the lineage key), else builds, writes atomically
(tmp dir → os.replace) and records metrics. A killed run resumes by skipping
every completed stage; sub-stage granularity comes from running the pipeline
per input shard (each shard gets its own checkpoint root).
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid

import ray.data as rd


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

    def stage(self, name: str, build_fn, materialize_if_disabled: bool = True,
              empty_schema=None):
        """Return the stage dataset, from checkpoint if valid, else build+write.

        ``empty_schema``: pyarrow schema to pin when the stage output is a
        zero-block dataset whose schema Ray cannot derive (e.g. an empty
        edge set on a duplicate-free corpus)."""
        if not self.enabled:
            ds = build_fn()
            # multiple downstream consumers → pin blocks instead of recompute
            return ds.materialize() if materialize_if_disabled else ds
        data_dir, manifest = self._paths(name)
        if self.has(name):
            self.metrics.setdefault(name, {})["resumed"] = True
            return rd.read_parquet(data_dir)
        t0 = time.perf_counter()
        ds = build_fn()
        tmp = os.path.join(self.root, name, f".tmp-{uuid.uuid4().hex[:8]}")
        os.makedirs(os.path.dirname(tmp), exist_ok=True)
        _write_parquet_nonempty(ds, tmp, empty_schema)
        if os.path.isdir(data_dir):
            shutil.rmtree(data_dir)
        os.replace(tmp, data_dir)
        out = rd.read_parquet(data_dir)
        rows = out.count()
        wall = time.perf_counter() - t0
        m = {"stage": name, "config_hash": self.config_hash, "rows": rows,
             "wall_sec": round(wall, 3), "resumed": False,
             "columns": out.schema().names}
        with open(manifest, "w") as f:
            json.dump(m, f, indent=2)
        self.metrics[name] = m
        return out


def _write_parquet_nonempty(ds, path: str, empty_schema=None) -> None:
    """``write_parquet`` that survives zero-block datasets.

    A zero-row Dataset writes no files (sometimes not even the directory),
    which breaks the atomic tmp→rename and a later ``read_parquet``. Pin the
    schema with one explicit empty part file instead — an empty edge set
    (duplicate-free corpus) must checkpoint and resume like any other stage.
    """
    ds.write_parquet(path)
    if not os.path.isdir(path) or not os.listdir(path):
        import pyarrow as pa
        import pyarrow.parquet as pq
        if empty_schema is not None:
            arrow_sch = empty_schema
        else:
            # no caller-pinned schema: derive from the dataset. May
            # re-execute a lazy plan — callers on hot paths pass
            # empty_schema precisely to avoid that.
            sch = ds.schema()
            arrow_sch = (sch.base_schema if sch is not None else None) \
                or pa.schema([])
        os.makedirs(path, exist_ok=True)
        pq.write_table(arrow_sch.empty_table(),
                       os.path.join(path, "part-empty.parquet"))


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
    _write_parquet_nonempty(ds, tmp)
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
    import pyarrow as pa

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
