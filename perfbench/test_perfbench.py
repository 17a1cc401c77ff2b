"""The benchmark's own tests. Run from the checkout root:

    python3 -m pytest perfbench -q -p no:cacheprovider
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run._prepare_env()
# a Ray temp dir of the tests' own: the command-line runs below remove theirs
os.environ["RAY_TMPDIR"] = os.environ["TMPDIR"] = os.path.join(run.WORK, "t")
os.makedirs(os.environ["RAY_TMPDIR"], exist_ok=True)

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from fuzzy_matcher_ray.config import PipelineConfig  # noqa: E402

CFG = PipelineConfig()


@pytest.fixture(scope="module")
def ray_session():
    run._ray_init()
    yield
    run._ray_shutdown()
    shutil.rmtree(os.environ["RAY_TMPDIR"], ignore_errors=True)


@pytest.fixture(scope="module")
def cache():
    return os.path.join(run.WORK, "corpora")


def _bytes(corpus) -> list[bytes]:
    paths = [*corpus.shards, corpus.whole, corpus.truth]
    out = []
    for p in paths:
        with open(p, "rb") as f:
            out.append(f.read())
    return out


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_same_seed_same_corpus_bytes(tmp_path, name):
    spec = workloads.SPECS[name]
    a = workloads.build(spec, 7, str(tmp_path / "a"))
    b = workloads.build(spec, 7, str(tmp_path / "b"))
    c = workloads.build(spec, 8, str(tmp_path / "c"))
    assert _bytes(a) == _bytes(b)
    assert _bytes(a)[0] != _bytes(c)[0]


def test_ray_tmp_dir_stays_short_for_a_deep_checkout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.ray_tmp_dir("w") == os.path.join("w", "r")
    assert os.path.isdir(os.path.join("w", "r"))
    deep = run.ray_tmp_dir(str(tmp_path / ("d" * 80)))
    try:
        assert len(deep.encode()) + 64 <= 107 and os.path.isdir(deep)
    finally:
        shutil.rmtree(deep)


def test_pair_agreement_matches_clustering_agreement(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from fuzzy_matcher_ray.pipelines.evaluation import clustering_agreement

    rng = np.random.default_rng(3)
    truth = rng.integers(0, 40, 500)
    found = np.where(rng.random(500) < 0.8, truth, rng.integers(0, 60, 500))
    ids = np.arange(500)
    report = clustering_agreement(
        rd.from_arrow(pa.table({"doc_id": ids, "cluster_id": truth})),
        rd.from_arrow(pa.table({"doc_id": ids, "cluster_id": found})))
    recall, precision = run.pair_agreement(truth, found)
    assert int(1000 * recall) == report["recall_pm"][0].as_py()
    assert int(1000 * precision) == report["precision_pm"][0].as_py()


def test_boilerplate_skew_exceeds_band_group_cap(ray_session, cache):
    corpus = workloads.build(workloads.SPECS["boilerplate_skew"], 1, cache)
    result, m, _ = layers.flagship_layers(Tracer("test"), corpus.whole, CFG)
    assert m["candidates.minhash.max_group"] > CFG.max_band_group
    ok, recall, precision = run.check(result, run.Expected(corpus))
    assert ok, (recall, precision)


def test_fold_chain_equals_find_duplicates_over_all_shards(ray_session, cache):
    from fuzzy_matcher_ray.pipelines.dedup import dedup_sharded
    from fuzzy_matcher_ray.sources.protocol import webpages_source
    from fuzzy_matcher_ray.stages.joins import collect_table

    corpus = workloads.build(workloads.SPECS["flagship"], 1, cache)
    assert len(corpus.shards) > 1
    state = os.path.join(run.WORK, "state", "test-fold-parity")
    shutil.rmtree(state, ignore_errors=True)
    try:
        chain = collect_table(dedup_sharded(
            [(f"shard{i}", webpages_source(p))
             for i, p in enumerate(corpus.shards)], state, CFG))
    finally:
        shutil.rmtree(state, ignore_errors=True)
    whole = run.run_pipeline(corpus, CFG)
    key = [("doc_id", "ascending")]
    assert chain.select(["doc_id", "cluster_id"]).sort_by(key).equals(
        whole.select(["doc_id", "cluster_id"]).sort_by(key))


def _cli(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = _cli("--workload", "boilerplate_skew", "--seed", "1",
               "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}


def test_refuses_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _cli("--workload", "flagship", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
