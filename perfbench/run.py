"""Dedup benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. ``--trace 0`` measures the workload's
pipeline untraced and prints the end-to-end metrics; ``--trace 1`` runs the
traced layer-by-layer replica beside untraced runs and prints the per-layer
metrics. Either way the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metric names and units
are those of BENCHMARK.json. Everything the run writes (corpora, Ray's
session directory, checkpoints, spans) stays under ``.pb/``.

Ray is sized to ``nproc``, all load comes from this one driver process, and
after set-up the driver and Ray's processes are pinned to ``nproc`` CPUs.
``setup_s`` is the import time plus the median of ``N_SETUPS`` set-ups
(``ray.init``, a warm-up run on a 200-doc corpus, page-cache warming of the
input); ``wall_s`` is the median wall from the input Parquet to the complete
result collected on the driver, over every run the window holds and at least
``MIN_RUNS``. Every timed
run's output is checked: each input doc_id exactly once, and pair-counting
recall and precision against the generator's truth.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pb")
N_SETUPS = 3
MIN_RUNS = 3
# A run whose recall or precision falls below this is a failed run: it
# catches a "speedup" that drops duplicates or glues unrelated docs together.
MIN_AGREEMENT = 0.9


def _parse() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def ray_tmp_dir(work: str) -> str:
    """Create and return the directory for Ray's session files: ``r``
    under ``work``. Ray's plasma socket lands at <dir>/session_<26-char
    time>_<pid up to 7 digits>/sockets/plasma_store (64 bytes past <dir>)
    and Ray refuses AF_UNIX paths over 107 bytes, so a checkout whose root
    is longer than 37 bytes gets a short temp directory of its own instead,
    removed at the end of the run like the other."""
    tmp = os.path.join(work, "r")
    if len(tmp.encode()) + 64 > 107:
        import tempfile
        tmp = tempfile.mkdtemp(prefix="pb-", dir="/tmp")
        print(f"checkout path too long for Ray's sockets; using {tmp}",
              file=sys.stderr)
    os.makedirs(tmp, exist_ok=True)
    return tmp


def _prepare_env() -> None:
    """Keep Ray's session files, spills and temp files inside the checkout
    and let Ray's worker processes import the package from it."""
    if not os.path.isdir(os.path.join(ROOT, "fuzzy_matcher_ray")):
        sys.exit(f"no fuzzy_matcher_ray package under {ROOT}: run from a "
                 "source checkout")
    os.environ["RAY_TMPDIR"] = os.environ["TMPDIR"] = ray_tmp_dir(WORK)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, ROOT)


def nproc() -> int:
    """CPUs as ``nproc`` counts them: the affinity mask, capped by
    ``OMP_NUM_THREADS`` when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def pin_to_nproc() -> None:
    """Confine this process and every process below it (Ray's), thread by
    thread, to ``nproc`` CPUs of the affinity mask; threads and workers
    started later inherit the mask. The host shares its cores: when the
    driver, raylet and workers hand work across more vCPUs than Ray is
    sized to, each hand-off can wait on a vCPU the host has preempted, and
    the wall follows the host's load. Set-up runs before this, on every CPU,
    because spawning and importing Ray's processes on one CPU takes about
    twice as long. The last CPUs are taken because CPU 0 serves most
    interrupts."""
    import psutil

    cpus = sorted(os.sched_getaffinity(0))[-nproc():]
    me = psutil.Process()
    for proc in [me, *me.children(recursive=True)]:
        try:
            tids = os.listdir(f"/proc/{proc.pid}/task")
        except FileNotFoundError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), cpus)
            except ProcessLookupError:
                pass


def _ray_init() -> None:
    import logging

    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=nproc(),
             object_store_memory=768 << 20, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             _temp_dir=os.environ["RAY_TMPDIR"])
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    ctx.execution_options.verbose_progress = False


def _ray_shutdown() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray
    import psutil  # ships with Ray and is importable once ray is

    procs = psutil.Process().children(recursive=True)
    ray.shutdown()
    _, alive = psutil.wait_procs(procs, timeout=15)
    for p in alive:
        p.kill()
    psutil.wait_procs(alive, timeout=5)


def _read_bytes(paths: list[str]) -> None:
    for path in paths:
        with open(path, "rb") as f:
            while f.read(1 << 24):
                pass


class Expected:
    """What a correct result must hold: every input doc_id once, and the
    truth label of each (the sidecar's -1, an unmatchable empty doc, is a
    cluster of its own)."""

    def __init__(self, corpus):
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from fuzzy_matcher_ray.sources.protocol import webpages_source
        from fuzzy_matcher_ray.stages.joins import collect_table

        ids = pa.concat_tables([collect_table(
            webpages_source(p).select_columns(["doc_id", "url"]))
            for p in corpus.shards])
        truth = pq.read_table(corpus.truth)
        joined = ids.join(truth, "url").sort_by("doc_id")
        self.doc_ids = joined["doc_id"].to_numpy()
        label = joined["true_cluster_id"].to_numpy().copy()
        loners = label == -1
        label[loners] = -2 - np.arange(loners.sum())
        self.label = label
        if len(self.doc_ids) != len(ids):
            raise RuntimeError("truth sidecar does not cover every input doc")


def pair_agreement(truth, found) -> tuple[float, float]:
    """Pair-counting recall and precision of labelling ``found`` against
    ``truth`` (the ``pipelines.evaluation.clustering_agreement``
    definition): with within-cluster pairs Σ C(n, 2), recall = common /
    truth pairs and precision = common / found pairs, where the common
    pairs are counted over the (truth, found) contingency cells."""
    import numpy as np

    def pairs(*cols) -> int:
        _, n = np.unique(np.stack(cols, axis=1), axis=0, return_counts=True)
        return int((n * (n - 1) // 2).sum())

    common = pairs(truth, found)
    t, f = pairs(truth), pairs(found)
    return (common / t if t else -1.0), (common / f if f else -1.0)


def check(result, expected: Expected) -> tuple[bool, float, float]:
    """(passed, recall, precision) of one run's (doc_id, cluster_id) result."""
    import numpy as np

    ids = result["doc_id"].to_numpy()
    order = np.argsort(ids, kind="stable")
    if len(ids) != len(expected.doc_ids) or not np.array_equal(
            ids[order], expected.doc_ids):
        return False, 0.0, 0.0
    recall, precision = pair_agreement(
        expected.label, result["cluster_id"].to_numpy()[order])
    return min(recall, precision) >= MIN_AGREEMENT, recall, precision


def run_pipeline(corpus, cfg):
    """The measured pipeline: ``find_duplicates`` over the workload's whole
    pages file, through to the complete result collected on the driver."""
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    from fuzzy_matcher_ray.sources.protocol import webpages_source
    from fuzzy_matcher_ray.stages.joins import collect_table

    return collect_table(find_duplicates(webpages_source(corpus.whole), cfg))


class Runs:
    """Attempted and failed runs, and the walls, recalls and precisions of
    the runs that produced a result (a result that fails its check counts
    as failed, and its figures are kept)."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.walls, self.recalls, self.precisions, self.peaks = [], [], [], []

    def run(self, fn, expected: Expected, rss=None, result_of=lambda r: r):
        """Time ``fn()``, check ``result_of`` its return value, and return
        that value (None if it raised)."""
        self.attempted += 1
        if rss is not None:
            rss.start()
        try:
            t0 = time.perf_counter()
            out = fn()
            wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            if rss is not None:
                peak = rss.stop()
        ok, recall, precision = check(result_of(out), expected)
        self.failed += not ok
        self.walls.append(wall)
        self.recalls.append(recall)
        self.precisions.append(precision)
        if rss is not None:
            self.peaks.append(peak)
        return out


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _untraced_runs(runs: Runs, corpus, cfg, expected: Expected, seconds: float,
                   min_runs: int, rss=None, counter=None) -> list[int]:
    """Run the workload's pipeline as often as ``seconds`` holds: at least
    ``min_runs`` times, and a further run only while the median run so far
    still fits before the deadline. Returns the Dataset executions of each
    run when counting."""
    execs = []
    deadline = time.perf_counter() + seconds
    while len(execs) < min_runs or (runs.walls and time.perf_counter()
                                    + statistics.median(runs.walls) < deadline):
        n0 = counter.count if counter else 0
        runs.run(lambda: run_pipeline(corpus, cfg), expected, rss)
        execs.append(counter.count - n0 if counter else 0)
    return execs


def measure(corpus, cfg, expected: Expected,
            seconds: float) -> tuple[Runs, dict]:
    """End-to-end metrics of the untraced pipeline over the window."""
    from tracing import RssSampler

    runs = Runs()
    _untraced_runs(runs, corpus, cfg, expected, seconds, MIN_RUNS, RssSampler())
    wall = _median(runs.walls)
    return runs, {
        "wall_s": wall,
        "docs_per_s": len(expected.doc_ids) / wall if wall else 0.0,
        "pair_recall": _median(runs.recalls),
        "pair_precision": _median(runs.precisions),
        "driver_peak_rss_mb": _median(runs.peaks),
    }


def measure_traced(corpus, cfg, expected: Expected, seconds: float,
                   state_dir: str, run_id: str) -> tuple[Runs, dict]:
    """Per-layer metrics: untraced runs over the first half of the window
    (Dataset executions counted), then ``dedup_sharded`` over the
    workload's shards with each fold traced (one fold for a one-shard
    workload), then the flagship composition layer by layer, then the
    kernels. Every result is checked. The flagship composition, the traced
    twin of the timed ``find_duplicates``, is the root of the trace:
    ``trace.coverage`` is its layer spans, summed, over the untraced median
    wall."""
    import layers
    from tracing import ExecutionCounter, Tracer

    counter, tr, runs = ExecutionCounter(), Tracer(run_id), Runs()
    counter.install()
    try:
        execs = _untraced_runs(runs, corpus, cfg, expected, seconds / 2, 2,
                               counter=counter)
        untraced = _median(runs.walls)
        first = lambda out: out[0]  # noqa: E731
        chain_root = os.path.join(state_dir, "traced")
        chain = runs.run(lambda: layers.chain_layers(
            tr, counter, corpus.shards, chain_root, cfg), expected,
            result_of=first)
        shutil.rmtree(chain_root, ignore_errors=True)
        flag = runs.run(lambda: layers.flagship_layers(tr, corpus.whole, cfg),
                        expected, result_of=first)
    finally:
        counter.uninstall()
    m = {"ray_data.executions": _median(execs)}
    root = tr.last("flagship")
    if root is not None and untraced:
        m["trace.overhead_s"] = root["end"] - root["start"] - untraced
        m["trace.coverage"] = tr.child_seconds(root) / untraced
    if chain is not None:
        m.update(chain[1])
    if flag is not None:
        m.update(flag[1])
        m.update(layers.kernel_rates(corpus.whole, flag[2], cfg))
    tr.write(os.path.join(WORK, "spans", f"{run_id}.json"))
    return runs, m


def emit(runs: Runs, values: dict, section: str) -> None:
    """Print the result line with every metric of ``section`` of
    BENCHMARK.json. A metric missing from ``values`` is an error unless a
    run failed (then it reads 0); a metric BENCHMARK.json does not name is
    always an error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)[section]}
    unknown = set(values) - set(units)
    missing = set(units) - set(values)
    if unknown or (missing and not runs.failed):
        raise RuntimeError(f"metrics do not match BENCHMARK.json {section}: "
                           f"unknown {sorted(unknown)}, missing {sorted(missing)}")
    print(json.dumps({
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }))


def main() -> int:
    args = _parse()
    # a terminated run still shuts Ray down (the ``finally`` below)
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    _prepare_env()
    import ray

    import layers  # noqa: F401  (imports every package module the runs use)
    import workloads
    from fuzzy_matcher_ray.config import PipelineConfig
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates
    from fuzzy_matcher_ray.sources.protocol import webpages_source
    from fuzzy_matcher_ray.stages.joins import collect_table
    import_s = time.perf_counter() - T_START

    if args.workload not in workloads.SPECS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"one of {sorted(workloads.SPECS)}")
    cache = os.path.join(WORK, "corpora")
    corpus = workloads.build(workloads.SPECS[args.workload], args.seed, cache)
    warm = workloads.build(workloads.WARMUP, 0, cache)
    cfg = PipelineConfig()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    state_dir = os.path.join(WORK, "state", run_id)

    setups = []
    try:
        for i in range(1 if args.trace else N_SETUPS):
            t0 = time.perf_counter()
            _ray_init()
            collect_table(find_duplicates(webpages_source(warm.whole), cfg))
            _read_bytes([*corpus.shards, corpus.whole])
            setups.append(import_s + time.perf_counter() - t0)
            if i + 1 < N_SETUPS and not args.trace:
                _ray_shutdown()
            print(f"set-up {i}: {setups[-1]:.2f} s, "
                  f"at {time.perf_counter() - T_START:.1f} s", file=sys.stderr)
        pin_to_nproc()
        expected = Expected(corpus)
        if args.trace:
            runs, values = measure_traced(corpus, cfg, expected, args.seconds,
                                          state_dir, run_id)
        else:
            runs, values = measure(corpus, cfg, expected, args.seconds)
            values["setup_s"] = statistics.median(setups)
    finally:
        _ray_shutdown()
        shutil.rmtree(state_dir, ignore_errors=True)
        # Ray's session directories (logs, sockets) of this run's set-ups
        shutil.rmtree(os.environ["RAY_TMPDIR"], ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "num_cpus": nproc(),
                      "ray_version": ray.__version__,
                      "docs": len(expected.doc_ids), "runs": runs.attempted,
                      "walls_s": runs.walls}), flush=True)
    emit(runs, values, "per_layer" if args.trace else "end_to_end")
    return 0


if __name__ == "__main__":
    sys.exit(main())
