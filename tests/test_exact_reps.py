"""The exact pass feeds the sketch: only each exact group's min doc_id is
sketched, so every distinct fuzzy text is sketched, paired and verified
once and its copies join through the exact star. Covered here: a skewed
exact mega-group (past ``max_band_group``) in a flagship run and a
2-shard chain, pass sets without the exact pass, and the guards that keep
a rep-only sketch from serving a run or a fold without it."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from fuzzy_matcher_ray.config import PipelineConfig
from fuzzy_matcher_ray.sources.webpages import make_webpages
from fuzzy_matcher_ray.stages.joins import collect_table
from fuzzy_matcher_ray.stages.normalize_stage import TIER_FUZZY
from fuzzy_matcher_ray.state.checkpoint import Checkpointer

CFG = PipelineConfig()
N_BG, N_COPIES, N_VARIANTS = 300, 100, 3
FUZZY_ONLY = ("minhash", "simhash", "substring")


@pytest.fixture(scope="module")
def corpus():
    """(table, src): a make_webpages background (ids 0-299), 100 exact
    copies of its longest doc ``src`` (300-399), 3 near variants of it
    (400-402) and 3 copies of a text short enough for the exact-only tier
    (403-405), which only the exact pass can join."""
    bg, _ = make_webpages(N_BG, seed=61)
    texts = bg["text"].to_pylist()
    src = max(range(N_BG), key=lambda i: len(texts[i]))
    words = texts[src].split()
    mid = len(words) // 2
    variants = [" ".join(["zebra", *words[1:]]),
                texts[src] + " quartz lantern",
                " ".join([*words[:mid], "meadow", *words[mid + 1:]])]
    assert N_COPIES > CFG.max_band_group
    all_texts = (texts + [texts[src]] * N_COPIES + variants
                 + ["tiny note"] * 3)
    return pa.table({"doc_id": pa.array(range(len(all_texts)), pa.int64()),
                     "text": pa.array(all_texts, pa.string())}), src


def _ds(tbl):
    import ray.data as rd
    return rd.from_arrow(tbl)


def _labels(ds) -> pa.Table:
    return collect_table(ds).select(["doc_id", "cluster_id"]).sort_by("doc_id")


def _stage(root: str, name: str) -> pa.Table:
    return pq.read_table(os.path.join(root, name, "data"))


def _fuzzy(norm: pa.Table) -> pa.Table:
    return norm.filter(pc.equal(norm["tier"], TIER_FUZZY))


def test_sketch_holds_one_row_per_distinct_fuzzy_text(ray_session, corpus,
                                                      tmp_path):
    """The checkpointed sketch holds exactly the min doc_id of each
    distinct fuzzy text, and the 100 copies (a band group past the cap
    with every copy sketched) and the 3 variants share one label."""
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates

    tbl, src = corpus
    root = str(tmp_path / "ck")
    out = _labels(find_duplicates(_ds(tbl), CFG,
                                  checkpointer=Checkpointer(root, CFG.config_hash())))
    reps = _fuzzy(_stage(root, "normalize")).group_by("norm_text") \
        .aggregate([("doc_id", "min")])["doc_id_min"]
    assert sorted(_stage(root, "signatures")["doc_id"].to_pylist()) \
        == sorted(reps.to_pylist())
    lab = dict(zip(out["doc_id"].to_pylist(), out["cluster_id"].to_pylist()))
    group = [src, *range(N_BG, N_BG + N_COPIES + N_VARIANTS)]
    assert len({lab[i] for i in group}) == 1
    assert _labels(find_duplicates(_ds(tbl), CFG)).equals(out)


def test_mega_group_chain_equals_whole_run(ray_session, corpus, tmp_path):
    """Copies on both sides of the shard boundary: each shard sketches
    its own reps, so the second sketches a copy of the first's text, and
    the chain's labels equal the whole run's."""
    from fuzzy_matcher_ray.pipelines.dedup import dedup_sharded, find_duplicates

    tbl, _ = corpus
    cut = N_BG + N_COPIES // 2
    chain = _labels(dedup_sharded(
        [("s0", _ds(tbl.slice(0, cut))), ("s1", _ds(tbl.slice(cut)))],
        str(tmp_path / "state"), CFG))
    assert chain.equals(_labels(find_duplicates(_ds(tbl), CFG)))


def test_without_exact_pass_every_fuzzy_doc_is_sketched(ray_session, corpus,
                                                        tmp_path):
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates

    tbl, _ = corpus
    root = str(tmp_path / "ck")
    find_duplicates(_ds(tbl), CFG, passes=FUZZY_ONLY,
                    checkpointer=Checkpointer(root, CFG.config_hash()))
    fuzzy = _fuzzy(_stage(root, "normalize"))
    assert sorted(_stage(root, "signatures")["doc_id"].to_pylist()) \
        == sorted(fuzzy["doc_id"].to_pylist())


def test_rep_only_sketch_never_serves_a_run_without_exact(ray_session,
                                                          corpus, tmp_path):
    """A rerun into a root whose sketch holds reps only, with a pass set
    lacking the exact pass, rebuilds the sketch over every fuzzy doc, and
    edges_all and clusters with it: its labels are those of an
    uncheckpointed run with those passes (the exact-tier copies stay
    apart), not the first run's."""
    from fuzzy_matcher_ray.pipelines.dedup import find_duplicates

    tbl, _ = corpus
    root = str(tmp_path / "ck")
    first = _labels(find_duplicates(
        _ds(tbl), CFG, checkpointer=Checkpointer(root, CFG.config_hash())))
    n_reps = len(_stage(root, "signatures"))
    ck = Checkpointer(root, CFG.config_hash())
    again = _labels(find_duplicates(_ds(tbl), CFG, checkpointer=ck,
                                    passes=FUZZY_ONLY))
    assert {s: m["resumed"] for s, m in ck.metrics.items()} == {
        "normalize": True, "signatures": False, "edges_all": False,
        "clusters": False}
    n_fuzzy = len(_fuzzy(_stage(root, "normalize")))
    assert len(_stage(root, "signatures")) == n_fuzzy > n_reps
    assert again.equals(_labels(find_duplicates(_ds(tbl), CFG,
                                                passes=FUZZY_ONLY)))
    assert not again.equals(first)


@pytest.mark.parametrize("passes", [("exact", *FUZZY_ONLY), FUZZY_ONLY])
def test_fold_rebuilds_a_rep_only_prior_sketch_without_exact(
        ray_session, corpus, tmp_path, monkeypatch, passes):
    """A fold reads a prior root's rep-only sketch when it runs the exact
    pass, and re-derives the prior sketch from the prior normalize
    artifact when it does not."""
    from fuzzy_matcher_ray.pipelines import dedup

    tbl, _ = corpus
    cut = N_BG + N_COPIES // 2
    root = str(tmp_path / "link0")
    dedup.find_duplicates(_ds(tbl.slice(0, cut)), CFG,
                          checkpointer=Checkpointer(root, CFG.config_hash()))
    built = []
    sketch = dedup.signature_table

    def counted(norm, cfg, reps=None):
        built.append(reps is not None)
        return sketch(norm, cfg, reps)

    monkeypatch.setattr(dedup, "signature_table", counted)
    out = collect_table(dedup.incremental_update(root, _ds(tbl.slice(cut)),
                                                 CFG, passes=passes))
    assert len(out) == len(tbl)
    # the increment's own sketch, then (without exact) the prior's, full
    assert built == ([True] if "exact" in passes else [False, False])


def test_fold_rerun_under_another_pass_set_rebuilds(ray_session, corpus,
                                                    tmp_path):
    """A fold rerun into its own root with another pass set (the exact
    pass only) rebuilds edges_all and clusters, as a flagship rerun does:
    its labels are those of a fresh exact-only fold, not the first
    fold's (the near variants join only through the fuzzy passes)."""
    from fuzzy_matcher_ray.pipelines.dedup import (PASSES, find_duplicates,
                                                   incremental_update)

    tbl, _ = corpus
    cut = N_BG + N_COPIES // 2
    link0, link1 = str(tmp_path / "link0"), str(tmp_path / "link1")
    find_duplicates(_ds(tbl.slice(0, cut)), CFG,
                    checkpointer=Checkpointer(link0, CFG.config_hash()))

    def fold(passes, ck=None):
        return _labels(incremental_update(link0, _ds(tbl.slice(cut)), CFG,
                                          passes=passes, checkpointer=ck))

    first = fold(PASSES, Checkpointer(link1, CFG.config_hash()))
    ck = Checkpointer(link1, CFG.config_hash())
    again = fold(("exact",), ck)
    assert {s: m["resumed"] for s, m in ck.metrics.items()} == {
        "normalize": True, "edges_all": False, "clusters": False}
    assert again.equals(fold(("exact",)))
    assert not again.equals(first)
