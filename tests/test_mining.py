"""The sharded parallel mining engine: determinism across worker
counts, the incremental analysis cache, mergeable partials, and
kill/resume from the cache under sharding."""

import json
import os
import pickle
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.corpus import (
    CorpusConfig,
    CorpusGenerator,
    java_registry,
    mine_directory,
    python_registry,
    save_corpus,
)
from repro.ir import ProgramBuilder
from repro.mining import (
    MiningConfig,
    MiningEngine,
    ShardPartial,
    ShardPlan,
    shard_of,
)
from repro.mining.cache import AnalysisCache
from repro.mining.partial import ShardMetrics
from repro.model.logistic import SufficientStats
from repro.runtime import (
    Budget,
    BudgetExceeded,
    FaultPlan,
    FaultSpec,
    QuarantineEntry,
    RuntimeConfig,
    SOLVER_CRASH,
)
from repro.runtime.executor import ProgramOutcome
from repro.specs.pipeline import PipelineConfig, USpecPipeline
from repro.specs.serialize import specs_to_json


def java_corpus(n=10, seed=7):
    return CorpusGenerator(
        java_registry(), CorpusConfig(n_files=n, seed=seed)).programs()


def pathological_program(chain=3000, name="pathological.java"):
    pb = ProgramBuilder(source=name)
    fb = pb.function("main")
    v = fb.alloc("Api")
    for _ in range(chain):
        w = fb.fresh()
        fb.assign(w, v)
        v = w
    fb.call("Api.use", receiver=v, returns=False)
    pb.add(fb.finish())
    return pb.finish()


def learn(programs, *, jobs=1, shards=None, cache_dir=None, runtime=None):
    config = PipelineConfig(runtime=runtime or RuntimeConfig())
    mining = MiningConfig(
        jobs=jobs, shards=shards,
        cache_dir=str(cache_dir) if cache_dir else None,
    )
    return MiningEngine(config, mining).learn(programs)


# ----------------------------------------------------------------------
# sharding


def test_shard_of_is_deterministic_and_in_range():
    for n in (1, 2, 7, 64):
        for name in ("a.java", "b.py", "dir/c.java", ""):
            first = shard_of(name, n)
            assert first == shard_of(name, n)  # pure function of inputs
            assert 0 <= first < n
    # different shard counts re-hash rather than truncate
    assert shard_of("a.java", 1) == 0
    with pytest.raises(ValueError):
        shard_of("a.java", 0)


def test_shard_plan_partitions_corpus_in_order():
    identities = [f"corpus_{i:05d}.java" for i in range(40)]
    plan = ShardPlan.of(identities, 5)
    seen = []
    for shard_id in range(5):
        members = plan.members(shard_id)
        assert members == sorted(members)  # corpus order preserved
        seen.extend(members)
    assert sorted(seen) == list(range(40))  # exact partition
    # assignment ignores list order: identity → shard is stable
    assert plan.assignments[3] == ShardPlan.of(identities[::-1], 5) \
        .assignments[len(identities) - 1 - 3]


def test_mine_directory_shards_partition_the_tree(tmp_path):
    files = CorpusGenerator(
        java_registry(), CorpusConfig(n_files=12, seed=7)).generate()
    save_corpus(files, tmp_path)
    sigs = java_registry().signatures()
    full = {p.source for p in mine_directory(tmp_path, sigs).programs}
    assert len(full) == 12
    shards = [
        {p.source for p in
         mine_directory(tmp_path, sigs, n_shards=3, shard_index=i).programs}
        for i in range(3)
    ]
    assert set().union(*shards) == full
    assert sum(len(s) for s in shards) == len(full)  # disjoint
    with pytest.raises(ValueError):
        mine_directory(tmp_path, sigs, n_shards=3, shard_index=3)


# ----------------------------------------------------------------------
# mergeable partials


def make_partial(shard_id, key, n_samples=0):
    partial = ShardPartial.empty(shard_id)
    partial.outcomes.append(ProgramOutcome(key=key, source=key, tier="t"))
    partial.bundle_refs.append((key, None))
    partial.analyzed_keys.append(key)
    partial.stats.add(key, [])
    return partial


def canonical_view(partial):
    partial.canonicalize()
    return (
        [m.shard_id for m in partial.metrics],
        [o.key for o in partial.outcomes],
        [e.program for e in partial.manifest.entries],
        partial.bundle_refs,
        partial.analyzed_keys,
        sorted(partial.stats.blocks),
    )


def test_shard_partial_merge_is_associative_and_order_insensitive():
    def fresh():
        return [make_partial(0, "000001:a"), make_partial(1, "000000:b"),
                make_partial(2, "000002:c")]

    a, b, c = fresh()
    left = a.merge(b).merge(c)
    a2, b2, c2 = fresh()
    right = a2.merge(b2.merge(c2))
    assert canonical_view(left) == canonical_view(right)

    a3, b3, c3 = fresh()
    reordered = c3.merge(a3).merge(b3)
    assert canonical_view(reordered) == canonical_view(left)


def test_shard_partial_empty_is_identity():
    partial = make_partial(0, "000000:a")
    merged = ShardPartial().merge(partial).merge(ShardPartial())
    assert canonical_view(merged) == canonical_view(make_partial(0, "000000:a"))


def test_sufficient_stats_stream_is_merge_order_independent():
    from repro.model.features import EncodedSample

    def sample(tag):
        return EncodedSample(("ret", "ret"), (hash(tag) % 100,), 1)

    a = SufficientStats()
    a.add("000000:x", [sample("x")])
    b = SufficientStats()
    b.add("000001:y", [sample("y"), sample("z")])
    ab = SufficientStats().merge(a).merge(b)
    ba = SufficientStats().merge(b).merge(a)
    assert ab.stream(seed=13) == ba.stream(seed=13)
    assert ab.n_samples == 3


# ----------------------------------------------------------------------
# cross-process pickling


def test_budget_exceeded_pickles_across_process_boundary():
    err = BudgetExceeded("solver_iterations", 100, 50, stage="pointsto")
    restored = pickle.loads(pickle.dumps(err))
    assert isinstance(restored, BudgetExceeded)
    assert restored.resource == "solver_iterations"
    assert (restored.used, restored.limit) == (100, 50)
    assert restored.stage == "pointsto"
    assert str(restored) == str(err)


def test_model_pickle_is_sparse_and_prediction_preserving():
    from repro.model.features import extract_feature

    programs = java_corpus(6)
    learned = learn(programs)
    payload = pickle.dumps(learned.model)
    # a dense pickle of 2^18-dim float64 weight+grad arrays would be
    # megabytes per member; sparse state must stay far below that
    assert len(payload) < 2_000_000
    restored = pickle.loads(payload)
    bundle = USpecPipeline().analyze_corpus(programs[:1])[0]
    graph = bundle.graph
    events = sorted(graph.events, key=repr)[:6]
    guard = bundle.guard_index
    for e1 in events:
        for e2 in events:
            if e1 is e2:
                continue
            feature = extract_feature(graph, e1, e2, guard)
            assert restored.predict(feature) == \
                pytest.approx(learned.model.predict(feature), abs=1e-12)


# ----------------------------------------------------------------------
# determinism: worker count must never change the result


def test_parallel_mining_is_byte_identical_to_sequential():
    runtime = RuntimeConfig(budget=Budget(max_solver_iterations=500))
    programs = java_corpus(12) + [pathological_program()]

    seq = learn(programs, jobs=1, runtime=runtime)
    par = learn(programs, jobs=2, runtime=runtime)

    assert len(seq.specs) > 0
    assert specs_to_json(seq.specs, seq.scores) == \
        specs_to_json(par.specs, par.scores)
    assert seq.run.manifest.to_json(timings=False) == \
        par.run.manifest.to_json(timings=False)
    assert seq.run.n_quarantined == par.run.n_quarantined == 1
    assert par.mining.jobs == 2 and par.mining.n_shards > 1


def test_shard_count_does_not_change_the_result():
    programs = java_corpus(10)
    one = learn(programs, jobs=1, shards=1)
    many = learn(programs, jobs=1, shards=7)
    assert specs_to_json(one.specs, one.scores) == \
        specs_to_json(many.specs, many.scores)


@settings(max_examples=6, deadline=None)
@given(language=st.sampled_from(["java", "python"]),
       seed=st.integers(min_value=0, max_value=10_000),
       n_files=st.integers(min_value=1, max_value=20))
def test_engine_matches_reference_pipeline(language, seed, n_files):
    """Differential: the in-process engine — uncached, cold cache and
    warm cache — against the plain reference pipeline."""
    registry = java_registry() if language == "java" else python_registry()
    programs = CorpusGenerator(
        registry, CorpusConfig(n_files=n_files, seed=seed)).programs()
    reference = USpecPipeline().learn(programs)
    expected = specs_to_json(reference.specs, reference.scores)
    with tempfile.TemporaryDirectory() as cache_dir:
        for label, cache in (("uncached", None), ("cold", cache_dir),
                             ("warm", cache_dir)):
            learned = learn(programs, jobs=1, cache_dir=cache)
            assert specs_to_json(learned.specs, learned.scores) == \
                expected, label
        assert learned.mining.n_analyzed == 0  # the warm run


# ----------------------------------------------------------------------
# incremental analysis cache


def test_warm_cache_reanalyzes_nothing(tmp_path):
    programs = java_corpus(8)
    cold = learn(programs, cache_dir=tmp_path / "cache")
    assert cold.mining.n_analyzed == 8 and cold.mining.n_cached == 0

    warm = learn(programs, cache_dir=tmp_path / "cache")
    assert warm.mining.n_analyzed == 0
    assert warm.mining.n_cached == 8
    assert warm.mining.cache_hit_rate == 1.0
    assert specs_to_json(warm.specs, warm.scores) == \
        specs_to_json(cold.specs, cold.scores)


def test_editing_k_files_reanalyzes_exactly_k(tmp_path):
    programs = java_corpus(10)
    learn(programs, cache_dir=tmp_path / "cache")

    edited = list(programs)
    replacements = CorpusGenerator(
        java_registry(), CorpusConfig(n_files=10, seed=99)).programs()
    for i in (2, 7):  # "edit" two files: same path, new content
        replacements[i].source = programs[i].source
        edited[i] = replacements[i]

    rerun = learn(edited, cache_dir=tmp_path / "cache", jobs=2)
    assert rerun.mining.n_analyzed == 2
    assert rerun.mining.n_cached == 8


def test_cache_ignores_parallelism_but_respects_analysis_config(tmp_path):
    programs = java_corpus(6)
    learn(programs, cache_dir=tmp_path / "cache", jobs=2)
    # same analysis config, different parallelism: all hits
    warm = learn(programs, cache_dir=tmp_path / "cache", jobs=1, shards=3)
    assert warm.mining.n_cached == 6
    # changed analysis budget: full invalidation
    runtime = RuntimeConfig(budget=Budget(max_solver_iterations=10_000))
    cold = learn(programs, cache_dir=tmp_path / "cache", runtime=runtime)
    assert cold.mining.n_cached == 0 and cold.mining.n_analyzed == 6


def test_cached_quarantine_verdicts_are_reused(tmp_path):
    runtime = RuntimeConfig(budget=Budget(max_solver_iterations=500))
    programs = java_corpus(5) + [pathological_program()]
    cold = learn(programs, cache_dir=tmp_path / "cache", runtime=runtime)
    assert cold.run.n_quarantined == 1

    warm = learn(programs, cache_dir=tmp_path / "cache", runtime=runtime)
    assert warm.mining.n_analyzed == 0  # the blow-up was not re-attempted
    assert warm.run.n_quarantined == 1
    assert warm.run.manifest.to_json(timings=False) == \
        cold.run.manifest.to_json(timings=False)


def test_sequential_prefix_run_resumes_remainder_from_cache(tmp_path):
    """A run killed midway (simulated by running a prefix) leaves every
    completed program in the cache; the full run analyses only the
    rest."""
    runtime = RuntimeConfig(budget=Budget(max_solver_iterations=500))
    programs = java_corpus(5) + [pathological_program()]
    prefix = learn(programs[:2], cache_dir=tmp_path / "cache",
                   runtime=runtime)
    assert prefix.mining.n_analyzed == 2

    full = learn(programs, cache_dir=tmp_path / "cache", runtime=runtime)
    assert full.mining.n_cached == 2
    assert full.mining.n_analyzed == 4
    assert set(full.mining.analyzed_keys).isdisjoint(
        prefix.mining.analyzed_keys)
    assert full.run.n_ok == 5 and full.run.n_quarantined == 1
    clean = learn(programs, runtime=runtime)
    assert specs_to_json(full.specs, full.scores) == \
        specs_to_json(clean.specs, clean.scores)


def test_warm_cache_skips_recomputation_under_faults(tmp_path):
    """Cached programs are loaded, not re-analysed: a fault plan that
    would crash every program leaves a warm run intact."""
    programs = java_corpus(4)
    cold = learn(programs, cache_dir=tmp_path / "cache")
    poisoned = RuntimeConfig(
        faults=FaultPlan([FaultSpec(program="", error=SOLVER_CRASH)]),
    )
    warm = learn(programs, cache_dir=tmp_path / "cache", runtime=poisoned)
    assert warm.mining.n_analyzed == 0
    assert warm.mining.n_cached == 4
    assert warm.run.n_ok == 4 and warm.run.n_quarantined == 0
    assert specs_to_json(warm.specs, warm.scores) == \
        specs_to_json(cold.specs, cold.scores)


# ----------------------------------------------------------------------
# kill/resume × sharding


def test_killed_parallel_run_resumes_without_double_analysis(tmp_path):
    """A worker-side injected fault aborts a strict parallel run; the
    re-run completes from the cache with no program analysed twice."""
    programs = java_corpus(10)
    victim = programs[-1].source
    faulty = RuntimeConfig(
        strict=True,
        faults=FaultPlan([FaultSpec(program=victim, error=SOLVER_CRASH)]),
    )
    with pytest.raises(Exception, match="injected fault"):
        learn(programs, jobs=2, shards=4, cache_dir=tmp_path / "cache",
              runtime=faulty)

    from repro.mining.cache import AnalysisCache, pipeline_fingerprint
    fingerprint = pipeline_fingerprint(PipelineConfig())
    survived = len(AnalysisCache(tmp_path / "cache", fingerprint))
    assert 0 < survived < 10  # partial progress persisted, kill was real

    rerun = learn(programs, jobs=2, shards=4, cache_dir=tmp_path / "cache")
    report = rerun.mining
    assert report.n_cached == survived
    assert report.n_analyzed == 10 - survived  # only the missing ones
    cached_keys = {o.key for o in rerun.run.outcomes if o.cached}
    assert cached_keys.isdisjoint(report.analyzed_keys)
    assert len(cached_keys) + len(report.analyzed_keys) == 10
    # the merged run report is complete: every program accounted for
    assert rerun.run.n_ok == 10 and rerun.run.n_quarantined == 0


# ----------------------------------------------------------------------
# CLI


def test_cli_jobs_byte_identical_outputs(tmp_path):
    def run(jobs, tag):
        specs = tmp_path / f"specs-{tag}.json"
        manifest = tmp_path / f"quarantine-{tag}.json"
        code = main([
            "learn", "--files", "10", "--seed", "7",
            "--budget-iterations", "5000",
            "--jobs", str(jobs),
            "--out", str(specs), "--quarantine-out", str(manifest),
        ])
        assert code == 0
        return specs.read_bytes(), manifest.read_bytes()

    specs1, manifest1 = run(1, "j1")
    specs4, manifest4 = run(4, "j4")
    assert specs1 == specs4
    assert manifest1 == manifest4
    assert len(json.loads(specs1)["specs"]) > 0


def test_cli_parallel_strict_budget_exits_3(capsys):
    code = main(["learn", "--files", "4", "--seed", "7", "--jobs", "2",
                 "--budget-iterations", "1", "--strict"])
    assert code == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_cli_parallel_everything_quarantined_exits_4(capsys):
    code = main(["learn", "--files", "4", "--seed", "7", "--jobs", "2",
                 "--budget-iterations", "1"])
    assert code == 4
    assert "every corpus program was quarantined" in capsys.readouterr().err


def test_cli_cache_dir_warm_run_reports_hits(tmp_path, capsys):
    args = ["learn", "--files", "5", "--seed", "7",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "specs.json")]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "cache hits 5 (100%)" in out


def test_cli_jobs_prints_mining_metrics(tmp_path, capsys):
    code = main(["learn", "--files", "6", "--seed", "7", "--jobs", "2",
                 "--out", str(tmp_path / "specs.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "programs/s" in out
    assert "shard wall-clock" in out


# ----------------------------------------------------------------------
# read-only cache directories (prewarmed snapshots mounted into workers)


def _cache_with_entry(tmp_path):
    cache = AnalysisCache(tmp_path, fingerprint="fp")
    cache.store_quarantine("prog0", QuarantineEntry(
        program="p0", source="p0.java",
        error_kind=SOLVER_CRASH, error="boom"))
    return cache


def test_readonly_cache_still_serves_hits_and_latches(tmp_path, monkeypatch):
    cache = _cache_with_entry(tmp_path)
    attempts = []

    def denied(path, *args, **kwargs):
        attempts.append(path)
        raise PermissionError("read-only cache")

    monkeypatch.setattr(os, "utime", denied)
    hit = cache.lookup("prog0", "000000:p0.java")
    assert hit is not None
    assert hit.entry.program == "000000:p0.java"  # re-keyed to corpus
    assert cache._touchable is False
    # latched off: later hits never re-attempt the denied touch
    assert cache.lookup("prog0", "000000:p0.java") is not None
    assert len(attempts) == 1


def test_raced_eviction_touch_is_not_sticky(tmp_path, monkeypatch):
    cache = _cache_with_entry(tmp_path)
    monkeypatch.setattr(
        os, "utime",
        lambda *a, **k: (_ for _ in ()).throw(FileNotFoundError()))
    assert cache.lookup("prog0", "k") is not None
    assert cache._touchable is True  # a vanished file is per-call only
