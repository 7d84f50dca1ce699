"""Fault-tolerant shard supervision: chaos modes (kill / hang /
corrupt), retry with backoff, poison-shard bisection, the failure
ledger, cache-budget eviction, and spawn-context dispatch."""

import json
import math
import os

import pytest

from repro.cli import main
from repro.corpus import CorpusConfig, CorpusGenerator, java_registry
from repro.ir import ProgramBuilder
from repro.mining import MiningConfig, MiningEngine
from repro.mining.cache import (
    AnalysisCache,
    BUNDLE_SUFFIX,
    QUARANTINE_SUFFIX,
)
from repro.mining.supervisor import DeadlineTracker, SupervisionConfig
from repro.runtime import (
    ChaosPlan,
    ChaosSpec,
    RuntimeConfig,
    WORKER_CRASH,
    WORKER_TIMEOUT,
    WorkerCrash,
)
from repro.specs.pipeline import PipelineConfig
from repro.specs.serialize import specs_to_json


def java_corpus(n=8, seed=7):
    return CorpusGenerator(
        java_registry(), CorpusConfig(n_files=n, seed=seed)).programs()


def toxic_program(name):
    """A tiny valid program; chaos kills the worker before it matters."""
    pb = ProgramBuilder(source=name)
    fb = pb.function("main")
    v = fb.alloc("Api")
    fb.call("Api.use", receiver=v, returns=False)
    pb.add(fb.finish())
    return pb.finish()


def learn(programs, *, jobs=1, shards=None, cache_dir=None,
          cache_budget=None, mp_context=None, strict=False,
          chaos=None, max_retries=2, shard_deadline=None):
    config = PipelineConfig(runtime=RuntimeConfig(strict=strict))
    supervision = SupervisionConfig(
        max_retries=max_retries,
        shard_deadline=shard_deadline,
        backoff_base=0.01,  # keep test wall-clock down
        chaos=ChaosPlan(chaos) if chaos else None,
    )
    mining = MiningConfig(
        jobs=jobs, shards=shards,
        cache_dir=str(cache_dir) if cache_dir else None,
        cache_budget=cache_budget, mp_context=mp_context,
        supervision=supervision,
    )
    return MiningEngine(config, mining).learn(programs)


def specs_text(learned):
    return specs_to_json(learned.specs, learned.scores)


# ----------------------------------------------------------------------
# chaos modes


def test_transient_kill_is_retried_and_specs_match_clean():
    programs = java_corpus()
    clean = learn(programs)
    chaos = [ChaosSpec("corpus_00003", "kill", until_attempt=1)]
    learned = learn(programs, jobs=2, chaos=chaos)
    assert specs_text(learned) == specs_text(clean)
    ledger = learned.mining.ledger
    assert ledger.n_worker_crashes == 1
    assert ledger.n_retries == 1
    assert ledger.n_poisoned == 0
    assert learned.mining.n_quarantined == 0
    assert learned.mining.supervised


def test_toxic_kill_is_bisected_and_quarantined():
    programs = java_corpus()
    clean = learn(programs)
    chaos = [ChaosSpec("corpus_00003", "kill")]
    learned = learn(programs, jobs=2, chaos=chaos)
    ledger = learned.mining.ledger
    assert ledger.n_poisoned == 1
    assert ledger.n_bisections >= 1
    manifest = learned.run.manifest
    assert [e.program for e in manifest.entries] \
        == ["000003:corpus_00003.java"]
    assert manifest.entries[0].error_kind == WORKER_CRASH
    # a poisoned task's record carries the taxonomy label
    poisoned = [t for t in ledger.tasks if t.poisoned]
    assert [t.poisoned for t in poisoned] == [WORKER_CRASH]
    # the surviving programs still learn something, and the clean run
    # proves the corpus was healthy before injection
    assert learned.specs and clean.specs
    assert learned.mining.n_quarantined == 1


def test_hang_is_reclaimed_by_deadline_and_quarantined():
    programs = java_corpus(n=2)
    chaos = [ChaosSpec("corpus_00001", "hang")]
    learned = learn(programs, shards=1, chaos=chaos, max_retries=0,
                    shard_deadline=1.0)
    ledger = learned.mining.ledger
    assert ledger.n_worker_timeouts >= 2  # whole shard, then singleton
    assert ledger.n_poisoned == 1
    manifest = learned.run.manifest
    assert manifest.entries[0].error_kind == WORKER_TIMEOUT
    assert "corpus_00001" in manifest.entries[0].program


def test_transient_corrupt_result_is_retried():
    programs = java_corpus()
    clean = learn(programs)
    chaos = [ChaosSpec("corpus_00002", "corrupt", until_attempt=1)]
    learned = learn(programs, jobs=2, chaos=chaos)
    assert specs_text(learned) == specs_text(clean)
    ledger = learned.mining.ledger
    assert ledger.n_corrupt_results == 1
    assert ledger.n_poisoned == 0


# ----------------------------------------------------------------------
# bisection


def test_bisection_converges_in_logarithmic_attempts():
    n = 8
    programs = java_corpus(n=n)
    chaos = [ChaosSpec("corpus_00005", "kill")]
    learned = learn(programs, shards=1, chaos=chaos, max_retries=0)
    analyze = [t for t in learned.mining.ledger.tasks
               if t.phase == "analyze"]
    depth = int(math.log2(n))
    # root + two children per bisection level; only the toxic half
    # fails at each level
    assert sum(len(t.attempts) for t in analyze) <= 2 * depth + 1
    assert sum(1 for t in analyze if t.bisected) == depth
    assert sum(1 for t in analyze if t.poisoned) == 1
    assert learned.mining.n_quarantined == 1


def test_bisection_lineage_is_recorded_in_ledger():
    programs = java_corpus(n=4)
    chaos = [ChaosSpec("corpus_00000", "kill")]
    learned = learn(programs, shards=1, chaos=chaos, max_retries=0)
    payload = learned.mining.ledger.to_dict()
    ids = {t["task_id"] for t in payload["tasks"]}
    assert any("." in task_id for task_id in ids)  # e.g. "0.0"
    assert payload["n_bisections"] >= 1
    assert payload["n_poisoned"] == 1


# ----------------------------------------------------------------------
# strict mode and exit codes


def test_strict_toxic_kill_raises_worker_crash():
    programs = java_corpus(n=4)
    chaos = [ChaosSpec("corpus_00001", "kill")]
    with pytest.raises(WorkerCrash):
        learn(programs, jobs=2, chaos=chaos, strict=True, max_retries=1)


def test_cli_chaos_everything_poisoned_exits_4(tmp_path, capsys):
    code = main([
        "learn", "--files", "3", "--jobs", "2", "--max-retries", "0",
        "--chaos", "kill:corpus_",
        "--out", str(tmp_path / "specs.json"),
    ])
    assert code == 4
    assert "every corpus program was quarantined" in capsys.readouterr().err


def test_cli_strict_chaos_exits_2(tmp_path, capsys):
    code = main([
        "learn", "--files", "3", "--jobs", "2", "--max-retries", "0",
        "--strict", "--chaos", "kill:corpus_00001",
        "--out", str(tmp_path / "specs.json"),
    ])
    assert code == 2
    assert "attempt" in capsys.readouterr().err


def test_cli_transient_chaos_matches_clean_run(tmp_path):
    clean, chaotic = tmp_path / "clean.json", tmp_path / "chaos.json"
    assert main(["learn", "--files", "6", "--out", str(clean)]) == 0
    assert main([
        "learn", "--files", "6", "--jobs", "2",
        "--chaos", "kill:corpus_00002:1", "--out", str(chaotic),
    ]) == 0
    assert clean.read_bytes() == chaotic.read_bytes()


# ----------------------------------------------------------------------
# poisoned verdicts are cached


def test_poisoned_program_is_never_reattempted_warm(tmp_path):
    programs = java_corpus()
    chaos = [ChaosSpec("corpus_00003", "kill")]
    cold = learn(programs, jobs=2, chaos=chaos, cache_dir=tmp_path,
                 max_retries=0)
    assert cold.mining.ledger.n_poisoned == 1
    # warm re-run with the same chaos: the cached worker-crash verdict
    # wins before the worker ever touches the program, so chaos never
    # fires again
    warm = learn(programs, jobs=2, chaos=chaos, cache_dir=tmp_path,
                 max_retries=0)
    assert warm.mining.ledger.n_worker_crashes == 0
    assert warm.mining.ledger.n_poisoned == 0
    assert warm.mining.n_quarantined == 1
    assert specs_text(warm) == specs_text(cold)
    assert [e.error_kind for e in warm.run.manifest.entries] == [WORKER_CRASH]


# ----------------------------------------------------------------------
# spawn start method


def test_spawn_context_matches_sequential():
    programs = java_corpus(n=4)
    clean = learn(programs)
    spawned = learn(programs, jobs=2, shards=2, mp_context="spawn")
    assert specs_text(spawned) == specs_text(clean)
    assert spawned.mining.ledger.clean


# ----------------------------------------------------------------------
# cache budget (LRU-by-mtime eviction)


def _fake_entry(cache, name, size, mtime):
    path = cache.directory / name
    path.write_bytes(b"x" * size)
    os.utime(path, (mtime, mtime))
    return path


def test_evict_to_budget_removes_oldest_first(tmp_path):
    cache = AnalysisCache(tmp_path, "fp")
    old = _fake_entry(cache, f"aaaa{BUNDLE_SUFFIX}", 100, 1_000)
    mid = _fake_entry(cache, f"bbbb{QUARANTINE_SUFFIX}", 100, 2_000)
    new = _fake_entry(cache, f"cccc{BUNDLE_SUFFIX}", 100, 3_000)
    assert cache.total_bytes() == 300
    assert cache.evict_to_budget(200) == 1
    assert not old.exists() and mid.exists() and new.exists()
    assert cache.evict_to_budget(200) == 0  # already under budget
    assert cache.evict_to_budget(0) == 2
    assert cache.total_bytes() == 0


def test_evict_ties_break_by_name(tmp_path):
    cache = AnalysisCache(tmp_path, "fp")
    b = _fake_entry(cache, f"bbbb{BUNDLE_SUFFIX}", 10, 1_000)
    a = _fake_entry(cache, f"aaaa{BUNDLE_SUFFIX}", 10, 1_000)
    assert cache.evict_to_budget(10) == 1
    assert not a.exists() and b.exists()


def test_lookup_refreshes_recency(tmp_path):
    programs = java_corpus(n=2)
    learn(programs, cache_dir=tmp_path)
    entries = sorted(tmp_path.glob(f"*{BUNDLE_SUFFIX}"))
    assert len(entries) == 2
    # age both, then warm-run: lookups must touch the mtimes forward
    for path in entries:
        os.utime(path, (1_000, 1_000))
    learn(programs, cache_dir=tmp_path)
    assert all(p.stat().st_mtime > 1_000 for p in entries)


def test_engine_cache_budget_reports_evictions(tmp_path):
    programs = java_corpus(n=3)
    learned = learn(programs, cache_dir=tmp_path, cache_budget=1)
    assert learned.mining.n_evicted == 3
    assert learned.mining.to_dict()["n_evicted"] == 3
    # evictions only cost recomputes — the next run still succeeds
    again = learn(programs, cache_dir=tmp_path, cache_budget=None)
    assert again.mining.n_cached == 0
    assert specs_text(again) == specs_text(learned)


def test_cli_cache_budget_flag(tmp_path, capsys):
    cache = tmp_path / "cache"
    code = main([
        "learn", "--files", "3", "--cache-dir", str(cache),
        "--cache-budget", "1", "--out", str(tmp_path / "s.json"),
    ])
    assert code == 0
    assert "evicted 3 entries" in capsys.readouterr().out
    assert not list(cache.glob(f"*{BUNDLE_SUFFIX}"))


# ----------------------------------------------------------------------
# report plumbing


def test_report_carries_supervision_ledger():
    programs = java_corpus(n=4)
    chaos = [ChaosSpec("corpus_00002", "kill", until_attempt=1)]
    learned = learn(programs, jobs=2, chaos=chaos)
    payload = learned.mining.to_dict()
    assert payload["supervised"] is True
    supervision = payload["supervision"]
    assert supervision["n_worker_crashes"] == 1
    assert supervision["n_retries"] == 1
    # troubled tasks keep their attempt trail; clean ones are counters
    assert all(t["attempts"] for t in supervision["tasks"])
    assert json.dumps(payload)  # report stays JSON-serializable


def test_sequential_report_has_no_ledger():
    learned = learn(java_corpus(n=2))
    assert learned.mining.supervised is False
    assert learned.mining.to_dict()["supervision"] is None


# ----------------------------------------------------------------------
# dispatch batching (the coalescing floor) and its instrumentation


def test_small_shards_coalesce_into_few_round_trips():
    programs = java_corpus(n=16)
    learned = learn(programs, jobs=2, shards=8)
    dispatch = learned.mining.dispatch
    assert dispatch is not None
    # 8 analyze + 8 extract tasks, but the coalescing floor packs each
    # worker's fair share of the corpus into one frame: at most
    # jobs round trips per phase, not one per shard task
    assert dispatch["n_tasks_dispatched"] == 16
    assert dispatch["n_round_trips"] <= 2 * 2
    assert dispatch["n_batches"] >= 2
    assert dispatch["n_tasks_batched"] > dispatch["n_batches"]
    # every reply is shape-revalidated, batched or not
    assert dispatch["n_validations"] == dispatch["n_tasks_dispatched"]
    # pipe traffic and serialisation time are observable
    assert dispatch["bytes_sent"] > 0 and dispatch["bytes_received"] > 0
    assert learned.mining.to_dict()["dispatch"] == dispatch


def test_batched_specs_byte_identical_to_sequential():
    programs = java_corpus(n=12)
    sequential = learn(programs)
    batched = learn(programs, jobs=4)
    assert specs_text(batched) == specs_text(sequential)
    assert batched.mining.ledger.clean
    assert batched.mining.dispatch["n_batches"] >= 1


def test_steal_from_live_owner_reloads_from_spill_without_repair():
    """An extract task taken away from its analyse owner — stolen while
    the owner is alive but busy, or retried after it died — finds its
    bundles on disk: the ephemeral spill holds every analysed bundle,
    so no vanished-entry failure and no healer repair ever happens."""
    programs = java_corpus(n=12)
    sequential = learn(programs)
    # chaos keeps the full 2-worker pool and disables coalescing; the
    # hung owner stays alive for 2s while the other worker drains the
    # queue, stealing the owner's pending extract tasks, then dies
    chaos = [ChaosSpec("corpus_00000", "hang", until_attempt=1,
                       hang_seconds=2.0, phase="extract")]
    stolen = learn(programs, jobs=2, shards=8, shard_deadline=60.0,
                   chaos=chaos)
    assert specs_text(stolen) == specs_text(sequential)
    report = stolen.mining
    assert report.n_affinity_misses > 0
    assert report.n_cache_repairs == 0
    assert report.ledger.n_worker_crashes == 1  # only the injected one
    assert report.ledger.n_worker_errors == 0


def test_chaos_disables_coalescing():
    programs = java_corpus(n=8)
    chaos = [ChaosSpec("corpus_00003", "kill", until_attempt=1)]
    learned = learn(programs, jobs=2, chaos=chaos)
    dispatch = learned.mining.dispatch
    # fault injection targets single tasks; every frame stays singleton
    # so the chaos tests' exact attempt counts keep meaning something
    assert dispatch["n_batches"] == 0
    # every reply is revalidated; the killed attempt never replied
    assert dispatch["n_validations"] == (
        dispatch["n_tasks_dispatched"]
        - learned.mining.ledger.n_worker_crashes)


# ----------------------------------------------------------------------
# cache hit-rate reporting (ephemeral spill vs a real cache dir)


def test_spill_cache_hit_rate_is_null_not_zero():
    programs = java_corpus(n=4)
    learned = learn(programs, jobs=2)  # no cache dir: private spill
    assert learned.mining.cache_ephemeral is True
    assert learned.mining.cache_hit_rate is None
    assert learned.mining.to_dict()["cache_hit_rate"] is None


def test_real_cache_dir_still_reports_hit_rate(tmp_path):
    programs = java_corpus(n=4)
    cold = learn(programs, jobs=2, cache_dir=tmp_path)
    assert cold.mining.cache_ephemeral is False
    assert cold.mining.cache_hit_rate == 0.0  # cold but real: 0.0 is true
    warm = learn(programs, jobs=2, cache_dir=tmp_path)
    assert warm.mining.cache_hit_rate == 1.0
    assert specs_text(warm) == specs_text(cold)


# ----------------------------------------------------------------------
# the warm analyze fast path (pre-encoded sample sidecars)


def test_warm_run_absorbs_samples_from_sidecar(tmp_path):
    programs = java_corpus(n=6)
    cold = learn(programs, cache_dir=tmp_path)
    assert cold.mining.n_sample_hits == 0
    warm = learn(programs, cache_dir=tmp_path)
    assert warm.mining.n_analyzed == 0
    assert warm.mining.n_cached == len(programs)
    # statistics came from the sidecars: no bundle was unpickled and
    # nothing was re-sampled or re-encoded during analyze
    assert warm.mining.n_sample_hits == len(programs)
    assert specs_text(warm) == specs_text(cold)


def test_sidecar_warm_specs_match_for_parallel_jobs(tmp_path):
    programs = java_corpus(n=8)
    cold = learn(programs, cache_dir=tmp_path)
    warm = learn(programs, jobs=4, cache_dir=tmp_path)
    assert warm.mining.n_sample_hits == len(programs)
    assert specs_text(warm) == specs_text(cold)


def test_damaged_sidecar_degrades_to_bundle_reload(tmp_path):
    from repro.mining.cache import SAMPLES_SUFFIX

    programs = java_corpus(n=3)
    cold = learn(programs, cache_dir=tmp_path)
    sidecars = sorted(tmp_path.glob(f"*{SAMPLES_SUFFIX}"))
    assert len(sidecars) == 3
    data = bytearray(sidecars[0].read_bytes())
    data[len(data) // 2] ^= 0xFF
    sidecars[0].write_bytes(bytes(data))
    warm = learn(programs, cache_dir=tmp_path)
    # the damaged sidecar is quarantined; its program falls back to the
    # bundle-reload path, the other two stay on the fast path
    assert warm.mining.n_sample_hits == 2
    assert warm.mining.n_cached == 3
    assert specs_text(warm) == specs_text(cold)


# ----------------------------------------------------------------------
# acceptance: chaos on a 100-program corpus


@pytest.mark.slow
def test_acceptance_chaos_quarantines_only_toxins_byte_identical():
    survivors = java_corpus(n=100, seed=11)
    toxic = [toxic_program("toxic_kill.java"),
             toxic_program("toxic_hang.java")]
    corpus = survivors + toxic  # appended: survivor indices unchanged
    chaos = [ChaosSpec("toxic_kill", "kill"),
             ChaosSpec("toxic_hang", "hang")]
    clean = learn(survivors)
    learned = learn(corpus, jobs=2, shards=32, chaos=chaos,
                    max_retries=0, shard_deadline=3.0)
    # quarantines exactly the injected toxins, with worker-* labels
    kinds = {e.program: e.error_kind for e in learned.run.manifest.entries}
    assert kinds == {
        "000100:toxic_kill.java": WORKER_CRASH,
        "000101:toxic_hang.java": WORKER_TIMEOUT,
    }
    # byte-identical specs on the surviving programs
    assert specs_text(learned) == specs_text(clean)
    ledger = learned.mining.ledger
    assert ledger.n_poisoned == 2
    assert ledger.n_worker_crashes >= 1
    assert ledger.n_worker_timeouts >= 1


# ----------------------------------------------------------------------
# adaptive deadlines


def test_deadline_tracker_warmup_returns_fixed():
    tracker = DeadlineTracker(SupervisionConfig(
        shard_deadline=5.0, adaptive_deadline=True,
        deadline_min_samples=3))
    assert tracker.effective(10) == 5.0
    tracker.observe(0.2, 2)
    tracker.observe(0.3, 3)
    assert tracker.effective(10) == 5.0  # still below min samples


def test_deadline_tracker_scales_p95_by_slack_and_size():
    tracker = DeadlineTracker(SupervisionConfig(
        adaptive_deadline=True, deadline_slack=4.0,
        deadline_min_samples=3))
    for seconds in (0.1, 0.2, 0.3):  # one program each
        tracker.observe(seconds, 1)
    # p95 of [0.1, 0.2, 0.3] lands on the 0.2 sample (index 1 of 2)
    assert tracker.effective(1) == pytest.approx(0.2 * 4.0)
    assert tracker.effective(5) == pytest.approx(0.2 * 4.0 * 5)


def test_deadline_tracker_fixed_flag_is_a_floor():
    tracker = DeadlineTracker(SupervisionConfig(
        shard_deadline=60.0, adaptive_deadline=True,
        deadline_slack=2.0, deadline_min_samples=1))
    tracker.observe(0.01, 1)
    assert tracker.effective(1) == 60.0  # estimate far below the floor


def test_deadline_tracker_disabled_is_inert():
    tracker = DeadlineTracker(SupervisionConfig(
        shard_deadline=7.0, adaptive_deadline=False))
    tracker.observe(100.0, 1)
    assert tracker.samples == []
    assert tracker.effective(50) == 7.0
