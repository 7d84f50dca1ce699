"""Bundle-resident streaming extraction: the residency registry,
worker-affinity scheduling over the persistent pool, extract-phase
chaos, in-run cache pinning, vanished-entry healing, payload
compression, and worker reconnect."""

import base64
import multiprocessing
import os
import pickle
import socket
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.corpus import CorpusConfig, CorpusGenerator, java_registry
from repro.dist import Coordinator, DistConfig
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    pack_payload,
    recv_frame,
    send_frame,
    unpack_payload,
)
from repro.dist.worker import run_worker
from repro.mining import MiningConfig, MiningEngine
from repro.mining.cache import (
    AnalysisCache,
    BUNDLE_SUFFIX,
    CacheEntryVanished,
    pipeline_fingerprint,
)
from repro.ir import ProgramBuilder
from repro.mining.engine import (
    ExtractTask,
    _analyze_shard,
    _extract_shard,
    _extract_tag,
)
from repro.mining.residency import (
    BundleResidency,
    pack_bundle,
    process_residency,
    residency_group,
    unpack_bundle,
)
from repro.mining.supervisor import ShardSupervisor, SupervisionConfig
from repro.runtime import Budget, ChaosPlan, ChaosSpec, RuntimeConfig
from repro.runtime.checkpoint import program_key
from repro.runtime.errors import BudgetExceeded
from repro.runtime.faults import CorruptResult
from repro.specs.pipeline import PipelineConfig, USpecPipeline
from repro.specs.serialize import specs_to_json


def java_corpus(n=8, seed=7):
    return CorpusGenerator(
        java_registry(), CorpusConfig(n_files=n, seed=seed)).programs()


def learn(programs, *, jobs=1, shards=None, cache_dir=None,
          cache_budget=None, strict=False, chaos=None, max_retries=2,
          resident=True):
    config = PipelineConfig(runtime=RuntimeConfig(strict=strict))
    supervision = SupervisionConfig(
        max_retries=max_retries,
        backoff_base=0.01,  # keep test wall-clock down
        chaos=ChaosPlan(tuple(chaos)) if chaos else None,
    )
    mining = MiningConfig(
        jobs=jobs, shards=shards,
        cache_dir=str(cache_dir) if cache_dir else None,
        cache_budget=cache_budget, supervision=supervision,
        resident=resident,
    )
    return MiningEngine(config, mining).learn(programs)


def specs_text(learned):
    return specs_to_json(learned.specs, learned.scores)


def manifest_text(learned):
    return learned.run.manifest.to_json(timings=False)


# ----------------------------------------------------------------------
# the residency registry


def test_bundle_residency_publish_get_discard():
    registry = BundleResidency(max_bundles=8)
    registry.publish("g1", "a", "bundle-a")
    registry.publish("g1", "b", "bundle-b")
    registry.publish("g2", "a", "other-a")  # same key, other group
    assert len(registry) == 3
    assert registry.get("g1", "a") == "bundle-a"
    assert registry.get("g2", "a") == "other-a"
    assert registry.get("g1", "missing") is None
    assert registry.get("nope", "a") is None
    assert registry.groups() == ["g1", "g2"]  # sorted, deduplicated
    registry.discard("g1", ["a"])  # selective discard
    assert registry.get("g1", "a") is None
    assert registry.get("g1", "b") == "bundle-b"
    registry.discard("g2")  # whole-group discard
    assert registry.get("g2", "a") is None
    assert registry.groups() == ["g1"]
    registry.clear()
    assert len(registry) == 0 and registry.groups() == []


def test_bundle_residency_republish_is_idempotent():
    registry = BundleResidency(max_bundles=4)
    registry.publish("g", "k", "v1")
    registry.publish("g", "k", "v2")  # refresh, not a second slot
    assert len(registry) == 1
    assert registry.get("g", "k") == "v2"


def test_bundle_residency_capacity_drops_oldest():
    registry = BundleResidency(max_bundles=2)
    registry.publish("g", "k0", "v0")
    registry.publish("g", "k1", "v1")
    registry.publish("g", "k2", "v2")  # evicts k0 (FIFO)
    assert len(registry) == 2
    assert registry.get("g", "k0") is None
    assert registry.get("g", "k1") == "v1"
    assert registry.get("g", "k2") == "v2"
    assert registry.n_dropped == 1


def test_residency_group_is_stable_per_run_and_shard():
    fingerprint = "f" * 64
    assert residency_group(fingerprint, 3) == residency_group(
        fingerprint, 3)
    assert residency_group(fingerprint, 3) != residency_group(
        fingerprint, 4)
    assert residency_group(fingerprint, 3) != residency_group(
        "e" * 64, 3)


def test_pack_bundle_roundtrip_and_type_check():
    bundle = USpecPipeline().analyze_corpus(java_corpus(2))[0]
    restored = unpack_bundle(pack_bundle(bundle))
    assert type(restored) is type(bundle)
    assert restored.program.source == bundle.program.source
    assert len(restored.graph.events) == len(bundle.graph.events)
    with pytest.raises(TypeError):
        unpack_bundle(zlib.compress(pickle.dumps({"not": "a bundle"})))


def extraction_text(extraction):
    return [(str(spec), extraction.gamma(spec))
            for spec in extraction.candidates()]


def test_stale_resident_bundle_never_answers_for_new_content(tmp_path):
    """A daemon that outlived its run still holds an old program's
    bundle in the same group, under the same ``index:source`` program
    key as a new run's program with different content: the new ref
    must resolve to its own content, never to the stale bundle."""
    config = PipelineConfig()
    fingerprint = pipeline_fingerprint(config)
    (old,) = java_corpus(1, seed=7)
    (new,) = java_corpus(1, seed=9)
    key = program_key(new, 0)
    assert program_key(old, 0) == key
    cache_dir = str(tmp_path / "cache")
    daemon = BundleResidency(max_bundles=None)
    _analyze_shard(config, 0, [(0, key, old)], cache_dir, fingerprint,
                   residency=daemon)
    assert len(daemon) == 1  # the earlier run never extracted it
    partial = _analyze_shard(config, 0, [(0, key, new)], cache_dir,
                             fingerprint)
    model = USpecPipeline(config).learn([new]).model
    refs = partial.bundle_refs
    _, _, from_cache = _extract_shard(
        config, 0, refs, model, cache_dir, fingerprint)
    _, _, from_daemon = _extract_shard(
        config, 0, refs, model, cache_dir, fingerprint, residency=daemon)
    assert extraction_text(from_daemon) == extraction_text(from_cache)


def test_inline_run_extracts_resident_and_leaves_no_bundles():
    programs = java_corpus(6)
    learned = learn(programs)
    report = learned.mining
    assert not report.supervised and report.ledger is None
    # every bundle came from this process's memory: nothing vanished,
    # was re-analysed or shipped
    assert report.n_cache_repairs == 0
    assert report.n_bundles_shipped == 0
    assert learned.run.bundles == []
    assert len(process_residency()) == 0


def test_only_worker_entry_points_bound_the_process_registry():
    # an inline run with no cache cannot reload a dropped bundle, so a
    # fresh process's registry is unbounded until a worker loop (pool
    # worker or uspec worker) bounds it; checked in a fresh interpreter
    # because thread-hosted workers in this one bound the shared one
    probe = ("from repro.mining.residency import process_residency;"
             "print(process_residency().max_bundles)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "None"


def chain_program(chain=3000, name="chain.java"):
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


def test_strict_inline_failure_leaves_caller_registry_empty():
    # the healthy programs publish their bundles before the chain blows
    # the budget; the aborted run must not leave them behind
    programs = java_corpus(4) + [chain_program()]
    runtime = RuntimeConfig(
        strict=True, budget=Budget(max_solver_iterations=500))
    engine = MiningEngine(PipelineConfig(runtime=runtime), MiningConfig())
    with pytest.raises(BudgetExceeded):
        engine.learn(programs)
    assert len(process_residency()) == 0


# ----------------------------------------------------------------------
# extract tags and the vanished-entry exception


def test_extract_tag_empty_fragments_do_not_collide():
    assert _extract_tag(3, [("000001:a.java", "cafe")], ()) \
        == "000001:a.java"
    root = _extract_tag(3, [], ())
    left = _extract_tag(3, [], (0,))
    right = _extract_tag(3, [], (1,))
    deep = _extract_tag(3, [], (1, 0))
    assert len({root, left, right, deep}) == 4  # the old "" collided
    assert _extract_tag(4, [], (0,)) != left  # distinct across shards
    # synthetic tags sort before every real program key
    assert all(tag < "000000:" for tag in (root, left, right, deep))


def test_cache_entry_vanished_survives_the_result_pipe():
    err = CacheEntryVanished(
        [("000001:a.java", "cafe"), ("000002:b.java", "")], "/tmp/c")
    restored = pickle.loads(pickle.dumps(err))
    assert isinstance(restored, CacheEntryVanished)
    assert restored.refs == err.refs
    assert restored.cache_dir == "/tmp/c"
    assert "000001:a.java" in str(restored)
    assert "entries" in str(restored)  # plural for two refs
    single = CacheEntryVanished([("k", "c")], None)
    assert "entry " in str(single)


# ----------------------------------------------------------------------
# cache pinning


def _seed_entry(directory, cache_key, size, mtime):
    path = Path(directory) / f"{cache_key}{BUNDLE_SUFFIX}"
    path.write_bytes(b"x" * size)
    os.utime(path, (mtime, mtime))
    return path


def test_evict_to_budget_skips_pinned_entries(tmp_path):
    cache = AnalysisCache(tmp_path, "fp")
    old = _seed_entry(tmp_path, "aaaa", 100, 1_000.0)
    new = _seed_entry(tmp_path, "bbbb", 100, 2_000.0)
    cache.pin(["aaaa"])
    # the oldest entry is pinned, so only the newer one can go
    assert cache.evict_to_budget(0) == 1
    assert old.exists() and not new.exists()
    # the pinned survivor is untouchable even with the budget blown
    assert cache.evict_to_budget(0) == 0
    assert old.exists()
    # ...whether pinned on the instance or via the argument
    other = AnalysisCache(tmp_path, "fp")
    assert other.evict_to_budget(0, pinned=frozenset({"aaaa"})) == 0
    cache.unpin()
    assert cache.evict_to_budget(0) == 1
    assert not old.exists()


def test_unpin_releases_selected_keys(tmp_path):
    cache = AnalysisCache(tmp_path, "fp")
    a = _seed_entry(tmp_path, "aaaa", 10, 1_000.0)
    b = _seed_entry(tmp_path, "bbbb", 10, 2_000.0)
    cache.pin(["aaaa", "bbbb"])
    cache.unpin(["aaaa"])
    assert cache.evict_to_budget(0) == 1
    assert not a.exists() and b.exists()


# ----------------------------------------------------------------------
# phase-scoped chaos


def test_chaos_spec_parse_accepts_phase_forms():
    assert ChaosSpec.parse("kill:prog") == ChaosSpec("prog", "kill")
    assert ChaosSpec.parse("kill:prog:1") == ChaosSpec(
        "prog", "kill", until_attempt=1)
    assert ChaosSpec.parse("hang:prog:extract") == ChaosSpec(
        "prog", "hang", phase="extract")
    assert ChaosSpec.parse("kill:prog:2:extract") == ChaosSpec(
        "prog", "kill", until_attempt=2, phase="extract")
    assert ChaosSpec.parse("kill:prog::extract") == ChaosSpec(
        "prog", "kill", phase="extract")
    with pytest.raises(ValueError):
        ChaosSpec.parse("kill:prog:banana")  # neither int nor phase
    with pytest.raises(ValueError):
        ChaosSpec.parse("kill:prog:1:extract:why")


def test_chaos_probe_is_phase_scoped():
    plan = ChaosPlan((ChaosSpec("prog", "corrupt", phase="extract"),))
    assert plan.probe(0, phase="analyze") is None  # no analyze specs
    probe = plan.probe(0, phase="extract")
    assert probe is not None
    with pytest.raises(CorruptResult):
        probe("000001:prog.java")
    probe("000001:other.java")  # non-matching key is untouched
    spec = ChaosSpec("prog", "kill")  # defaults to the analyze phase
    assert spec.matches("000001:prog.java", 0)
    assert not spec.matches("000001:prog.java", 0, phase="extract")


# ----------------------------------------------------------------------
# the persistent pool


def _echo_pid(payload, attempt):
    return ("pid", os.getpid())


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork")
def test_worker_pool_persists_across_phases():
    ctx = multiprocessing.get_context("fork")
    supervisor = ShardSupervisor(
        ctx, 2, SupervisionConfig(backoff_base=0.01))
    kwargs = dict(
        runner=_echo_pid,
        splitter=lambda payload: None,
        poisoner=lambda payload, kind, error: ("pid", -1),
        validator=lambda result: (
            isinstance(result, tuple) and result[0] == "pid"),
    )
    try:
        tasks = [(0, "shard-0"), (1, "shard-1")]
        first = supervisor.run_phase("analyze", tasks, **kwargs)
        second = supervisor.run_phase("extract", tasks, **kwargs)
        pids_first = {pid for _, pid in first}
        pids_second = {pid for _, pid in second}
        assert len(pids_first) == 2  # both workers served a task
        # the same processes crossed the phase barrier — no respawn
        assert pids_first == pids_second
        processes = [w.process for w in supervisor._workers]
        assert all(p.is_alive() for p in processes)
    finally:
        supervisor.close()
    assert supervisor._workers == []
    assert all(not p.is_alive() for p in processes)


# ----------------------------------------------------------------------
# resident extraction end to end


def test_resident_extraction_is_byte_identical_and_hits_affinity():
    programs = java_corpus()
    clean = learn(programs)
    warm = learn(programs, jobs=2)
    assert specs_text(warm) == specs_text(clean)
    assert manifest_text(warm) == manifest_text(clean)
    report = warm.mining
    assert report.supervised and report.resident
    # every analyze owner was alive and idle at the extract barrier,
    # so at least its first extract task was served from memory
    assert report.n_affinity_hits > 0
    data = report.to_dict()
    assert data["resident"] is True
    assert data["n_affinity_hits"] == report.n_affinity_hits
    assert data["affinity_hit_rate"] == pytest.approx(
        report.affinity_hit_rate)


def test_no_residency_flag_preserves_byte_identity():
    programs = java_corpus()
    warm = learn(programs, jobs=2)
    cold = learn(programs, jobs=2, resident=False)
    assert specs_text(cold) == specs_text(warm)
    assert manifest_text(cold) == manifest_text(warm)
    assert cold.mining.resident is False
    assert cold.mining.to_dict()["resident"] is False


def test_extract_phase_kill_is_retried_and_specs_match_clean():
    programs = java_corpus()
    clean = learn(programs)
    chaos = [ChaosSpec("corpus_00003", "kill", until_attempt=1,
                       phase="extract")]
    learned = learn(programs, jobs=2, chaos=chaos)
    assert specs_text(learned) == specs_text(clean)
    assert manifest_text(learned) == manifest_text(clean)
    ledger = learned.mining.ledger
    assert ledger.n_worker_crashes >= 1
    assert ledger.n_poisoned == 0
    assert learned.mining.n_quarantined == 0
    # the crash happened in the extract phase, not analyze
    extract_tasks = [t for t in ledger.tasks if t.phase == "extract"]
    assert any(a.outcome == "crash"
               for t in extract_tasks for a in t.attempts)
    # the respawned worker has an empty residency: the retried task's
    # affinity points at a dead label, so it reloads from the cache
    assert learned.mining.n_affinity_misses >= 1


def test_budget_starved_resident_run_completes(tmp_path):
    programs = java_corpus()
    clean = learn(programs)
    starved = learn(programs, jobs=2, cache_dir=tmp_path / "cache",
                    cache_budget=1)
    assert specs_text(starved) == specs_text(clean)
    assert manifest_text(starved) == manifest_text(clean)
    # the final (unpinned) sweep still enforces the budget
    assert starved.mining.n_evicted > 0
    assert starved.mining.n_quarantined == 0


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork")
def test_vanished_cache_entries_are_healed_by_reanalysis(monkeypatch):
    programs = java_corpus(6)
    clean = learn(programs)
    # forked pool workers inherit the patch: every cache read misses,
    # as if the eviction raced the extract phase on every entry (both
    # read entry points — the worker's bundle load and the healer's
    # raw-bytes shipment — must miss for re-analysis to kick in)
    monkeypatch.setattr(
        AnalysisCache, "load_bundle_by_key", lambda self, key: None)
    monkeypatch.setattr(
        AnalysisCache, "load_bundle_payload", lambda self, key: None)
    learned = learn(programs, jobs=2, resident=False)
    assert specs_text(learned) == specs_text(clean)
    assert manifest_text(learned) == manifest_text(clean)
    report = learned.mining
    # the healer re-analysed every program in the parent and shipped
    # the rebuilt bundles on the retried payloads
    assert report.n_cache_repairs == len(programs)
    assert report.n_bundles_shipped == 0
    assert report.ledger.n_poisoned == 0
    # healing consumed no retry budget: the error attempts are on the
    # ledger, but no task was bisected or quarantined
    assert report.ledger.n_bisections == 0
    assert any(a.outcome == "error"
               for t in report.ledger.tasks for a in t.attempts)


def test_healer_repairs_and_refuses_bounded(tmp_path):
    programs = java_corpus(3)
    config = PipelineConfig()
    engine = MiningEngine(config, MiningConfig())
    fingerprint = pipeline_fingerprint(config)
    units = {program_key(p, i): p
             for i, p in enumerate(programs)}
    counts = {"repaired": 0, "shipped": 0}
    heal = engine._heal_extract(
        str(tmp_path), fingerprint, units, counts)
    key = sorted(units)[0]
    payload = ExtractTask(
        config=config, cache_dir=str(tmp_path),
        fingerprint=fingerprint, shard_id=0,
        refs=((key, "deadbeef"),), model=None)
    err = CacheEntryVanished([(key, "deadbeef")], str(tmp_path))
    repaired = heal(payload, err)
    assert repaired is not None
    assert counts == {"repaired": 1, "shipped": 0}
    shipped = dict(repaired.shipped)
    assert set(shipped) == {key}
    bundle = unpack_bundle(shipped[key])
    assert bundle.program.source == units[key].source
    # a second vanish of an already-shipped key is not healable —
    # this bounds the heal loop
    assert heal(repaired, err) is None
    # unknown program keys and unrelated failures are not healable
    ghost = CacheEntryVanished([("999999:ghost.java", "")], None)
    assert heal(payload, ghost) is None
    assert heal(payload, RuntimeError("boom")) is None


# ----------------------------------------------------------------------
# payload compression (dist protocol v2)


def test_payload_compression_markers_roundtrip():
    small = {"kind": "control"}
    text = pack_payload(small)
    assert base64.b64decode(text)[:1] == b"\x00"  # below threshold
    assert unpack_payload(text) == small
    big = {"blob": "spec " * 4096}
    text = pack_payload(big)
    body = base64.b64decode(text)
    assert body[:1] == b"\x01"
    assert len(body) < len(pickle.dumps(big))  # actually compressed
    assert unpack_payload(text) == big
    forced = pack_payload(big, compress=False)
    assert base64.b64decode(forced)[:1] == b"\x00"
    assert unpack_payload(forced) == big


def test_unpack_payload_rejects_garbage():
    with pytest.raises(ProtocolError):
        unpack_payload(base64.b64encode(b"").decode("ascii"))
    with pytest.raises(ProtocolError):
        unpack_payload(base64.b64encode(b"\x07junk").decode("ascii"))
    with pytest.raises(ProtocolError):
        unpack_payload(base64.b64encode(b"\x01not-zlib").decode("ascii"))


# ----------------------------------------------------------------------
# worker reconnect and residency advertisement


def _coordinator_stub(listener, sessions, ready_frames):
    """Accept ``sessions`` worker sessions; welcome each, record its
    first ready frame, then drop all but the last, which is shut down
    cleanly."""
    for index in range(sessions):
        conn, _ = listener.accept()
        decoder, pending = FrameDecoder(), []
        try:
            hello = recv_frame(conn, decoder, pending)
            assert hello and hello["type"] == "hello"
            send_frame(conn, {
                "type": "welcome", "version": PROTOCOL_VERSION,
                "lease": 5.0,
            })
            ready = recv_frame(conn, decoder, pending)
            ready_frames.append(ready)
            if index + 1 < sessions:
                continue  # drop: the finally closes the socket
            send_frame(conn, {"type": "shutdown"})
            recv_frame(conn, decoder, pending)  # goodbye
        finally:
            conn.close()


def _stub_listener():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    return listener, listener.getsockname()


def test_worker_reconnects_after_coordinator_hangup():
    listener, (host, port) = _stub_listener()
    ready_frames = []
    server = threading.Thread(
        target=_coordinator_stub, args=(listener, 2, ready_frames),
        daemon=True)
    server.start()
    try:
        done = run_worker(host, port, name="rw", reconnect=True,
                          retry_delay=0.0, sleep=lambda s: None)
    finally:
        server.join(timeout=10)
        listener.close()
    assert done == 0
    assert len(ready_frames) == 2  # one registration per session


def test_worker_without_reconnect_stops_on_hangup():
    listener, (host, port) = _stub_listener()
    ready_frames = []
    server = threading.Thread(
        target=_coordinator_stub, args=(listener, 1, ready_frames),
        daemon=True)
    server.start()
    try:
        done = run_worker(host, port, name="rw", sleep=lambda s: None)
    finally:
        server.join(timeout=10)
        listener.close()
    assert done == 0
    assert len(ready_frames) == 1


def test_worker_reconnect_budget_is_finite():
    listener, (host, port) = _stub_listener()
    listener.close()  # nothing listens: every connect fails
    with pytest.raises(ConnectionError):
        run_worker(host, port, reconnect=True, connect_retries=1,
                   retry_delay=0.0, reconnect_rounds=2,
                   sleep=lambda s: None)


def test_worker_reconnect_does_not_mask_protocol_errors():
    listener, (host, port) = _stub_listener()

    def reject():
        conn, _ = listener.accept()
        decoder, pending = FrameDecoder(), []
        recv_frame(conn, decoder, pending)
        send_frame(conn, {"type": "error",
                          "error": "version mismatch"})
        conn.close()

    server = threading.Thread(target=reject, daemon=True)
    server.start()
    try:
        with pytest.raises(ProtocolError):
            run_worker(host, port, reconnect=True,
                       sleep=lambda s: None)
    finally:
        server.join(timeout=10)
        listener.close()


def test_ready_frames_advertise_resident_groups():
    registry = process_residency()
    registry.clear()
    group = residency_group("f" * 64, 7)
    registry.publish(group, "000001:a.java", "sentinel")
    listener, (host, port) = _stub_listener()
    ready_frames = []
    server = threading.Thread(
        target=_coordinator_stub, args=(listener, 1, ready_frames),
        daemon=True)
    server.start()
    try:
        run_worker(host, port, name="rw", sleep=lambda s: None)
    finally:
        server.join(timeout=10)
        listener.close()
        registry.clear()
    assert ready_frames[0].get("resident") == [group]


# ----------------------------------------------------------------------
# distributed residency


def test_distributed_resident_extraction_matches_local():
    programs = java_corpus(12)
    local = learn(programs, jobs=2)
    coordinator = Coordinator(DistConfig(
        min_workers=2, lease_seconds=10.0, no_worker_timeout=60.0))
    host, port = coordinator.bind()
    workers = [
        threading.Thread(
            target=run_worker, args=(host, port),
            kwargs={"name": f"w{i}", "connect_retries": 60},
            daemon=True)
        for i in range(2)
    ]
    for worker in workers:
        worker.start()
    try:
        config = PipelineConfig(runtime=RuntimeConfig())
        mining = MiningConfig(
            jobs=2,
            supervision=SupervisionConfig(backoff_base=0.01))
        dist = MiningEngine(config, mining, coordinator).learn(programs)
    finally:
        coordinator.close()
        for worker in workers:
            worker.join(timeout=10)
    assert specs_text(dist) == specs_text(local)
    assert manifest_text(dist) == manifest_text(local)
    assert dist.mining.distributed and dist.mining.resident
    # thread workers share one process registry, so every advertised
    # ready frame carries every analysed group: extraction always
    # lands on a worker that holds the bundles
    assert dist.mining.n_affinity_hits > 0


# ----------------------------------------------------------------------
# CLI


def test_cli_no_residency_flag_and_report_line(tmp_path, capsys):
    warm = tmp_path / "warm.json"
    cold = tmp_path / "cold.json"
    assert main(["learn", "--files", "8", "--jobs", "2",
                 "--out", str(warm)]) == 0
    out = capsys.readouterr().out
    assert "bundle residency" in out
    assert main(["learn", "--files", "8", "--jobs", "2",
                 "--no-residency", "--out", str(cold)]) == 0
    out = capsys.readouterr().out
    assert "bundle residency" not in out
    assert warm.read_bytes() == cold.read_bytes()


def test_cli_budget_starved_streaming_run_matches_clean(tmp_path,
                                                        capsys):
    clean = tmp_path / "clean.json"
    starved = tmp_path / "starved.json"
    assert main(["learn", "--files", "8",
                 "--out", str(clean)]) == 0
    capsys.readouterr()
    code = main([
        "learn", "--files", "8", "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"), "--cache-budget", "1",
        "--out", str(starved),
    ])
    assert code == 0
    assert "evicted" in capsys.readouterr().out
    assert clean.read_bytes() == starved.read_bytes()
