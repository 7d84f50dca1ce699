"""The sharded parallel mining engine.

Splits :meth:`~repro.specs.pipeline.USpecPipeline.learn` into explicit
map/reduce phases over deterministic corpus shards
(:mod:`repro.mining.sharding`):

1. **map: analyse** — each shard independently runs corpus analysis
   under the :mod:`repro.runtime` failure discipline, consulting the
   incremental :class:`~repro.mining.cache.AnalysisCache` first, and
   produces a :class:`~repro.mining.partial.ShardPartial`;
2. **reduce: train** — partials fold through ``ShardPartial.merge``
   into one canonical set of sufficient statistics; the model trains
   over their key-sorted, seed-shuffled sample stream;
3. **map: extract** — each shard re-loads its analysed bundles (from
   the residency registry of the process that analysed them, else from
   the cache) and runs Alg. 1 candidate extraction against the
   broadcast model;
4. **finalize** — extractions merge, candidates are scored and the τ
   threshold selects the specification set.

Determinism guarantee: because per-program work depends only on the
program identity and the corpus seed, and every merge is canonicalised
by program key, the final specifications and quarantine manifest are
**byte-identical for any worker count, shard count and completion
order**.  ``--jobs 4`` is a wall-clock knob, never a results knob.

Both map phases are one ``run_phase`` call on the run's dispatcher,
whatever the topology: ``--jobs 1`` runs the same phase tasks in the
calling process (:class:`~repro.mining.supervisor.InlineDispatcher`),
a distributed run hands them to a bound coordinator, and parallel or
supervised runs dispatch them through the
:class:`~repro.mining.supervisor.ShardSupervisor`: every task attempt
runs in its own worker process under a wall-clock deadline, dead or
hung workers trigger bounded retries with exponential backoff, and a
shard that keeps killing workers is bisected until the toxic program
is isolated and quarantined with a ``worker-*`` taxonomy label.
Bundles stay **resident** in the worker that analysed them
(:mod:`repro.mining.residency`): workers persist across the
analyse→extract barrier and each shard's extract task is routed back
to its analysing worker, so the hot path re-unpickles nothing.  The
cache directory — a temp spill dir if the user did not name one —
remains the durable copy and the fallback whenever affinity misses
(owner died, bisection, speculation), so the only pickles crossing
process boundaries are compact partials, the sparse model, and
healer-shipped bundles after a vanished cache entry.  ``strict=True``
aborts propagate out of the workers with their type intact (exit
codes 3/4 survive parallelism and supervision).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import shutil
import tempfile
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.ir.program import Program
from repro.model.dataset import GraphBundle, bundle_seed, collect_bundle_samples
from repro.model.features import FeatureConfig, encode_sample
from repro.model.logistic import (
    LogisticRegression,
    SparseExample,
    SufficientStats,
    TrainConfig,
)
from repro.model.model import (
    EventPairModel,
    PositionKey,
    member_configs,
    train_members,
)
from repro.runtime.checkpoint import atomic_write_bytes, program_key
from repro.runtime.errors import WorkerCrash
from repro.runtime.executor import (
    CorpusExecutor,
    CorpusRunReport,
    ProgramOutcome,
)
from repro.runtime.faults import ChaosPlan
from repro.runtime.manifest import QuarantineEntry, TierAttempt
from repro.specs.candidates import CandidateExtraction, extract_candidates
from repro.specs.pipeline import (
    LearnedSpecs,
    PipelineConfig,
    USpecPipeline,
)
from repro.mining.cache import (
    AnalysisCache,
    CacheEntryVanished,
    pipeline_fingerprint,
    program_fingerprint,
)
from repro.mining.partial import MiningReport, ShardPartial
from repro.store.stats import SpecDrift, StatsStore, StoredProgram
from repro.mining.residency import (
    BundleResidency,
    pack_bundle,
    process_residency,
    residency_group,
    slot_key,
    unpack_shipment,
)
from repro.mining.sharding import ShardPlan
from repro.mining.supervisor import (
    FailureLedger,
    InlineDispatcher,
    ShardSupervisor,
    SupervisionConfig,
)

if TYPE_CHECKING:  # engine → dist would close an import cycle at
    # runtime (repro.dist.coordinator imports repro.mining.supervisor),
    # so the coordinator is injected, never constructed here
    from repro.dist.coordinator import Coordinator

#: default shards per worker; several shards per job keeps the pool
#: busy when shard sizes are skewed, at negligible merge cost
SHARDS_PER_JOB = 4

#: outcome tier label for cache-satisfied programs
TIER_CACHE = "cache"

#: outcome tier label for programs satisfied from the statistics store
#: (``--append``: stats from the journal, bundle still in the cache)
TIER_STORE = "store"

#: attempt tier label for supervisor-level quarantines (the program
#: never reached the analysis ladder — it killed the worker instead)
TIER_SUPERVISED = "supervised"

#: one corpus unit: (global index, program key, program)
Unit = Tuple[int, str, Program]


@dataclass(frozen=True)
class MiningConfig:
    """Parallelism, caching and supervision policy of one mining run."""

    #: worker processes; 1 = run in-process with no pool (unless
    #: supervision — chaos or a shard deadline — forces one worker)
    jobs: int = 1
    #: shard count; None = 1 for sequential runs, jobs×4 for parallel
    shards: Optional[int] = None
    #: incremental analysis cache directory; None = no cache for
    #: sequential runs, a private temp spill dir for supervised runs
    cache_dir: Optional[str] = None
    #: cache size budget in bytes; LRU-by-mtime eviction runs after the
    #: extract phase (None = unbounded, the pre-PR-3 behaviour)
    cache_budget: Optional[int] = None
    #: multiprocessing start method; None = fork if available
    mp_context: Optional[str] = None
    #: watchdog / retry / bisection / chaos policy
    supervision: SupervisionConfig = field(
        default_factory=SupervisionConfig
    )
    #: run the training reduce in the worker pool: one task per
    #: position-key ensemble plus the shared fallback, specs
    #: byte-identical to the sequential reduce
    parallel_train: bool = False
    #: keep analysed bundles resident in the worker that produced them
    #: and route each shard's extract task back to that worker; False
    #: forces every pool or cluster extract onto the cache-reload path
    #: (a debugging and benchmarking knob — results are byte-identical
    #: either way; an in-process run always keeps its bundles resident)
    resident: bool = True
    #: durable statistics store directory (repro.store.StatsStore);
    #: None = no persistence.  When set and no --cache-dir was named,
    #: the analysis cache co-locates under the store.
    store_dir: Optional[str] = None
    #: incremental mode: programs whose fingerprint is already in the
    #: store (with a live cache bundle) skip analysis — their persisted
    #: statistics fold straight into the merge
    append: bool = False

    def resolve_jobs(self) -> int:
        return max(1, self.jobs)

    def resolve_shards(
        self, n_units: int, workers: Optional[int] = None
    ) -> int:
        """Default shard count; ``workers`` (a distributed run's
        registered worker count) widens the default the same way
        ``--jobs`` does locally."""
        jobs = max(self.resolve_jobs(), workers or 0)
        n = self.shards if self.shards is not None \
            else (1 if jobs == 1 else SHARDS_PER_JOB * jobs)
        return max(1, min(n, max(1, n_units)))

    def resolve_context(self) -> multiprocessing.context.BaseContext:
        method = self.mp_context
        if method is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else methods[0]
        return multiprocessing.get_context(method)

    @property
    def supervised(self) -> bool:
        """Whether shard tasks run in supervised worker processes."""
        return (self.resolve_jobs() > 1
                or self.supervision.wants_supervision
                or self.parallel_train)


# ----------------------------------------------------------------------
# shard work (module-level so everything pickles under any start method)


@dataclass(frozen=True)
class AnalyzeTask:
    """One analyse-phase payload; self-contained and picklable."""

    config: PipelineConfig
    cache_dir: Optional[str]
    fingerprint: str
    shard_id: int
    items: Tuple[Unit, ...]
    #: process-level fault injection; rides on the payload (not the
    #: pipeline config) so it can never perturb the cache fingerprint
    chaos: Optional[ChaosPlan] = None
    #: publish analysed bundles into the worker's residency registry
    resident: bool = False
    #: the cache dir is a run-private spill that dies with the run —
    #: skip warm-run accelerators (sample sidecars) nothing will read
    ephemeral: bool = False


@dataclass(frozen=True)
class ExtractTask:
    """One extract-phase payload; self-contained and picklable."""

    config: PipelineConfig
    cache_dir: Optional[str]
    fingerprint: str
    shard_id: int
    refs: Tuple[Tuple[str, Optional[str]], ...]
    #: the broadcast model, inline (distributed runs) — or None with
    #: ``model_ref`` set (local runs), so N shard tasks do not ship N
    #: copies of the same multi-megabyte pickle through the pipes
    model: Optional[EventPairModel]
    #: ``(path, digest)`` of the model pickle written once to the cache
    #: dir; workers memoise the loaded model per digest
    model_ref: Optional[Tuple[str, str]] = None
    #: label of the worker whose residency holds this shard's bundles
    #: (a scheduling hint — any worker can run the task via the cache)
    affinity: Optional[str] = None
    #: bisection lineage of this ref slice within its shard (root = ());
    #: tags empty-ref results uniquely in the sorted-ref merge
    fragment: Tuple[int, ...] = ()
    #: packed bundles attached by the healer after a vanished-entry
    #: failure; sorted ``(key, pack_bundle(...))`` pairs
    shipped: Tuple[Tuple[str, bytes], ...] = ()
    #: consult the worker's residency registry before the cache
    resident: bool = False
    chaos: Optional[ChaosPlan] = None


def _analyze_shard(
    config: PipelineConfig,
    shard_id: int,
    items: Sequence[Unit],
    cache_dir: Optional[str],
    fingerprint: str,
    before=None,
    residency: Optional[BundleResidency] = None,
    ephemeral: bool = False,
) -> ShardPartial:
    """Analyse one shard: cache lookups, then the executor over misses.

    Results are persisted to the cache *per program* (via the executor
    sink), so a run killed mid-shard keeps everything that completed.
    ``before`` is threaded into the executor as its pre-program hook
    (the supervisor's chaos probe).  ``residency`` publishes every
    absorbed bundle — cache hits included, so warm re-runs extract
    from memory too — into this process's registry for the shard's
    extract task, under its :func:`~repro.mining.residency.slot_key`.
    """
    started = time.monotonic()
    cache = AnalysisCache(cache_dir, fingerprint) if cache_dir else None
    partial = ShardPartial.empty(shard_id)
    metrics = partial.metrics[0]
    group = residency_group(fingerprint, shard_id)

    def absorb(index: int, key: str, bundle: GraphBundle,
               cache_key: Optional[str], fp: Optional[str]) -> None:
        samples = collect_bundle_samples(
            bundle,
            config.feature,
            config.max_positives_per_graph,
            config.negative_ratio,
            bundle_seed(config.seed, bundle.program.source, index),
        )
        encoded = [
            encode_sample(s.feature, s.label, config.feature)
            for s in samples
        ]
        partial.stats.add(key, encoded)
        partial.bundle_refs.append((key, cache_key))
        partial.program_meta[key] = (
            len(bundle.graph.events), bundle.graph.edge_count
        )
        metrics.n_samples += len(samples)
        metrics.n_events += len(bundle.graph.events)
        metrics.n_edges += bundle.graph.edge_count
        if (cache is not None and fp is not None and not ephemeral
                and bundle.program.source is not None):
            # sidecar the encoded samples so the next warm run absorbs
            # them without reloading the bundle or re-encoding
            # (source-less programs are skipped: their sample seed is
            # positional, so the sidecar would not survive reordering;
            # ephemeral spill dirs are skipped: there is no next run)
            cache.store_samples(
                fp, encoded, len(bundle.graph.events),
                bundle.graph.edge_count,
            )
        if residency is not None:
            residency.publish(group, slot_key(key, cache_key), bundle)

    pending: List[Tuple[int, str, Program, Optional[str]]] = []
    for index, key, program in items:
        fp = program_fingerprint(program) if cache is not None else None
        if (cache is not None and program.source is not None):
            side = cache.load_samples(fp)
            if side is not None and cache.verify_bundle(fp):
                # fully warm: statistics come straight from the
                # sidecar — no bundle unpickle, no sampling, no
                # feature hashing, no residency publish (the extract
                # phase reads the bundle from its cache entry)
                partial.outcomes.append(ProgramOutcome(
                    key=key, source=program.source, tier=TIER_CACHE,
                    cached=True,
                ))
                partial.stats.add(key, list(side.samples))
                partial.bundle_refs.append((key, cache.key_of(fp)))
                partial.program_meta[key] = (side.n_events, side.n_edges)
                metrics.n_samples += len(side.samples)
                metrics.n_events += side.n_events
                metrics.n_edges += side.n_edges
                metrics.n_sample_hits += 1
                continue
        hit = cache.lookup(fp, key) if cache is not None else None
        if hit is None:
            pending.append((index, key, program, fp))
            continue
        if hit.bundle is not None:
            partial.outcomes.append(ProgramOutcome(
                key=key, source=program.source, tier=TIER_CACHE, cached=True,
            ))
            absorb(index, key, hit.bundle,
                   cache.key_of(fp) if fp is not None else None, fp)
        else:
            partial.outcomes.append(ProgramOutcome(
                key=key, source=program.source, cached=True,
            ))
            partial.manifest.add(hit.entry)

    if pending:
        by_key = {key: (index, fp) for index, key, _, fp in pending}

        def sink(outcome, bundle, entry) -> None:
            index, fp = by_key[outcome.key]
            if bundle is not None:
                cache_key = (cache.store_bundle(fp, bundle)
                             if cache is not None else None)
                absorb(index, outcome.key, bundle, cache_key, fp)
            elif entry is not None and cache is not None:
                cache.store_quarantine(fp, entry)
            partial.analyzed_keys.append(outcome.key)

        executor = CorpusExecutor(
            config.pointsto, config.history, config.runtime
        )
        report = executor.run(
            [program for _, _, program, _ in pending],
            keys=[key for _, key, _, _ in pending],
            sink=sink,
            before=before,
        )
        partial.outcomes.extend(report.outcomes)
        partial.manifest.merge(report.manifest)

    metrics.n_programs = len(items)
    metrics.n_analyzed = len(partial.analyzed_keys)
    metrics.n_cached = partial.n_cached
    metrics.n_quarantined = len(partial.manifest)
    metrics.n_cache_corrupt = cache.n_corrupt if cache is not None else 0
    metrics.seconds = time.monotonic() - started
    return partial


def _extract_tag(
    shard_id: int,
    refs: Sequence[Tuple[str, Optional[str]]],
    fragment: Tuple[int, ...],
) -> str:
    """The merge-order tag of one extract result.

    Normally the first ref key; an empty-ref fragment gets a synthetic
    tag derived from its bisection lineage instead of the old shared
    ``""`` — several empty fragments of one shard must not collide in
    the sorted-ref merge (``\\x00`` sorts before every real key, so the
    canonical order of non-empty results is untouched).
    """
    if refs:
        return refs[0][0]
    # the unbisected root keeps an empty lineage — "0" would collide
    # with the first child fragment (0,)
    lineage = ".".join(str(i) for i in fragment)
    return f"\x00empty/{shard_id}/{lineage}"


def _extract_shard(
    config: PipelineConfig,
    shard_id: int,
    refs: Sequence[Tuple[str, Optional[str]]],
    model: EventPairModel,
    cache_dir: Optional[str],
    fingerprint: str,
    residency: Optional[BundleResidency] = None,
    shipped: Optional[Dict[str, GraphBundle]] = None,
    fragment: Tuple[int, ...] = (),
    before=None,
) -> Tuple[int, str, CandidateExtraction]:
    """Run Alg. 1 over one shard's analysed bundles.

    Bundle resolution order per ref: healer-shipped bundles attached
    to the payload, this process's residency registry (looked up by
    content address, so a stale bundle can never answer), then the
    cache.  A ref that resolves nowhere is collected (the rest of the
    refs are still scanned so one repair round restores everything)
    and raised as :class:`~repro.mining.cache.CacheEntryVanished` for
    the dispatcher's healer.  All three sources yield
    pickle-round-trip-identical bundles, so the extraction is
    byte-identical however each ref resolved.

    The return value is tagged ``(shard_id, tag, extraction)`` so the
    engine can merge extractions in the canonical sorted-ref order
    even when supervision bisected a shard's refs into several
    results.  ``before`` (the extract-phase chaos probe) fires per ref
    before its bundle is resolved.
    """
    cache = AnalysisCache(cache_dir, fingerprint) if cache_dir else None
    group = residency_group(fingerprint, shard_id)
    extraction = CandidateExtraction()
    missing: List[Tuple[str, str]] = []
    for key, cache_key in refs:
        if before is not None:
            before(key)
        bundle = shipped.get(key) if shipped is not None else None
        if bundle is None and residency is not None:
            bundle = residency.get(group, slot_key(key, cache_key))
        if bundle is None and cache is not None and cache_key is not None:
            bundle = cache.load_bundle_by_key(cache_key)
        if bundle is None:
            missing.append((key, cache_key or ""))
            continue
        if missing:
            continue  # result is doomed; just finish the missing scan
        extraction.merge(extract_candidates(
            [bundle], model, config.feature,
            config.max_receiver_distance,
            enable_retrecv=config.enable_retrecv,
        ))
    if missing:
        raise CacheEntryVanished(missing, cache_dir)
    if residency is not None:
        # consumed: a long-lived worker must not accumulate bundles
        residency.discard(
            group, [slot_key(key, cache_key) for key, cache_key in refs]
        )
    return shard_id, _extract_tag(shard_id, refs, fragment), extraction


# ----------------------------------------------------------------------
# phase runners / splitters / validators (module-level: they cross
# the process boundary by pickle under the spawn start method)


def _supervised_analyze(payload: AnalyzeTask, attempt: int) -> ShardPartial:
    before = payload.chaos.probe(attempt) if payload.chaos is not None \
        else None
    return _analyze_shard(
        payload.config, payload.shard_id, payload.items,
        payload.cache_dir, payload.fingerprint, before=before,
        residency=process_residency() if payload.resident else None,
        ephemeral=payload.ephemeral,
    )


class ModelRefVanished(RuntimeError):
    """A worker could not load the broadcast model file.

    Raised by :func:`_resolve_model` when the ``model_ref`` path is
    unreadable or fails its digest check (a concurrent run sharing the
    cache dir replaced it, an eviction raced the read).  Healable: the
    scheduler's healer re-attaches the model inline and requeues.
    """

    def __init__(self, detail: str) -> None:
        self.detail = detail
        super().__init__(detail)

    def __reduce__(self):
        return (type(self), (self.detail,))


#: per-process memo of the broadcast model, keyed by digest; one entry
#: only — a worker serves one run (and so one model) at a time
_MODEL_MEMO: Dict[str, EventPairModel] = {}


def _resolve_model(payload: ExtractTask) -> EventPairModel:
    """The payload's model: inline, memoised, or loaded from its ref."""
    if payload.model is not None:
        return payload.model
    path, digest = payload.model_ref
    model = _MODEL_MEMO.get(digest)
    if model is not None:
        return model
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise ModelRefVanished(f"model broadcast {path}: {err}")
    if hashlib.sha256(raw).hexdigest()[:16] != digest:
        raise ModelRefVanished(f"model broadcast {path}: digest mismatch")
    model = pickle.loads(raw)
    if not isinstance(model, EventPairModel):
        raise ModelRefVanished(f"model broadcast {path}: wrong type")
    _MODEL_MEMO.clear()
    _MODEL_MEMO[digest] = model
    return model


def _supervised_extract(
    payload: ExtractTask, attempt: int
) -> Tuple[int, str, CandidateExtraction]:
    before = (
        payload.chaos.probe(attempt, phase="extract")
        if payload.chaos is not None else None
    )
    return _extract_shard(
        payload.config, payload.shard_id, payload.refs,
        _resolve_model(payload),
        payload.cache_dir, payload.fingerprint,
        residency=process_residency() if payload.resident else None,
        shipped=unpack_shipment(payload.shipped) if payload.shipped
        else None,
        fragment=payload.fragment,
        before=before,
    )


def _split_analyze(payload: AnalyzeTask):
    if len(payload.items) <= 1:
        return None
    mid = len(payload.items) // 2
    return (
        replace(payload, items=payload.items[:mid]),
        replace(payload, items=payload.items[mid:]),
    )


def _split_extract(payload: ExtractTask):
    if len(payload.refs) <= 1:
        return None
    mid = len(payload.refs) // 2
    return (
        replace(payload, refs=payload.refs[:mid],
                fragment=payload.fragment + (0,)),
        replace(payload, refs=payload.refs[mid:],
                fragment=payload.fragment + (1,)),
    )


@dataclass(frozen=True)
class TrainTask:
    """One training-reduce payload: a single ensemble's example stream.

    ``key`` is the position key whose ensemble this task trains, or
    None for the shared fallback (which sees every example).  The
    examples arrive already in canonical stream order, so training is
    float-identical to the sequential reduce.
    """

    feature: FeatureConfig
    train: TrainConfig
    n_members: int
    group_id: int
    key: Optional[PositionKey]
    examples: Tuple[SparseExample, ...]

    @property
    def items(self) -> Tuple[SparseExample, ...]:
        # sized like its example stream so adaptive deadlines scale
        # with the actual work (see TaskScheduler._payload_size)
        return self.examples


def _supervised_train(
    payload: TrainTask, attempt: int
) -> Tuple[int, Optional[PositionKey], List[LogisticRegression]]:
    configs = member_configs(payload.train, payload.n_members)
    members = train_members(
        payload.feature.dim, configs, payload.examples
    )
    return payload.group_id, payload.key, members


def _split_train(payload: TrainTask):
    # an ensemble is atomic: its members must see the full example
    # stream, so a failing train task cannot be bisected
    return None


def _poison_train(payload: TrainTask, label: str, error: str):
    # dropping an ensemble would silently change the learned specs, so
    # an unrecoverable training failure is fatal even outside --strict
    what = "fallback" if payload.key is None else f"key {payload.key}"
    raise WorkerCrash(
        f"training task for {what} failed permanently ({label}): {error}"
    )


def _valid_training(result) -> bool:
    return (
        isinstance(result, tuple) and len(result) == 3
        and isinstance(result[0], int)
        and (result[1] is None or isinstance(result[1], tuple))
        and isinstance(result[2], list) and len(result[2]) > 0
        and all(isinstance(m, LogisticRegression) for m in result[2])
    )


def _valid_partial(result) -> bool:
    return isinstance(result, ShardPartial)


def _valid_extraction(result) -> bool:
    return (
        isinstance(result, tuple) and len(result) == 3
        and isinstance(result[0], int) and isinstance(result[1], str)
        and isinstance(result[2], CandidateExtraction)
    )


# ----------------------------------------------------------------------


class MiningEngine:
    """Shard → map → merge orchestration around :class:`USpecPipeline`."""

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        mining: Optional[MiningConfig] = None,
        coordinator: Optional["Coordinator"] = None,
    ) -> None:
        self.pipeline = USpecPipeline(config)
        self.config = self.pipeline.config
        self.mining = mining or MiningConfig()
        #: a bound repro.dist Coordinator makes the run distributed:
        #: every phase dispatches to its registered workers instead of
        #: local worker processes (injected, not built — see the
        #: import-cycle note above)
        self.coordinator = coordinator

    # ------------------------------------------------------------------

    def learn(self, programs: Sequence[Program]) -> LearnedSpecs:
        """The full pipeline, sharded; same contract as ``Pipeline.learn``.

        Returns a :class:`LearnedSpecs` whose ``mining`` field carries
        the :class:`~repro.mining.partial.MiningReport` (cache hit
        rate, per-shard wall-clock, throughput, failure ledger).  Its
        ``run`` carries outcomes and the manifest but no bundles: they
        live in the analysing process only for the run's duration.
        """
        t0 = time.monotonic()
        jobs = self.mining.resolve_jobs()
        distributed = self.coordinator is not None
        supervised = self.mining.supervised or distributed
        ledger = FailureLedger() if supervised else None
        if distributed:
            self.coordinator.configure(
                self.mining.supervision,
                strict=self.config.runtime.strict,
                ledger=ledger,
            )
            self.coordinator.bind()
            self.coordinator.wait_for_workers(
                self.coordinator.dist.min_workers
            )
            dispatcher = self.coordinator
        elif supervised:
            # coalescing floor: pack small shard tasks until one frame
            # carries ~a worker's fair share of the corpus, so dispatch
            # round trips scale with jobs, not shards.  Chaos runs keep
            # one task per frame — fault injection (and the tests
            # asserting its exact attempt counts) target single tasks.
            batch = 0
            if self.mining.supervision.chaos is None:
                batch = max(1, -(-len(programs) // jobs))
            # the pool never oversubscribes the host: extra CPU-bound
            # workers on a smaller machine only add fork, broadcast and
            # timeshare overhead.  Shard count (and therefore results)
            # still follows --jobs — specs are byte-identical for any
            # worker count by construction.  Chaos runs keep the full
            # pool: fault injection targets the requested worker
            # topology (kill one worker, lose one worker's tasks).
            pool_jobs = max(1, min(jobs, os.cpu_count() or jobs))
            if self.mining.supervision.chaos is not None:
                pool_jobs = jobs
            dispatcher = ShardSupervisor(
                self.mining.resolve_context(), pool_jobs,
                self.mining.supervision,
                strict=self.config.runtime.strict,
                ledger=ledger,
                batch_programs=batch,
            )
        else:
            dispatcher = InlineDispatcher()
        units: List[Unit] = [
            (index, program_key(program, index), program)
            for index, program in enumerate(programs)
        ]
        n_shards = self.mining.resolve_shards(
            len(units),
            workers=self.coordinator.n_workers if distributed else None,
        )
        plan = ShardPlan.of(
            [program.source or key for _, key, program in units], n_shards
        )
        shard_items = [
            (shard_id, [units[i] for i in plan.members(shard_id)])
            for shard_id in range(n_shards)
        ]
        tasks = [(sid, items) for sid, items in shard_items if items]
        unit_sources = {key: program.source for _, key, program in units}
        unit_programs = {key: program for _, key, program in units}

        fingerprint = pipeline_fingerprint(self.config)
        store: Optional[StatsStore] = None
        if self.mining.store_dir:
            store = StatsStore(self.mining.store_dir, fingerprint)
        spill: Optional[str] = None
        cache_dir = self.mining.cache_dir
        if cache_dir is None and store is not None:
            # bundles must outlive the run for --append to skip their
            # re-analysis next time: co-locate the cache with the store
            cache_dir = str(store.cache_dir)
        if cache_dir is None and supervised:
            # supervised bundles must cross process boundaries somewhere;
            # a private spill dir keeps them off the result pipes
            spill = tempfile.mkdtemp(prefix="uspec-mining-spill-")
            cache_dir = spill
        #: residency needs a process that outlives single tasks: the
        #: local pool, remote daemons — or this process, for an
        #: in-process run, which has nowhere else to keep its bundles
        #: when there is no cache (so --no-residency cannot apply)
        resident = bool(self.mining.resident) or not supervised

        chaos = self.mining.supervision.chaos
        n_evicted = 0
        heal_counts = {"repaired": 0, "shipped": 0}
        #: the persistent cache dir budget sweeps may prune (spill dirs
        #: are excluded — they die with the run anyway)
        budget_dir = self.mining.cache_dir or (
            str(store.cache_dir) if store is not None else None
        )

        # --append: programs already in the store (same content
        # fingerprint, bundle still cached) skip analysis entirely —
        # their persisted statistics become ready-made shard partials
        fps: Dict[str, str] = {}
        if store is not None:
            fps = {
                key: program_fingerprint(program)
                for _, key, program in units
                if program.source is not None
            }
        store_partials: List[ShardPartial] = []
        if store is not None and self.mining.append and store.programs:
            tasks, store_partials = self._fold_from_store(
                store, tasks, fps, cache_dir, fingerprint
            )
        drift: Optional[SpecDrift] = None

        try:
            # phase 1: map-analyze ------------------------------------
            partials: List[ShardPartial] = []
            if tasks:
                partials = dispatcher.run_phase(
                    "analyze",
                    [(sid, AnalyzeTask(self.config, cache_dir,
                                       fingerprint, sid, tuple(items),
                                       chaos, resident,
                                       ephemeral=spill is not None))
                     for sid, items in tasks],
                    runner=_supervised_analyze,
                    splitter=_split_analyze,
                    poisoner=self._poison_analyze(cache_dir, fingerprint),
                    validator=_valid_partial,
                )
            partials = list(partials) + store_partials
            t1 = time.monotonic()

            # phase 2: reduce-train -----------------------------------
            merged = ShardPartial()
            for partial in sorted(
                partials, key=lambda p: p.metrics[0].shard_id
            ):
                merged.merge(partial)
            merged.canonicalize()
            if store is not None:
                # journal this run's statistics *before* training: the
                # analysis work is complete and durable even if a later
                # phase crashes
                self._persist_stats(store, units, fps, merged)
            # enforce the cache budget *between* the phases (cold
            # entries from previous runs go now, not only at the end) —
            # pinning this run's bundle refs so the sweep can never eat
            # the extract phase's own working set
            if self.mining.cache_budget is not None and budget_dir:
                pinned = frozenset(
                    ck for _, ck in merged.bundle_refs if ck
                )
                n_evicted += AnalysisCache(
                    budget_dir, fingerprint
                ).evict_to_budget(self.mining.cache_budget, pinned=pinned)
            if self.mining.parallel_train:
                model = self._parallel_train(dispatcher, merged.stats)
            else:
                model = self.pipeline.train_from_stats(merged.stats)
            t2 = time.monotonic()

            # phase 3: map-extract ------------------------------------
            # regroup refs per shard: bisection may have split one
            # shard's analysis across several partials, but extraction
            # must still visit refs in one canonical sorted order
            refs_by_shard: Dict[int, List[Tuple[str, Optional[str]]]] = {}
            for p in partials:
                refs_by_shard.setdefault(
                    p.metrics[0].shard_id, []
                ).extend(p.bundle_refs)
            extract_tasks = [
                (sid, sorted(refs))
                for sid, refs in sorted(refs_by_shard.items())
                if refs
            ]
            model_ref: Optional[Tuple[str, str]] = None
            model_broadcast_bytes = 0
            if supervised and not distributed and cache_dir:
                # broadcast the model to the local pool by reference:
                # one pickle on disk instead of a copy of the model in
                # every task frame (remote daemons keep the inline copy
                # — they may not share a filesystem with the
                # coordinator; an in-process run needs no copy at all).
                # Extraction only scores, so the broadcast drops the
                # optimiser state — half the bytes to hash, write and
                # unpickle.
                raw_model = pickle.dumps(
                    model.scoring_clone(),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                digest = hashlib.sha256(raw_model).hexdigest()[:16]
                model_path = Path(cache_dir) / f"model-{digest}.pkl"
                if not model_path.exists():
                    atomic_write_bytes(model_path, raw_model)
                for stale in Path(cache_dir).glob("model-*.pkl"):
                    if stale.name != model_path.name:
                        try:
                            stale.unlink()
                        except OSError:
                            pass
                model_broadcast_bytes = len(raw_model)
                model_ref = (str(model_path), digest)
            results = dispatcher.run_phase(
                "extract",
                [(sid, ExtractTask(
                    self.config, cache_dir, fingerprint, sid,
                    tuple(refs),
                    model=None if model_ref is not None else model,
                    model_ref=model_ref,
                    affinity=dispatcher.owner_of(sid),
                    resident=resident, chaos=chaos,
                 ))
                 for sid, refs in extract_tasks],
                runner=_supervised_extract,
                splitter=_split_extract,
                poisoner=self._poison_extract(
                    merged, unit_sources, cache_dir, fingerprint,
                    unit_programs,
                ),
                validator=_valid_extraction,
                healer=self._heal_extract(
                    cache_dir, fingerprint, unit_programs, heal_counts,
                    model=model,
                ),
            )
            extraction = CandidateExtraction()
            for _, _, shard_extraction in sorted(
                results, key=lambda r: (r[0], r[1])
            ):
                extraction.merge(shard_extraction)
            t3 = time.monotonic()

            # phase 4: finalize ---------------------------------------
            scores = self.pipeline.score(extraction)
            specs = self.pipeline.select(scores)

            if store is not None:
                drift = store.record_generation(specs, scores)
                store.maybe_compact()

            if self.mining.cache_budget is not None and budget_dir:
                # final unpinned sweep: the run is over, the byte
                # budget is the only constraint again
                n_evicted += AnalysisCache(
                    budget_dir, fingerprint
                ).evict_to_budget(self.mining.cache_budget)
        finally:
            if store is not None:
                store.close()
            if dispatcher is not self.coordinator:
                dispatcher.close()
            if spill is not None:
                shutil.rmtree(spill, ignore_errors=True)
            # whatever this run left in the caller's registry (refs a
            # failure never extracted) must not outlive it
            process_residency().clear()

        run = CorpusRunReport(
            outcomes=merged.outcomes, manifest=merged.manifest,
        )
        report = self._report(
            jobs, n_shards, merged, t0, t1, t2, t3,
            ledger=ledger, n_evicted=n_evicted, supervised=supervised,
            distributed=distributed,
            parallel_train=self.mining.parallel_train,
            cluster=(
                self.coordinator.stats.to_dict() if distributed else None
            ),
            resident=resident,
            n_affinity_hits=dispatcher.affinity_hits,
            n_affinity_misses=dispatcher.affinity_misses,
            n_cache_repairs=heal_counts["repaired"],
            n_bundles_shipped=heal_counts["shipped"],
            store_generation=store.generation if store is not None else None,
            drift=drift.to_dict() if drift is not None else None,
            cache_dir=budget_dir,
            cache_ephemeral=(spill is not None),
            dispatch=dispatcher.dispatch.to_dict(),
            model_broadcast_bytes=model_broadcast_bytes,
        )
        return LearnedSpecs(
            specs, scores, extraction, model, self.config,
            run=run, mining=report,
        )

    # ------------------------------------------------------------------

    def _parallel_train(
        self, dispatcher, stats: SufficientStats
    ) -> EventPairModel:
        """The training reduce as a supervised/distributed phase.

        The canonical seed-shuffled stream is built in the parent, then
        split into one task per position-key ensemble plus one for the
        shared fallback.  Each ensemble depends only on its own
        (stream-ordered) example subsequence and the member seed
        configs, so the reassembled model — and therefore the specs —
        is float-identical to the sequential reduce.
        """
        cfg = self.config
        n_members = EventPairModel(cfg.feature, cfg.train).n_members
        stream = stats.stream(cfg.seed)
        grouped: Dict[PositionKey, List[SparseExample]] = {}
        all_examples: List[SparseExample] = []
        for sample in stream:
            example = (sample.indices, sample.label)
            grouped.setdefault(sample.position_key, []).append(example)
            all_examples.append(example)
        tasks: List[Tuple[int, TrainTask]] = []
        for group_id, (key, examples) in enumerate(sorted(grouped.items())):
            tasks.append((group_id, TrainTask(
                cfg.feature, cfg.train, n_members, group_id, key,
                tuple(examples),
            )))
        tasks.append((len(tasks), TrainTask(
            cfg.feature, cfg.train, n_members, len(tasks), None,
            tuple(all_examples),
        )))
        results = dispatcher.run_phase(
            "train", tasks,
            runner=_supervised_train,
            splitter=_split_train,
            poisoner=_poison_train,
            validator=_valid_training,
        )
        models: Dict[PositionKey, List[LogisticRegression]] = {}
        fallback: List[LogisticRegression] = []
        for _, key, members in results:
            if key is None:
                fallback = members
            else:
                models[key] = members
        return EventPairModel.from_trained(
            cfg.feature, cfg.train, models, fallback, len(stream),
            n_members=n_members,
        )

    # ------------------------------------------------------------------
    # the durable statistics store (--store-dir / --append)

    def _fold_from_store(
        self,
        store: StatsStore,
        tasks: List[Tuple[int, List[Unit]]],
        fps: Dict[str, str],
        cache_dir: Optional[str],
        fingerprint: str,
    ) -> Tuple[List[Tuple[int, List[Unit]]], List[ShardPartial]]:
        """Partition shard tasks into fresh work and store-satisfied work.

        A unit is satisfied from the store when its content fingerprint
        has a journal record *and* its analysed bundle is still in the
        cache (extraction needs the bundle; if it was evicted the unit
        just re-analyses).  Satisfied units become ready-made per-shard
        partials — re-stamped to the unit's *current* corpus key, which
        is sound because persisted samples derive from the source name
        (``bundle_seed``), not the corpus position; source-less
        programs are never stored (their key is their position).
        """
        cache = AnalysisCache(cache_dir, fingerprint) if cache_dir \
            else None
        remaining: List[Tuple[int, List[Unit]]] = []
        store_partials: List[ShardPartial] = []
        for sid, items in tasks:
            fresh: List[Unit] = []
            held: List[Tuple[Unit, str, StoredProgram]] = []
            for unit in items:
                _, key, program = unit
                fp = fps.get(key)
                rec = store.get(fp) if fp is not None else None
                if rec is not None and cache is not None \
                        and cache.has_bundle(fp):
                    held.append((unit, fp, rec))
                else:
                    fresh.append(unit)
            if held:
                sp = ShardPartial.empty(sid)
                metrics = sp.metrics[0]
                for (_, key, program), fp, rec in held:
                    sp.outcomes.append(ProgramOutcome(
                        key=key, source=program.source,
                        tier=TIER_STORE, cached=True,
                    ))
                    sp.stats.add(key, list(rec.samples))
                    sp.bundle_refs.append((key, cache.key_of(fp)))
                    sp.program_meta[key] = (rec.n_events, rec.n_edges)
                    metrics.n_programs += 1
                    metrics.n_cached += 1
                    metrics.n_from_store += 1
                    metrics.n_samples += len(rec.samples)
                    metrics.n_events += rec.n_events
                    metrics.n_edges += rec.n_edges
                store_partials.append(sp)
            if fresh:
                remaining.append((sid, fresh))
        return remaining, store_partials

    def _persist_stats(
        self,
        store: StatsStore,
        units: Sequence[Unit],
        fps: Dict[str, str],
        merged: ShardPartial,
    ) -> None:
        """Journal this run's per-program statistics (and retirements).

        Only programs that produced statistics are stored (quarantined
        ones re-attempt next run); a record whose fingerprint and key
        both match the store is already durable and is not rewritten.
        Fingerprints absent from the current corpus are retired.
        """
        live = set()
        for _, key, program in units:
            fp = fps.get(key)
            if fp is None:
                continue  # anonymous: position-dependent, never stored
            live.add(fp)
            if key not in merged.stats.blocks:
                continue  # quarantined / no bundle: nothing durable
            rec = store.get(fp)
            if rec is not None and rec.key == key:
                continue
            meta = merged.program_meta.get(key, (0, 0))
            store.put_program(StoredProgram(
                fingerprint=fp,
                key=key,
                source=program.source,
                samples=tuple(merged.stats.blocks[key]),
                n_events=meta[0],
                n_edges=meta[1],
            ))
        stale = [fp for fp in store.programs if fp not in live]
        store.retire(stale)

    # ------------------------------------------------------------------

    def _heal_extract(
        self,
        cache_dir: Optional[str],
        fingerprint: str,
        unit_programs: Dict[str, Program],
        heal_counts: Dict[str, int],
        model: Optional[EventPairModel] = None,
    ):
        """Build the extract-phase healer for the dispatcher.

        ``heal(payload, err)`` repairs a :class:`CacheEntryVanished`
        failure in the parent: each missing bundle is reloaded from the
        cache (it may have reappeared — another worker's write, or the
        eviction raced the read) or **re-analysed** from the program
        source, then packed onto the payload as a shipment the retried
        task can extract from directly.  A :class:`ModelRefVanished`
        failure (the broadcast model file went away under a worker) is
        healed by re-attaching the model inline.  Returns the repaired
        payload, or None when the failure is not healable — then the
        ordinary retry/bisect/poison ladder takes over (an in-process
        run re-raises instead).
        """

        def heal(payload: ExtractTask, err: BaseException):
            if isinstance(err, ModelRefVanished):
                if payload.model is not None or model is None:
                    # already inline: healing again cannot help
                    return None
                return replace(payload, model=model, model_ref=None)
            if not isinstance(err, CacheEntryVanished):
                return None
            already = dict(payload.shipped)
            if any(key in already for key, _ in err.refs):
                # a shipped bundle cannot vanish: this failure is not
                # about cache entries, so healing again cannot help
                # (and refusing keeps the heal loop bounded)
                return None
            shipped = dict(already)
            cache = (
                AnalysisCache(cache_dir, fingerprint) if cache_dir else None
            )
            for key, cache_key in err.refs:
                # fast path: ship the cache's CRC-verified pickle bytes
                # as-is (wire format of pack_bundle, minus the
                # decode→re-encode round trip in the parent)
                raw = (
                    cache.load_bundle_payload(cache_key)
                    if cache is not None and cache_key else None
                )
                if raw is not None:
                    shipped[key] = zlib.compress(raw, 6)
                    heal_counts["shipped"] += 1
                    continue
                program = unit_programs.get(key)
                if program is None:
                    return None  # not a unit of this run: unhealable
                bundle = self._reanalyze(program, key, cache)
                if bundle is None:
                    return None  # the program no longer analyses
                shipped[key] = pack_bundle(bundle)
                heal_counts["repaired"] += 1
            return replace(
                payload, shipped=tuple(sorted(shipped.items()))
            )

        return heal

    def _reanalyze(
        self,
        program: Program,
        key: str,
        cache: Optional[AnalysisCache],
    ) -> Optional[GraphBundle]:
        """Re-run the analysis ladder over one program, in the parent.

        Analysis is deterministic given the program and the pipeline
        config, so the rebuilt bundle is byte-identical (as a pickle)
        to the vanished one — extraction results cannot drift.  The
        bundle is re-stored to the cache (re-pinning is pointless: the
        shipment on the retried payload is the durable copy).
        """
        executor = CorpusExecutor(
            self.config.pointsto, self.config.history, self.config.runtime
        )
        holder: Dict[str, GraphBundle] = {}

        def sink(outcome, bundle, entry) -> None:
            if bundle is not None:
                holder["bundle"] = bundle

        try:
            executor.run([program], keys=[key], sink=sink)
        except Exception:
            return None
        bundle = holder.get("bundle")
        if bundle is not None and cache is not None:
            cache.store_bundle(program_fingerprint(program), bundle)
        return bundle

    # ------------------------------------------------------------------

    def _poison_analyze(self, cache_dir: Optional[str], fingerprint: str):
        def poison(payload: AnalyzeTask, label: str, error: str):
            ((index, key, program),) = payload.items
            entry = QuarantineEntry(
                program=key,
                source=program.source,
                error_kind=label,
                error=error,
                attempts=[TierAttempt(
                    tier=TIER_SUPERVISED, error_kind=label, error=error,
                )],
            )
            if cache_dir:
                AnalysisCache(cache_dir, fingerprint).store_quarantine(
                    program_fingerprint(program), entry
                )
            partial = ShardPartial.empty(payload.shard_id)
            partial.outcomes.append(ProgramOutcome(
                key=key, source=program.source,
                attempts=list(entry.attempts),
            ))
            partial.manifest.add(entry)
            metrics = partial.metrics[0]
            metrics.n_programs = 1
            metrics.n_quarantined = 1
            return partial

        return poison

    def _poison_extract(
        self,
        merged: ShardPartial,
        unit_sources: Dict[str, Optional[str]],
        cache_dir: Optional[str],
        fingerprint: str,
        unit_programs: Dict[str, Program],
    ):
        def poison(payload: ExtractTask, label: str, error: str):
            # the program analysed fine but extraction keeps killing
            # workers: quarantine it (its candidates are dropped; its
            # training samples already contributed — recorded honestly
            # in the manifest entry)
            ((key, _),) = payload.refs
            entry = QuarantineEntry(
                program=key,
                source=unit_sources.get(key),
                error_kind=label,
                error=f"extract phase: {error}",
                attempts=[TierAttempt(
                    tier=TIER_SUPERVISED, error_kind=label, error=error,
                )],
            )
            if cache_dir and key in unit_programs:
                AnalysisCache(cache_dir, fingerprint).store_quarantine(
                    program_fingerprint(unit_programs[key]), entry
                )
            merged.manifest.add(entry)
            return payload.shard_id, key, CandidateExtraction()

        return poison

    # ------------------------------------------------------------------

    def _report(
        self,
        jobs: int,
        n_shards: int,
        merged: ShardPartial,
        t0: float, t1: float, t2: float, t3: float,
        ledger: Optional[FailureLedger] = None,
        n_evicted: int = 0,
        supervised: bool = False,
        distributed: bool = False,
        parallel_train: bool = False,
        cluster: Optional[Dict[str, object]] = None,
        resident: bool = False,
        n_affinity_hits: int = 0,
        n_affinity_misses: int = 0,
        n_cache_repairs: int = 0,
        n_bundles_shipped: int = 0,
        store_generation: Optional[int] = None,
        drift: Optional[Dict[str, object]] = None,
        cache_dir: Optional[str] = None,
        cache_ephemeral: bool = False,
        dispatch: Optional[Dict[str, object]] = None,
        model_broadcast_bytes: int = 0,
    ) -> MiningReport:
        def total(attr: str) -> int:
            return sum(getattr(m, attr) for m in merged.metrics)

        return MiningReport(
            jobs=jobs,
            n_shards=n_shards,
            n_programs=merged.n_programs,
            n_analyzed=merged.n_analyzed,
            n_cached=merged.n_cached,
            n_quarantined=len(merged.manifest),
            n_events=total("n_events"),
            n_edges=total("n_edges"),
            n_samples=total("n_samples"),
            seconds_analyze=t1 - t0,
            seconds_train=t2 - t1,
            seconds_extract=t3 - t2,
            seconds_total=time.monotonic() - t0,
            shards=list(merged.metrics),
            analyzed_keys=list(merged.analyzed_keys),
            cache_dir=cache_dir if cache_dir else self.mining.cache_dir,
            ledger=ledger,
            n_evicted=n_evicted,
            supervised=supervised,
            distributed=distributed,
            parallel_train=parallel_train,
            cluster=cluster,
            resident=resident,
            n_affinity_hits=n_affinity_hits,
            n_affinity_misses=n_affinity_misses,
            n_cache_repairs=n_cache_repairs,
            n_bundles_shipped=n_bundles_shipped,
            n_from_store=total("n_from_store"),
            n_cache_corrupt=total("n_cache_corrupt"),
            store_generation=store_generation,
            drift=drift,
            cache_ephemeral=cache_ephemeral,
            dispatch=dispatch,
            model_broadcast_bytes=model_broadcast_bytes,
            n_sample_hits=total("n_sample_hits"),
        )

