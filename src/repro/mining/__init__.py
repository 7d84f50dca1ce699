"""Sharded parallel mining with mergeable partial results (scaling §7).

The paper mines specifications from corpora of up to 64M LoC — far
beyond what a single sequential pass handles comfortably.  This package
turns :class:`~repro.specs.pipeline.USpecPipeline` into a deterministic
map/reduce job:

* :mod:`sharding` — stable hash-based corpus shards;
* :mod:`partial` — per-shard results that merge as a monoid;
* :mod:`cache` — content-addressed incremental analysis cache, so a
  re-run after editing *k* corpus files re-analyses exactly *k*, with
  LRU-by-mtime size budgeting;
* :mod:`supervisor` — fault-tolerant shard dispatch over a persistent
  worker pool: watchdogs, bounded retry/backoff, poison-shard
  bisection, worker-affinity scheduling, failure ledger — and the
  in-process dispatcher that runs the same tasks for ``--jobs 1``;
* :mod:`residency` — in-process registry of analysed bundles, so the
  extract phase streams from worker memory instead of re-unpickling
  the cache;
* :mod:`engine` — the orchestrator; byte-identical output for any
  worker count, with or without injected chaos (modulo quarantined
  toxic programs).
"""

from repro.mining.cache import (
    AnalysisCache,
    CacheEntryVanished,
    CacheHit,
    pipeline_fingerprint,
    program_fingerprint,
)
from repro.mining.engine import MiningConfig, MiningEngine
from repro.mining.partial import MiningReport, ShardMetrics, ShardPartial
from repro.mining.residency import (
    BundleResidency,
    pack_bundle,
    process_residency,
    residency_group,
    unpack_bundle,
)
from repro.mining.sharding import ShardPlan, shard_of
from repro.mining.supervisor import (
    FailureLedger,
    ShardSupervisor,
    SupervisionConfig,
)

__all__ = [
    "AnalysisCache",
    "BundleResidency",
    "CacheEntryVanished",
    "CacheHit",
    "FailureLedger",
    "MiningConfig",
    "MiningEngine",
    "MiningReport",
    "ShardMetrics",
    "ShardPartial",
    "ShardPlan",
    "ShardSupervisor",
    "SupervisionConfig",
    "pack_bundle",
    "pipeline_fingerprint",
    "process_residency",
    "program_fingerprint",
    "residency_group",
    "shard_of",
    "unpack_bundle",
]
