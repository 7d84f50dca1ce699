"""In-process bundle residency: analysed bundles that stay put.

The analyse and extract phases of the mining engine are separated by a
barrier (the training reduce), and before this module existed every
analysed :class:`~repro.model.dataset.GraphBundle` crossed that barrier
through the analysis cache: pickled to disk by the analysing worker,
re-unpickled by whichever worker drew the extract task.  That round
trip is pure overhead whenever the analysing worker is still alive —
which, on a healthy run, is always.

:class:`BundleResidency` is a per-process registry that keeps analysed
bundles in memory, keyed by a *residency group* (pipeline fingerprint +
shard id) and a *slot key* (:func:`slot_key`): the bundle's content
address in the analysis cache, so a bundle left behind by an earlier
run can only ever serve a ref to the same content.  Workers publish
into their process registry (:func:`process_residency`) during analysis
and consume from it during extraction; the scheduler routes each
shard's extract task to the worker that analysed it (worker affinity),
so the common case reads bundles straight from memory.  An in-process
(``--jobs 1``) run publishes into and extracts from the calling
process's registry the same way.  The cache stays the fallback for
every case residency cannot serve: the owning worker died or was
replaced, bisection re-split the refs, or a speculative copy ran
elsewhere.

Residency is an *optimisation layer only*: bundles are still persisted
to the cache per program during analysis, and extraction output is
byte-identical whether a bundle came from memory, from disk, or from a
zlib-packed shipment (:func:`pack_bundle`) attached to a retried task —
analysis is deterministic and pickling round-trips preserve content.

Long-lived worker processes (pool workers, ``uspec worker`` daemons)
bound their registry (FIFO over publish order): overflowing bundles
are dropped and silently fall back to the cache.  The registry of the
process that calls the engine stays unbounded — an in-process run with
no cache has nowhere to reload a dropped bundle from — and the engine
empties it when the run ends.  Extracted bundles are discarded
eagerly, so a long-lived distributed worker does not accumulate
bundles across runs.
"""

from __future__ import annotations

import pickle
import zlib
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.dataset import GraphBundle

#: registry capacity of a long-lived worker process (bundles, not
#: bytes); overflow drops the oldest published bundles, which degrade
#: to cache reloads
DEFAULT_RESIDENT_BUNDLES = 8192

#: zlib level for packed bundle shipments — 6 is the stdlib default
#: trade-off and keeps repair shipments small on the wire
_ZLIB_LEVEL = 6


def residency_group(fingerprint: str, shard_id: int) -> str:
    """The residency group token of one shard in one pipeline config.

    Scoped by the pipeline fingerprint so a long-lived distributed
    worker can never serve a bundle analysed under different knobs;
    two runs sharing a fingerprint produce identical bundles for a
    given program key (analysis is deterministic), so collisions
    across runs are correct by construction.
    """
    return f"{fingerprint[:16]}:{shard_id}"


def slot_key(key: str, cache_key: Optional[str]) -> str:
    """The registry slot of one bundle ref within its group.

    The cache's content address when the ref has one: the program key
    (``index:source``) says nothing about content, so a daemon that
    outlived its run would otherwise serve an old bundle for a new
    program that happens to share the key.  Without a cache, every ref
    was analysed and published in this very run, so the program key is
    unambiguous.
    """
    return cache_key or key


class BundleResidency:
    """An optionally bounded map of ``(group, slot key) → bundle``."""

    def __init__(
        self, max_bundles: Optional[int] = DEFAULT_RESIDENT_BUNDLES
    ) -> None:
        self.max_bundles = max_bundles
        self._bundles: "OrderedDict[Tuple[str, str], GraphBundle]" = \
            OrderedDict()
        self.n_published = 0
        self.n_dropped = 0  # capacity overflow, not discard()

    def publish(self, group: str, key: str, bundle: GraphBundle) -> None:
        """Record one analysed bundle (idempotent per (group, key))."""
        slot = (group, key)
        self._bundles.pop(slot, None)
        self._bundles[slot] = bundle
        self.n_published += 1
        while (self.max_bundles is not None
               and len(self._bundles) > self.max_bundles):
            self._bundles.popitem(last=False)
            self.n_dropped += 1

    def get(self, group: str, key: str) -> Optional[GraphBundle]:
        return self._bundles.get((group, key))

    def discard(
        self, group: str, keys: Optional[Sequence[str]] = None
    ) -> int:
        """Drop a group (or just ``keys`` of it); returns bundles freed.

        Extraction discards only the keys it consumed, so a bisected
        sibling fragment of the same group keeps its bundles resident.
        """
        if keys is None:
            doomed = [slot for slot in self._bundles if slot[0] == group]
        else:
            doomed = [(group, key) for key in keys]
        freed = 0
        for slot in doomed:
            if self._bundles.pop(slot, None) is not None:
                freed += 1
        return freed

    def groups(self) -> List[str]:
        """Sorted group tokens with at least one resident bundle."""
        return sorted({group for group, _ in self._bundles})

    def clear(self) -> None:
        self._bundles.clear()

    def __len__(self) -> int:
        return len(self._bundles)

    def __repr__(self) -> str:
        return (f"<BundleResidency {len(self)} bundles / "
                f"{len(self.groups())} groups "
                f"({self.n_published} published, "
                f"{self.n_dropped} dropped)>")


#: the per-process registry: pool workers, ``uspec worker`` daemons
#: and in-process runs publish during analysis and consume during
#: extraction (unbounded until a worker entry point bounds it)
_PROCESS_RESIDENCY = BundleResidency(max_bundles=None)


def process_residency() -> BundleResidency:
    """This process's bundle registry (one per worker process)."""
    return _PROCESS_RESIDENCY


# ----------------------------------------------------------------------
# packed bundle shipments (the repair / fallback path)


def pack_bundle(bundle: GraphBundle) -> bytes:
    """Pickle + zlib one bundle for shipment inside a task payload.

    Used by the engine's extract-phase healer: when a bundle is neither
    resident nor on disk any more, the parent restores it and attaches
    the packed bytes to the retried task, so even a worker with no
    shared filesystem can finish the extraction.
    """
    raw = pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL)
    return zlib.compress(raw, _ZLIB_LEVEL)


def unpack_bundle(data: bytes) -> GraphBundle:
    """Inverse of :func:`pack_bundle`."""
    bundle = pickle.loads(zlib.decompress(data))
    if not isinstance(bundle, GraphBundle):
        raise TypeError(
            f"packed shipment decoded to {type(bundle).__name__}, "
            f"not GraphBundle"
        )
    return bundle


def unpack_shipment(
    shipped: Sequence[Tuple[str, bytes]]
) -> Dict[str, GraphBundle]:
    """Decode a task's ``(key, packed bundle)`` shipment tuples."""
    return {key: unpack_bundle(data) for key, data in shipped}
