"""Crash-safe file writes and stable program identities.

The durable copy of an analysed program is the content-addressed
:class:`~repro.mining.cache.AnalysisCache` (persistent, or a run-private
spill dir); a killed run resumes because every completed program is
already a cache entry.  This module holds the primitives that make
those entries — and the store snapshots, model broadcasts and specs
files — safe to write under a kill:

* :func:`atomic_write_bytes` / :func:`atomic_write_text` — tmp file +
  rename, optionally fsynced, so a reader sees the old content or the
  new, never a torn file;
* :func:`fsync_directory` — persist a rename across power loss;
* :func:`program_key` — the ``index:source`` identity fault plans,
  quarantine manifests and shard merges name a corpus program by.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.ir.program import Program
from repro.store.faults import (
    POINT_POST_RENAME,
    POINT_PRE_FSYNC,
    POINT_PRE_RENAME,
    checked_write,
    crash_hook,
)


def fsync_directory(directory: Path) -> None:
    """Persist a rename/create in ``directory`` across a crash."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return  # e.g. platforms that refuse O_RDONLY on directories
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, payload: bytes,
                       durable: bool = False) -> None:
    """Write ``payload`` to ``path`` via tmp-file + rename.

    A kill at any point leaves either the old content or the new one,
    never a torn file.  The tmp name embeds the pid so concurrent
    writers (parallel mining workers filling a shared cache) never
    clobber each other's in-flight temp file; the final ``rename`` is
    atomic within one filesystem.

    With ``durable=True`` the tmp file is fsynced before the rename and
    the parent directory is fsynced after it, so a power loss
    immediately after return cannot lose the write — the discipline the
    journal snapshot and specs writers opt into.
    The crash hooks mark the injection matrix for the recovery tests;
    they are no-ops unless a :class:`~repro.store.faults.CrashPlan`
    is armed.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    # no cleanup on failure: a real crash leaves the tmp file behind,
    # and recovery must tolerate stale tmps — so the simulation does too
    with tmp.open("wb") as fh:
        checked_write(fh, payload, path)
        if durable:
            fh.flush()
            crash_hook(POINT_PRE_FSYNC, path)
            os.fsync(fh.fileno())
    crash_hook(POINT_PRE_RENAME, path)
    tmp.replace(path)
    crash_hook(POINT_POST_RENAME, path)
    if durable:
        fsync_directory(path.parent)


def atomic_write_text(path: Path, payload: str,
                      durable: bool = False) -> None:
    atomic_write_bytes(path, payload.encode("utf-8"), durable=durable)


def program_key(program: Program, index: int) -> str:
    """Stable identity of a corpus program for faults and merges."""
    return f"{index:06d}:{program.source or '<anonymous>'}"
