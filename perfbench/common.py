"""Shared pieces of the benchmark: paths, timing, memory and the run
record that every workload fills in."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Java mining corpus: the ROADMAP's reference corpus (200 files, seed
#: 9).  It is fixed rather than drawn from the workload seed; see
#: README.md, "Why the corpora are fixed".
JAVA_FILES = 150
JAVA_CORPUS_SEED = 9
#: Python corpus the daemon's specs are mined from (serve-query set-up)
PY_FILES = 40
PY_CORPUS_SEED = 9
#: τ of Fig. 7 / Tab. 3
TAU = 0.6


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: seconds :func:`reference_seconds` read on the idle 2-vCPU machine the
#: benchmark was tuned on: the speed every timing is rescaled to
REFERENCE_SECONDS = 0.0035

#: fixed operands of the reference loop: a 4 MiB vector and the
#: scattered indices it reads and writes
_REF_VECTOR = numpy.zeros(1 << 19)
_REF_INDICES = list(numpy.random.default_rng(0).integers(
    0, 1 << 19, size=(600, 16)))


def _reference_loop() -> int:
    """Fixed work in the style of the measured program: an interpreted
    integer loop, then small numpy gathers and scatters on a vector
    larger than the caches.  It allocates no container, so it never
    triggers a garbage collection."""
    x = 0
    for i in range(30000):
        x = (x * 31 + i) % 1000003
    vector = _REF_VECTOR
    for indices in _REF_INDICES:
        vector[indices] += 1e-9 * float(vector[indices].sum())
    return x


def reference_seconds() -> float:
    """The host's current speed: the median of three timings of the
    reference loop, about 10 ms in all."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two :func:`reference_seconds`
    readings, rescaled to the speed at which the reference loop takes
    ``REFERENCE_SECONDS``.  See README.md, "Reference speed"."""
    return seconds * REFERENCE_SECONDS / ((before + after) / 2.0)


def timed(fn: Callable[[], object]) -> Tuple[object, float, float]:
    """``(fn(), wall seconds, seconds at reference speed)``, after a full
    collection, so garbage left by earlier work is not collected inside
    the timed region."""
    gc.collect()
    before = reference_seconds()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed, at_reference(elapsed, before,
                                         reference_seconds())


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def largest_child_peak_rss_mb() -> float:
    """Peak resident memory of the largest reaped child process, in MiB.
    A forked child's figure includes the pages it shares with this
    process, so adding it to :func:`own_peak_rss_mb` is an upper bound."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident memory (VmHWM) of process ``pid`` and
    its live children, in MiB; read before they exit."""
    pids = [pid]
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            pids.append(int(stat.parent.name))
    total_kb = 0
    for p in pids:
        try:
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile, ``p`` in 0..100."""
    ordered = sorted(values)
    rank = round(p / 100.0 * (len(ordered) - 1))
    return ordered[max(0, min(len(ordered) - 1, rank))]


def source_digest() -> str:
    """Digest of every file under ``src/``: identifies the measured code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def environment() -> Dict[str, object]:
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
    }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: workload parameters recorded with the result
    params: Dict[str, object] = field(default_factory=dict)
    #: (check name, passed, detail)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: peak memory of the workload's other processes, added to this
    #: process's own peak for ``peak_rss_mb``
    child_rss_mb: float = 0.0

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)
