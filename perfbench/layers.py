"""Per-layer timing from outside the program.

:class:`Tracer` wraps the public functions of each ``repro`` layer at
the module attribute its caller looks them up through, times every call
and counts the work it returned, then restores the originals.  Nothing
inside ``src/`` changes: the wrappers are installed for a traced run
only, and the untraced run that gives the end-to-end numbers executes
the unmodified program.

Worker processes forked while a tracer is active inherit its wrappers.
Each child zeroes what it inherited and, when the pool shuts it down,
writes its own totals to ``<dir>/layers-<pid>.json``; the parent folds
those files in with :meth:`Tracer.collect`.  A worker that is killed
instead of shut down loses its totals, which the layer counts expose
(they fall short of the program count).
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Accumulated seconds and counts per layer name."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.values: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[object, str, object]] = []
        self._active = False
        # runs in multiprocessing children after their finalizer
        # registry was reset, so the Finalize below survives
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- installation --------------------------------------------------

    def timed(self, owner: object, attr: str, seconds: str,
              count: Optional[str] = None,
              amount: Optional[Callable[[object], int]] = None,
              calls: Optional[str] = None) -> None:
        """Time ``owner.attr`` into ``seconds``; add ``amount(result)``
        (or 1 per call) into ``count`` and the call count into
        ``calls``."""
        original = getattr(owner, attr)
        values = self.values
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                values[seconds] += clock() - start
                if calls is not None:
                    values[calls] += 1
            if count is not None:
                values[count] += amount(result) if amount else 1
            return result

        self._patch(owner, attr, original, wrapper)

    def counted(self, owner: object, attr: str, count: str) -> None:
        """Count calls of ``owner.attr`` (for hot inner functions, where
        a clock read per call would distort what it measures)."""
        original = getattr(owner, attr)
        values = self.values

        def wrapper(*args, **kwargs):
            values[count] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self._active = True

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._active = False

    # -- worker processes ----------------------------------------------

    def _after_fork(self) -> None:
        if not self._active:
            return
        self.values.clear()
        multiprocessing.util.Finalize(self, self._flush, exitpriority=100)

    def _flush(self) -> None:
        path = self.directory / f"layers-{os.getpid()}.json"
        path.write_text(json.dumps(dict(self.values)))

    def collect(self) -> int:
        """Fold every worker's totals into this process; returns the
        number of worker files read."""
        n = 0
        for path in sorted(self.directory.glob("layers-*.json")):
            for name, value in json.loads(path.read_text()).items():
                self.values[name] += value
            path.unlink()
            n += 1
        return n

    def reset(self) -> None:
        self.values.clear()


def install_mining(tracer: Tracer) -> None:
    """Wrap the learning pipeline's layers where the engine calls them."""
    import repro.corpus.generator as generator
    import repro.mining.engine as engine
    import repro.runtime.executor as executor
    import repro.specs.pipeline as pipeline
    from repro.events.history import HistoryBuilder
    from repro.model.logistic import LogisticRegression
    from repro.model.model import EventPairModel

    tracer.timed(generator, "parse_minijava", "frontend.minijava.parse_s")
    tracer.timed(executor, "analyze", "pointsto.analyze_s",
                 calls="pointsto.analyze_calls")
    tracer.timed(HistoryBuilder, "build", "events.history_s")
    tracer.timed(executor, "build_event_graph", "events.graph_s",
                 "events.graph_edges", lambda graph: graph.edge_count)
    tracer.timed(engine, "collect_bundle_samples",
                 "model.dataset.samples_s", "model.dataset.samples", len)
    tracer.timed(engine, "encode_sample", "model.features.encode_s")
    tracer.timed(EventPairModel, "fit_encoded", "model.fit_s")
    tracer.counted(LogisticRegression, "partial_fit", "model.sgd_steps")
    tracer.timed(engine, "extract_candidates", "specs.extract_s")
    tracer.timed(pipeline, "score_candidates", "specs.score_s")
    tracer.timed(pipeline, "select_specs", "specs.select_s")
    tracer.timed(pipeline, "extend_with_retsame", "specs.select_s")


def install_query(tracer: Tracer) -> None:
    """Wrap the query path's layers where :mod:`repro.serve.query`
    calls them (the same code the daemon's pool workers run)."""
    import repro.serve.query as query
    from repro.events.history import HistoryBuilder

    tracer.timed(query, "parse_python", "frontend.pyfront.parse_s")
    tracer.timed(query, "parse_minijava", "frontend.minijava.parse_s")
    tracer.timed(query, "analyze", "pointsto.analyze_s",
                 calls="pointsto.analyze_calls")
    tracer.timed(HistoryBuilder, "build", "events.history_s")
    tracer.timed(query, "build_event_graph", "events.graph_s",
                 "events.graph_edges", lambda graph: graph.edge_count)
