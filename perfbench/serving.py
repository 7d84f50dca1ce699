"""The ``serve-query`` workload: open-loop alias queries against a
``uspec serve`` daemon running in its own process.

Set-up mines Python specs in this process, writes them where the daemon
reads them, starts the daemon, waits for ``/readyz`` and warms each pool
worker.  Two measured phases follow, in alternating segments: Poisson
arrivals at the nominal rate, which the latency metrics are read at,
and saturation bursts whose requests are all due at once, which give
the capacity.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    PY_CORPUS_SEED,
    PY_FILES,
    SRC,
    TAU,
    Outcome,
    nproc,
    percentile,
    at_reference,
    reference_seconds,
    timed,
    tree_peak_rss_mb,
)
from layers import Tracer, install_query
from loadgen import OpenLoopClient, Request, poisson_schedule, summarize

from repro.corpus import CorpusConfig, CorpusGenerator, python_registry
from repro.corpus.generator import derive_rng
from repro.eval.precision_recall import precision_recall_curve
from repro.mining import MiningConfig, MiningEngine
from repro.serve.loadgen import http_request
from repro.serve.query import QueryPayload, run_query, valid_reply
from repro.specs.pipeline import PipelineConfig
from repro.specs.serialize import specs_to_json

HOST = "127.0.0.1"
#: saturation throughput of the daemon measured on a 2-vCPU machine
#: (about 890 replies/s, README.md); it sizes the phases below
MEASURED_CAPACITY_QPS = 890.0
#: nominal offered rate (requests per second): half that capacity, so
#: the latency metrics describe a daemon with headroom
NOMINAL_QPS = MEASURED_CAPACITY_QPS / 2
#: share of ``--seconds`` given to the nominal phase, and to the
#: saturation phase at the measured capacity
NOMINAL_SHARE = 0.4
SATURATION_SHARE = 0.4
#: both phases run in this many alternating segments, so the capacity
#: samples the host at several moments spread over the run
SEGMENTS = 5
#: replies per window of a burst; the capacity is the median of the
#: windows' reply rates
WINDOW = 100
#: share of requests drawn from a pool of repeated snippets: the repo's
#: own load generator's default (``LoadConfig.cache_ratio``)
REPEAT_SHARE = 0.3
#: that load generator repeats 3 variants at each snippet size it draws
#: from normal(8, 3); sizes 2..14 (mean ± 2 sd) make 3 x 13 snippets
REPEAT_POOL = 39
#: generator seed of the held-out snippet population; two scenarios at
#: most give 9.1 +- 3.4 method calls per snippet, the nearest the
#: generator comes to that load generator's normal(8, 3) call sites
PY_SNIPPET_SEED = 2019
MAX_SCENARIOS = 2
#: analysis pool processes inside the daemon (the daemon's default)
DAEMON_WORKERS = 2
#: load generator connections: one per pool process, never above nproc
CONNECTIONS = min(DAEMON_WORKERS, nproc())
#: seed of the one Poisson arrival stream every run replays; the
#: workload seed orders the snippets along it (see README.md)
ARRIVAL_SEED = 0
SETUPS = 3
#: learns of the served specs after the load phases (the daemon
#: stopped), beside the set-up ones, so ``learn_s`` samples both ends
#: of the run
LATE_LEARNS = 4
#: extra seconds a phase waits for replies after its last arrival:
#: longer than the daemon's per-request watchdog (1.5 x its 10 s
#: deadline + 1 s), so a reply the daemon sends arrives, and a missing
#: one is a dropped request
GRACE_S = 20.0
#: distinct snippets the traced in-process pass runs: the same set on
#: every run (the repeated pool and the first segments' distinct ones)
TRACE_SNIPPETS = 1000


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Daemon:
    """A ``uspec serve`` subprocess, started and always stopped."""

    def __init__(self, specs_path: Path, work: Path) -> None:
        self.port = _free_port()
        self.log = open(work / f"daemon-{self.port}.log", "wb")
        # a fixed hash seed: with a random one the daemon's throughput
        # differed by up to 1.6x from one daemon to the next on the same
        # machine, each daemon steady within itself (README.md)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--specs", str(specs_path),
             "--bind", f"{HOST}:{self.port}",
             "--workers", str(DAEMON_WORKERS),
             "--drain-timeout", "2"],
            env=dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work),
                     PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0"),
            cwd=str(work), stdin=subprocess.DEVNULL,
            stdout=self.log, stderr=subprocess.STDOUT,
            # its own process group, so a hung daemon is killed together
            # with its pool processes
            start_new_session=True,
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode}")
            try:
                status, _ = http_request(HOST, self.port, "GET", "/readyz",
                                         timeout=2.0)
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("daemon not ready in time")

    def statz(self) -> Dict:
        return http_request(HOST, self.port, "GET", "/statz")[1]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self.log.close()


class Snippets:
    """Held-out generated Python snippets (the daemon's specs come from
    another corpus seed).  Indices below ``REPEAT_POOL`` are the repeated
    pool; each phase then owns a fixed slice of distinct snippets.  The
    population is fixed, so a latency percentile does not swing with
    which heavy snippets a seed happens to draw; the workload seed
    decides their order and which requests repeat."""

    def __init__(self, seed: int) -> None:
        self.generator = CorpusGenerator(python_registry(), CorpusConfig(
            seed=PY_SNIPPET_SEED, max_scenarios=MAX_SCENARIOS))
        self.rng = derive_rng(seed, "snippet-mix")
        self.texts: List[str] = []
        self.next_distinct = REPEAT_POOL

    def text(self, index: int) -> str:
        while len(self.texts) <= index:
            self.texts.append(
                self.generator.generate_one(len(self.texts)).text)
        return self.texts[index]

    def phase(self, n: int) -> List[int]:
        """Snippet indices of one phase of ``n`` requests."""
        n_distinct = round(n * (1.0 - REPEAT_SHARE))
        picks = list(range(self.next_distinct,
                           self.next_distinct + n_distinct))
        self.next_distinct += n_distinct
        picks += [self.rng.randrange(REPEAT_POOL)
                  for _ in range(n - n_distinct)]
        self.rng.shuffle(picks)
        return picks


def _body(code: str) -> bytes:
    return json.dumps({"code": code, "language": "python"}).encode()


def _mine() -> Tuple[object, float, float]:
    """Mine the served specs: (learned specs, wall seconds, seconds at
    reference speed)."""
    generator = CorpusGenerator(python_registry(), CorpusConfig(
        n_files=PY_FILES, seed=PY_CORPUS_SEED))
    return timed(lambda: MiningEngine(
        PipelineConfig(), MiningConfig(jobs=1)).learn(generator.programs()))


def _setup(work: Path, index: int) -> Tuple[Daemon, str, float, object]:
    """Mine the served specs, start the daemon, warm its pool.  Returns
    (daemon, specs json, learn seconds at reference speed, learned
    specs)."""
    learned, _, learn_s = _mine()
    specs_json = specs_to_json(learned.specs, learned.scores)
    specs_path = work / f"specs-{index}.json"
    specs_path.write_text(specs_json)
    daemon = Daemon(specs_path, work)
    try:
        daemon.wait_ready()
        # every pool worker parses the specs on its first query
        warm = CorpusGenerator(python_registry(), CorpusConfig(
            seed=1, max_scenarios=1))
        client = OpenLoopClient(HOST, daemon.port, CONNECTIONS)
        try:
            client.run([Request(0.0, _body(warm.generate_one(i).text), -1)
                        for i in range(2 * DAEMON_WORKERS)], GRACE_S)
        finally:
            client.close()
    except BaseException:
        daemon.stop()
        raise
    return daemon, specs_json, learn_s, learned


def _throughput(requests: List[Request]) -> List[float]:
    """Reply rates over windows of ``WINDOW`` consecutive replies of a
    phase whose requests were all due at its start, so both connections
    were busy throughout.  A window is timed from the reply before it."""
    done = sorted(r.done for r in requests
                  if r.answered and r.status == 200)
    rates = [WINDOW / (done[i + WINDOW] - done[i])
             for i in range(0, len(done) - WINDOW, WINDOW)]
    return rates


_REFERENCE: Dict[str, str] = {}


def _reference_pairs(item: Tuple[int, str]) -> Tuple[int, Optional[list]]:
    """In-process ``run_query`` of one snippet: (index, alias pairs, or
    None when the query raised)."""
    index, text = item
    try:
        reply = run_query(QueryPayload(
            "alias", "python", text, "{}", _REFERENCE["specs"],
            _REFERENCE["digest"]))
        return index, reply["pairs"]
    except Exception:  # counted by the mismatch check
        return index, None


def _reference(snippets: "Snippets", indices: List[int], specs_json: str,
               processes: int) -> Dict[int, Optional[list]]:
    """Alias pairs of in-process ``run_query`` for each snippet, over
    ``processes`` forked workers when there are more than one."""
    _REFERENCE.update(
        specs=specs_json,
        digest=hashlib.sha256(specs_json.encode()).hexdigest())
    items = [(i, snippets.text(i)) for i in indices]
    if processes <= 1:
        return dict(map(_reference_pairs, items))
    context = multiprocessing.get_context("fork")
    with context.Pool(processes) as pool:
        pairs = dict(pool.imap_unordered(_reference_pairs, items,
                                         chunksize=64))
        pool.close()
        pool.join()
    return pairs


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    out.params.update(
        corpus_files=PY_FILES, corpus_seed=PY_CORPUS_SEED,
        measured_capacity_qps=MEASURED_CAPACITY_QPS,
        nominal_qps=NOMINAL_QPS, nominal_share=NOMINAL_SHARE,
        saturation_share=SATURATION_SHARE, segments=SEGMENTS, window=WINDOW,
        repeat_share=REPEAT_SHARE, repeat_pool=REPEAT_POOL,
        daemon_workers=DAEMON_WORKERS, connections=CONNECTIONS,
        arrival_seed=ARRIVAL_SEED, snippet_seed=PY_SNIPPET_SEED,
        max_scenarios=MAX_SCENARIOS, setups=SETUPS,
        learns=SETUPS + LATE_LEARNS)
    setup_times: List[float] = []
    learn_times: List[float] = []
    learned_specs = set()

    def learn() -> None:
        learned, _, learn_s = _mine()
        learn_times.append(learn_s)
        learned_specs.add(specs_to_json(learned.specs, learned.scores))

    daemon: Optional[Daemon] = None
    try:
        for i in range(SETUPS):
            if daemon is not None:
                daemon.stop()
                daemon = None
            before = reference_seconds()
            start = time.perf_counter()
            daemon, specs_json, learn_s, learned = _setup(work, i)
            setup_times.append(at_reference(time.perf_counter() - start,
                                            before, reference_seconds()))
            learn_times.append(learn_s)
        point = precision_recall_curve(
            learned.scores, python_registry().is_true_spec, (TAU,))[0]
        del learned
        out.metric("setup_s", statistics.median(setup_times), "s")
        out.metric("spec_precision", point.precision, "ratio")
        out.metric("spec_recall", point.recall, "ratio")

        # -- measured phases -------------------------------------------
        snippets = Snippets(seed)
        arrivals = derive_rng(ARRIVAL_SEED, "arrivals")
        client = OpenLoopClient(HOST, daemon.port, CONNECTIONS)
        try:
            # nominal: Poisson arrivals at half the measured capacity;
            # saturation: every request of a burst due at once, so the
            # client keeps each connection busy and the reply rate is
            # the highest the daemon sustains.  Each burst's rates are
            # taken at reference speed from readings just before and
            # after it.
            per_segment = round(NOMINAL_SHARE * seconds * NOMINAL_QPS
                                / SEGMENTS)
            per_burst = round(SATURATION_SHARE * seconds
                              * MEASURED_CAPACITY_QPS / SEGMENTS)
            nominal: List[Request] = []
            saturation: List[Request] = []
            rates: List[float] = []
            wall_rates: List[float] = []
            for segment in range(SEGMENTS):
                requests = [
                    Request(due, _body(snippets.text(index)), index)
                    for due, index in zip(
                        poisson_schedule(NOMINAL_QPS, per_segment, arrivals),
                        snippets.phase(per_segment))
                ]
                client.run(requests, GRACE_S)
                nominal += requests
                if not segment:
                    statz_nominal = daemon.statz()
                requests = [Request(0.0, _body(snippets.text(index)), index)
                            for index in snippets.phase(per_burst)]
                before = reference_seconds()
                client.run(requests, GRACE_S)
                scale = at_reference(1.0, before, reference_seconds())
                burst_rates = _throughput(requests)
                wall_rates += burst_rates
                rates += [rate / scale for rate in burst_rates]
                saturation += requests
        finally:
            client.close()
        statz_final = daemon.statz()
        out.child_rss_mb = tree_peak_rss_mb(daemon.proc.pid)
    finally:
        if daemon is not None:
            daemon.stop()

    for _ in range(LATE_LEARNS):
        learn()
    out.metric("learn_s", statistics.median(learn_times), "s")
    out.params.update(learn_scaled=[round(t, 4) for t in learn_times],
                      setup_scaled=[round(t, 4) for t in setup_times])
    out.check("specs byte-identical across the learns",
              learned_specs <= {specs_json})

    latencies, late, wait = summarize(nominal)
    for p in (50, 99):
        value = percentile(latencies, p) * 1e3
        out.metric(f"query_p{p}_ms", value, "ms")
        out.params[f"query_p{p}_ms"] = value
    out.metric("query_capacity_qps",
               statistics.median(rates) if rates else 0.0, "1/s")
    out.params.update(requests_nominal=len(nominal),
                      requests_saturation=len(saturation),
                      saturation_rates=[round(r, 1) for r in rates],
                      capacity_wall_qps=statistics.median(wall_rates),
                      nominal_samples=len(latencies))

    # -- correctness (untimed): every reply against in-process run_query
    all_requests = nominal + saturation
    used = sorted({r.snippet for r in all_requests})
    reference = _reference(snippets, used, specs_json, nproc())
    failed = 0
    mismatched = 0
    for request in all_requests:
        reply = request.json() if request.answered else None
        if (request.status != 200 or not valid_reply(reply)):
            failed += 1
        elif reply.get("pairs") != reference[request.snippet]:
            mismatched += 1
    out.attempted = len(all_requests)
    out.failed = failed
    out.check("every request answered 200 with a valid reply", failed == 0,
              f"{failed} of {len(all_requests)} failed")
    out.check("alias pairs equal in-process run_query", mismatched == 0,
              f"{mismatched} mismatched")

    if trace:
        # the same distinct snippets on every run, so the layer totals
        # compare across runs; a few untimed queries warm this process
        # (the reference above ran in forked workers), and the untraced
        # pass runs after the traced one
        subset = used[:TRACE_SNIPPETS]

        def reference_pass() -> Dict[int, Optional[list]]:
            return _reference(snippets, subset, specs_json, 1)

        _reference(snippets, subset[:20], specs_json, 1)
        tracer = Tracer(work / "layers")
        install_query(tracer)
        try:
            traced, _, traced_s = timed(reference_pass)
        finally:
            tracer.restore()
        out.check("traced query pass equals the untraced one",
                  traced == {i: reference[i] for i in subset})
        for name, value in tracer.values.items():
            out.metric(name, value, "s" if name.endswith("_s") else "count")
        _, _, untraced_s = timed(reference_pass)
        out.metric("trace.overhead_ratio", traced_s / untraced_s - 1.0,
                   "ratio")
        out.metric("serve.query.run_s", untraced_s, "s")
        hits = statz_nominal.get("cache_hits", 0)
        out.metric("serve.reply_cache_hit_ratio",
                   hits / max(1, hits + statz_nominal.get("accepted", 0)),
                   "ratio")
        out.metric("serve.server_p99_ms",
                   statz_nominal.get("p99_seconds", 0.0) * 1e3, "ms")
        for key in ("shed", "deadline_exceeded", "degraded",
                    "crashes_retried"):
            out.metric(f"serve.{key}", statz_final.get(key, 0), "count")
        out.metric("loadgen.late_ms", late * 1e3, "ms")
        out.metric("loadgen.conn_wait_ms", wait * 1e3, "ms")
    out.params.update(distinct_snippets=len(used))
    return out
