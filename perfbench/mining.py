"""The three mining workloads: ``mine-cold``, ``mine-jobs2`` and
``mine-append``.

Each timed repetition is what ``uspec learn`` does after reading its
input: parse the Java source text (frontend), then run the mining
engine to selected specs.  Set-up, store copies and every correctness
check stay outside the timed region.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    JAVA_CORPUS_SEED,
    JAVA_FILES,
    TAU,
    Outcome,
    largest_child_peak_rss_mb,
    at_reference,
    percentile,
    reference_seconds,
    timed,
)
from layers import Tracer, install_mining

from repro.corpus import CorpusConfig, CorpusGenerator, java_registry
from repro.corpus.generator import GeneratedFile, derive_rng
from repro.eval.precision_recall import precision_recall_curve
from repro.mining import MiningConfig, MiningEngine
from repro.serve.query import QueryPayload, run_query, valid_reply
from repro.specs import RetArg, RetSame
from repro.specs.pipeline import PipelineConfig
from repro.specs.serialize import specs_to_json

#: Tab. 3's Java flagship specifications
FLAGSHIP = (
    RetArg("java.util.HashMap.get", "java.util.HashMap.put", 2),
    RetSame("java.sql.ResultSet.getString"),
    RetSame("com.fasterxml.jackson.databind.JsonNode.path"),
)
#: generator seed and size of the held-out Java snippet population
JAVA_SNIPPET_SEED = 2019
JAVA_SNIPPETS = 1000
#: after each timed learn, in-process queries run in blocks of
#: ``QUERY_BLOCK`` for ``QUERY_SHARE`` of that learn's time, so a fifth
#: of the measured time samples the query rate in blocks of about 0.2 s
QUERY_SHARE = 0.25
QUERY_BLOCK = 50
#: ``mine-append``'s base corpus: the first ``APPEND_FILES`` files of
#: the Java corpus, of which ``APPEND_K`` (5 %, as 10 files of 200)
#: are edited
APPEND_FILES = 80
APPEND_K = 4
#: the edited files are one fixed set, drawn once with this seed; the
#: workload seed writes the edits (see README.md)
EDIT_SET_SEED = 0
#: files of the warm-up learn in the set-up of mine-cold/mine-jobs2
WARMUP_FILES = 8
#: set-ups per run (the median is reported)
SETUPS = {"mine-cold": 5, "mine-jobs2": 9, "mine-append": 3}


@dataclass
class Rep:
    """One timed learn, reduced to what the checks and metrics need."""

    seconds: float
    #: ``seconds`` at reference speed
    scaled: float
    traced: bool
    specs: str
    precision: float
    recall: float
    flagship: int
    report: object  # MiningReport
    layers: Dict[str, float]
    store_bytes: int = 0


def _learn(generator: CorpusGenerator, files: List[GeneratedFile],
           mining: MiningConfig):
    return MiningEngine(PipelineConfig(), mining).learn(
        generator.parse(files))


def _summary(learned, seconds: float, scaled: float, traced: bool,
             layers: Dict[str, float], store_bytes: int = 0) -> Rep:
    registry = java_registry()
    point = precision_recall_curve(
        learned.scores, registry.is_true_spec, (TAU,))[0]
    return Rep(
        seconds=seconds, scaled=scaled, traced=traced,
        specs=specs_to_json(learned.specs, learned.scores),
        precision=point.precision, recall=point.recall,
        flagship=sum(1 for spec in FLAGSHIP if spec in learned.specs),
        report=learned.mining, layers=layers, store_bytes=store_bytes,
    )


def _file_sizes(root: Path) -> Dict[str, int]:
    return {str(p): p.stat().st_size for p in root.rglob("*") if p.is_file()}


def _bytes_written(before: Dict[str, int], root: Path) -> int:
    """Bytes by which every file under ``root`` grew (new files count
    whole): the journal is append-only and cache entries are new."""
    total = 0
    for path, size in _file_sizes(root).items():
        total += max(0, size - before.get(path, 0))
    return total


def edited_corpus(base: List[GeneratedFile], seed: int):
    """``base`` with ``APPEND_K`` files edited, and the indices edited.
    Each edit appends one ``log`` call whose message the workload seed
    writes: the file's IR changes, so the store must re-analyse it,
    while its API calls stay as they were."""
    indices = sorted(derive_rng(EDIT_SET_SEED, "append-edits")
                     .sample(range(len(base)), APPEND_K))
    files = list(base)
    for i in indices:
        tag = derive_rng(seed, "append-edit", i).getrandbits(32)
        files[i] = GeneratedFile(
            base[i].name, base[i].text + f'log("edited {tag:08x}");\n',
            "java", base[i].classes)
    return files, indices


class QueryStream:
    """In-process alias queries over held-out Java snippets against the
    specs just mined: what a client analysis pays per query with them.
    The snippet population is fixed; the workload seed orders it.  The
    blocks run between the timed learns, so the query rate samples the
    same stretch of time as ``learn_s``.  Each block's rate is taken at
    reference speed (``common.at_reference``) and the run reports their
    median."""

    def __init__(self, specs_json: str, seed: int) -> None:
        self.generator = CorpusGenerator(java_registry(), CorpusConfig(
            seed=JAVA_SNIPPET_SEED, max_scenarios=2))
        self.order = list(range(JAVA_SNIPPETS))
        derive_rng(seed, "java-snippets").shuffle(self.order)
        self.sent = 0
        self.specs_json = specs_json
        self.digest = hashlib.sha256(specs_json.encode()).hexdigest()
        self.latencies: List[float] = []
        #: answered queries per second of each block, at reference speed
        self.rates: List[float] = []
        #: the host's reference reading after the last block
        self.reference = 0.0
        self.attempted = 0
        self.failed = 0

    def run_for(self, seconds: float) -> None:
        """Run blocks of the stream until they took ``seconds``."""
        self.reference = 0.0  # the learn ran since the last reading
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.block(QUERY_BLOCK)

    def block(self, size: int) -> None:
        """Run the next ``size`` queries of the stream."""
        payloads = [
            QueryPayload("alias", "java",
                         self.generator.generate_one(
                             self.order[i % JAVA_SNIPPETS]).text,
                         "{}", self.specs_json, self.digest)
            for i in range(self.sent, self.sent + size)
        ]
        self.sent += size
        latencies: List[float] = []
        before = self.reference or reference_seconds()
        for payload in payloads:
            start = time.perf_counter()
            try:
                reply = run_query(payload)
            except Exception:  # a failed query is counted, not fatal
                self.failed += 1
                continue
            latencies.append(time.perf_counter() - start)
            if not valid_reply(reply):
                self.failed += 1
        self.reference = reference_seconds()
        self.attempted += size
        self.latencies += latencies
        if latencies:
            self.rates.append(len(latencies) / at_reference(
                sum(latencies), before, self.reference))

    def report(self, out: Outcome) -> None:
        out.attempted += self.attempted
        out.failed += self.failed
        out.check("every in-process query reply is valid", self.failed == 0,
                  f"{self.failed} of {self.attempted} failed")
        if self.latencies:
            out.metric("query_capacity_qps",
                       statistics.median(self.rates), "1/s")
            out.params.update(
                queries=len(self.latencies), query_blocks=len(self.rates),
                query_p50_ms=percentile(self.latencies, 50) * 1e3,
                query_p99_ms=percentile(self.latencies, 99) * 1e3)


def _layer_metrics(reps: List[Rep], out: Outcome) -> None:
    def med(fn) -> float:
        return statistics.median([float(fn(rep)) for rep in reps])

    for name in sorted({k for rep in reps for k in rep.layers}):
        out.metric(name, med(lambda r: r.layers.get(name, 0.0)),
                   "count" if not name.endswith("_s") else "s")

    def dispatch(rep: Rep, *keys: str) -> float:
        d = rep.report.dispatch or {}
        return sum(float(d.get(k, 0)) for k in keys)

    report_metrics = {
        "mining.analyze_s": (lambda r: r.report.seconds_analyze, "s"),
        "mining.train_s": (lambda r: r.report.seconds_train, "s"),
        "mining.extract_s": (lambda r: r.report.seconds_extract, "s"),
        "mining.dispatch.round_trips": (
            lambda r: dispatch(r, "n_round_trips"), "count"),
        "mining.dispatch.bytes": (
            lambda r: dispatch(r, "bytes_sent", "bytes_received"), "B"),
        "mining.dispatch.serialize_s": (
            lambda r: dispatch(r, "seconds_serialize",
                               "seconds_deserialize"), "s"),
        "mining.model_broadcast_bytes": (
            lambda r: r.report.model_broadcast_bytes, "B"),
        "mining.affinity_hit_ratio": (
            lambda r: r.report.affinity_hit_rate, "ratio"),
        "mining.cache_repairs": (lambda r: r.report.n_cache_repairs, "count"),
        "mining.bundles_shipped": (
            lambda r: r.report.n_bundles_shipped, "count"),
        "mining.attempts_failed": (
            lambda r: r.report.ledger.n_failures if r.report.ledger else 0,
            "count"),
        "mining.analyzed": (lambda r: r.report.n_analyzed, "count"),
        "mining.from_store": (lambda r: r.report.n_from_store, "count"),
        "mining.cache_hit_ratio": (
            lambda r: r.report.cache_hit_rate or 0.0, "ratio"),
        "store.bytes_written": (lambda r: r.store_bytes, "B"),
        "store.generation": (
            lambda r: r.report.store_generation or 0, "count"),
    }
    for name, (fn, unit) in report_metrics.items():
        out.metric(name, med(fn), unit)


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> Outcome:
    out = Outcome()
    n_files = APPEND_FILES if workload == "mine-append" else JAVA_FILES
    generator = CorpusGenerator(java_registry(), CorpusConfig(
        n_files=n_files, seed=JAVA_CORPUS_SEED))
    jobs = 2 if workload == "mine-jobs2" else 1
    out.params.update(corpus_files=n_files,
                      corpus_seed=JAVA_CORPUS_SEED, jobs=jobs,
                      setups=SETUPS[workload])

    # -- set-up -------------------------------------------------------
    # mine-cold/mine-jobs2: generate the corpus text and learn a tiny
    # corpus (lazy imports, first-call paths, the pool's start), so every
    # timed repetition sees the same warm process; mine-append: generate
    # the corpus and seed a durable store with a full learn
    tiny = CorpusGenerator(java_registry(), CorpusConfig(
        n_files=WARMUP_FILES, seed=JAVA_CORPUS_SEED))
    setup_times: List[float] = []
    template: Optional[Path] = None
    for i in range(SETUPS[workload]):
        if workload == "mine-append":
            store = work / f"store-setup-{i}"

            def seed_store():
                files = generator.generate()
                _learn(generator, files, MiningConfig(
                    jobs=1, store_dir=str(store)))
                return files

            base, _, scaled = timed(seed_store)
            if template is not None:
                shutil.rmtree(template)
            template = store
        else:
            def warm_up():
                files = generator.generate()
                _learn(tiny, tiny.generate(), MiningConfig(jobs=jobs))
                return files

            base, _, scaled = timed(warm_up)
        setup_times.append(scaled)
    out.metric("setup_s", statistics.median(setup_times), "s")

    files = base
    if workload == "mine-append":
        files, indices = edited_corpus(base, seed)
        out.params.update(append_k=APPEND_K, edited=indices)

    # -- timed repetitions ----------------------------------------------
    tracer = Tracer(work / "layers") if trace else None

    def repetition(traced: bool) -> Rep:
        mining = MiningConfig(jobs=jobs)
        if workload == "mine-append":
            store = work / "store-rep"
            shutil.copytree(template, store)
            before = _file_sizes(store)
            mining = MiningConfig(jobs=1, store_dir=str(store), append=True)
        if traced:
            tracer.reset()
            install_mining(tracer)
        try:
            learned, elapsed, scaled = timed(
                lambda: _learn(generator, files, mining))
        finally:
            if traced:
                tracer.restore()
        layers: Dict[str, float] = {}
        if traced:
            tracer.collect()
            layers = dict(tracer.values)
            layers["specs.candidates"] = len(learned.extraction)
            layers["specs.selected"] = len(learned.specs)
        store_bytes = 0
        if workload == "mine-append":
            store_bytes = _bytes_written(before, store)
            shutil.rmtree(store)
        return _summary(learned, elapsed, scaled, traced, layers,
                        store_bytes)

    reps: List[Rep] = []
    queries: Optional[QueryStream] = None
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or not reps
           or (trace and len(reps) < 2)):
        # traced runs alternate untraced and traced repetitions, so the
        # tracing overhead is measured under the same conditions
        reps.append(repetition(trace and len(reps) % 2 == 1))
        if not trace:
            # untraced runs follow each learn with query blocks
            queries = queries or QueryStream(reps[0].specs, seed)
            queries.run_for(QUERY_SHARE * reps[-1].seconds)

    plain = [r for r in reps if not r.traced]
    last = plain[-1]
    out.metric("learn_s", statistics.median([r.scaled for r in plain]), "s")
    out.metric("spec_precision", last.precision, "ratio")
    out.metric("spec_recall", last.recall, "ratio")
    out.params.update(
        repetition_seconds=[round(r.seconds, 4) for r in reps],
        repetition_scaled=[round(r.scaled, 4) for r in reps],
        setup_scaled=[round(t, 4) for t in setup_times],
        traced_repetitions=[r.traced for r in reps])
    for rep in reps:
        out.attempted += rep.report.n_programs
        out.failed += rep.report.n_quarantined

    # -- correctness checks (untimed) -----------------------------------
    texts = {r.specs for r in reps}
    out.check("specs byte-identical across repetitions"
              + (" (traced and untraced)" if trace else ""),
              len(texts) == 1, f"{len(texts)} distinct spec files")
    if workload != "mine-append":
        # mine-append's smaller corpus is below the size at which all
        # three are learned (README.md)
        out.check("Tab. 3 flagship specs present",
                  last.flagship == len(FLAGSHIP),
                  f"{last.flagship} of {len(FLAGSHIP)}")
    if workload != "mine-cold":
        # mine-jobs2: the same corpus at --jobs 1, which is mine-cold;
        # mine-append: a from-scratch learn of the edited corpus
        reference = _learn(generator, files, MiningConfig(jobs=1))
        out.check(
            "specs byte-identical to a from-scratch --jobs 1 learn",
            specs_to_json(reference.specs, reference.scores) == last.specs)
        del reference
    if workload == "mine-append":
        analyzed = {r.report.n_analyzed for r in reps}
        out.check("append re-analysed exactly the edited files",
                  analyzed == {APPEND_K}, f"analysed {sorted(analyzed)}")
    if trace:
        traced = [r for r in reps if r.traced]
        calls = traced[-1].layers.get("pointsto.analyze_calls", 0)
        expected = APPEND_K if workload == "mine-append" else JAVA_FILES
        out.check("trace saw every analysed program", calls >= expected,
                  f"{calls:.0f} analyze calls, expected {expected}")
        out.metric("trace.overhead_ratio",
                   statistics.median([r.scaled for r in traced])
                   / statistics.median([r.scaled for r in plain]) - 1.0,
                   "ratio")
        _layer_metrics(traced, out)
    else:
        queries.report(out)
    # mine-jobs2's forked pool workers (0 for the in-process workloads)
    out.child_rss_mb = largest_child_peak_rss_mb()
    return out
