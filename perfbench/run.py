"""USpec benchmark: one command, four workloads.

    python3 perfbench/run.py --workload mine-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric of BENCHMARK.json; ``--trace 1`` runs the same workload with the
per-layer wrappers of ``layers.py`` and prints every per-layer metric.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every correctness check passed, 1 when one failed, 2 on a usage or
environment error (for example a directory without ``src/repro``).
See README.md for the workloads, the metrics and what each layer metric
is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mine-cold", "mine-jobs2", "mine-append", "serve-query")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print("error: run from a checkout holding src/repro and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    # everything the run writes, the engine's spill directories
    # included, stays inside the checkout and is removed at the end
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    tempfile.tempdir = str(work)
    os.environ["TMPDIR"] = str(work)
    try:
        outcome = _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _report(args, spec, outcome)


def _run(args, work: Path):
    if args.workload == "serve-query":
        import serving

        return serving.run(args.seed, args.seconds, bool(args.trace), work)
    import mining

    return mining.run(args.workload, args.seed, args.seconds,
                      bool(args.trace), work)


def _report(args, spec, outcome) -> int:
    from common import environment, own_peak_rss_mb

    if not args.trace:
        outcome.metric("peak_rss_mb",
                       own_peak_rss_mb() + outcome.child_rss_mb, "MB")
        ok = outcome.attempted - outcome.failed
        outcome.metric("ok_ratio", ok / max(1, outcome.attempted), "ratio")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        value, got_unit = outcome.metrics.get(name, (0.0, unit))
        if name not in outcome.metrics and not args.trace:
            outcome.check(f"metric {name} measured", False)
        if got_unit != unit:
            outcome.check(f"metric {name} unit {unit}", False, got_unit)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value!r} {unit}")
    for name, passed, detail in outcome.checks:
        mark = "ok  " if passed else "FAIL"
        print(f"check {mark} {name}" + (f" ({detail})" if detail else ""))
    record = dict(environment(), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  **outcome.params)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
