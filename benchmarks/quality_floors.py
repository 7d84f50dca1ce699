"""Spec-quality floors: precision/recall at τ = 0.6 and the flagship specs.

Checks a specs file written by ``uspec learn --jobs 1`` against what
the paper measures (Fig. 7 precision/recall, Tab. 3 flagship specs)::

    PYTHONPATH=src python -m repro.cli learn --language java \\
        --files 150 --seed 9 --jobs 1 --out java.json
    PYTHONPATH=src python benchmarks/quality_floors.py java java.json

Recall needs every scored candidate, not just the selected ones the
specs file holds, so the script re-learns the same corpus in-process,
first requires its specs to be byte-identical to the file (so the
floors judge exactly what the CLI wrote), then scores the candidates
against the generator's ground truth.  Exit status 0 when every floor
holds, 1 otherwise.

The floors sit just below the values the pipeline reached when they
were recorded (Java P 0.903 / R 0.933, Python P 1.0 / R 0.722).  A
change that lowers them changes what the system learns: re-baseline
deliberately, never to make a run pass.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.corpus import (
    CorpusConfig,
    CorpusGenerator,
    java_registry,
    python_registry,
)
from repro.eval.precision_recall import precision_recall_curve
from repro.mining import MiningConfig, MiningEngine
from repro.specs import RetArg, RetSame
from repro.specs.serialize import specs_to_json

TAU = 0.6

#: language → (corpus files, corpus seed, min precision, min recall)
FLOORS = {
    "java": (150, 9, 0.90, 0.93),
    "python": (40, 9, 0.99, 0.72),
}

FLAGSHIP = {
    "java": (
        RetArg("java.util.HashMap.get", "java.util.HashMap.put", 2),
        RetSame("java.sql.ResultSet.getString"),
        RetSame("com.fasterxml.jackson.databind.JsonNode.path"),
    ),
    "python": (
        RetArg("Dict.SubscriptLoad", "Dict.SubscriptStore", 2),
    ),
}


def check(language: str, specs_path: str) -> list:
    """Every violated floor, as a human-readable line (empty = pass)."""
    n_files, seed, min_precision, min_recall = FLOORS[language]
    registry = java_registry() if language == "java" else python_registry()
    programs = CorpusGenerator(
        registry, CorpusConfig(n_files=n_files, seed=seed)
    ).programs()
    learned = MiningEngine(mining=MiningConfig(jobs=1)).learn(programs)
    if specs_to_json(learned.specs, learned.scores) \
            != Path(specs_path).read_text():
        return [f"{specs_path} is not the {language} corpus "
                f"({n_files} files, seed {seed}) learned at --jobs 1"]
    point = precision_recall_curve(
        learned.scores, registry.is_true_spec, (TAU,))[0]
    print(f"{language}: precision {point.precision:.3f} "
          f"(floor {min_precision}), recall {point.recall:.3f} "
          f"(floor {min_recall}) at tau {TAU}")
    failures = []
    if point.precision < min_precision:
        failures.append(f"precision {point.precision:.3f} < "
                        f"{min_precision}")
    if point.recall < min_recall:
        failures.append(f"recall {point.recall:.3f} < {min_recall}")
    for spec in FLAGSHIP[language]:
        if spec not in learned.specs:
            failures.append(f"flagship spec missing: {spec}")
    return failures


def main(argv: list) -> int:
    if len(argv) != 2 or argv[0] not in FLOORS:
        print("usage: quality_floors.py {java,python} SPECS_JSON",
              file=sys.stderr)
        return 2
    failures = check(argv[0], argv[1])
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
