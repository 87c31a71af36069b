"""The pinned runs, one line each in ``pins.txt``: ``<scenario> <events>
<sha256 of trace.to_jsonl()> <liveness> <failing verdicts, sorted and
comma-joined, or ->``. Its last line pins the whole corpus in the same
columns: the corpus's events, the sha256 of its runs' JSONL in seed-major
order, and the liveness verdicts and failing verdicts of all its runs. A
change that moves a run on purpose re-pins with

    PYTHONPATH=src python tests/pins.py > tests/pins.txt

and states its reason in CHANGES.md.
"""

import hashlib
from typing import Iterable, Tuple

from poabcast.checker import Report, check_all
from poabcast.cli import bundled_scenarios, load_scenario
from poabcast.runner import run
from poabcast.scenario import Scenario, random_scenario
from poabcast.trace import Trace

VARIANTS = ("tau-seq", "tau-paxos", "barrier-free")
CORPUS_SEEDS = range(1000)
CORPUS = "corpus-seeds-0-999"  # the corpus line's name

# the bundled scenarios in name order, then corpus seeds 0-29 seed-major
PINNED = (
    [load_scenario(name) for name in bundled_scenarios()]
    + [random_scenario(s, v) for s in range(30) for v in VARIANTS]
    + [random_scenario(99, "tau-paxos")]
)


def pin_line(scenario: Scenario) -> str:
    trace = run(scenario)
    report = check_all(trace)
    digest = hashlib.sha256(trace.to_jsonl().encode()).hexdigest()
    failing = ",".join(sorted(report.violations)) or "-"
    return f"{scenario.name} {len(trace)} {digest} {report.liveness} {failing}"


def corpus_line(runs: Iterable[Tuple[Trace, Report]]) -> str:
    """The corpus line over ``runs``, each trace with its report, in
    seed-major order."""
    digest, events, liveness, failing = hashlib.sha256(), 0, set(), set()
    for trace, report in runs:
        digest.update(trace.to_jsonl().encode())
        events += len(trace)
        liveness.add(report.liveness)
        failing.update(report.violations)
    verdicts = ",".join(sorted(failing)) or "-"
    return f"{CORPUS} {events} {digest.hexdigest()} {','.join(sorted(liveness))} {verdicts}"


def corpus_runs() -> Iterable[Tuple[Trace, Report]]:
    for seed in CORPUS_SEEDS:
        for variant in VARIANTS:
            trace = run(random_scenario(seed, variant))
            yield trace, check_all(trace)


if __name__ == "__main__":
    for scenario in PINNED:
        print(pin_line(scenario))
    print(corpus_line(corpus_runs()))
