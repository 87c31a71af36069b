"""The pinned runs, one line each in ``pins.txt``: ``<scenario> <events>
<sha256 of trace.to_jsonl()> <liveness> <failing verdicts, sorted and
comma-joined, or ->``. A change that moves a run on purpose re-pins with

    PYTHONPATH=src python tests/pins.py > tests/pins.txt

and states its reason in CHANGES.md.
"""

import hashlib

from poabcast.checker import check_all
from poabcast.cli import bundled_scenarios, load_scenario
from poabcast.runner import run
from poabcast.scenario import Scenario, random_scenario

# the bundled scenarios in name order, then corpus seeds 0-29 seed-major
PINNED = (
    [load_scenario(name) for name in bundled_scenarios()]
    + [random_scenario(s, v) for s in range(30) for v in ("tau-seq", "tau-paxos", "barrier-free")]
    + [random_scenario(99, "tau-paxos")]
)


def pin_line(scenario: Scenario) -> str:
    trace = run(scenario)
    report = check_all(trace)
    digest = hashlib.sha256(trace.to_jsonl().encode()).hexdigest()
    failing = ",".join(sorted(report.violations)) or "-"
    return f"{scenario.name} {len(trace)} {digest} {report.liveness} {failing}"


if __name__ == "__main__":
    for scenario in PINNED:
        print(pin_line(scenario))
