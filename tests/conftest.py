"""Shared fixtures: the randomized corpus, simulated, checked and serialized
once a session."""

from dataclasses import dataclass
from typing import Dict, List

import pytest

from poabcast.checker import HistoryOp, Report, TraceIndex, check_all, extract_history
from poabcast.runner import run
from poabcast.scenario import random_scenario

from fallbacks import encoder_fallbacks

VARIANTS = ("tau-seq", "tau-paxos", "barrier-free")
CORPUS_SEEDS = range(1000)


@dataclass
class CorpusRun:
    scenario: str
    report: Report
    history: List[HistoryOp]
    fallbacks: List[str]  # events to_jsonl wrote through the JSON encoder


@pytest.fixture(scope="session")
def corpus() -> Dict[str, List[CorpusRun]]:
    """Per variant, the report, client history and encoder fallbacks of
    ``random_scenario(seed, variant)`` for every corpus seed; the traces
    themselves are not kept."""
    runs: Dict[str, List[CorpusRun]] = {}
    for variant in VARIANTS:
        for seed in CORPUS_SEEDS:
            trace = run(random_scenario(seed, variant))
            runs.setdefault(variant, []).append(
                CorpusRun(
                    trace.summary["scenario"],
                    check_all(trace),
                    extract_history(TraceIndex(trace)),
                    encoder_fallbacks(trace),
                )
            )
    return runs
