"""Shared fixtures: the randomized corpus, simulated, checked and serialized
once a session."""

from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest

from poabcast.checker import HistoryOp, Report, TraceIndex, extract_history

from pins import corpus_line, corpus_runs


@dataclass
class CorpusRun:
    scenario: str
    report: Report
    history: List[HistoryOp]


@pytest.fixture(scope="session")
def corpus_cycle() -> Tuple[Dict[str, List[CorpusRun]], str]:
    """Per variant, the report and client history of ``random_scenario(seed,
    variant)`` for every corpus seed, and the corpus's pin line; serializing
    each trace for that line raises at an event outside ``trace.SCHEMA``. The
    traces themselves are not kept."""
    runs: Dict[str, List[CorpusRun]] = {}

    def checked():
        for trace, report in corpus_runs():
            runs.setdefault(trace.summary["protocol"], []).append(
                CorpusRun(trace.summary["scenario"], report, extract_history(TraceIndex(trace)))
            )
            yield trace, report

    line = corpus_line(checked())
    return runs, line


@pytest.fixture(scope="session")
def corpus(corpus_cycle) -> Dict[str, List[CorpusRun]]:
    return corpus_cycle[0]
