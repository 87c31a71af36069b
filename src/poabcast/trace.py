"""Trace records emitted by a simulation run.

A trace is the single source of truth for every checker: a globally
ordered list of events, serializable to line-delimited JSON so that
identical runs compare byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List


# what json.dumps(obj, sort_keys=True, separators=(",", ":")) builds on each call
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class TraceEvent:
    time: int
    index: int  # global tie-break order within the run
    actor: int  # replica / client id, -1 for run-level events
    kind: str
    data: Dict[str, Any]

    def to_json(self) -> str:
        # the record's keys in sorted order; the three int fields print as JSON does
        return (
            f'{{"data":{_ENCODE(self.data)},"i":{self.index},'
            f'"kind":{_ENCODE(self.kind)},"p":{self.actor},"t":{self.time}}}'
        )


@dataclass
class Trace:
    events: List[TraceEvent] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)

    def append(self, ev: TraceEvent) -> None:
        self.events.append(ev)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def by_kind(self, *kinds: str) -> List[TraceEvent]:
        want = set(kinds)
        return [e for e in self.events if e.kind in want]

    def to_jsonl(self) -> str:
        lines = [e.to_json() for e in self.events]
        lines.append(_ENCODE({"summary": self.summary}))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        trace = cls()
        for line in text.splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            if "summary" in rec:
                trace.summary = rec["summary"]
                continue
            trace.append(
                TraceEvent(rec["t"], rec["i"], rec["p"], rec["kind"], rec["data"])
            )
        return trace
