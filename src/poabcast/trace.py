"""Trace records emitted by a simulation run.

A trace is the single source of truth for every checker: a globally
ordered list of events, serializable to line-delimited JSON so that
identical runs compare byte-for-byte. Events are tuple records; each line
is ``{"data","i","kind","p","t"}`` as ``json.dumps`` sorts and packs it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple


# what json.dumps(obj, sort_keys=True, separators=(",", ":")) builds on each call
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# _ENCODE's C encoder, built once: (obj, 0) -> chunks of the same text; it
# keeps no circular-reference markers, as trace data is a tree
_ITERENCODE = json.encoder.c_make_encoder(
    None, _ENCODE.__self__.default, json.encoder.encode_basestring_ascii, None, ":", ",",
    True, False, True,
) if json.encoder.c_make_encoder else lambda obj, _level: (_ENCODE(obj),)
_KINDS: Dict[str, str] = {}  # event kind -> its JSON string


class TraceEvent(NamedTuple):
    """One trace record, an immutable tuple in this field order."""

    time: int
    index: int  # global tie-break order within the run
    actor: int  # replica / client id, -1 for run-level events
    kind: str
    data: Dict[str, Any]


def _lines(events: Iterable[TraceEvent]) -> List[str]:
    """Each event's JSON line, keys sorted; the int fields print as in JSON."""
    kinds, encode, join = _KINDS, _ITERENCODE, "".join
    out = []
    for t, i, p, kind, data in events:
        k = kinds.get(kind)
        if k is None:
            k = kinds[kind] = join(encode(kind, 0))
        out.append(f'{{"data":{join(encode(data, 0))},"i":{i},"kind":{k},"p":{p},"t":{t}}}')
    return out


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
        lines = _lines(self.events)
        lines.append("".join(_ITERENCODE({"summary": self.summary}, 0)))
        lines.append("")  # the final newline, without a second copy of the text
        return "\n".join(lines)

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
            ev = TraceEvent(rec["t"], rec["i"], rec["p"], rec["kind"], rec["data"])
            # time, index and actor are ints; isinstance would let a JSON true pass
            if not (
                all(type(x) is int for x in ev[:3])
                and isinstance(ev.kind, str)
                and isinstance(ev.data, dict)
            ):
                raise ValueError(f"an event field has the wrong type: {line}")
            trace.append(ev)
        return trace
