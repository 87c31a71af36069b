"""Trace records emitted by a simulation run.

A trace is the single source of truth for every checker: a globally
ordered list of events, serializable to line-delimited JSON so that
identical runs compare byte-for-byte. Events are tuple records; each line
is ``{"data","i","kind","p","t"}`` as ``json.dumps`` sorts and packs it.
``SCHEMA`` is the trace's contract: each event is written, and each loaded
event admitted, by a line function compiled from its kind's layouts, and an
event that fits none of them is an error.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple


# each event kind the simulator emits -> its data layouts, field -> type;
# the layouts of one kind differ in their number of fields
SCHEMA: Dict[str, Tuple[Dict[str, Any], ...]] = {
    "crash": ({},),
    "omega": ({"leader": int},),
    "paxos-read": ({"ballot": int, "lo": int},),
    "propose": ({"instance": int, "value": str},),
    "paxos-write": ({"instance": int, "value": str, "ballot": int, "payload": str | None},),
    "paxos-writing": ({"ballot": int, "watermark": int},),
    "decide": ({"instance": int, "value": str},),
    "primary-begin": ({},),
    "primary-end": ({},),
    "broadcast": (
        {"instance": int, "value": str},
        {"instance": int, "seqno": int, "epoch": int, "value": str},
    ),
    "deliver": (
        {"instance": int, "value": str},
        {"instance": int, "epoch": int, "seqno": int, "value": str},
    ),
    "reproposed": ({"instance": int, "value": str},),
    "barrier-crossed": ({"tau": int, "dec": int, "ballot": int},),
    "skip-proposed": ({"lo": int, "target": int},),
    "new-epoch-proposed": ({"epoch": int, "instance": int},),
    "epoch-established": ({"epoch": int, "instance": int},),
    "val-resent": ({"instance": int, "seqno": int},),
    "request": ({"reqid": int, "op": str}, {"reqid": int, "op": str, "to": int}),
    "retransmit": ({"reqid": int},),
    "response": ({"reqid": int, "record": str, "post": str},),
    "execute": ({"client": int, "reqid": int},),
    "applied": ({"client": int, "reqid": int, "record": str, "state": str},),
    "apply-bot": ({"client": int, "reqid": int, "expected": str, "state": str},),
}

# a declared kind -> its line function, (t, i, p, data) -> the event's JSON
# line, or None when the data fits none of the kind's layouts exactly
_LINES: Dict[str, Callable[[int, int, int, Any], Optional[str]]] = {}
# a SCHEMA name that may be written into generated source: it holds no quote,
# brace or backslash, and JSON writes it as itself in quotes
_NAME = re.compile(r"[a-z][a-z-]*\Z")
# each declared type -> the test its value {v} must pass, and the expression
# that writes it as JSON
_TYPES = {
    int: ("type({v}) is int", "{v}"),
    str: ("type({v}) is str", "esc({v})"),
    str | None: ("({v} is None or type({v}) is str)", '"null" if {v} is None else esc({v})'),
}


def _compile(kind: str) -> Optional[Callable[[int, int, int, Any], Optional[str]]]:
    """The line function of a declared kind, compiled and kept on its first
    use, or None for an undeclared kind: one branch per layout, an f-string
    behind exact type tests. Its source holds SCHEMA's names only, never
    text read from a trace."""
    layouts = SCHEMA.get(kind)
    if layouts is None:
        return None
    bad = [name for name in (kind, *(k for lay in layouts for k in lay)) if not _NAME.match(name)]
    if bad:
        raise ValueError(f"SCHEMA name {bad[0]!r} cannot be written into a line function")
    src = ["def line(t, i, p, d):", " if type(d) is not dict: return None", " n = len(d)"]
    for layout in layouts:
        names = sorted(layout)
        vs = [(f"v{k}", _TYPES[layout[name]]) for k, name in enumerate(names)]
        reads = "; ".join(f"{v} = d[{name!r}]" for name, (v, _) in zip(names, vs))
        tests = " and ".join(test.format(v=v) for v, (test, _) in vs)
        data = ",".join(f'"{name}":{{{write.format(v=v)}}}'
                        for name, (v, (_, write)) in zip(names, vs))
        text = '{{"data":{{' + data + '}},"i":{i},"kind":"' + kind + '","p":{p},"t":{t}}}'
        src += [
            f" if n == {len(names)}:",
            f"  try: {reads or 'pass'}",
            "  except KeyError: return None",
            f"  if {tests or 'True'}:",
            f"   return f'{text}'",
        ]
    src.append(" return None")
    scope = {"esc": json.encoder.encode_basestring_ascii}
    exec(compile("\n".join(src), f"<trace line {kind}>", "exec"), scope)
    line = _LINES[kind] = scope["line"]
    return line


class TraceEvent(NamedTuple):
    """One trace record, an immutable tuple in this field order."""

    time: int
    index: int  # global tie-break order within the run
    actor: int  # replica / client id, -1 for run-level events
    kind: str
    data: Dict[str, Any]


def _lines(events: Iterable[TraceEvent]) -> List[str]:
    """Each event's JSON line, keys sorted; the int fields print as in JSON.
    Raises ValueError at the first event that fits no layout of its kind."""
    lines = _LINES
    out = []
    for t, i, p, kind, data in events:
        write = lines.get(kind) or _compile(kind)
        line = write and write(t, i, p, data)
        if line is None:
            raise ValueError(f"event {i} of kind {kind!r} fits no layout trace.SCHEMA declares")
        out.append(line)
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
        lines.append(json.dumps({"summary": self.summary}, sort_keys=True, separators=(",", ":")))
        lines.append("")  # the final newline, without a second copy of the text
        return "\n".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """The trace ``text`` holds; raises ValueError for an event of a wrong
        envelope type, out of emit order, or of no declared layout, and for
        any line after the summary line."""
        trace, ended = cls(), False
        for line in text.splitlines():
            if not line.strip():
                continue
            if ended:  # to_jsonl writes one summary line, and writes it last
                raise ValueError(f"a line follows the summary line: {line}")
            rec = json.loads(line)
            if "summary" in rec:
                trace.summary, ended = rec["summary"], True
                continue
            ev = TraceEvent(rec["t"], rec["i"], rec["p"], rec["kind"], rec["data"])
            # time, index and actor are ints; isinstance would let a JSON true pass
            if not (
                all(type(x) is int for x in ev[:3])
                and isinstance(ev.kind, str)
                and isinstance(ev.data, dict)
            ):
                raise ValueError(f"an event field has the wrong type: {line}")
            # emit numbers events from 0 in order, at non-decreasing times
            if ev.index != len(trace) or (trace.events and ev.time < trace.events[-1].time):
                raise ValueError(f"event {len(trace)} is out of emit order: {line}")
            trace.append(ev)
        _lines(trace.events)
        return trace
