"""Trace records emitted by a simulation run.

A trace is the single source of truth for every checker: a globally
ordered list of events, serializable to line-delimited JSON so that
identical runs compare byte-for-byte. Events are tuple records; each line
is ``{"data","i","kind","p","t"}`` as ``json.dumps`` sorts and packs it.
``SCHEMA`` is the trace's contract: each event is written, and each loaded
event admitted, by a line function compiled from its kind's layouts, and an
event that fits none of them is an error. ``SUMMARY`` declares the last
line, the run's summary: ``runner.build`` writes it and ``Trace.from_jsonl``
admits exactly its fields.
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

# the protocols a trace may be of, the checks' variants
PROTOCOLS = ("naive", "tau-seq", "tau-paxos", "barrier-free")

# the summary's fields -> their types, each matched exactly (a bool is not an
# int); its protocol is also one of PROTOCOLS
SUMMARY: Dict[str, type] = {
    "scenario": str,
    "protocol": str,
    "n": int,
    "horizon": int,
    "expect_violation": bool,
    "base_delay": int,
}
# each summary type, as an error names it
_ARTICLES = {int: "an integer", bool: "a boolean", str: "a string"}
# the keys of an event line, as to_jsonl writes them
_EVENT_KEYS = {"t", "i", "p", "kind", "data"}

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
        """The trace ``text`` holds; raises ValueError for a line that is
        neither an event nor the summary, for an event of a wrong envelope
        type, out of emit order, or of no declared layout, for any line after
        the summary line, and for a summary ``SUMMARY`` does not admit."""
        trace, summary, ended = cls(), None, False
        for line in text.splitlines():
            if not line.strip():
                continue
            if ended:  # to_jsonl writes one summary line, and writes it last
                raise ValueError(f"a line follows the summary line: {line}")
            rec = json.loads(line)
            if type(rec) is dict and rec.keys() == {"summary"}:
                summary, ended = rec["summary"], True
                continue
            if type(rec) is not dict or rec.keys() != _EVENT_KEYS:
                raise ValueError(f"a line is neither an event nor the summary: {line}")
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
        _admit_summary(summary)
        trace.summary = summary
        return trace


def _admit_summary(summary: Any) -> None:
    """Raise ValueError unless ``summary``, the summary line's value or None
    for no summary line, names a known protocol and holds exactly SUMMARY's
    fields, each of exactly its declared type."""
    if type(summary) is not dict or summary.get("protocol") not in PROTOCOLS:
        raise ValueError("no summary line names a known protocol")
    for key in SUMMARY:
        if key not in summary:
            raise ValueError(f"summary has no {key}")
    for key in summary:
        if key not in SUMMARY:
            raise ValueError(f"summary has an undeclared key: {key!r}")
    for key, kind in SUMMARY.items():
        if type(summary[key]) is not kind:
            raise ValueError(f"summary {key} is not {_ARTICLES[kind]}: {summary[key]!r}")
