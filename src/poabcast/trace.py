"""Trace records emitted by a simulation run.

A trace is the single source of truth for every checker: a globally
ordered list of events, serializable to line-delimited JSON so that
identical runs compare byte-for-byte. Events are tuple records; each line
is ``{"data","i","kind","p","t"}`` as ``json.dumps`` sorts and packs it.
``SCHEMA`` and ``OWN_LAYOUTS`` are the trace's contract: a kind has one
layout in a trace of one protocol, and each event is written, and each
loaded event admitted, by a line function compiled from it. ``SUMMARY``
declares the last line, the run's summary, which names the protocol:
``runner.build`` writes it, and ``Trace.from_jsonl`` admits it first.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional


# each event kind the simulator emits -> its data layout, field -> type: the
# one every protocol writes, but where OWN_LAYOUTS gives a protocol its own
SCHEMA: Dict[str, Dict[str, Any]] = {
    "crash": {},
    "omega": {"leader": int},
    "paxos-read": {"ballot": int, "lo": int},
    "propose": {"instance": int, "value": str},
    "paxos-write": {"instance": int, "value": str, "ballot": int, "payload": str | None},
    "paxos-writing": {"ballot": int, "watermark": int},
    "decide": {"instance": int, "value": str},
    "primary-begin": {},
    "primary-end": {},
    "broadcast": {"instance": int, "value": str},
    "reproposed": {"instance": int, "value": str},
    "deliver": {"instance": int, "value": str},
    "barrier-crossed": {"tau": int, "dec": int},
    "skip-proposed": {"lo": int, "target": int},
    "new-epoch-proposed": {"epoch": int, "instance": int},
    "epoch-established": {"epoch": int, "instance": int},
    "val-resent": {"instance": int, "seqno": int},
    "request": {"reqid": int, "op": str},
    "apply-bot": {"client": int, "reqid": int, "expected": str, "state": str},
    "retransmit": {"reqid": int},
    "response": {"reqid": int, "record": str, "post": str},
    "execute": {"client": int, "reqid": int},
    "applied": {"client": int, "reqid": int, "record": str, "state": str},
}

# the protocols a trace may be of, the checks' variants
PROTOCOLS = ("naive", "tau-seq", "tau-paxos", "barrier-free")

# the layouts a protocol writes in place of SCHEMA's, as its checks read them:
# barrier-free tags each delivery with its epoch and seqno, and tau-paxos
# names a primary epoch by the ballot it crossed the barrier with
OWN_LAYOUTS: Dict[str, Dict[str, Dict[str, Any]]] = {
    "barrier-free": {"deliver": {"instance": int, "epoch": int, "seqno": int, "value": str}},
    "tau-paxos": {"barrier-crossed": {"tau": int, "dec": int, "ballot": int}},
}


def layouts(protocol: Optional[str]) -> Dict[str, Dict[str, Any]]:
    """Each kind's one layout in a trace of ``protocol`` (None: no summary)."""
    return {**SCHEMA, **OWN_LAYOUTS.get(protocol, {})}


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

# a line function: (t, i, p, data) -> the event's JSON line, or None on a misfit
_Line = Callable[[int, int, int, Any], Optional[str]]
# a protocol, or None for a trace with no summary -> each declared kind's line
_LINES: Dict[Optional[str], Dict[str, _Line]] = {p: {} for p in (None, *PROTOCOLS)}
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


def _compile(protocol: Optional[str], kind: str) -> Optional[_Line]:
    """The line function of a declared kind in a trace of ``protocol``,
    compiled and kept on its first use, or None for an undeclared kind: an
    f-string behind exact type tests of the kind's one layout. Its source
    holds SCHEMA's names only, never text read from a trace."""
    layout = layouts(protocol).get(kind)
    if layout is None:
        return None
    names = sorted(layout)
    bad = [name for name in (kind, *names) if not _NAME.match(name)]
    if bad:
        raise ValueError(f"SCHEMA name {bad[0]!r} cannot be written into a line function")
    vs = [(f"v{k}", _TYPES[layout[name]]) for k, name in enumerate(names)]
    reads = "; ".join(f"{v} = d[{name!r}]" for name, (v, _) in zip(names, vs))
    tests = " and ".join(test.format(v=v) for v, (test, _) in vs)
    data = ",".join(f'"{name}":{{{write.format(v=v)}}}' for name, (v, (_, write)) in zip(names, vs))
    text = '{{"data":{{' + data + '}},"i":{i},"kind":"' + kind + '","p":{p},"t":{t}}}'
    src = ["def line(t, i, p, d):",
           f" if type(d) is not dict or len(d) != {len(names)}: return None",
           f" try: {reads or 'pass'}",
           " except KeyError: return None",
           f" if {tests or 'True'}: return f'{text}'"]
    scope = {"esc": json.encoder.encode_basestring_ascii}
    exec(compile("\n".join(src), f"<trace line {protocol} {kind}>", "exec"), scope)
    line = _LINES[protocol][kind] = scope["line"]
    return line


class TraceEvent(NamedTuple):
    """One trace record, an immutable tuple in this field order."""

    time: int
    index: int  # global tie-break order within the run
    actor: int  # replica / client id, -1 for run-level events
    kind: str
    data: Dict[str, Any]


def _lines(events: Iterable[TraceEvent], protocol: Any) -> List[str]:
    """Each event's JSON line, keys sorted; the int fields print as in JSON.
    A ``protocol`` not in PROTOCOLS writes SCHEMA's layouts. Raises
    ValueError at the first event that does not fit its kind's layout."""
    if protocol not in PROTOCOLS:
        protocol = None
    lines = _LINES[protocol]
    out = []
    for t, i, p, kind, data in events:
        write = lines.get(kind) or _compile(protocol, kind)
        line = write and write(t, i, p, data)
        if line is None:
            raise ValueError(f"event {i} of kind {kind!r} fits no layout of a "
                             f"{protocol or 'summary-less'} trace")
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
        lines = _lines(self.events, self.summary.get("protocol"))
        lines.append(json.dumps({"summary": self.summary}, sort_keys=True, separators=(",", ":")))
        lines.append("")  # the final newline, without a second copy of the text
        return "\n".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """The trace ``text`` holds; raises ValueError for a line that is
        neither an event nor the summary, for an event of a wrong envelope
        type or out of emit order, for any line after the summary line, for
        a summary ``SUMMARY`` does not admit, and for an event that does not
        fit its kind's layout in a trace of the summary's protocol."""
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
            if not (all(type(x) is int for x in ev[:3]) and type(ev.kind) is str
                    and type(ev.data) is dict):
                raise ValueError(f"an event field has the wrong type: {line}")
            # emit numbers events from 0 in order, at non-decreasing times
            if ev.index != len(trace) or (trace.events and ev.time < trace.events[-1].time):
                raise ValueError(f"event {len(trace)} is out of emit order: {line}")
            trace.append(ev)
        _admit_summary(summary)
        _lines(trace.events, summary["protocol"])
        trace.summary = summary
        return trace


def _admit_summary(summary: Any) -> None:
    """Raise ValueError unless ``summary``, the summary line's value or None
    for no summary line, names a known protocol and holds exactly SUMMARY's
    fields, each of exactly its declared type."""
    if type(summary) is not dict or summary.get("protocol") not in PROTOCOLS:
        raise ValueError("no summary line names a known protocol")
    for key in summary:
        if key not in SUMMARY:
            raise ValueError(f"summary has an undeclared key: {key!r}")
    for key, kind in SUMMARY.items():
        if key not in summary:
            raise ValueError(f"summary has no {key}")
        if type(summary[key]) is not kind:
            raise ValueError(f"summary {key} is not {_ARTICLES[kind]}: {summary[key]!r}")
