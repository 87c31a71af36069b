"""Trace records emitted by a simulation run.

A trace is the single source of truth for every checker: a globally
ordered list of events, serializable to line-delimited JSON so that
identical runs compare byte-for-byte. ``SCHEMA`` and ``OWN_LAYOUTS`` are
the trace's contract: a kind has one layout in a trace of one protocol.

In memory each event is a row, an exact tuple ``(time, index, actor, kind,
*values)`` with its data values in its layout's declared field order. A
row holds ints, strs and None alone, so the cyclic collector untracks it
at its first collection and never walks it again. Iterating a trace gives
its rows. Readers get records: ``Trace.by_kind`` gives each row as an
instance of its layout's record class, a named tuple of ``time``,
``index``, ``actor``, ``kind`` and the layout's fields, built on its first
use.

On file each event is the line ``{"data","i","kind","p","t"}`` as
``json.dumps`` sorts and packs it: each row is written, and each loaded
line admitted, by a line function compiled from its layout. ``SUMMARY``
declares the last line, the run's summary, which names the protocol:
``runner.build`` writes it, and ``Trace.from_jsonl`` admits it first.
"""

from __future__ import annotations

import json
import re
from collections import _tuplegetter  # namedtuple's field reader, in C where it can be
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple


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

# a line function: a row -> its event's JSON line, or None on a misfit
_Line = Callable[[tuple], Optional[str]]
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
    f-string behind an arity test and exact type tests of the kind's one
    layout. Its source holds SCHEMA's names only, never text read from a
    trace."""
    layout = layouts(protocol).get(kind)
    if layout is None:
        return None
    bad = [name for name in (kind, *layout) if not _NAME.match(name)]
    if bad:
        raise ValueError(f"SCHEMA name {bad[0]!r} cannot be written into a line function")
    # the row holds the values in declared order; json.dumps sorts the keys
    vs = [(f"v{k}", name, _TYPES[t]) for k, (name, t) in enumerate(layout.items())]
    tests = " and ".join(test.format(v=v) for v, _, (test, _) in vs)
    data = ",".join(f'"{name}":{{{write.format(v=v)}}}'
                    for v, name, (_, write) in sorted(vs, key=itemgetter(1)))
    text = '{{"data":{{' + data + '}},"i":{i},"kind":"' + kind + '","p":{p},"t":{t}}}'
    src = ["def line(row):",
           f" if len(row) != {4 + len(vs)}: return None",
           f" t, i, p, _{''.join(', ' + v for v, _, _ in vs)} = row",
           f" if {tests or 'True'}: return f'{text}'"]
    scope = {"esc": json.encoder.encode_basestring_ascii}
    exec(compile("\n".join(src), f"<trace line {protocol} {kind}>", "exec"), scope)
    line = _LINES[protocol][kind] = scope["line"]
    return line


def _misfit(index: Any, kind: Any, protocol: Optional[str]) -> ValueError:
    return ValueError(f"event {index} of kind {kind!r} fits no layout of a "
                      f"{protocol or 'summary-less'} trace")


def _lines(rows: List[tuple], protocol: Any) -> List[str]:
    """Each row's JSON line, keys sorted; the int fields print as in JSON.
    A ``protocol`` not in PROTOCOLS writes SCHEMA's layouts. Raises
    ValueError at the first row that does not fit its kind's layout."""
    if protocol not in PROTOCOLS:
        protocol = None
    lines = _LINES[protocol]
    out = []
    for row in rows:
        kind = row[3]
        write = lines.get(kind) or _compile(protocol, kind)
        line = write and write(row)
        if line is None:
            raise _misfit(row[1], kind, protocol)
        out.append(line)
    return out


# an event as readers get it: an instance of its layout's record class
Record = tuple


def _record_repr(self: tuple) -> str:
    return f"{self[3]}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self))})"


@lru_cache(maxsize=None)
def _record_class(kind: str, names: Tuple[str, ...]) -> type:
    """The record class of the layout ``names`` of ``kind``: a tuple subclass
    that a row constructs at C level, whose fields ``time``, ``index``,
    ``actor``, ``kind`` and ``names`` read through namedtuple's C getters."""
    fields = ("time", "index", "actor", "kind", *names)
    getters = {name: _tuplegetter(k, f"the event's {name}") for k, name in enumerate(fields)}
    return type("".join(word.title() for word in kind.split("-")), (tuple,),
                {"__slots__": (), "_fields": fields, "__repr__": _record_repr, **getters})


class _Records(dict):
    """Each kind -> its layout's record class in a trace of one protocol
    (None: no summary), looked up on its first use."""

    def __init__(self, protocol: Optional[str]) -> None:
        super().__init__()
        self.protocol = protocol

    def __missing__(self, kind: str) -> type:
        layout = layouts(self.protocol).get(kind)
        if layout is None:
            raise ValueError(f"kind {kind!r} fits no layout of a "
                             f"{self.protocol or 'summary-less'} trace")
        record = self[kind] = _record_class(kind, tuple(layout))
        return record


_RECORDS = {p: _Records(p) for p in (None, *PROTOCOLS)}


@dataclass
class Trace:
    """A run's events as rows in emit order (``Simulator.emit`` appends
    them), and its summary. Iterating a trace gives its rows; ``by_kind``
    gives records."""

    events: List[tuple] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)

    def record_types(self) -> Mapping[str, type]:
        """Each kind -> its layout's record class in this trace's protocol."""
        protocol = self.summary.get("protocol")
        return _RECORDS[protocol if protocol in PROTOCOLS else None]

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def by_kind(self, *kinds: str) -> List[Record]:
        """The events of ``kinds`` as records, in emit order."""
        want, types = set(kinds), self.record_types()
        return [types[row[3]](row) for row in self.events if row[3] in want]

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
        a summary ``SUMMARY`` does not admit, and for an event whose data
        keys are not its kind's layout's in a trace of the summary's
        protocol, or whose values do not fit it."""
        loaded, summary, ended = [], None, False
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
            t, i, p, kind, data = rec["t"], rec["i"], rec["p"], rec["kind"], rec["data"]
            # time, index and actor are ints; isinstance would let a JSON true pass
            if not (all(type(x) is int for x in (t, i, p)) and type(kind) is str
                    and type(data) is dict):
                raise ValueError(f"an event field has the wrong type: {line}")
            # emit numbers events from 0 in order, at non-decreasing times
            if i != len(loaded) or (loaded and t < loaded[-1][0]):
                raise ValueError(f"event {len(loaded)} is out of emit order: {line}")
            loaded.append((t, i, p, kind, data))
        _admit_summary(summary)
        protocol = summary["protocol"]
        table, rows = layouts(protocol), []
        for t, i, p, kind, data in loaded:
            layout = table.get(kind)
            if layout is None or data.keys() != layout.keys():
                raise _misfit(i, kind, protocol)
            rows.append((t, i, p, kind, *map(data.__getitem__, layout)))
        _lines(rows, protocol)
        return cls(rows, summary)


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
