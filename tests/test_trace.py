"""Trace serialization: the compiled lines against json.dumps, the schema
against the emit sites and the lines it admits, and the round trip."""

import ast
import json
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poabcast
from poabcast import trace as trace_module
from poabcast.cli import bundled_scenarios, load_scenario
from poabcast.runner import run
from poabcast.scenario import ClientSpec, Scenario, random_scenario
from poabcast.sim import DelayModel, OmegaScript
from poabcast.trace import SCHEMA, Trace, TraceEvent

VARIANTS = ("tau-seq", "tau-paxos", "barrier-free")


def reference_json(ev: TraceEvent) -> str:
    rec = {"t": ev.time, "i": ev.index, "p": ev.actor, "kind": ev.kind, "data": ev.data}
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def reference_lines(trace: Trace):
    summary = json.dumps({"summary": trace.summary}, sort_keys=True, separators=(",", ":"))
    return [reference_json(ev) for ev in trace] + [summary]


def corpus_traces(seeds=range(10)):
    for seed in seeds:
        for variant in VARIANTS:
            yield run(random_scenario(seed, variant))


def jsonl_lines(trace: Trace):
    """The lines ``to_jsonl`` writes, each event's and then the summary's."""
    text = trace.to_jsonl()
    assert text.endswith("\n")
    return text[:-1].split("\n")


def test_to_json_equals_json_dumps_on_corpus_events():
    events = 0
    for trace in corpus_traces():
        assert jsonl_lines(trace) == reference_lines(trace)
        events += len(trace)
    assert events > 1000


# text JSON must escape: quotes, backslash, controls, a line separator
# (U+2028), non-ASCII and astral characters
ESCAPED = 'ünïcödé ✓ "quoted" \\ \n tab\t \x00 \u2028 \U0001f600'


def hostile_trace() -> Trace:
    """Declared layouts holding escaped text, None and negative numbers, from
    negative actors, and a summary of nested lists and dicts, floats,
    None/True/False and the same text."""
    layouts = [
        ("deliver", {"instance": -1, "value": ESCAPED}),
        ("request", {"reqid": 2**64, "op": ESCAPED, "to": 0}),
        ("paxos-write", {"instance": 1, "value": "v", "ballot": -7, "payload": None}),
        ("paxos-write", {"instance": 1, "value": ESCAPED, "ballot": 2, "payload": ESCAPED}),
        ("crash", {}),
    ]
    summary = {"scenario": "hånd", "note": ESCAPED, "expect_violation": True, "none": None,
               "nested": {"b": [1, 2.5, None, True, False, {"y": 1, "x": []}], "a": "π"}}
    trace = Trace(summary=summary)
    for actor in (-1, 0, 7, -12):
        for kind, data in layouts:
            trace.append(TraceEvent(12, len(trace), actor, kind, data))
    return trace


def test_to_jsonl_equals_json_dumps_line_by_line():
    traces = [run(load_scenario(name)) for name in bundled_scenarios()]
    traces.append(hostile_trace())
    for trace in traces:
        assert jsonl_lines(trace) == reference_lines(trace)


def test_trace_event_is_an_immutable_record_built_by_keyword():
    ev = TraceEvent(time=3, index=1, actor=-1, kind="crash", data={})
    assert ev == TraceEvent(3, 1, -1, "crash", {})
    assert (ev.time, ev.index, ev.actor, ev.kind, ev.data) == (3, 1, -1, "crash", {})
    for name in ("time", "index", "actor", "kind", "data"):
        with pytest.raises(AttributeError):
            setattr(ev, name, 0)


def test_jsonl_round_trips_through_from_jsonl():
    texts = [t.to_jsonl() for t in corpus_traces(range(5))]
    bundled = sorted(bundled_scenarios())
    assert len(bundled) == 16
    texts += [run(load_scenario(name)).to_jsonl() for name in bundled]
    texts.append(hostile_trace().to_jsonl())
    for text in texts:
        assert Trace.from_jsonl(text).to_jsonl() == text


LAYOUTS = [(kind, layout) for kind, layouts in SCHEMA.items() for layout in layouts]


def type_name(t) -> str:
    return t.__name__ if isinstance(t, type) else str(t)


# what JSON must escape, line separators, a lone surrogate, non-ASCII and
# astral characters
HOSTILE_TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\t/\u2028\u2029é✓\ud800\U0001f600az'))
INTS = st.integers() | st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1, -1, 0])
VALUES = {int: INTS, str: HOSTILE_TEXT | st.text(), str | None: st.none() | HOSTILE_TEXT}
# a misfit puts a value in one field of the declared types; data of any such
# event, data with a field missing or added or not a dict, and an event of an
# undeclared kind fit no layout
MISFITS = {
    "bool in an int field": ((int,), True),
    "float in an int field": ((int,), 1.5),
    "int in a text field": ((str, str | None), 7),
    "nested list": ((int, str, str | None), [1, "a", None]),
}


@st.composite
def events(draw, kind, layout):
    """An event of ``layout``, and the misfit it was given, if any."""
    data = {name: draw(VALUES[t]) for name, t in layout.items()}
    misfit = draw(st.sampled_from([None, "missing field", "extra field", "data not a dict",
                                   "undeclared kind", *MISFITS]))
    fields = sorted(layout)
    if misfit in MISFITS:
        fields = [k for k in fields if layout[k] in MISFITS[misfit][0]]
    if not fields and misfit in ("missing field", *MISFITS):
        misfit = None
    elif misfit == "missing field":
        del data[draw(st.sampled_from(fields))]
    elif misfit == "extra field":
        data["zz"] = draw(VALUES[int])
    elif misfit == "data not a dict":
        data = [[k, v] for k, v in data.items()]
    elif misfit == "undeclared kind":
        kind = draw(HOSTILE_TEXT.filter(lambda k: k not in SCHEMA))
    elif misfit is not None:
        data[draw(st.sampled_from(fields))] = MISFITS[misfit][1]
    return TraceEvent(draw(INTS), draw(INTS), draw(INTS), kind, data), misfit


@pytest.mark.parametrize("kind, layout", LAYOUTS)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_layout_writes_json_dumps_bytes_on_either_path(kind, layout, data):
    # a fit is written as json.dumps writes it and read back as itself; a
    # misfit is refused both ways, by to_jsonl and by from_jsonl
    ev, misfit = data.draw(events(kind, layout))
    first = ev._replace(index=0)  # from_jsonl admits a lone event at index 0
    text = reference_json(first) + "\n" + json.dumps({"summary": {}}) + "\n"
    if misfit is None:
        assert jsonl_lines(Trace([ev]))[0] == reference_json(ev)
        assert Trace.from_jsonl(text).events == [first]
    else:
        with pytest.raises(ValueError, match="fits no layout"):
            Trace([ev]).to_jsonl()
        with pytest.raises(ValueError, match="fits no layout|wrong type"):
            Trace.from_jsonl(text)


def long_history_shaped(seed: int = 0, protocol: str = "barrier-free") -> Scenario:
    """A smaller run of the long-history benchmark's shape: n=5 under 5-15
    jitter with reordering, a rotating then settled leader, a crash, and
    loop clients."""
    n, horizon = 5, 6000
    segments = [(t, {p: (t // 1000) % n for p in range(n)}) for t in range(0, horizon // 2, 1000)]
    segments.append((horizon // 2, {p: 0 for p in range(n)}))
    return Scenario(
        name=f"long-shaped-{protocol}", protocol=protocol, n=n, horizon=horizon,
        delay=DelayModel.jitter(5, 15, seed), omega=OmegaScript(segments),
        crashes={n - 1: horizon // 3}, reorder=True,
        clients=[ClientSpec(cid=n + c, kind="loop", ops=[f"c{c}.{k}" for k in range(20)],
                            retry_every=120, start_at=10 * c) for c in range(4)],
    )


def test_every_simulator_event_takes_a_compiled_line(corpus_cycle):
    # the corpus fixture serialized each of its runs, so it holds no misfit
    assert sum(len(runs) for runs in corpus_cycle[0].values()) == 3000
    traces = [run(random_scenario(seed, "naive")) for seed in range(50)]
    traces += [run(load_scenario(name)) for name in bundled_scenarios()]
    traces += [run(long_history_shaped(protocol=variant)) for variant in VARIANTS]
    assert sum(len(t) for t in traces) > 10000
    for trace in traces:
        trace.to_jsonl()  # raises at the first event that fits no layout


def emitted_layouts():
    """(kind, keyword names) of every ``emit`` call in the package's source."""
    found = set()
    for path in sorted(pathlib.Path(poabcast.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"):
                continue
            kind = node.args[0]
            kinds = [kind.body, kind.orelse] if isinstance(kind, ast.IfExp) else [kind]
            names = [k.arg for k in node.keywords]
            assert None not in names, f"{path.name}:{node.lineno} emits **data"
            for k in kinds:
                assert isinstance(k, ast.Constant), f"{path.name}:{node.lineno} kind is not literal"
                found.add((k.value, frozenset(names)))
    return found


def test_every_emit_site_is_a_declared_layout():
    emitted = emitted_layouts()
    declared = {(kind, frozenset(layout)) for kind, layout in LAYOUTS}
    assert len(declared) == len(LAYOUTS) == 26 and len(SCHEMA) == 23
    # a line function picks a kind's layout by the number of fields alone
    assert all(len({len(lay) for lay in lays}) == len(lays) for lays in SCHEMA.values())
    # the crash entry, both arms of primary-begin/end, and branches that
    # random scenarios seldom reach
    for kind in ("crash", "primary-begin", "primary-end", "apply-bot", "reproposed",
                 "val-resent", "skip-proposed"):
        assert kind in {k for k, _ in emitted}
    assert emitted - declared == set(), "emitted but not declared"
    assert declared - emitted == set(), "declared but never emitted"


HOSTILE = ["x'", 'x"', "x{", "x}", "a\nb", "__import__('os')", "{v}", "deliver\n"]


def test_no_trace_text_reaches_generated_code(monkeypatch):
    table, sources = {}, []
    monkeypatch.setattr(trace_module, "_LINES", table)
    monkeypatch.setattr(trace_module, "compile", lambda src, *a: sources.append(src)
                        or compile(src, *a), raising=False)
    # hostile kinds and field names fit no layout, and are refused either way
    misfits = [TraceEvent(1, 0, 0, kind, {"instance": 1, "value": "v"}) for kind in HOSTILE]
    misfits += [TraceEvent(1, 0, 0, "deliver", {key: 1, "value": "v"}) for key in HOSTILE]
    for ev in misfits:
        with pytest.raises(ValueError, match="fits no layout"):
            Trace([ev]).to_jsonl()
        with pytest.raises(ValueError, match="fits no layout"):
            Trace.from_jsonl(reference_json(ev) + '\n{"summary": {}}\n')
    # hostile text in declared fields and in the summary is written as data
    trace = Trace([TraceEvent(2, k, 0, "deliver", {"instance": k, "value": h})
                   for k, h in enumerate(HOSTILE)], summary={h: h for h in HOSTILE})
    assert jsonl_lines(trace) == reference_lines(trace)
    assert Trace.from_jsonl(trace.to_jsonl()) == trace
    # only the declared deliver line was compiled, from SCHEMA's names
    assert set(table) == {"deliver"} and len(sources) == 1
    assert [h for h in HOSTILE if h in sources[0]] == []
    # a SCHEMA name that could break out of the generated line is refused
    monkeypatch.setitem(SCHEMA, "x'", ({},))
    with pytest.raises(ValueError, match="cannot be written"):
        Trace([TraceEvent(0, 0, 0, "x'", {})]).to_jsonl()
    assert len(sources) == 1


def readme_layouts():
    """(kind, {field: type}) of each row of README's trace-event table."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    table = readme[readme.index("| kind | data fields |"):]
    table = table[:table.index("\n\n")]
    rows = re.findall(r"^\| `([a-z-]+)` \| ((?:\\\||[^|])*) \|", table, re.M)
    return [(kind, dict(re.findall(r"`(\w+): ([^`]+)`", fields.replace("\\|", "|"))))
            for kind, fields in rows]


def test_readme_lists_the_schema_layouts():
    declared = [(kind, {name: type_name(t) for name, t in sorted(layout.items())})
                for kind, layout in LAYOUTS]
    documented = readme_layouts()
    key = lambda row: (row[0], sorted(row[1].items()))
    assert sorted(documented, key=key) == sorted(declared, key=key)
