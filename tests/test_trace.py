"""Trace serialization: the compiled lines against json.dumps, the schema
against the emit sites and the lines it admits, and the round trip."""

import ast
import gc
import json
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poabcast
from poabcast import trace as trace_module
from poabcast.cli import bundled_scenarios, load_scenario
from poabcast.runner import build, run
from poabcast.scenario import ClientSpec, Scenario, random_scenario
from poabcast.sim import DelayModel, OmegaScript
from poabcast.trace import OWN_LAYOUTS, PROTOCOLS, SCHEMA, SUMMARY, Trace, layouts

from rows import row

VARIANTS = ("tau-seq", "tau-paxos", "barrier-free")


def reference_json(t, i, p, kind, data) -> str:
    rec = {"t": t, "i": i, "p": p, "kind": kind, "data": data}
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def record_json(ev) -> str:
    """A record's line, its fields after ``kind`` named as its data."""
    return reference_json(*ev[:4], dict(zip(ev._fields[4:], ev[4:])))


def reference_lines(trace: Trace):
    summary = json.dumps({"summary": trace.summary}, sort_keys=True, separators=(",", ":"))
    return [record_json(ev) for ev in trace.by_kind(*SCHEMA)] + [summary]


def complete_summary(**fields):
    """A summary of every ``SUMMARY`` field, with ``fields`` overriding its own."""
    return {"scenario": "s", "protocol": "tau-seq", "n": 3, "horizon": 100,
            "expect_violation": False, "base_delay": 10, **fields}


# the summary line of a trace from_jsonl admits
SUMMARY_LINE = json.dumps({"summary": complete_summary()}) + "\n"


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
        ("request", {"reqid": 2**64, "op": ESCAPED}),
        ("paxos-write", {"instance": 1, "value": "v", "ballot": -7, "payload": None}),
        ("paxos-write", {"instance": 1, "value": ESCAPED, "ballot": 2, "payload": ESCAPED}),
        ("crash", {}),
    ]
    summary = {"scenario": "hånd", "note": ESCAPED, "expect_violation": True, "none": None,
               "nested": {"b": [1, 2.5, None, True, False, {"y": 1, "x": []}], "a": "π"}}
    trace = Trace(summary=summary)
    for actor in (-1, 0, 7, -12):
        for kind, data in layouts:
            trace.events.append(row(12, len(trace), actor, kind, data))
    return trace


def test_to_jsonl_equals_json_dumps_line_by_line():
    traces = [run(load_scenario(name)) for name in bundled_scenarios()]
    traces.append(hostile_trace())
    for trace in traces:
        assert jsonl_lines(trace) == reference_lines(trace)
    # the reference built from the hostile events' own data, not their records
    assert jsonl_lines(hostile_trace())[:5] == [
        reference_json(12, k, -1, kind, data) for k, (kind, data) in enumerate([
            ("deliver", {"instance": -1, "value": ESCAPED}),
            ("request", {"reqid": 2**64, "op": ESCAPED}),
            ("paxos-write", {"instance": 1, "value": "v", "ballot": -7, "payload": None}),
            ("paxos-write", {"instance": 1, "value": ESCAPED, "ballot": 2, "payload": ESCAPED}),
            ("crash", {})])]


def test_a_record_is_an_immutable_view_of_its_row():
    rows = [(3, 0, -1, "crash"), (4, 1, 0, "deliver", 7, "v"), (5, 2, 1, "deliver", 8, 2, 1, "w")]
    tau = Trace(rows[:2], {"protocol": "tau-seq"})
    free = Trace(rows[::2], {"protocol": "barrier-free"})
    [crash], [ev] = tau.by_kind("crash"), tau.by_kind("deliver")
    assert (crash, ev) == tuple(rows[:2])
    assert (ev.time, ev.index, ev.actor, ev.kind, ev.instance, ev.value) == rows[1]
    assert repr(ev) == "deliver(time=4, index=1, actor=0, kind='deliver', instance=7, value='v')"
    # one class a layout: barrier-free's deliver names its own fields
    [bf] = free.by_kind("deliver")
    assert (bf.instance, bf.epoch, bf.seqno, bf.value) == (8, 2, 1, "w")
    assert type(bf) is not type(ev) and type(ev) is type(Trace([rows[1]]).by_kind("deliver")[0])
    for name in ev._fields:
        with pytest.raises(AttributeError):
            setattr(ev, name, 0)
    assert not hasattr(ev, "data")


def test_jsonl_round_trips_through_from_jsonl():
    traces = list(corpus_traces(range(5)))
    bundled = sorted(bundled_scenarios())
    assert len(bundled) == 16
    traces += [run(load_scenario(name)) for name in bundled]
    for trace in traces:
        assert set(trace.summary) == set(SUMMARY)
    # hostile text in a declared summary field is read back as itself
    hostile = hostile_trace()
    hostile.summary = complete_summary(scenario=ESCAPED)
    traces.append(hostile)
    for trace in traces:
        text = trace.to_jsonl()
        assert Trace.from_jsonl(text).to_jsonl() == text


def test_a_trace_cut_mid_run_carries_the_scenarios_summary():
    # build writes the summary, so a run stopped short of its horizon is a trace
    scenario = random_scenario(3, "tau-paxos")
    cut = Trace.from_jsonl(build(scenario).run(150).to_jsonl())
    assert cut.summary == run(scenario).summary
    assert cut.summary["scenario"] == scenario.name and cut.summary["n"] == scenario.n


# each declared type -> a value of the wrong type (a bool for an int, an int
# for a bool, a number for a string), and the type as an error names it
WRONG = {int: (True, "an integer"), bool: (1, "a boolean"), str: (5, "a string")}


def summary_faults():
    """(summary line, error) for each SUMMARY field missing and of the wrong
    type, an undeclared key and an unknown protocol."""
    unknown = "no summary line names a known protocol"
    for key, kind in SUMMARY.items():
        summary = complete_summary()
        del summary[key]
        yield summary, unknown if key == "protocol" else f"summary has no {key}"
        value, named = WRONG[kind]
        yield (complete_summary(**{key: value}),
               unknown if key == "protocol" else f"summary {key} is not {named}: ")
    # a key an earlier kit wrote, and a protocol no check knows
    yield complete_summary(crashes={}), "summary has an undeclared key: 'crashes'"
    yield complete_summary(protocol="paxos"), unknown


@pytest.mark.parametrize("summary, error", list(summary_faults()))
def test_from_jsonl_admits_exactly_the_declared_summary(summary, error):
    text = reference_json(0, 0, 0, "crash", {}) + "\n"
    assert Trace.from_jsonl(text + SUMMARY_LINE).summary == complete_summary()
    with pytest.raises(ValueError, match=re.escape(error)):
        Trace.from_jsonl(text + json.dumps({"summary": summary}) + "\n")


@pytest.mark.parametrize("text", [
    "5\n", "[]\n", '"summary"\n', "null\n",
    '{"t": 0, "i": 0, "p": 0, "data": {}}\n',
    '{"t": 0, "i": 0, "p": 0, "kind": "crash", "data": {}, "x": 1}\n',
    '{"summary": {}, "t": 0}\n',
], ids=["int", "list", "text", "null", "lacks-kind", "extra-key", "summary-and-more"])
def test_from_jsonl_refuses_a_line_that_is_neither_an_event_nor_the_summary(text):
    with pytest.raises(ValueError, match="neither an event nor the summary"):
        Trace.from_jsonl(text + SUMMARY_LINE)


# each declared layout: SCHEMA's in its order, each followed by the layouts
# OWN_LAYOUTS gives a protocol in its place
LAYOUTS = [(kind, layout) for kind, shared in SCHEMA.items()
           for layout in (shared, *(own[kind] for own in OWN_LAYOUTS.values() if kind in own))]


def protocol_of(kind, layout) -> str:
    """A protocol whose traces hold ``layout``: the one it is its own layout
    of, else tau-seq, which holds SCHEMA's alone."""
    return next((p for p, own in OWN_LAYOUTS.items() if own.get(kind) is layout), "tau-seq")


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
    """An event ``(t, i, p, kind, data)`` of ``layout``, and the misfit it
    was given, if any."""
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
    return (draw(INTS), draw(INTS), draw(INTS), kind, data), misfit


def event_row(t, i, p, kind, data, protocol):
    """The row of an event, its data a dict or, for the misfit that is not,
    the one value its row holds."""
    if type(data) is not dict:
        return (t, i, p, kind, data)
    return row(t, i, p, kind, data, protocol)


@pytest.mark.parametrize("kind, layout", LAYOUTS)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_layout_writes_json_dumps_bytes_on_either_path(kind, layout, data):
    # a fit is written as json.dumps writes it and read back as itself, in a
    # trace of a protocol that holds its layout; a misfit is refused both
    # ways, by to_jsonl and by from_jsonl
    (t, i, p, kind, fields), misfit = data.draw(events(kind, layout))
    protocol = protocol_of(kind, layout)
    summary = complete_summary(protocol=protocol)
    ev = event_row(t, i, p, kind, fields, protocol)
    # from_jsonl admits a lone event at index 0
    text = reference_json(t, 0, p, kind, fields) + "\n" + json.dumps({"summary": summary}) + "\n"
    if misfit is None:
        assert jsonl_lines(Trace([ev], summary))[0] == reference_json(t, i, p, kind, fields)
        assert Trace.from_jsonl(text).events == [(t, 0, *ev[2:])]
    else:
        with pytest.raises(ValueError, match="fits no layout"):
            Trace([ev], summary).to_jsonl()
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


def test_the_collector_untracks_every_row_a_run_leaves():
    # a row holds ints, strs and None alone, so a collection untracks it and
    # no later one walks it
    for protocol in PROTOCOLS:
        trace = run(long_history_shaped(protocol=protocol))
        gc.collect()
        assert len(trace) > 500
        assert [ev for ev in trace if type(ev) is not tuple or gc.is_tracked(ev)] == []


def emitted_layouts():
    """Each package module's name -> (kind, keyword names in call order) of
    its ``emit`` calls."""
    found = {}
    for path in sorted(pathlib.Path(poabcast.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"):
                continue
            kind = node.args[0]
            kinds = [kind.body, kind.orelse] if isinstance(kind, ast.IfExp) else [kind]
            names = tuple(k.arg for k in node.keywords)
            assert None not in names, f"{path.name}:{node.lineno} emits **data"
            for k in kinds:
                assert isinstance(k, ast.Constant), f"{path.name}:{node.lineno} kind is not literal"
                found.setdefault(path.stem, set()).add((k.value, names))
    return found


# each broadcast layer's module -> the protocols it runs as
LAYER_PROTOCOLS = {"abcast": ("naive",), "tau": ("tau-seq", "tau-paxos"),
                   "barrier_free": ("barrier-free",)}


def as_names(table):
    return {(kind, tuple(layout)) for kind, layout in table.items()}


def test_every_emit_site_is_a_declared_layout():
    # a row holds its values in call order, so each call passes its layout's
    # fields as keywords in declared order, never as **data
    emitted = emitted_layouts()
    declared = {(kind, tuple(layout)) for kind, layout in LAYOUTS}
    assert len(declared) == len(LAYOUTS) == 25 and len(SCHEMA) == 23
    assert {kind for own in OWN_LAYOUTS.values() for kind in own} == {"deliver", "barrier-crossed"}
    # each layer writes its own protocols' layouts, and the shared modules
    # (the simulator, Paxos, the layer skeleton, replication) SCHEMA's alone
    for module, sites in emitted.items():
        protocols = LAYER_PROTOCOLS.get(module, (None,))
        allowed = set().union(*(as_names(layouts(p)) for p in protocols))
        assert sites - allowed == set(), (
            f"{module}.py writes a layout its protocols lack, or its fields out of order")
    assert set(LAYER_PROTOCOLS) <= set(emitted)
    # the crash entry, both arms of primary-begin/end, and branches that
    # random scenarios seldom reach
    kinds = {k for sites in emitted.values() for k, _ in sites}
    for kind in ("crash", "primary-begin", "primary-end", "apply-bot", "reproposed",
                 "val-resent", "skip-proposed"):
        assert kind in kinds
    assert declared - set().union(*emitted.values()) == set(), "declared but never emitted"


HOSTILE = ["x'", 'x"', "x{", "x}", "a\nb", "__import__('os')", "{v}", "deliver\n"]


def test_no_trace_text_reaches_generated_code(monkeypatch):
    table, sources = {protocol: {} for protocol in (None, *PROTOCOLS)}, []
    monkeypatch.setattr(trace_module, "_LINES", table)
    monkeypatch.setattr(trace_module, "compile", lambda src, *a: sources.append(src)
                        or compile(src, *a), raising=False)
    # hostile kinds and field names fit no layout, and are refused either way
    misfits = [(1, 0, 0, kind, {"instance": 1, "value": "v"}) for kind in HOSTILE]
    misfits += [(1, 0, 0, "deliver", {key: 1, "value": "v"}) for key in HOSTILE]
    for ev in misfits:
        with pytest.raises(ValueError, match="fits no layout"):
            Trace([row(*ev)]).to_jsonl()
        with pytest.raises(ValueError, match="fits no layout"):
            Trace.from_jsonl(reference_json(*ev) + "\n" + SUMMARY_LINE)
    # hostile text in declared fields and in the summary is written as data,
    # and read back as itself from the declared fields
    trace = Trace([(2, k, 0, "deliver", k, h) for k, h in enumerate(HOSTILE)],
                  summary={h: h for h in HOSTILE})
    assert jsonl_lines(trace) == reference_lines(trace)
    trace.summary = complete_summary(scenario="".join(HOSTILE))
    assert Trace.from_jsonl(trace.to_jsonl()) == trace
    # only the declared deliver line was compiled, from SCHEMA's names: once
    # for the traces with no summary and once for the tau-seq ones
    compiled = {protocol: set(lines) for protocol, lines in table.items() if lines}
    assert compiled == {None: {"deliver"}, "tau-seq": {"deliver"}} and len(sources) == 2
    assert [h for h in HOSTILE if any(h in source for source in sources)] == []
    # a SCHEMA name that could break out of the generated line is refused
    monkeypatch.setitem(SCHEMA, "x'", {})
    with pytest.raises(ValueError, match="cannot be written"):
        Trace([(0, 0, 0, "x'")]).to_jsonl()
    assert len(sources) == 2


def readme_layouts():
    """(kind, protocols, {field: type}) of each row of README's trace-event table."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    table = readme[readme.index("| kind | in traces of | data fields |"):]
    table = table[:table.index("\n\n")]
    rows = re.findall(r"^\| `([a-z-]+)` \| ([^|]*) \| ((?:\\\||[^|])*) \|", table, re.M)
    return [(kind, protocols,
             dict(re.findall(r"`(\w+): ([^`]+)`", fields.replace("\\|", "|"))))
            for kind, protocols, fields in rows]


def test_readme_lists_the_schema_layouts():
    # each layout, with the protocols whose traces hold it
    def holders(kind, layout):
        held = [p for p in PROTOCOLS if layouts(p)[kind] is layout]
        return "every protocol" if len(held) == len(PROTOCOLS) else ", ".join(held)

    declared = [(kind, holders(kind, layout),
                 {name: type_name(t) for name, t in sorted(layout.items())})
                for kind, layout in LAYOUTS]
    documented = readme_layouts()
    key = lambda row: (row[0], row[1], sorted(row[2].items()))
    assert sorted(documented, key=key) == sorted(declared, key=key)


def test_readme_lists_the_summary_fields():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    table = readme[readme.index("| field | type | read by |"):]
    table = table[:table.index("\n\n")]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", table, re.M)
    assert rows == [(name, kind.__name__) for name, kind in SUMMARY.items()]
