"""Trace serialization: the encoder against json.dumps, and the round trip."""

import json
import os
import subprocess
import sys

import pytest

import poabcast
from poabcast.cli import bundled_scenarios, load_scenario
from poabcast.runner import run
from poabcast.scenario import random_scenario
from poabcast.trace import _ITERENCODE, Trace, TraceEvent

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


def hand_built_trace() -> Trace:
    """Non-ASCII kinds (one with a line separator, U+2028) and text, nested
    lists and dicts, None/True/False and negative actors, and a summary of
    the same mix."""
    data = {
        "zeta": "ünïcödé ✓ \"quoted\" \\ \n tab\t",
        "alpha": {"b": [1, 2.5, None, True, False, {"y": 1, "x": []}], "a": "π"},
        "none": None,
        "flag": False,
        "neg": -3,
    }
    trace = Trace(summary={"scenario": "hånd", "crashes": {"2": 5}, "halted": [1, 2],
                           "expect_violation": True, "note": None})
    for actor in (-1, 0, 7, -12):
        for kind, payload in (("kïnd  ", data), ("deliver", {}), ("kïnd  ", {"x": [None]})):
            trace.append(TraceEvent(time=12, index=len(trace), actor=actor, kind=kind,
                                    data=payload))
    return trace


def test_to_json_equals_json_dumps_on_a_hand_built_event():
    for ev in hand_built_trace():
        assert jsonl_lines(Trace([ev]))[0] == reference_json(ev)


def test_to_jsonl_equals_json_dumps_line_by_line():
    traces = [run(load_scenario(name)) for name in bundled_scenarios()]
    traces.append(hand_built_trace())
    for trace in traces:
        assert jsonl_lines(trace) == reference_lines(trace)


# re-serializes the trace on stdin with the json module's C encoder hidden
PURE_PYTHON_ROUND_TRIP = """
import json.encoder, sys
json.encoder.c_make_encoder = None
from poabcast.trace import Trace
sys.stdout.write(Trace.from_jsonl(sys.stdin.read()).to_jsonl())
"""


def test_to_jsonl_without_the_c_encoder_writes_the_same_lines():
    trace = hand_built_trace()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(poabcast.__file__)),
               PYTHONIOENCODING="utf-8")
    out = subprocess.run(
        [sys.executable, "-c", PURE_PYTHON_ROUND_TRIP], input=trace.to_jsonl(),
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=60, check=True,
    ).stdout
    assert out[:-1].split("\n") == reference_lines(trace)


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
    for text in texts:
        assert Trace.from_jsonl(text).to_jsonl() == text


def test_an_event_the_encoder_writes_in_several_chunks_serializes_whole():
    data = {"big": list(range(100_000)), "kind": "x"}
    ev = TraceEvent(time=4, index=0, actor=2, kind="bulk", data=data)
    if json.encoder.c_make_encoder:
        assert len(_ITERENCODE(data, 0)) > 1  # the C encoder flushes long output
    trace = Trace([ev])
    expected = json.dumps({"data": data, "i": 0, "kind": "bulk", "p": 2, "t": 4},
                          sort_keys=True, separators=(",", ":"))
    assert jsonl_lines(trace)[0] == expected
    assert Trace.from_jsonl(trace.to_jsonl()).to_jsonl() == trace.to_jsonl()
