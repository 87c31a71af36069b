"""Trace serialization: the encoder against json.dumps, and the round trip."""

import json

from poabcast.cli import bundled_scenarios, load_scenario
from poabcast.runner import run
from poabcast.scenario import random_scenario
from poabcast.trace import Trace, TraceEvent

VARIANTS = ("tau-seq", "tau-paxos", "barrier-free")


def reference_json(ev: TraceEvent) -> str:
    rec = {"t": ev.time, "i": ev.index, "p": ev.actor, "kind": ev.kind, "data": ev.data}
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def corpus_traces(seeds=range(10)):
    for seed in seeds:
        for variant in VARIANTS:
            yield run(random_scenario(seed, variant))


def test_to_json_equals_json_dumps_on_corpus_events():
    events = 0
    for trace in corpus_traces():
        for ev in trace:
            assert ev.to_json() == reference_json(ev)
            events += 1
    assert events > 1000


def test_to_json_equals_json_dumps_on_a_hand_built_event():
    data = {
        "zeta": "ünïcödé ✓ \"quoted\" \\ \n tab\t",
        "alpha": {"b": [1, 2.5, None, True, False, {"y": 1, "x": []}], "a": "π"},
        "none": None,
        "flag": False,
        "neg": -3,
    }
    for actor in (-1, 0, 7):
        ev = TraceEvent(time=12, index=0, actor=actor, kind="kïnd  ", data=data)
        assert ev.to_json() == reference_json(ev)


def test_jsonl_round_trips_through_from_jsonl():
    texts = [t.to_jsonl() for t in corpus_traces(range(5))]
    bundled = sorted(bundled_scenarios())
    assert len(bundled) == 13
    texts += [run(load_scenario(name)).to_jsonl() for name in bundled]
    for text in texts:
        assert Trace.from_jsonl(text).to_jsonl() == text
