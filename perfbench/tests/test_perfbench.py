"""The benchmark's own tests, on workloads cut down to a few runs."""

import json
import os
import time
from functools import partial

import pytest

from perfbench import harness
from perfbench.tracer import SCANS, TARGETS, Tracer
from perfbench.workloads import Corpus, LongHistory, ThroughputSweep, check_scenario
from poabcast.scenario import random_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")

SMALL = {
    "corpus": partial(Corpus, seeds=2, warm=1),
    "throughput-sweep": partial(ThroughputSweep, sweeps={1024: [1, 4], 0: [2]}),
    "long-history": partial(LongHistory, clients=2, ops=4, horizon=5000),
}


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUPS", 1)


def entry_points():
    return [(owner, attr) for _, owner, attr in TARGETS] + list(SCANS)


def originals_in_place(originals):
    return all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())


class Probe(Corpus):
    """A corpus that notes, per run, whether every entry point is the original."""

    def __init__(self, seed, originals, seen):
        super().__init__(seed, seeds=2, warm=1)
        self.originals, self.seen = originals, seen

    def run_one(self, item):
        self.seen.append(originals_in_place(self.originals))
        return check_scenario(item)


def test_traced_run_restores_every_entry_point_and_untraced_pass_sees_originals():
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in entry_points()}
    seen = []
    result, _ = harness.traced(lambda seed: Probe(seed, originals, seen), 0, SRC, None)
    assert result["correct"]
    runs = 2 * 3  # a cycle: two seeds x three variants; the warm-up is one seed
    assert seen == [True] * (3 + runs) + [False] * runs
    assert originals_in_place(originals)


def test_entry_points_are_restored_when_the_traced_code_raises():
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in entry_points()}
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert not originals_in_place(originals)
            raise RuntimeError("boom")
    assert originals_in_place(originals)


def test_two_traced_runs_give_identical_counts():
    for name, make in SMALL.items():
        first, info1 = harness.traced(make, 3, SRC, None)
        second, info2 = harness.traced(make, 3, SRC, None)
        assert info1["counts"] == info2["counts"], name
        counts = {k for k, (_, unit) in first["metrics"].items() if unit == "count"}
        assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
        assert info1["counts"]["calls.trace.emit"] > 0, name


def test_every_printed_metric_is_declared_in_benchmark_json(capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        if trace:
            result, info = harness.traced(SMALL["long-history"], 0, SRC, None)
        else:
            result, info = harness.untraced(SMALL["corpus"], 0, 0, SRC)
        harness.report(result, info)
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {k: v["unit"] for k, v in line["metrics"].items()}
        assert printed == declared


def test_a_run_that_raises_is_counted_as_failed_not_dropped():
    wl = Corpus(0, seeds=1, warm=0)
    broken = random_scenario(1, "tau-seq")
    broken.protocol = "no-such-protocol"  # runner.build raises on it
    wl.items.append(broken)
    w = harness.measure(wl, 0)
    assert w.attempted == len(wl.items)
    assert w.raised == 1 and w.failed >= 1
    assert len(w.times) == len(wl.items) - 1
    tally = harness.tally([w], [])
    assert tally["attempted"] == len(wl.items) and not tally["correct"]


def test_host_speed_samples_are_kept_out_of_the_window():
    wl = Corpus(0, seeds=2, warm=0)
    t0 = time.perf_counter()
    w = harness.measure(wl, 0, sample_host=True)
    wall = time.perf_counter() - t0
    assert w.host and len(w.times) == len(wl.items)
    assert w.elapsed <= wall - sum(w.host)


def test_attempted_and_failed_count_items_not_repeats():
    wl = Corpus(0, seeds=1, warm=0)
    broken = random_scenario(1, "tau-seq")
    broken.protocol = "no-such-protocol"
    wl.items.append(broken)
    w = harness.measure(wl, 0, cycles=3)
    assert w.runs == 3 * len(wl.items) and w.raised == 3
    assert (w.attempted, w.failed) == (len(wl.items), 1)


def test_a_run_is_a_whole_cycle_where_the_workload_says_so():
    wl = SMALL["throughput-sweep"](0)
    w = harness.measure(wl, 0, cycles=2)
    n = len(wl.items)
    assert len(w.times) == 2 * n
    assert harness.run_times(wl, w, w.times) == [sum(w.times[:n]), sum(w.times[n:])]
    corpus = SMALL["corpus"](0)
    assert harness.run_times(corpus, w, w.times) == w.times
