"""Acceptance suite: the eight headline guarantees of the artifact.

1. Latency table exactness (deterministic, zero tolerance)
2. The poisoned-apply counterexample and its absence under the real protocols
3. Randomized safety corpus: thousands of seeded adversarial runs, zero violations
4. Linearizability of every run: the digest-chain walk passes the whole
   corpus and agrees with an exhaustive oracle; corrupted replies fail
5. Election-protocol lemmas over the barrier-free corpus (checked in 3)
6. Sequentiality of the black-box barrier protocol (checked in 3)
7. Sequential-vs-parallel throughput ratio and empty-request parity
8. Byte-identical determinism of traces and CSV
"""

import dataclasses
import hashlib
import pathlib

import pytest

from poabcast.bench import (
    bench_table1,
    bench_throughput,
    peak_throughput,
    rows_to_csv,
)
from poabcast.checker import TraceIndex, check_all, check_linearizable, extract_history
from poabcast.cli import bundled_scenarios, load_scenario
from poabcast.runner import run
from poabcast.scenario import random_scenario
from poabcast.sim import DelayModel

from oracle import exhaustive_linearizable
from pins import PINNED, pin_line

VARIANTS = ("tau-seq", "tau-paxos", "barrier-free")


# -- 1: latency table ---------------------------------------------------------


def test_latency_table_is_exact():
    rows = {r.protocol: r for r in bench_table1(delta=10, clients=5)}
    # stable span: last of 5 concurrent client values delivered at the leader;
    # idle: ticks from the oracle switch to the new leader's first useful write
    assert rows["naive"].stable_latency == 20
    assert rows["naive"].leader_change_idle == 20
    assert rows["tau-seq"].stable_latency == 100
    assert rows["tau-seq"].leader_change_idle == 40
    assert rows["tau-paxos"].stable_latency == 20
    assert rows["tau-paxos"].leader_change_idle == 40
    assert rows["barrier-free"].stable_latency == 20
    assert rows["barrier-free"].leader_change_idle == 40


def test_latency_table_closed_forms_hold_on_a_grid():
    # stable latency is 2cδ for tau-seq (one value per round trip) and 2δ for
    # the others; leader-change idle time is 2δ for naive (one read round
    # trip) and 4δ for the barrier variants (one round trip more)
    for delta in (1, 2, 3, 7, 10, 17):
        for c in (1, 2, 3, 5, 8):
            for row in bench_table1(delta=delta, clients=c):
                stable = 2 * c * delta if row.protocol == "tau-seq" else 2 * delta
                idle = 2 * delta if row.protocol == "naive" else 4 * delta
                got = (row.stable_latency, row.leader_change_idle)
                assert got == (stable, idle), (row.protocol, delta, c)


# -- 2: the counterexample schedule ----------------------------------------------


def test_naive_abcast_reaches_a_poisoned_apply_and_fails_primary_integrity():
    trace = run(load_scenario("fig2-naive-abcast"))
    assert trace.by_kind("apply-bot"), "no replica hit the poisoned apply"
    report = check_all(trace)
    assert "primary-integrity" in report.violations
    assert "no-failed-applies" in report.violations
    # the weakness is above plain atomic broadcast: its own properties hold
    for prop in ("integrity", "total-order", "agreement"):
        assert report.verdicts[prop] is None


@pytest.mark.parametrize("variant", VARIANTS)
def test_same_schedule_is_harmless_under_every_real_variant(variant):
    trace = run(load_scenario(f"fig2-{variant}"))
    assert not trace.by_kind("apply-bot")
    report = check_all(trace)
    assert report.violations == {}


# -- 3: randomized safety corpus, with 5: election lemmas and 6: sequentiality -------


# the safety verdicts check_all gives every real variant's runs
SAFETY_PROPERTIES = (
    "consensus-agreement",
    "integrity",
    "total-order",
    "agreement",
    "local-primary-order",
    "global-primary-order",
    "primary-integrity",
    "barrier",
    "at-most-once",
    "no-failed-applies",
    "digest-convergence",
    "primary-mapping",
    "linearizable",
)


@pytest.mark.parametrize("variant", VARIANTS)
def test_randomized_corpus_has_zero_safety_violations(corpus, variant):
    checked = set()
    for r in corpus[variant]:
        assert r.report.violations == {}, f"{r.scenario}: {r.report.violations}"
        assert r.report.linearizable is True, r.scenario
        checked.update(r.report.verdicts)
    # the corpus was judged by exactly the property catalogue; the barrier
    # contract only exists for the tau protocols, the election lemmas (5) for
    # barrier-free and proposal sequentiality (6) for tau-seq
    required = set(SAFETY_PROPERTIES)
    if variant == "barrier-free":
        required.discard("barrier")
        required.add("election-order")
    if variant == "tau-seq":
        required.add("sequential-instances")
    if variant == "tau-paxos":
        required.add("single-ballot-epochs")
    assert checked == required


# once the oracle settles, its leader's proposals are decided, so every
# client request of every corpus run is answered
@pytest.mark.parametrize("variant", VARIANTS)
def test_every_corpus_run_is_live(corpus, variant):
    stalled = [r.scenario for r in corpus[variant] if r.report.liveness != "pass"]
    assert stalled == []


# -- 4: linearizability -----------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_small_histories_linearize(variant):
    for name in (f"stable-{variant}", f"leaderchange-{variant}"):
        trace = run(load_scenario(name))
        history = extract_history(TraceIndex(trace))
        assert len(history) <= 10
        assert check_linearizable(history) is True


def corrupted_history(name, field, value):
    """The history of a bundled scenario with its first response's ``field``
    overwritten, as a corrupted reply table would."""
    trace = run(load_scenario(name))
    trace.by_kind("response")[0].data[field] = value
    return extract_history(TraceIndex(trace))


# a reply table rebuilt from a bad digest, and one that forged a record
CORRUPTED = [
    ("stable-tau-seq", "post", "0" * 12),
    ("stable-tau-paxos", "record", "r(999:999:forged)"),
]


def test_corrupted_reply_table_fails_linearizability():
    for case in CORRUPTED:
        assert check_linearizable(corrupted_history(*case)) is False, case


def test_chain_walk_agrees_with_the_exhaustive_oracle(corpus):
    # random_scenario gives 120 of the 3000 runs 11-12 ops, past the oracle's reach
    small = [r.history for runs in corpus.values() for r in runs if len(r.history) <= 10]
    assert len(small) == 2880
    bundled = [
        extract_history(TraceIndex(run(load_scenario(name)))) for name in bundled_scenarios()
    ]
    assert len(bundled) == 16
    corrupted = [corrupted_history(*case) for case in CORRUPTED]
    for history in small + bundled + corrupted:
        assert check_linearizable(history) == exhaustive_linearizable(history), history


# -- 7: throughput ratio ------------------------------------------------------------------


# sha256 of the default sweeps' CSVs; a change that moves either on
# purpose re-pins it and says why
SWEEP_CSV = {
    1024: "834ad320b3a9a09db75ce6b82679b3fdc04dfba75ec99f830aee7c8044f17017",
    0: "fc8d990affdc99cba22cc75094f2a52e5f7e83bf37ec623da5b022e2b306c044",
}


def _sweep_csv_sha256(rows) -> str:
    return hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()


def test_parallel_instances_beat_sequential_on_large_requests():
    rows = bench_throughput(request_size=1024)
    seq = peak_throughput(rows, "sequential")
    par = peak_throughput(rows, "parallel")
    assert par >= 1.5 * seq, f"peak ratio {par / seq:.3f} below 1.5"
    assert _sweep_csv_sha256(rows) == SWEEP_CSV[1024]


def test_empty_requests_show_parity():
    rows = bench_throughput(request_size=0)
    seq = peak_throughput(rows, "sequential")
    par = peak_throughput(rows, "parallel")
    assert abs(par - seq) <= 0.10 * seq, f"parity broken: seq={seq} par={par}"
    assert _sweep_csv_sha256(rows) == SWEEP_CSV[0]


# -- 8: determinism ------------------------------------------------------------------------


def test_reruns_are_byte_identical():
    for scenario in (
        load_scenario("dual-leader-sigma3"),
        random_scenario(99, "tau-paxos"),  # jitter in play; its reorder draw is off
    ):
        assert run(scenario).to_jsonl() == run(scenario).to_jsonl()


def test_benchmark_csv_is_byte_identical_across_runs():
    assert rows_to_csv(bench_table1()) == rows_to_csv(bench_table1())


FIXED_DELAY_SCENARIOS = [
    name for name in bundled_scenarios()
    if load_scenario(name).delay.min_delay == load_scenario(name).delay.max_delay
]


@pytest.mark.parametrize("name", FIXED_DELAY_SCENARIOS)
def test_fixed_delay_traces_are_unchanged_under_a_zero_width_jitter(name):
    scenario = load_scenario(name)
    d = scenario.delay.max_delay
    want = run(scenario).to_jsonl()
    for seed in (1, 7, 2**40 + 3):
        zero_width = dataclasses.replace(scenario, delay=DelayModel.jitter(d, d, seed))
        assert run(zero_width).to_jsonl() == want


# tests/pins.txt, one line per run of pins.PINNED: a run that moves fails
# under its own name, and its re-pin is a line diff
PIN_LINES = (pathlib.Path(__file__).parent / "pins.txt").read_text().splitlines()
PINS = {line.split(" ", 1)[0]: line for line in PIN_LINES}


@pytest.mark.parametrize("scenario", PINNED, ids=lambda s: s.name)
def test_each_run_matches_its_pin(scenario):
    assert pin_line(scenario) == PINS.get(scenario.name)


def test_the_pin_table_has_one_line_per_pinned_run():
    names = [s.name for s in PINNED]
    table = [line.split(" ", 1)[0] for line in PIN_LINES]
    assert [n for n in names if n not in PINS] == [], "pinned runs without a line"
    assert [n for n in table if n not in names] == [], "lines of no pinned run"
    assert table == names
