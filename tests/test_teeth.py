"""Checkers with teeth: known-bad protocols are flagged within the corpus or
on a bundled schedule, and the verdict texts the weak control earns are
pinned."""

import hashlib
from collections import Counter

from poabcast.barrier_free import BarrierFreeBroadcast
from poabcast.checker import check_all
from poabcast.cli import load_scenario, render_report
from poabcast.paxos import PaxosNode
from poabcast.runner import run
from poabcast.scenario import random_scenario
from poabcast.tau import TauBroadcast
from poabcast.values import ValTuple


def flagged(protocol, seeds):
    """Seed -> sorted violated properties, for the seeds whose run violates any."""
    out = {}
    for seed in seeds:
        report = check_all(run(random_scenario(seed, protocol)))
        if report.violations:
            out[seed] = sorted(report.violations)
    return out


def test_a_zero_barrier_is_caught_by_the_barrier_check(monkeypatch):
    # tau = 0 lets every leader cross at once, over values its predecessor
    # may still get decided. tau-seq's consensus does not hold back a second
    # instance, so seeds 0 and 2 are caught by sequential-instances alone
    monkeypatch.setattr(TauBroadcast, "tau", lambda self: 0)
    expected = {
        "tau-paxos": (list(range(20)), [1, 3, 4, 5, 9, 16, 17]),
        "tau-seq": ([0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 13, 14, 16, 17], [1, 3, 4, 5, 9, 16, 17]),
    }
    for protocol, (seeds, barrier) in expected.items():
        runs = flagged(protocol, range(20))
        assert list(runs) == seeds
        assert [seed for seed, props in runs.items() if "barrier" in props] == barrier


def test_a_zero_barrier_proposes_past_the_next_instance(monkeypatch):
    # tau-seq's one-instance-at-a-time check fails once the barrier is gone
    monkeypatch.setattr(TauBroadcast, "tau", lambda self: 0)
    runs = flagged("tau-seq", range(20))
    assert [seed for seed, props in runs.items() if "sequential-instances" in props] == [
        0, 1, 2, 3, 4, 6, 8, 10, 13, 14, 16, 17
    ]


def test_a_silent_re_read_is_caught_by_the_single_ballot_check(monkeypatch):
    # a read phase that does not tell the layer it starts: a primary keeps
    # its epoch across a watchdog re-read's new ballot, and a leader elected
    # again crosses at once, on the tau of its last write phase. Over seeds
    # 0-19 no other property flags this mutant. Over 0-299 it is flagged at
    # 22 seeds; at five, one primary's two epochs claim one identifier, which
    # check_all reports as a primary-mapping verdict
    begin = PaxosNode.begin_read_phase

    def silent(self):
        hook, self.on_phase_change = self.on_phase_change, None
        begin(self)
        self.on_phase_change = hook

    monkeypatch.setattr(PaxosNode, "begin_read_phase", silent)
    runs = flagged("tau-paxos", range(300))
    assert {seed: props for seed, props in runs.items() if seed < 20} == {
        16: ["single-ballot-epochs"]
    }
    assert len(runs) == 22
    assert [seed for seed, props in runs.items() if "primary-mapping" in props] == [
        86, 131, 138, 190, 278
    ]


def test_delivering_on_decide_without_seqno_order_is_caught(monkeypatch):
    # a tuple of the current epoch is handed to the delegate as soon as it is
    # decided, whatever seqnos are still missing before it
    on_decide = BarrierFreeBroadcast.on_decide

    def eager(self, value, instance):
        if isinstance(value, ValTuple) and value.epoch == self.epoch:
            self.deliv_seqno = value.seqno
        on_decide(self, value, instance)

    monkeypatch.setattr(BarrierFreeBroadcast, "on_decide", eager)
    # no corpus seed shows this mutant. On this split-view schedule a new
    # primary's tuples with seqnos 6 and 7 lose their instances to an older
    # epoch's, and its seqno 8 is decided while they are missing
    report = check_all(run(load_scenario("val-resent-barrier-free")))
    assert sorted(report.violations) == [
        "election-order", "local-primary-order", "no-failed-applies"
    ]


def test_the_naive_controls_verdicts_are_pinned():
    counts, violating, digest = Counter(), 0, hashlib.sha256()
    for seed in range(300):
        report = check_all(run(random_scenario(seed, "naive")))
        digest.update(render_report(report, False).encode())
        violating += bool(report.violations)
        counts.update(report.violations.keys())
    assert violating == 132
    assert counts == {
        "primary-integrity": 132, "local-primary-order": 51, "no-failed-applies": 4,
        "global-primary-order": 5,
    }
    assert digest.hexdigest() == (
        "962a78b97cc123a0929a0acf502dc7a46552c6347889c71af1f272fd0b5802ae"
    )
