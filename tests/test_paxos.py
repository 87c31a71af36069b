"""Consensus core: ballots, read/write phases, decide stream, phase hook, and
the black-box contract: its termination and latest-wins cases, and its four
properties over random schedules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poabcast.paxos import (
    DecideMsg,
    PaxosNode,
    ReadAck,
    ReadMsg,
    WriteAck,
    WriteMsg,
    WRITING,
)
from poabcast.replication import Reply, Request
from poabcast.sim import DelayModel, OmegaScript, Simulator
from poabcast.values import NOOP, AppValue, Batch, NewEpoch, Skip, ValTuple, app_payload


class Node:
    """PaxosNode wired into the simulator as an actor. A positive
    ``decide_lag`` holds each arriving decide back that many ticks."""

    def __init__(self, sim, pid, n, decide_lag=0, **kw):
        self.sim = sim
        self.decide_lag = decide_lag
        self.delivered = []
        self.node = PaxosNode(
            sim, pid, n, deliver=lambda v, i: self.delivered.append((i, v)), **kw
        )

    def on_message(self, frm, msg):
        if self.decide_lag and isinstance(msg, DecideMsg):
            self.sim.schedule(self.sim.now + self.decide_lag, lambda: self.node.on_message(frm, msg))
        else:
            self.node.on_message(frm, msg)


def make_cluster(n=3, delta=10, delay_model=None, **kw):
    sim = Simulator(
        n=n, delay_model=delay_model or DelayModel.fixed(delta), omega=OmegaScript.single(n, 0)
    )
    nodes = [Node(sim, p, n, **kw) for p in range(n)]
    for p, nd in enumerate(nodes):
        sim.add_actor(p, nd)
    return sim, nodes


def test_quorum_is_a_majority():
    sim, nodes = make_cluster(n=3)
    assert nodes[0].node.quorum == 2
    sim5, nodes5 = make_cluster(n=5)
    assert nodes5[0].node.quorum == 3


def test_ballots_strictly_increase_and_encode_the_process():
    sim, nodes = make_cluster()
    leader = nodes[1].node
    leader.begin_read_phase()
    first = leader.ballot
    assert first % 3 == 1
    leader.begin_read_phase()
    assert leader.ballot > first
    assert leader.ballot % 3 == 1


def test_new_leader_ballot_beats_every_ballot_it_has_seen():
    sim, nodes = make_cluster()
    node = nodes[2].node
    node.on_message(0, ReadMsg(ballot=3 * 3 + 0, lo=1))  # round 3 from process 0
    node.begin_read_phase()
    assert node.ballot // 3 == 4  # picks round 4


def test_read_ack_picks_highest_ballot_per_instance():
    sim, nodes = make_cluster()
    leader = nodes[0].node
    leader.begin_read_phase()
    b = leader.ballot
    v1, v2 = AppValue("v1"), AppValue("v2")
    leader._on_read_ack(0, ReadAck(b, ((7, (v1, 2)),)))
    leader._on_read_ack(1, ReadAck(b, ((7, (v2, 5)),)))
    assert leader.writes[7][0] == v2


def read_watermark(sim):
    [writing] = sim.trace.by_kind("paxos-writing")
    return writing.watermark


def test_read_ack_gaps_fill_with_noops_and_set_watermark():
    sim, nodes = make_cluster()
    leader = nodes[0].node
    leader.begin_read_phase()
    b = leader.ballot
    v = AppValue("v")
    leader._on_read_ack(0, ReadAck(b, ((1, (v, 1)), (2, (v, 1)), (4, (v, 1)))))
    leader._on_read_ack(1, ReadAck(b, ()))
    assert read_watermark(sim) == 4
    assert leader.writes[3][0] == NOOP
    assert leader.phase == WRITING


def test_empty_read_acks_leave_watermark_zero():
    sim, nodes = make_cluster()
    leader = nodes[0].node
    leader.begin_read_phase()
    b = leader.ballot
    leader._on_read_ack(0, ReadAck(b, ()))
    leader._on_read_ack(1, ReadAck(b, ()))
    assert read_watermark(sim) == 0
    assert leader.writes == {}


def test_acceptor_rejects_writes_below_its_promise():
    sim, nodes = make_cluster()
    acceptor = nodes[1].node
    acceptor.on_message(0, ReadMsg(ballot=9, lo=1))
    assert acceptor.promised == 9
    acceptor.on_message(0, WriteMsg(ballot=7, instance=1, value=AppValue("v")))
    assert 1 not in acceptor.accepted
    acceptor.on_message(0, WriteMsg(ballot=9, instance=1, value=AppValue("v")))
    assert acceptor.accepted[1][0] == AppValue("v")


def test_majority_write_decides_at_every_correct_process():
    sim, nodes = make_cluster()
    v = AppValue("v")
    nodes[0].node.ensure_leadership()
    nodes[0].node.propose(v, 1)
    sim.run(500)
    for nd in nodes:
        assert nd.delivered == [(1, v)]


def test_stable_leader_keeps_no_decided_instance_in_flight():
    # the watchdog tests `proposals` and `writes` for outstanding work, so a
    # decided instance must leave both, and a late ack must not bring it back
    sim, nodes = make_cluster()
    leader = nodes[0].node
    leader.ensure_leadership()
    for i in range(1, 6):
        sim.schedule(5 * i, lambda i=i: leader.propose(AppValue(f"v{i}"), i))
    sim.run(500)
    assert sorted(leader.decided) == [1, 2, 3, 4, 5]
    assert leader.proposals == {}
    assert leader.writes == {}


def test_a_multicast_hands_one_message_object_to_every_receiver(monkeypatch):
    sim, nodes = make_cluster(n=5)
    sent = []
    send = Simulator.send

    def record(self, frm, to, msg, size=0):
        sent.append((frm, to, msg))
        send(self, frm, to, msg, size)

    monkeypatch.setattr(Simulator, "send", record)
    nodes[0].node.ensure_leadership()
    nodes[0].node.propose(AppValue("v"), 1)
    sim.run(500)
    assert [nd.delivered for nd in nodes] == [[(1, AppValue("v"))]] * 5

    def multicast(kind):
        return [(to, msg) for frm, to, msg in sent if frm == 0 and type(msg) is kind]

    for kind, receivers in ((ReadMsg, [0, 1, 2, 3, 4]), (WriteMsg, [0, 1, 2, 3, 4]),
                            (DecideMsg, [1, 2, 3, 4])):
        got = multicast(kind)
        assert [to for to, _ in got] == receivers
        assert len({id(msg) for _, msg in got}) == 1


def test_messages_are_immutable_records():
    v = AppValue("v")
    for msg in (ReadMsg(3, 1), ReadAck(3, ()), WriteMsg(3, 1, v), WriteAck(3, 1),
                DecideMsg(1, v), Request(5, 1, "op"), Reply(5, 1, "r", "d")):
        for name in msg._fields:
            with pytest.raises(AttributeError):
                setattr(msg, name, 0)
    assert Request._fields == ("client", "reqid", "op")
    assert Request(client=5, reqid=1, op="op") == Request(5, 1, "op")


def test_decide_stream_reorders_into_gap_free_sequence():
    sim, nodes = make_cluster()
    learner = nodes[2]
    v1, v2 = AppValue("v1"), AppValue("v2")
    learner.node.on_message(0, DecideMsg(2, v2))
    assert learner.delivered == []  # instance 1 still missing
    learner.node.on_message(0, DecideMsg(1, v1))
    assert learner.delivered == [(1, v1), (2, v2)]


def test_undecided_instance_never_appears_in_the_stream():
    sim, nodes = make_cluster()
    nodes[0].node.ensure_leadership()
    nodes[0].node.propose(AppValue("v"), 1)
    sim.run(500)
    assert all(i != 5 for nd in nodes for i, _ in nd.delivered)


def test_phase_hook_hears_each_read_start_and_its_watermark():
    calls = []
    sim, nodes = make_cluster(on_phase_change=calls.append)
    leader = nodes[0].node
    # process 1 accepted a value at instance 2 under process 2's round-0 ballot
    nodes[1].node.on_message(2, WriteMsg(ballot=2, instance=2, value=AppValue("v")))
    leader.ensure_leadership()
    assert calls == [None]
    sim.run(200)
    assert calls == [None, 2]
    assert [i for i, _ in nodes[0].delivered] == [1, 2]
    leader.begin_read_phase()  # a forced re-read, as the watchdog makes
    assert calls == [None, 2, None]
    sim.run(400)
    assert calls == [None, 2, None, 0]


def test_latest_proposal_at_an_undecided_instance_wins():
    sim, nodes = make_cluster()
    leader = nodes[0].node
    leader.propose(AppValue("v1"), 1)
    leader.propose(AppValue("v2"), 1)
    leader.ensure_leadership()
    sim.run(500)
    for nd in nodes:
        assert nd.delivered == [(1, AppValue("v2"))]


def test_a_re_read_writes_again_the_proposals_it_left_open():
    # node 0 writes v at t=41 to acceptors that promised node 1's ballot at
    # t=40, and node 1 gives up before its writes. Node 0's watchdog re-reads,
    # finds instance 1 empty and writes v again: a stable leader's proposal
    # is decided
    sim, nodes = make_cluster()
    v = AppValue("v")
    nodes[0].node.ensure_leadership()
    sim.schedule(30, nodes[1].node.begin_read_phase)
    sim.schedule(41, lambda: nodes[0].node.propose(v, 1))
    sim.schedule(45, nodes[1].node.relinquish)
    sim.run(2000)
    for nd in nodes:
        assert nd.delivered == [(1, v)]


CALLS = ("ensure_leadership", "relinquish", "begin_read_phase", "propose")


def check_contract(n, delay_model, calls, decide_lag=0):
    """Run the (tick, node, call, instance) calls; from tick 500 node 0 alone
    leads and proposes at every instance it has not decided. Then check the
    contract's four properties over instances 1-6."""
    sim, nodes = make_cluster(n=n, delay_model=delay_model, decide_lag=decide_lag)
    proposed = {i: {NOOP} for i in range(1, 7)}

    def propose(node, value, instance):
        proposed[instance].add(value)
        node.propose(value, instance)

    for k, (at, p, call, instance) in enumerate(calls):
        node = nodes[p % n].node
        if call == "propose":
            sim.schedule(at, lambda node=node, k=k, i=instance: propose(node, AppValue(f"v{k}"), i))
        else:
            sim.schedule(at, getattr(node, call))

    def settle():
        for nd in nodes[1:]:
            nd.node.relinquish()
        leader = nodes[0].node
        leader.ensure_leadership()
        for i in range(1, 7):
            if i not in leader.decided:
                propose(leader, AppValue(f"w{i}"), i)

    sim.schedule(500, settle)
    sim.run(5000)
    decided = nodes[0].delivered
    # prefix order and termination: instances 1-6, in order, with no gaps
    assert [i for i, _ in decided] == [1, 2, 3, 4, 5, 6]
    # validity: each value was proposed at its instance, or is a no-op
    assert all(v in proposed[i] for i, v in decided)
    # agreement: every node decided the same value at each instance
    assert all(nd.delivered == decided for nd in nodes)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([3, 5]),
    delay_model=st.one_of(
        st.builds(DelayModel.fixed, st.integers(1, 20)),
        st.builds(DelayModel.jitter, st.just(1), st.integers(1, 30), st.integers(0, 2**32 - 1)),
    ),
    calls=st.lists(
        st.tuples(
            st.integers(0, 400), st.integers(0, 4), st.sampled_from(CALLS), st.integers(1, 6)
        ),
        max_size=25,
    ),
)
def test_the_contract_holds_over_random_schedules(n, delay_model, calls):
    # up to 25 leadership changes, re-reads and proposals by any node in ticks 0-400
    check_contract(n, delay_model, calls)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([3, 5]),
    max_delay=st.integers(5, 30),
    seed=st.integers(0, 2**32 - 1),
    a=st.integers(0, 4),
    hop=st.integers(0, 3),
    percents=st.tuples(st.integers(0, 100), st.integers(-50, 50), st.integers(50, 150)),
)
def test_the_contract_holds_when_two_leaders_contend_for_one_instance(
    n, max_delay, seed, a, hop, percents
):
    # node a leads and proposes at instance 1, node b takes over and proposes
    # there, and a re-reads, each step within about one message delay of the
    # last. a may then hold its own value under its old ballot while a quorum
    # holds b's under b's: the read must pick b's, the higher ballot's.
    # Decides are held back until the contention is over, so each node learns
    # from its own write quorum and agreement rests on the read's pick alone
    a %= n
    b = (a + 1 + hop % (n - 1)) % n
    takeover, own, re_read = (max_delay * pct // 100 for pct in percents)
    calls = [
        (0, a, "begin_read_phase", 1),
        (max(0, takeover + own), a, "propose", 1),
        (takeover, b, "begin_read_phase", 1),
        (takeover, b, "propose", 1),
        (takeover + re_read, a, "begin_read_phase", 1),
    ]
    check_contract(n, DelayModel.jitter(1, max_delay, seed), calls, decide_lag=200)


def test_reordered_network_preserves_local_primary_order():
    """Regression: a promise landing between an old primary's two writes must
    not let the second value be delivered without the first."""
    from poabcast import random_scenario, run
    from poabcast.checker import check_all

    trace = run(random_scenario(531, "tau-paxos"))
    report = check_all(trace)
    assert report.violations == {}


def test_two_racing_leaders_decide_one_value_per_instance():
    from poabcast.checker import TraceIndex, check_consensus

    n = 3
    sim = Simulator(
        n=n,
        delay_model=DelayModel.fixed(10),
        omega=OmegaScript(
            [(0, {0: 0, 1: 1, 2: 2}), (200, {p: 1 for p in range(n)})]
        ),
    )
    nodes = [Node(sim, p, n) for p in range(n)]
    for p, nd in enumerate(nodes):
        sim.add_actor(p, nd)
    nodes[0].node.ensure_leadership()
    nodes[1].node.ensure_leadership()
    sim.schedule(5, lambda: nodes[0].node.propose(AppValue("a"), 1))
    sim.schedule(5, lambda: nodes[1].node.propose(AppValue("b"), 1))
    trace = sim.run(2000)
    assert check_consensus(TraceIndex(trace)) is None
    decided = {nd.delivered[0] for nd in nodes if nd.delivered}
    assert len(decided) == 1


def test_app_payload_unwraps_one_val_tuple():
    v, b = AppValue("v", size=3), Batch((AppValue("x", size=1), AppValue("y", size=2)))
    assert app_payload(v) is v
    assert app_payload(b) is b
    assert app_payload(ValTuple(b, 4, 1)) is b
    for wrapper in (NOOP, Skip(3), NewEpoch(4)):
        assert app_payload(wrapper) is None


def test_batch_digest_tells_item_boundaries_apart():
    split = Batch((AppValue("a", "b"), AppValue("c")))
    joined = Batch((AppValue("a", "b|c|"),))
    assert split.digest() != joined.digest()
    assert split.digest().startswith("b") and len(split.digest()) == 12
