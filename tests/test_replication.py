"""Passive replication: state updates, duplicate suppression, halting on ⊥."""

import dataclasses
import hashlib

import pytest

from poabcast.checker import check_all
from poabcast.cli import load_scenario
from poabcast.replication import (
    INITIAL_STATE,
    Replica,
    Reply,
    Request,
    StateUpdate,
    execute,
)
from poabcast.runner import run
from poabcast.sim import DelayModel, OmegaScript, Simulator
from poabcast.values import AppValue


def test_execute_produces_a_chained_update():
    u = execute(INITIAL_STATE, Request(3, 1, "append x"), "u1")
    assert u.pre == INITIAL_STATE
    assert u.record == "r(3:1:append x)"
    assert u.post != u.pre
    # executing the follow-up from the new state chains the digests
    u2 = execute(u.post, Request(3, 2, "append y"), "u2")
    assert u2.pre == u.post


def test_an_update_is_the_value_it_is_broadcast_as():
    u = execute(INITIAL_STATE, Request(4, 7, "op"), vid="u4.7.0.1")
    assert isinstance(u, AppValue)
    assert (u.vid, u.body, u.size) == ("u4.7.0.1", u.record, 0)
    assert (u.client, u.reqid, u.pre) == (4, 7, INITIAL_STATE)
    # the digest is the plain value's: the update's own fields do not enter it
    assert u.digest() == AppValue("u4.7.0.1", u.record).digest()


@pytest.mark.parametrize(
    "make",
    [lambda: AppValue("v1", "body", 3),
     lambda: StateUpdate(vid="u1", body="r(3:1:a)", client=3, reqid=1, pre="p", post="q")],
    ids=["AppValue", "StateUpdate"],
)
def test_a_value_keeps_its_frozen_dataclass_contract(make):
    # both classes build their instances by hand: the generated eq, hash,
    # repr, replace and frozen fields must still see every field
    v, w = make(), make()
    assert v == w and hash(v) == hash(w) and v is not w
    names = [f.name for f in dataclasses.fields(v)]
    shown = ", ".join(f"{k}={getattr(v, k)!r}" for k in names)
    assert repr(v) == f"{type(v).__name__}({shown})"
    assert v.digest() == hashlib.sha256(f"{v.vid}|{v.body}".encode()).hexdigest()[:12]
    other = dataclasses.replace(v, vid="v2")
    assert other != v and type(other) is type(v) and other.digest() != v.digest()
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, None)


class FakeLayer:
    """Stand-in broadcast layer: records poabcast calls; the tests announce
    primary changes to the replica themselves."""

    def __init__(self):
        self.sent = []
        self.delegate = None

    def poabcast(self, value):
        self.sent.append(value)

    def on_omega(self, leader):
        pass

    def on_message(self, frm, msg):
        pass


def make_replica():
    sim = Simulator(n=3, delay_model=DelayModel.fixed(10), omega=OmegaScript.single(3, 0))
    layer = FakeLayer()
    replica = Replica(sim, 0, layer)
    sim.add_actor(0, replica)
    return sim, replica, layer


def test_apply_on_matching_state_advances_and_replies():
    sim, replica, layer = make_replica()
    u = execute(INITIAL_STATE, Request(3, 1, "op"), "u1")
    replica.on_deliver(u)
    assert replica.state == u.post
    assert replica.replied[(3, 1)] == Reply(3, 1, u.record, u.post)
    assert not replica.halted


def test_apply_on_mismatching_state_halts_the_replica():
    sim, replica, layer = make_replica()
    bad = StateUpdate(vid="u1", body="r", client=3, reqid=1, pre="not-the-state", post="p")
    replica.on_deliver(bad)
    assert replica.halted
    assert [e.actor for e in sim.trace.by_kind("apply-bot")] == [0]
    # a halted replica stops processing entirely
    before = replica.state
    replica.on_deliver(execute(before, Request(3, 2, "op"), "u2"))
    assert replica.state == before


def test_identity_update_applies_cleanly():
    sim, replica, layer = make_replica()
    same = StateUpdate(
        vid="u1", body="r(3:1:noop-op)", client=3, reqid=1, pre=INITIAL_STATE, post=INITIAL_STATE
    )
    replica.on_deliver(same)
    assert not replica.halted
    assert replica.state == INITIAL_STATE


def test_request_at_backup_is_buffered_not_executed():
    sim, replica, layer = make_replica()
    replica.on_request(Request(3, 1, "op"))
    assert layer.sent == []
    assert list(replica.pending) == [(3, 1)]


def test_pending_requests_keep_arrival_order_until_applied():
    sim, replica, layer = make_replica()
    for client in (4, 3, 4):  # the repeat of (4, 1) keeps its first place
        replica.on_request(Request(client, 1, "op"))
    assert list(replica.pending) == [(4, 1), (3, 1)]
    replica.on_deliver(execute(INITIAL_STATE, Request(4, 1, "op"), "u1"))
    assert list(replica.pending) == [(3, 1)]


def test_request_before_initialization_is_buffered():
    sim, replica, layer = make_replica()
    # no primary change announced yet
    replica.on_request(Request(3, 1, "op"))
    assert layer.sent == []
    # becoming primary re-executes the buffered request
    replica.on_primary_change(True)
    assert len(layer.sent) == 1


def test_primary_executes_and_broadcasts_once():
    sim, replica, layer = make_replica()
    replica.on_primary_change(True)
    replica.on_request(Request(3, 1, "op"))
    replica.on_request(Request(3, 1, "op"))  # duplicate in the same epoch
    assert len(layer.sent) == 1
    assert layer.sent[0].pre == INITIAL_STATE


def test_duplicate_after_reply_resends_stored_answer():
    sim, replica, layer = make_replica()
    sent = []
    sim.send = lambda frm, to, msg, size=0: sent.append((to, msg))
    replica.on_deliver(execute(INITIAL_STATE, Request(3, 1, "op"), "u1"))
    replica.on_request(Request(3, 1, "op"))
    replies = [m for to, m in sent if isinstance(m, Reply)]
    assert len(replies) == 2  # one from the apply, one stored resend
    assert replies[0] == replies[1]
    assert layer.sent == []  # never re-executed


def test_new_epoch_reexecutes_pending_requests_from_committed_state():
    sim, replica, layer = make_replica()
    replica.on_primary_change(True)
    replica.on_request(Request(3, 1, "op"))
    assert len(layer.sent) == 1
    # epoch ends with the update undecided; the next epoch re-executes it
    replica.on_primary_change(False)
    replica.on_primary_change(True)
    assert len(layer.sent) == 2
    assert layer.sent[1].pre == INITIAL_STATE


def test_client_retransmits_until_answered_and_executes_once():
    scenario = load_scenario("leaderchange-naive")
    trace = run(scenario)
    report = check_all(trace)
    assert report.verdicts["at-most-once"] is None
    assert trace.by_kind("response")


def test_loop_client_round_trip_latency():
    """client->primary delta, broadcast 2*delta, reply delta: 4*delta total."""
    from poabcast.scenario import ClientSpec, Scenario

    delta = 10
    scenario = Scenario(
        name="rtt",
        protocol="tau-paxos",
        n=3,
        horizon=40 * delta,
        delay=DelayModel.fixed(delta),
        omega=OmegaScript.single(3, 0),
        clients=[ClientSpec(cid=3, kind="loop", ops=["a"], start_at=10 * delta)],
    )
    trace = run(scenario)
    req = trace.by_kind("request")[0]
    resp = trace.by_kind("response")[0]
    assert resp.time - req.time == 4 * delta
