"""Barrier-free primary election and epoch-tagged delivery."""

import pytest

from poabcast.barrier_free import BarrierFreeBroadcast
from poabcast.broadcast import NotPrimaryError
from poabcast.checker import TraceIndex, check_all, check_barrier_free
from poabcast.cli import load_scenario
from poabcast.runner import run
from poabcast.sim import DelayModel, OmegaScript, Simulator
from poabcast.values import AppValue, NewEpoch, ValTuple


def make_cluster(omega=None, n=3, delta=10):
    sim = Simulator(
        n=n, delay_model=DelayModel.fixed(delta), omega=omega or OmegaScript.single(n, 0)
    )
    layers = [BarrierFreeBroadcast(sim, p, n) for p in range(n)]
    for p, layer in enumerate(layers):
        sim.add_actor(p, layer)
    return sim, layers


def test_fresh_candidate_proposes_new_epoch_at_lowest_undecided():
    sim, layers = make_cluster()
    layer = layers[0]
    layer.on_omega(0)
    proposed = sim.trace.by_kind("new-epoch-proposed")
    assert len(proposed) == 1
    assert proposed[0].instance == layer.dec == 1
    assert proposed[0].epoch == 1 * 3 + 0


def test_winning_election_sets_counters_and_primary():
    sim, layers = make_cluster()
    layer = layers[0]
    layer.leader = 0
    layer.tent_epoch = 7
    layer.dec = 3
    layer.on_decide(NewEpoch(7), 3)
    assert layer.epoch == 7
    assert layer.dec == 4
    assert layer.prop == layer.seqno == layer.deliv_seqno == 4
    assert layer.primary


def test_follower_adopts_the_epoch_but_stays_backup():
    sim, layers = make_cluster()
    follower = layers[1]
    follower.on_decide(NewEpoch(7), 3)
    assert follower.epoch == 7
    assert follower.dec == 4
    assert not follower.primary


def test_losing_election_retries_at_the_next_instance():
    sim, layers = make_cluster()
    layer = layers[0]
    layer.on_omega(0)  # NEW-EPOCH proposed at instance 1
    # someone else's old tuple wins instance 1
    layer.on_decide(ValTuple(AppValue("x"), epoch=99, seqno=1), 1)
    retries = sim.trace.by_kind("new-epoch-proposed")
    assert [e.instance for e in retries] == [1, 2]


def test_out_of_order_val_tuples_buffer_until_gap_closes():
    sim, layers = make_cluster()
    layer = layers[1]
    layer.on_decide(NewEpoch(5), 3)  # deliv_seqno = 4
    delivered = []
    layer.delegate.on_deliver = delivered.append
    v4, v5 = AppValue("v4"), AppValue("v5")
    layer.on_decide(ValTuple(v5, epoch=5, seqno=5), 5)
    assert delivered == []
    layer.on_decide(ValTuple(v4, epoch=5, seqno=4), 6)
    assert delivered == [v4, v5]


def test_stale_epoch_tuple_is_skipped_at_a_backup():
    sim, layers = make_cluster()
    layer = layers[1]
    layer.on_decide(NewEpoch(5), 1)
    delivered = []
    layer.delegate.on_deliver = delivered.append
    layer.on_decide(ValTuple(AppValue("old"), epoch=2, seqno=1), 2)
    assert delivered == []
    assert layer.dec == 3  # the instance is still consumed


def test_primary_resends_a_superseded_value_with_its_original_seqno():
    sim, layers = make_cluster()
    layer = layers[0]
    layer.leader = 0
    layer.tent_epoch = 3
    layer.on_decide(NewEpoch(3), 1)  # primary, prop = seqno = 2
    layer.poabcast(AppValue("mine"))
    assert layer.prop_array[2][1] == 2
    # an old-epoch tuple steals instance 2
    layer.on_decide(ValTuple(AppValue("other"), epoch=1, seqno=9), 2)
    resent = sim.trace.by_kind("val-resent")
    assert len(resent) == 1
    assert resent[0].seqno == 2  # original seqno kept
    assert resent[0].instance == 3  # next free instance


def test_broadcast_requires_primary():
    sim, layers = make_cluster()
    with pytest.raises(NotPrimaryError):
        layers[2].poabcast(AppValue("v"))


def test_back_to_back_broadcasts_use_consecutive_instances_and_seqnos():
    sim, layers = make_cluster()
    layer = layers[0]
    layer.leader = 0
    layer.tent_epoch = 3
    layer.on_decide(NewEpoch(3), 3)  # prop = seqno = 4
    for k in range(3):
        layer.poabcast(AppValue(f"v{k}"))
    # a broadcast's seqno rides in the tuple it proposes at its instance
    casts = sim.trace.by_kind("broadcast")
    proposed = {e.instance: e.value for e in sim.trace.by_kind("propose")}
    assert [(e.instance, proposed[e.instance]) for e in casts] == [
        (4, ValTuple(AppValue("v0"), epoch=3, seqno=4).digest()),
        (5, ValTuple(AppValue("v1"), epoch=3, seqno=5).digest()),
        (6, ValTuple(AppValue("v2"), epoch=3, seqno=6).digest()),
    ]


def test_stable_run_passes_all_checks():
    trace = run(load_scenario("stable-barrier-free"))
    report = check_all(trace)
    assert report.violations == {}
    assert report.liveness == "pass"
    assert report.linearizable is True


def test_leader_change_run_passes_all_checks():
    trace = run(load_scenario("leaderchange-barrier-free"))
    report = check_all(trace)
    assert report.violations == {}


def test_racing_candidates_establish_epochs_at_distinct_instances():
    omega = OmegaScript(
        [(0, {0: 0, 1: 1, 2: 1}), (300, {p: 1 for p in range(3)})]
    )
    sim, layers = make_cluster(omega=omega)
    trace = sim.run(1500)
    assert check_barrier_free(TraceIndex(trace)) is None
    established = trace.by_kind("epoch-established")
    assert established, "no epoch was ever established"


def test_split_view_schedule_resends_a_lost_tuple_and_passes_all_checks():
    # under a split oracle, process 2's read picks process 1's epoch-7 tuples
    # at instances 6 and 7, so process 0's epoch-12 tuples lose them; 0
    # re-sends them at instances 9 and 10 with their seqnos, 6 and 7
    trace = run(load_scenario("val-resent-barrier-free"))
    resent = [(e.actor, e.instance, e.seqno) for e in trace.by_kind("val-resent")]
    assert resent == [(0, 9, 6), (0, 10, 7)]
    report = check_all(trace)
    assert report.violations == {}
    assert report.linearizable is True
    assert report.liveness == "pass"
