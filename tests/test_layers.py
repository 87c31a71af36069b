"""What the four broadcast layers share: the primary gate and demotion."""

import pytest

from poabcast.broadcast import NotPrimaryError, NullDelegate
from poabcast.runner import make_layer
from poabcast.sim import DelayModel, OmegaScript, Simulator
from poabcast.values import AppValue

PROTOCOLS = ("naive", "tau-seq", "tau-paxos", "barrier-free")


class Recorder(NullDelegate):
    def __init__(self):
        self.changes = []

    def on_primary_change(self, primary):
        self.changes.append(primary)


def make_cluster(protocol, omega, n=3, crashes=None):
    sim = Simulator(n=n, delay_model=DelayModel.fixed(10), omega=omega, crashes=crashes)
    layers = [make_layer(protocol, sim, p, n) for p in range(n)]
    for p, layer in enumerate(layers):
        sim.add_actor(p, layer)
    return sim, layers


def handover(at, n=3):
    return OmegaScript([(0, {p: 0 for p in range(n)}), (at, {p: 1 for p in range(n)})])


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_non_leader_broadcast_is_rejected(protocol):
    sim, layers = make_cluster(protocol, OmegaScript.single(3, 0))
    sim.run(200)
    assert layers[0].primary
    assert not layers[1].primary
    with pytest.raises(NotPrimaryError):
        layers[1].poabcast(AppValue("x"))
    assert sim.trace.by_kind("broadcast") == []


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_demotion_ends_the_primary_epoch_once(protocol):
    sim, layers = make_cluster(protocol, handover(200))
    recorder = Recorder()
    layers[0].delegate = recorder
    trace = sim.run(400)
    assert recorder.changes == [True, False]
    assert [e.actor for e in trace.by_kind("primary-begin")].count(0) == 1
    assert [e.actor for e in trace.by_kind("primary-end")] == [0]
    assert not layers[0].primary
    assert layers[1].primary


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_only_tau_paxos_hears_the_consensus_phases(protocol):
    # the other layers treat consensus as a black box: propose and decide
    sim, layers = make_cluster(protocol, OmegaScript.single(3, 0))
    hooked = [layer.paxos.on_phase_change is not None for layer in layers]
    assert hooked == [protocol == "tau-paxos"] * 3


def test_naive_value_that_loses_its_instance_is_reproposed():
    # the old leader's `a` is accepted at instance 1 before it crashes; the
    # new leader's `b`, proposed at instance 1 too, moves to instance 2
    sim, layers = make_cluster("naive", handover(40), crashes={0: 36})
    a, b = AppValue("a"), AppValue("b")
    sim.schedule(25, lambda: layers[0].poabcast(a))
    sim.schedule(41, lambda: layers[1].poabcast(b))
    trace = sim.run(400)
    [bcast] = [e for e in trace.by_kind("broadcast") if e.actor == 1]
    assert (bcast.instance, bcast.value) == (1, b.digest())
    [moved] = trace.by_kind("reproposed")
    assert (moved.actor, moved.instance, moved.value) == (1, 2, b.digest())
    for p in (1, 2):
        delivered = [
            (e.instance, e.value) for e in trace.by_kind("deliver") if e.actor == p
        ]
        assert delivered == [(1, a.digest()), (2, b.digest())]
    assert layers[1].outstanding == {}
