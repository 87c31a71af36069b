"""Barrier-based primary-order broadcast, both barrier flavours."""

from dataclasses import replace

import pytest

from poabcast.broadcast import NotPrimaryError
from poabcast.checker import check_all
from poabcast.cli import load_scenario
from poabcast.runner import run
from poabcast.scenario import random_scenario
from poabcast.sim import DelayModel, OmegaScript, Simulator
from poabcast.tau import TOP, TauBroadcast
from poabcast.values import AppValue, Skip


def make_cluster(mode, omega=None, n=3, delta=10):
    sim = Simulator(
        n=n, delay_model=DelayModel.fixed(delta), omega=omega or OmegaScript.single(n, 0)
    )
    layers = [TauBroadcast(sim, p, n, mode=mode) for p in range(n)]
    for p, layer in enumerate(layers):
        sim.add_actor(p, layer)
    return sim, layers


def test_fresh_seq_leader_becomes_primary_immediately():
    sim, layers = make_cluster("seq")
    layer = layers[0]
    layer.on_omega(0)
    assert layer.tau() == 0 and layer.dec == 0
    assert layer.primary


def test_seq_broadcast_raises_the_barrier_until_decided():
    sim, layers = make_cluster("seq")
    layer = layers[0]
    layer.on_omega(0)
    layer.poabcast(AppValue("v"))
    assert layer.prop == 1 and layer.dec == 0
    assert layer.tau() == 1
    assert not layer.primary  # primary flickers off per broadcast
    sim.run(200)
    assert layer.dec >= 1
    assert layer.primary


def test_non_leader_cannot_broadcast():
    sim, layers = make_cluster("seq")
    with pytest.raises(NotPrimaryError):
        layers[1].poabcast(AppValue("v"))


def test_paxos_barrier_is_top_outside_the_write_phase():
    sim, layers = make_cluster("paxos")
    layer = layers[0]
    assert layer.tau() == TOP  # idle, not leading
    layer.on_omega(0)  # starts the read phase
    assert layer.tau() == TOP
    assert not layer.primary
    sim.run(200)
    assert layer.tau() != TOP
    assert layer.primary


def test_election_with_gap_proposes_skips():
    sim, layers = make_cluster("seq", omega=OmegaScript.single(3, 2))
    layer = layers[2]
    layer.prop = 1  # pretend an earlier broadcast is still undecided
    layer.on_omega(2)
    skips = sim.trace.by_kind("skip-proposed")
    # prop <= dec + 1, so the gap is the one instance prop
    assert [(e.data["lo"], e.data["target"]) for e in skips] == [(1, 1)]
    assert not layer.primary
    sim.run(400)
    assert layer.dec >= 1
    assert layer.primary


def test_no_gap_means_no_skips():
    sim, layers = make_cluster("seq")
    layers[0].on_omega(0)
    assert sim.trace.by_kind("skip-proposed") == []


def test_deciding_a_skip_closes_its_instance_without_a_delivery():
    sim, layers = make_cluster("seq")
    layer = layers[1]
    layer.on_decide(Skip(1), 1)
    assert layer.dec == 1
    assert sim.trace.by_kind("deliver") == []


@pytest.mark.parametrize("mode", ["seq", "paxos"])
def test_stable_run_passes_all_checks(mode):
    scenario = load_scenario(f"stable-tau-{mode}")
    trace = run(scenario)
    report = check_all(trace)
    assert report.violations == {}
    assert report.liveness == "pass"
    assert report.linearizable is True


@pytest.mark.parametrize("mode", ["seq", "paxos"])
def test_leader_change_run_passes_all_checks(mode):
    scenario = load_scenario(f"leaderchange-tau-{mode}")
    trace = run(scenario)
    report = check_all(trace)
    assert report.violations == {}


def test_demoted_leader_ends_its_epoch():
    omega = OmegaScript(
        [(0, {p: 0 for p in range(3)}), (100, {p: 1 for p in range(3)})]
    )
    sim, layers = make_cluster("seq", omega=omega)
    trace = sim.run(600)
    ends = [e for e in trace.by_kind("primary-end") if e.actor == 0]
    assert any(e.time >= 100 for e in ends)
    begins = [e for e in trace.by_kind("primary-begin") if e.actor == 1]
    assert any(e.time >= 100 for e in begins)


def test_bundled_skip_scenario_decides_a_skip_and_is_live():
    # process 0's write of `a` is refused while 1 leads; re-elected at t=100,
    # it reads watermark 0 under tau = prop = 1 and closes the gap with skip(1)
    trace = run(load_scenario("skip-tau-seq"))
    skips = [e for e in trace.by_kind("decide") if e.data["value"] == "skip(1)"]
    assert {e.actor for e in skips} == {0, 1, 2}
    assert all(e.data["instance"] == 1 for e in skips)
    assert min(e.time for e in skips) == 140
    report = check_all(trace)
    assert report.violations == {}
    assert report.liveness == "pass"
    assert report.linearizable is True


@pytest.mark.parametrize("protocol", ["naive", "tau-seq", "tau-paxos", "barrier-free"])
def test_the_re_read_schedule_under_each_protocol(protocol):
    scenario = replace(load_scenario("reread-tau-paxos"), protocol=protocol)
    report = check_all(run(scenario))
    # black-box consensus keeps process 0's refused proposal of `a` through
    # the watchdog's re-read, and tau-paxos's next epoch re-executes it, so
    # `a`, `b` and `c`, sent to 0 alone, are answered; the naive control is
    # safe here too
    assert report.violations == {}
    assert report.linearizable is True
    assert report.liveness == "pass"


def re_reads(trace):
    """How many paxos-read events come at a process whose previous paxos-read
    had no omega event for it in between: watchdog re-reads."""
    count, last = 0, {}
    for e in trace.by_kind("paxos-read", "omega"):
        count += e.kind == "paxos-read" and last.get(e.actor) == "paxos-read"
        last[e.actor] = e.kind
    return count


# tau-paxos seeds whose runs re-read: six that, under the earlier Mersenne
# Twister jitter draw, a re-read inside an open primary epoch made unsafe
# (8804-24542) or stalled (233) before every read phase ended the epoch, and
# the three seeds of 0-24999 with the most re-reads (9500, 11703, 12165,
# five each)
REREAD_SEEDS = [233, 8804, 9500, 11703, 12165, 14135, 18077, 22815, 24542]


@pytest.mark.parametrize("seed", REREAD_SEEDS)
def test_re_read_seeds_are_safe_and_live(seed):
    trace = run(random_scenario(seed, "tau-paxos"))
    assert re_reads(trace) > 0
    report = check_all(trace)
    assert report.violations == {}
    assert report.linearizable is True
    assert report.liveness == "pass"
