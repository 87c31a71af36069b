"""Builds a full stack from a scenario and runs it to a trace."""

from __future__ import annotations

from typing import Any

from .abcast import NaiveAbcast
from .barrier_free import BarrierFreeBroadcast
from .replication import Client, Replica, ScriptedClient
from .scenario import Scenario
from .sim import Simulator
from .tau import TauBroadcast
from .trace import Trace


def make_layer(protocol: str, sim: Simulator, pid: int, n: int):
    if protocol == "naive":
        return NaiveAbcast(sim, pid, n)
    if protocol == "tau-seq":
        return TauBroadcast(sim, pid, n, mode="seq")
    if protocol == "tau-paxos":
        return TauBroadcast(sim, pid, n, mode="paxos")
    if protocol == "barrier-free":
        return BarrierFreeBroadcast(sim, pid, n)
    raise ValueError(f"unknown protocol: {protocol}")


def build(scenario: Scenario) -> Simulator:
    """The scenario's simulator, its replicas and clients added, not yet run;
    its trace already holds the scenario's summary (``trace.SUMMARY``)."""
    sim = Simulator(
        n=scenario.n,
        delay_model=scenario.delay,
        omega=scenario.omega,
        crashes=scenario.crashes,
        reorder=scenario.reorder,
    )
    sim.trace.summary = {
        "scenario": scenario.name,
        "protocol": scenario.protocol,
        "n": scenario.n,
        "horizon": scenario.horizon,
        "expect_violation": scenario.expect_violation,
        "base_delay": scenario.delay.max_delay,
    }
    for pid in range(scenario.n):
        layer = make_layer(scenario.protocol, sim, pid, scenario.n)
        sim.add_actor(pid, Replica(sim, pid, layer))
    for spec in scenario.clients:
        if spec.kind == "scripted":
            client: Any = ScriptedClient(sim, spec.cid, spec.sends)
        else:
            client = Client(sim, spec.cid, scenario.n, spec.ops,
                            retry_every=spec.retry_every, start_at=spec.start_at)
        sim.add_actor(spec.cid, client)
    return sim


def run(scenario: Scenario) -> Trace:
    sim = build(scenario)
    try:
        return sim.run(scenario.horizon)
    finally:
        sim.close()
