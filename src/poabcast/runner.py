"""Builds a full stack from a scenario and runs it to a trace."""

from __future__ import annotations

from typing import Any, List, Tuple

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


def build(scenario: Scenario) -> Tuple[Simulator, List[Replica], List[Any]]:
    sim = Simulator(
        n=scenario.n,
        delay_model=scenario.delay,
        omega=scenario.omega,
        crashes=scenario.crashes,
        reorder=scenario.reorder,
        per_byte=scenario.per_byte,
    )
    replicas = []
    for pid in range(scenario.n):
        layer = make_layer(scenario.protocol, sim, pid, scenario.n)
        replica = Replica(sim, pid, layer)
        sim.add_actor(pid, replica)
        replicas.append(replica)
    clients: List[Any] = []
    for spec in scenario.clients:
        if spec.kind == "scripted":
            client: Any = ScriptedClient(sim, spec.cid, spec.sends)
        else:
            client = Client(
                sim,
                spec.cid,
                scenario.n,
                spec.ops,
                retry_every=spec.retry_every,
                op_size=spec.op_size,
                start_at=spec.start_at,
            )
        sim.add_actor(spec.cid, client)
        clients.append(client)
    return sim, replicas, clients


def run(scenario: Scenario) -> Trace:
    sim, replicas, clients = build(scenario)
    try:
        trace = sim.run(scenario.horizon)
    finally:
        sim.close()
    trace.summary.update(
        {
            "scenario": scenario.name,
            "protocol": scenario.protocol,
            "n": scenario.n,
            "horizon": scenario.horizon,
            "expect_violation": scenario.expect_violation,
            "base_delay": scenario.delay.max_delay,
            "stable_from": scenario.omega.segments[-1][0],
        }
    )
    return trace
