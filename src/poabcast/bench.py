"""Benchmarks: latency table and sequential-vs-parallel throughput.

Latency benchmark: deterministic stable-period and leader-change
scenarios per protocol. Stable latency is the span from the first
broadcast to the last delivery at the leader for a burst of one request
from each of c clients. Leader-change idle time is the gap between the
oracle switching to the new leader and the new leader's first
consensus write of a fresh application value that ends up delivered.

Throughput benchmark: a batching leader over raw consensus, fed by
closed-loop clients colocated with it (1-tick legs). Sequential mode
keeps one instance in flight and batches arrivals until it completes;
parallel mode cuts a batch whenever the sender is idle or the batch cap
is reached, keeping many instances in flight. The byte cost of a batch
is charged at the sender, so with large requests the serialization gap
is what separates the two modes. The message delay, the per-byte cost,
the batch cap and the measurement window (a warm-up, then the window
itself) are the module constants below.

A batch is one application value, ``b<instance>``, whose size is its
request count times the run's bytes per request; nothing reads a
request's identity inside a batch, so a pending request is just the
client awaiting it.
Each leg costs one event per decided batch, not one per request: a
decided batch's reply event records its clients' latencies, if it falls
inside the measurement window, and stamps their next requests' send
tick; one arrival event a tick later hands those clients to the leader
in a single ``submit``.

There is at most one pending batch-cut decision (a pump) per tick, and
one is pending only while requests wait. Arrivals, and decisions that
find requests waiting, ask for one at the end of the current tick, and a
busy sender defers it to the tick its link frees up; an earlier request
supersedes a later one, whose queued callback then fires as a no-op.

Scenario row: ``scenario_row`` reads a finished scenario run's trace into
the ``MetricsRow`` that ``poabcast run --out`` writes as its metrics.csv.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from .paxos import PaxosNode
from .scenario import PROTOCOLS, ClientSpec, Scenario
from .sim import DelayModel, OmegaScript, Simulator
from .runner import run
from .trace import Trace
from .values import AppValue

REQUEST_HEADER = 32  # per-request framing bytes inside a batch
DELTA = 10  # message delay of the throughput runs, in ticks
PER_BYTE = 0.00015  # sender ticks per byte of a batch
BATCH_CAP = 50  # requests per batch, at most
WARMUP = 2000  # ticks before the measurement window opens
WINDOW = 8000  # ticks of measurement


@dataclass
class MetricsRow:
    scenario: str
    protocol: str
    clients: int
    request_size: int
    lat_min: Optional[float] = None
    lat_mean: Optional[float] = None
    lat_p99: Optional[float] = None
    stable_latency: Optional[int] = None
    throughput_per_1k: Optional[float] = None
    leader_change_idle: Optional[int] = None

    def csv(self) -> str:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, float):
                return f"{x:.3f}"
            return str(x)

        return ",".join(fmt(getattr(self, col)) for col in CSV_COLUMNS)


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def rows_to_csv(rows: List[MetricsRow]) -> str:
    out = [",".join(CSV_COLUMNS)]
    out.extend(r.csv() for r in rows)
    return "\n".join(out) + "\n"


def _at_least(*limits: Tuple[str, int, int]) -> None:
    for name, value, least in limits:
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def _percentile(xs: List[float], q: float) -> float:
    ys = sorted(xs)
    idx = min(len(ys) - 1, max(0, int(round(q * (len(ys) - 1)))))
    return ys[idx]


def _latencies(lats: List[int]) -> Dict[str, float]:
    """A row's latency columns over ``lats``; none, so blank, when it is empty."""
    return dict(lat_min=min(lats), lat_mean=sum(lats) / len(lats),
                lat_p99=_percentile([float(x) for x in lats], 0.99)) if lats else {}


def scenario_row(trace: Trace) -> MetricsRow:
    """A scenario run's row: the clients that sent a request, size 0 (they
    carry no bytes), each answered request's latency from its first
    ``request`` event, and responses per 1000 ticks of the horizon."""
    requests, responses = trace.by_kind("request"), trace.by_kind("response")
    sent: Dict[Tuple[int, Any], int] = {}
    for e in requests:
        sent.setdefault((e.actor, e.data["reqid"]), e.time)
    lats = [e.time - sent[k] for e in responses if (k := (e.actor, e.data["reqid"])) in sent]
    s = trace.summary
    return MetricsRow(s["scenario"], s["protocol"], len({e.actor for e in requests}), 0,
                      throughput_per_1k=len(responses) / s["horizon"] * 1000, **_latencies(lats))


# -- latency table -------------------------------------------------------------


def stable_scenario(protocol: str, delta: int = 10, clients: int = 5) -> Scenario:
    specs = [
        ClientSpec(
            cid=3 + i,
            kind="scripted",
            sends=[(4 * delta, 0, 1, f"s{i}")],
        )
        for i in range(clients)
    ]
    return Scenario(
        name=f"stable-{protocol}",
        protocol=protocol,
        n=3,
        horizon=40 * delta,
        delay=DelayModel.fixed(delta),
        omega=OmegaScript.single(3, 0),
        clients=specs,
    )


def leaderchange_scenario(protocol: str, delta: int = 10) -> Scenario:
    switch = 10 * delta
    crash = switch - delta // 2
    specs = [
        ClientSpec(cid=3, kind="scripted", sends=[(4 * delta, 1, 1, "b")])
    ]
    if protocol in ("tau-seq", "tau-paxos"):
        # leave the old leader a written-but-undecided value: accepted by the
        # followers, acks lost to the crash
        specs.append(
            ClientSpec(cid=4, kind="scripted", sends=[(7 * delta, 0, 1, "a")])
        )
    return Scenario(
        name=f"leaderchange-{protocol}",
        protocol=protocol,
        n=3,
        horizon=40 * delta,
        delay=DelayModel.fixed(delta),
        omega=OmegaScript([(0, {p: 0 for p in range(3)}), (switch, {p: 1 for p in range(3)})]),
        crashes={0: crash},
        clients=specs,
    )


def stable_metrics(trace: Trace) -> Tuple[List[int], int]:
    """Per-value first-broadcast-to-delivery latencies at the leader, the
    process that the trace's last omega event names."""
    leader = trace.by_kind("omega")[-1].data["leader"]
    bcasts = [e for e in trace.by_kind("broadcast") if e.actor == leader]
    if not bcasts:
        raise ValueError("no broadcasts at the leader")
    start = min(e.time for e in bcasts)
    digests = {e.data["value"] for e in bcasts}
    lats = [
        e.time - start
        for e in trace.by_kind("deliver")
        if e.actor == leader and e.data["value"] in digests
    ]
    if len(lats) < len(digests):
        raise ValueError("not every broadcast value was delivered at the leader")
    return lats, max(lats)


def leader_change_idle(trace: Trace) -> int:
    """Ticks from the oracle switch, the trace's last omega event (in the
    leaderchange scenarios, at the final omega segment's start), to the first
    consensus write of a fresh, eventually-delivered application value at the
    new leader, the process that event names."""
    last = trace.by_kind("omega")[-1]
    switch, new_leader = last.time, last.data["leader"]
    delivered = {e.data["value"] for e in trace.by_kind("deliver")}
    fresh = {
        e.data["value"]
        for e in trace.by_kind("broadcast")
        if e.actor == new_leader and e.time >= switch and e.data["value"] in delivered
    }
    writes = [
        e
        for e in trace.by_kind("paxos-write")
        if e.actor == new_leader and e.data.get("payload") in fresh
    ]
    if not writes:
        raise ValueError("new leader never wrote a fresh delivered value")
    return min(e.time for e in writes) - switch


def bench_table1(delta: int = 10, clients: int = 5) -> List[MetricsRow]:
    _at_least(("delta", delta, 1), ("clients", clients, 1))
    rows = []
    for protocol in PROTOCOLS:
        trace = run(stable_scenario(protocol, delta, clients))
        lats, span = stable_metrics(trace)
        idle = leader_change_idle(run(leaderchange_scenario(protocol, delta)))
        rows.append(
            MetricsRow(
                scenario=f"table1-{protocol}",
                protocol=protocol,
                clients=clients,
                request_size=0,
                stable_latency=span,
                leader_change_idle=idle,
                **_latencies(lats),
            )
        )
    return rows


# -- throughput -----------------------------------------------------------------


class BatchingLeader:
    """Process 0's batching pump over a raw ``PaxosNode``. Its bookkeeping
    is per batch: the clients awaiting a batch are a list cut ``BATCH_CAP``
    at a time, and each proposed instance maps to its batch value and
    those clients."""

    def __init__(self, sim: Simulator, n: int, mode: str, request_size: int):
        if mode not in ("sequential", "parallel"):
            raise ValueError(f"unknown batching mode: {mode}")
        self.sim = sim
        self.mode = mode
        self.request_bytes = request_size + REQUEST_HEADER  # of each request in a batch
        self.node = PaxosNode(sim, 0, n, deliver=self._on_decide)
        # clients whose requests await a batch, in arrival order
        self.waiting: List[_LoadClient] = []
        # proposed, undecided instance -> (its batch, the clients awaiting it)
        self.proposed: Dict[int, Tuple[AppValue, List[_LoadClient]]] = {}
        self.next_instance = 1
        self._pump_at: Optional[int] = None

    def on_start(self) -> None:
        self.node.ensure_leadership()

    def submit(self, clients: List[_LoadClient]) -> None:
        """Queue one arrival's requests, one per client, in order."""
        self.waiting.extend(clients)
        # batch-cut decisions run at end of tick so simultaneous arrivals
        # share a batch
        self._schedule_pump(self.sim.now)

    def send_requests(self, clients: List[_LoadClient]) -> None:
        """Each client sends its next request now, over a 1-tick leg: one
        arrival event submits them all, in order."""
        now = self.sim.now
        for c in clients:
            c.sent_at = now
        self.sim.schedule(now + 1, lambda: self.submit(clients))

    def _reply(self, clients: List[_LoadClient]) -> None:
        now = self.sim.now
        if WARMUP <= now < WARMUP + WINDOW:
            for c in clients:
                c.samples.append(now - c.sent_at)
        self.send_requests(clients)

    def _schedule_pump(self, at: int) -> None:
        if self._pump_at is not None and self._pump_at <= at:
            return
        self._pump_at = at
        self.sim.schedule(at, lambda: self._run_pump(at))

    def _run_pump(self, at: int) -> None:
        # an entry superseded by an earlier pump is stale: it neither runs
        # nor reschedules
        if self._pump_at != at:
            return
        self._pump_at = None
        self._pump()

    def _sender_idle(self) -> bool:
        return self.sim.sender_free_at(0) <= self.sim.now

    def _pump(self) -> None:
        waiting = self.waiting
        while waiting:
            if self.mode == "sequential":
                if self.proposed:
                    return
            elif len(waiting) < BATCH_CAP and not self._sender_idle():
                # sender busy with earlier batches: revisit once it frees up
                self._schedule_pump(max(self.sim.now + 1, self.sim.sender_free_at(0)))
                return
            instance, cut = self.next_instance, waiting[:BATCH_CAP]
            del waiting[:BATCH_CAP]
            batch = AppValue(vid=f"b{instance}", size=len(cut) * self.request_bytes)
            self.proposed[instance] = (batch, cut)
            self.node.propose(batch, instance)
            self.next_instance += 1

    def _on_decide(self, value: Any, instance: int) -> None:
        proposed = self.proposed.pop(instance, None)
        if proposed is not None and proposed[0] is value:
            # one 1-tick reply leg back to the colocated clients; any other
            # value decided here answers none of them
            clients = proposed[1]
            self.sim.schedule(self.sim.now + 1, lambda: self._reply(clients))
        if self.waiting:  # with nothing waiting a pump would be a no-op
            self._schedule_pump(self.sim.now)

    def on_message(self, frm: int, msg: Any) -> None:
        self.node.on_message(frm, msg)


class _LoadClient:
    """Closed-loop client colocated with the leader, with one request
    outstanding, sent at ``sent_at``. The leader carries its requests and
    replies, and records the latency of each reply inside the measurement
    window."""

    def __init__(self):
        self.sent_at = 0
        self.samples: List[int] = []  # latencies of replies in [WARMUP, WARMUP + WINDOW)


def run_throughput(mode: str, clients: int, request_size: int) -> MetricsRow:
    _at_least(("clients", clients, 1), ("request_size", request_size, 0))
    big, batch = sys.float_info.max, BATCH_CAP * (request_size + REQUEST_HEADER)
    if not (batch <= big and batch * PER_BYTE <= big):  # a full batch's sender ticks
        raise ValueError(f"request_size {request_size} has no finite batch cost in ticks")
    n = 3
    sim = Simulator(
        n=n,
        delay_model=DelayModel.fixed(DELTA),
        omega=OmegaScript.single(n, 0),
        per_byte=PER_BYTE,
    )
    leader = BatchingLeader(sim, n, mode, request_size)
    sim.add_actor(0, leader)
    for pid in range(1, n):
        sim.add_actor(pid, PaxosNode(sim, pid, n, deliver=lambda v, i: None))
    load = [_LoadClient() for _ in range(clients)]
    # every client sends its first request at tick 1
    sim.schedule(1, lambda: leader.send_requests(load))
    try:
        sim.run(WARMUP + WINDOW)
    finally:
        sim.close()

    samples = [lat for c in load for lat in c.samples]
    if not samples:
        raise ValueError("no completed requests inside the measurement window")
    return MetricsRow(
        scenario=f"throughput-{mode}",
        protocol=mode,
        clients=clients,
        request_size=request_size,
        throughput_per_1k=len(samples) / WINDOW * 1000,
        **_latencies(samples),
    )


def bench_throughput(request_size: int = 1024,
                     clients_sweep: Optional[List[int]] = None) -> List[MetricsRow]:
    if clients_sweep is None:
        # keep the empty-request sweep below the batch cap so both modes face
        # the same effective batching; large requests need the deeper sweep
        clients_sweep = (
            [1, 2, 4, 8, 16, 32, 64, 128, 192]
            if request_size > 0
            else [1, 2, 4, 8, 16, 32, 48]
        )
    return [run_throughput(mode, c, request_size)
            for mode in ("sequential", "parallel") for c in clients_sweep]


def peak_throughput(rows: List[MetricsRow], mode: str) -> float:
    return max(r.throughput_per_1k for r in rows if r.protocol == mode)
