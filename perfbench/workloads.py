"""The benchmark's workloads, built from a seed through poabcast's public API.

Each workload holds a list of ``items``, one pass over them is a cycle,
and ``run_one(item)`` does one run and returns its ``Outcome``. The
workloads call poabcast through module attributes (``runner.run``,
``checker.check_all``, ``bench.bench_throughput``) so that the tracer's
wrappers are the ones called while it is installed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from poabcast import bench, checker, runner, scenario, sim
from poabcast.scenario import ClientSpec, Scenario
from poabcast.sim import DelayModel, OmegaScript

from .tracer import counting

VARIANTS = ("tau-seq", "tau-paxos", "barrier-free")

# bench table1 at delta=10, c=5: (stable latency, leader-change idle) in ticks
TABLE1 = {"naive": (20, 20), "tau-seq": (100, 40), "tau-paxos": (20, 40), "barrier-free": (20, 40)}


@dataclass
class Outcome:
    digest: str  # sha256 of the run's serialized output
    events: int  # trace events the run recorded; 0 where bench does not return them
    safe: bool = True  # every safety property held
    live: bool = True  # liveness verdict "pass"
    lin_checked: bool = False  # linearizability was decided, not skipped


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_scenario(sc: Scenario) -> Outcome:
    """Simulate, check (linearizability on, as ``poabcast run`` does), serialize."""
    trace = runner.run(sc)
    report = checker.check_all(trace)
    return Outcome(
        digest=sha256(trace.to_jsonl()),
        events=len(trace),
        safe=report.ok,
        live=report.liveness == "pass",
        lin_checked=report.linearizable is not None,
    )


def table1_rows() -> Dict[str, Tuple[int, int]]:
    rows = bench.bench_table1(delta=10, clients=5)
    return {r.protocol: (r.stable_latency, r.leader_change_idle) for r in rows}


class Scenarios:
    """A workload whose runs simulate, check and serialize one scenario each."""

    run_one = staticmethod(check_scenario)

    def checks(self) -> List[Tuple[str, bool]]:
        return []


class Corpus(Scenarios):
    """Tier-1 acceptance corpus: random_scenario over a contiguous seed range."""

    name = "corpus"
    partial = True  # a window may end inside a pass; runs are short

    def __init__(self, seed: int, seeds: int = 300, warm: int = 20):
        # seed-major order, so any prefix of a pass mixes the three variants
        self.items = [
            scenario.random_scenario(s, p) for s in range(seed, seed + seeds) for p in VARIANTS
        ]
        self.warm_items = self.items[: warm * len(VARIANTS)]


def long_history_scenario(
    seed: int, protocol: str, clients: int = 16, ops: int = 100, horizon: int = 40000
) -> Scenario:
    """n=5 under jitter 5-15 with reordering; the leader rotates every 2000
    ticks until horizon/2, then settles on process 0; process 4 crashes at
    horizon/3. Only the jitter seed depends on ``seed``."""
    n, rotate = 5, 2000
    settle = horizon // 2
    segments = [(t, {p: (t // rotate) % n for p in range(n)}) for t in range(0, settle, rotate)]
    segments.append((settle, {p: 0 for p in range(n)}))
    specs = [
        ClientSpec(
            cid=n + i,
            kind="loop",
            ops=[f"c{i}.{k}" for k in range(ops)],
            retry_every=120,
            start_at=10 * i,
        )
        for i in range(clients)
    ]
    sc = Scenario(
        name=f"long-{protocol}-{seed}",
        protocol=protocol,
        n=n,
        horizon=horizon,
        delay=DelayModel.jitter(5, 15, seed * len(VARIANTS) + VARIANTS.index(protocol)),
        omega=OmegaScript(segments),
        crashes={n - 1: horizon // 3},
        reorder=True,
        clients=specs,
    )
    sc.validate()
    return sc


class LongHistory(Scenarios):
    """One long scenario per variant: the checkers at ~34-40k events a trace."""

    name = "long-history"
    partial = False  # runs take seconds; a window is whole cycles of the variants
    # one run is a cycle: the variants' histories differ in cost, and a
    # seed moves one variant's more than their sum
    run_is_cycle = True

    def __init__(self, seed: int, clients: int = 16, ops: int = 100, horizon: int = 40000):
        self.items = [long_history_scenario(seed, p, clients, ops, horizon) for p in VARIANTS]
        self.warm_items = [
            long_history_scenario(seed, p, clients // 4 or 1, ops // 4 or 1, horizon // 5)
            for p in VARIANTS
        ]


# bench_throughput's default client sweeps, per request size; the
# benchmark calls it one client count at a time, so it names them here
SWEEPS = {1024: (1, 2, 4, 8, 16, 32, 64, 128, 192), 0: (1, 2, 4, 8, 16, 32, 48)}


class ThroughputSweep:
    """The paper's throughput experiment, as the acceptance suite runs it.

    One run is ``bench_throughput`` at 1 kB and at 0 B over its default
    client sweeps. It is done one client count (both modes) per item, so
    that host-speed samples fall between steps of at most about a second,
    and the run is the cycle over the items (``run_is_cycle``). It has no
    random input, so the seed does not change it.
    """

    name = "throughput-sweep"
    partial = False
    run_is_cycle = True

    def __init__(self, seed: int, sweeps: Optional[Dict[int, Tuple[int, ...]]] = None):
        self.items = [(size, c) for size, clients in (sweeps or SWEEPS).items() for c in clients]
        self.warm_items = [(1024, 16), (0, 8)]
        self.rows: Dict[Tuple[int, int], list] = {}  # item -> its rows, from its last run

    def run_one(self, item: Tuple[int, int]) -> Outcome:
        size, clients = item
        self.rows[item] = rows = bench.bench_throughput(request_size=size, clients_sweep=[clients])
        return Outcome(digest=sha256(bench.rows_to_csv(rows)), events=0)

    def peak_ratio(self, size: int) -> float:
        rows = [r for (s, _), rs in self.rows.items() if s == size for r in rs]
        return bench.peak_throughput(rows, "parallel") / bench.peak_throughput(rows, "sequential")

    def checks(self) -> List[Tuple[str, bool]]:
        """The acceptance suite's throughput gates, on the last cycle's rows."""
        return [
            ("peak-ratio-1k", self.peak_ratio(1024) >= 1.5),
            ("parity-0B", abs(self.peak_ratio(0) - 1.0) <= 0.10),
        ]

    def events_per_cycle(self) -> int:
        """Trace events one cycle records, counted on an extra untimed
        cycle: bench does not return its simulators' traces."""
        with counting(sim.Simulator, "emit") as events:
            for item in self.items:
                self.run_one(item)
        return events[0]


WORKLOADS = {w.name: w for w in (Corpus, ThroughputSweep, LongHistory)}
