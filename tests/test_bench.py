"""Benchmark plumbing: metrics rows, CSV schema, batching leader mechanics."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poabcast.bench import (
    CSV_COLUMNS,
    MetricsRow,
    bench_table1,
    leaderchange_scenario,
    rows_to_csv,
    run_throughput,
    stable_metrics,
    stable_scenario,
)
from poabcast.cli import load_scenario
from poabcast.paxos import PaxosNode
from poabcast.runner import run
from poabcast.scenario import PROTOCOLS

from test_sim import counted


def test_csv_columns_are_the_metrics_row_fields():
    assert CSV_COLUMNS == (
        "scenario", "protocol", "clients", "request_size", "lat_min", "lat_mean",
        "lat_p99", "stable_latency", "throughput_per_1k", "leader_change_idle",
    )


def test_csv_schema_is_stable():
    row = MetricsRow(
        scenario="s", protocol="p", clients=1, request_size=0, lat_mean=1.5
    )
    csv = rows_to_csv([row])
    header, line = csv.strip().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    assert line.split(",")[0] == "s"
    assert line.split(",")[5] == "1.500"
    assert line.split(",")[4] == ""  # unset metric stays empty


def test_stable_metrics_measures_per_value_latency():
    trace = run(stable_scenario("tau-paxos", delta=10, clients=5))
    lats, span = stable_metrics(trace)
    assert len(lats) == 5
    assert span == max(lats)


def test_throughput_row_shapes():
    row = run_throughput("parallel", clients=4, request_size=64)
    assert row.protocol == "parallel"
    assert row.throughput_per_1k > 0
    assert row.lat_min <= row.lat_mean <= row.lat_p99


def test_sequential_mode_keeps_one_instance_in_flight():
    from poabcast.bench import BatchingLeader
    from poabcast.sim import DelayModel, OmegaScript, Simulator

    sim = Simulator(
        n=3, delay_model=DelayModel.fixed(10), omega=OmegaScript.single(3, 0)
    )
    leader = BatchingLeader(sim, 3, "sequential", 0)
    sim.add_actor(0, leader)
    for pid in (1, 2):
        sim.add_actor(pid, PaxosNode(sim, pid, 3, deliver=lambda v, i: None))
    sim.schedule(1, lambda: leader.send_requests(8))
    trace = sim.run(2000)
    in_flight, written = set(), 0  # the leader's written, undecided batch instances
    for e in trace.by_kind("paxos-write", "decide"):
        if e.actor != 0:
            continue
        if e.kind == "paxos-write" and e.payload is not None:
            in_flight.add(e.instance)
            written += 1
            assert len(in_flight) <= 1
        elif e.kind == "decide":
            in_flight.discard(e.instance)
    assert written > 1


@pytest.mark.parametrize(
    "arg, value",
    [
        ("clients", 0),
        ("request_size", -1),
    ],
)
def test_throughput_rejects_out_of_range_arguments(arg, value, monkeypatch):
    # a bad argument fails before the simulation starts
    from poabcast.sim import Simulator

    def never(self, until):
        pytest.fail("run_throughput started the simulation")

    monkeypatch.setattr(Simulator, "run", never)
    args = {"mode": "parallel", "clients": 2, "request_size": 0, arg: value}
    with pytest.raises(ValueError, match=arg):
        run_throughput(**args)


@pytest.mark.parametrize("arg, value", [("delta", 0), ("clients", 0)])
def test_table1_rejects_out_of_range_arguments(arg, value, monkeypatch):
    from poabcast.sim import Simulator

    def never(self, until):
        pytest.fail("bench_table1 started a simulation")

    monkeypatch.setattr(Simulator, "run", never)
    with pytest.raises(ValueError, match=arg):
        bench_table1(**{arg: value})


def test_batch_cap_limits_batch_size(monkeypatch):
    from poabcast import bench

    sizes = []
    propose = PaxosNode.propose

    def counted_propose(self, value, *args):
        # the leader's proposals are its batches; at 0 B a request is its header
        if self.pid == 0:
            sizes.append(value.size // bench.REQUEST_HEADER)
        return propose(self, value, *args)

    monkeypatch.setattr(bench, "BATCH_CAP", 2)
    monkeypatch.setattr(PaxosNode, "propose", counted_propose)
    row = run_throughput("sequential", clients=8, request_size=0)
    assert row.throughput_per_1k > 0
    # eight clients queue far more than two requests behind each batch
    assert sizes and max(sizes) == 2


@pytest.mark.parametrize(
    "mode, clients, size",
    [("parallel", 48, 0), ("parallel", 192, 1024), ("sequential", 192, 1024)],
)
def test_a_batch_carries_its_requests_bytes(mode, clients, size, monkeypatch):
    # each proposal is one value sized as its runs' requests, header
    # included, and no two proposals of a run share a digest
    from poabcast import bench
    from poabcast.bench import BatchingLeader

    batches = []  # (value, its (sent_at, count) runs), in proposal order
    pump = BatchingLeader._pump

    def recorded_pump(self):
        before = set(self.proposed)
        pump(self)
        batches.extend(v for i, v in self.proposed.items() if i not in before)

    monkeypatch.setattr(BatchingLeader, "_pump", recorded_pump)
    run_throughput(mode, clients, size)
    assert batches
    for value, runs in batches:
        requests = sum(count for _, count in runs)
        assert all(count >= 1 for _, count in runs)
        assert 1 <= requests <= bench.BATCH_CAP
        assert value.size == requests * (size + bench.REQUEST_HEADER)
    assert len({value.digest() for value, _ in batches}) == len(batches)


def test_table1_rows_cover_all_four_protocols():
    rows = bench_table1()
    assert [r.protocol for r in rows] == [
        "naive",
        "tau-seq",
        "tau-paxos",
        "barrier-free",
    ]
    assert all(r.stable_latency is not None for r in rows)
    assert all(r.leader_change_idle is not None for r in rows)


@pytest.mark.parametrize("kind, protocol", itertools.product(("stable", "leaderchange"), PROTOCOLS))
def test_bundled_table1_scenarios_equal_their_generators(kind, protocol):
    # the bundled <kind>-<protocol>.yaml files are the generators' schedules
    # at delta 10 and 5 clients; an edit to either side shows here, and the
    # pin table pins the bundled files' traces
    make = stable_scenario if kind == "stable" else leaderchange_scenario
    assert load_scenario(f"{kind}-{protocol}") == make(protocol)


@pytest.mark.parametrize(
    "mode, clients, size, throughput, lat_mean",
    [
        ("parallel", 192, 1024, 3125.0, 61.44),
        ("sequential", 192, 1024, 1787.5, 107.52),
        ("parallel", 64, 1024, 2129.75, 30.0),
        ("sequential", 64, 1024, 1280.0, 50.0),
        ("parallel", 48, 0, 2178.0, 22.0),
    ],
)
def test_sweep_points_keep_their_virtual_time_results(mode, clients, size, throughput, lat_mean):
    row = run_throughput(mode, clients, size)
    assert row.throughput_per_1k == throughput
    assert row.lat_mean == pytest.approx(lat_mean, abs=1e-9)


def counted_batches(monkeypatch):
    """Count the proposals of the throughput leader, process 0: its batches."""
    calls = [0]
    propose = PaxosNode.propose

    def counted_propose(self, value, *args):
        calls[0] += self.pid == 0
        return propose(self, value, *args)

    monkeypatch.setattr(PaxosNode, "propose", counted_propose)
    return calls


def test_one_live_pump_per_batch_cut(monkeypatch):
    from poabcast.bench import BatchingLeader

    pumps, batches = counted(monkeypatch, BatchingLeader, "_pump"), counted_batches(monkeypatch)
    run_throughput("parallel", 192, 1024)
    assert batches[0] > 0
    assert pumps[0] <= 2 * batches[0]


def test_throughput_legs_cost_one_event_per_batch(monkeypatch):
    # the reply and request legs of a decided batch are one event each,
    # whatever the batch size; per-request events would be ~100 a batch here
    from poabcast.sim import Simulator

    schedules, batches = counted(monkeypatch, Simulator, "schedule"), counted_batches(monkeypatch)
    clients = 192
    run_throughput("parallel", clients, 1024)
    assert batches[0] > 0
    assert schedules[0] <= 8 * batches[0] + clients


def test_throughput_bookkeeping_is_per_batch(monkeypatch):
    # one submit per arrival event, not per request; a reply sends one
    # arrival for its batch's total and counts the latencies of its runs
    # only inside the measurement window
    from poabcast.bench import BATCH_CAP, WARMUP, WINDOW, BatchingLeader

    submits, batches = counted(monkeypatch, BatchingLeader, "submit"), counted_batches(monkeypatch)
    leaders, replies, sends = [], [], []  # the leader; (reply time, requests); send counts
    init, reply, send = BatchingLeader.__init__, BatchingLeader._reply, BatchingLeader.send_requests

    def recorded_init(self, *args):
        leaders.append(self)
        init(self, *args)

    def recorded_reply(self, runs):
        replies.append((self.sim.now, sum(count for _, count in runs)))
        return reply(self, runs)

    def recorded_send(self, count):
        sends.append(count)
        return send(self, count)

    monkeypatch.setattr(BatchingLeader, "__init__", recorded_init)
    monkeypatch.setattr(BatchingLeader, "_reply", recorded_reply)
    monkeypatch.setattr(BatchingLeader, "send_requests", recorded_send)
    row = run_throughput("parallel", 192, 1024)
    assert batches[0] > 0
    assert submits[0] <= batches[0] + 1
    assert sends == [192] + [k for _, k in replies]  # every client, then one per reply
    assert all(1 <= k <= BATCH_CAP for _, k in replies)
    in_window = sum(k for at, k in replies if WARMUP <= at < WARMUP + WINDOW)
    assert sum(k for _, k in replies) > in_window  # the warm-up's replies are dropped
    (leader,) = leaders
    assert all(type(lat) is int and lat > 0 for lat in leader.latencies)
    assert sum(leader.latencies.values()) == in_window == row.throughput_per_1k * WINDOW / 1000


@pytest.mark.parametrize("foreign", ["noop", "other-batch"])
def test_a_foreign_decide_replies_to_no_client(foreign, monkeypatch):
    # a proposed instance that decides some other value schedules no reply
    # leg: its batch's requests are not the ones the value answers
    from poabcast.bench import BatchingLeader
    from poabcast.sim import DelayModel, OmegaScript, Simulator
    from poabcast.values import NOOP, AppValue

    replied = []
    monkeypatch.setattr(BatchingLeader, "_reply", lambda self, runs: replied.append(runs))
    # no acceptors: consensus never decides, so the foreign value is the only decide
    sim = Simulator(n=3, delay_model=DelayModel.fixed(10), omega=OmegaScript.single(3, 0))
    leader = BatchingLeader(sim, 3, "parallel", 0)
    sim.add_actor(0, leader)
    sim.schedule(1, lambda: leader.send_requests(4))
    sim.run(2)
    assert list(leader.proposed) == [1]
    assert leader.proposed[1][1] == [(1, 4)]  # the four requests sent at tick 1
    value = NOOP if foreign == "noop" else AppValue("x.1")

    scheduled = []
    schedule = Simulator.schedule

    def recorded_schedule(self, at, *args, **kwargs):
        scheduled.append(at)
        return schedule(self, at, *args, **kwargs)

    monkeypatch.setattr(Simulator, "schedule", recorded_schedule)
    leader._on_decide(value, 1)
    assert leader.proposed == {}
    assert sim.now + 1 not in scheduled  # the reply leg would be due next tick
    sim.run(500)
    assert replied == []
    assert leader.waiting == []
    assert not leader.latencies


@pytest.mark.parametrize(
    "waiting, cut, left",
    [
        ([[1, 30], [2, 21], [3, 5]], [(1, 30), (2, 20)], [[2, 1], [3, 5]]),
        ([[1, 30], [2, 20], [3, 5]], [(1, 30), (2, 20)], [[3, 5]]),
        ([[1, 7], [2, 8]], [(1, 7), (2, 8)], []),
        ([[1, 120]], [(1, 50)], [[1, 70]]),
    ],
    ids=["splits-the-crossing-run", "ends-on-a-run", "under-the-cap", "one-long-run"],
)
def test_a_cut_takes_whole_runs_and_splits_at_most_one(waiting, cut, left):
    # waiting requests are [sent_at, count] runs: a cut of BATCH_CAP takes
    # them in order and leaves the rest of a run it splits at the front
    from poabcast.bench import BATCH_CAP, REQUEST_HEADER, BatchingLeader
    from poabcast.sim import DelayModel, OmegaScript, Simulator

    assert BATCH_CAP == 50
    sim = Simulator(n=3, delay_model=DelayModel.fixed(10), omega=OmegaScript.single(3, 0))
    leader = BatchingLeader(sim, 3, "sequential", 0)  # one cut: one instance in flight
    leader.waiting = [list(run) for run in waiting]
    leader._pump()
    ((batch, runs),) = leader.proposed.values()
    assert runs == cut and leader.waiting == left
    assert batch.size == sum(count for _, count in cut) * REQUEST_HEADER


def reference_latencies(xs):
    """The latency columns of a list of samples, by the rule the bench
    uses: the sorted samples' value at index round(0.99 * (n - 1))."""
    ys = sorted(xs)
    return dict(lat_min=ys[0], lat_mean=sum(xs) / len(xs),
                lat_p99=float(ys[int(round(0.99 * (len(ys) - 1)))]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    st.lists(st.integers(0, 50), min_size=1, max_size=300),  # many ties
    st.lists(st.integers(0, 2**70), min_size=1, max_size=40),  # beyond 64 bits
    st.integers(0, 10**6).map(lambda x: [x]),  # one sample
))
def test_histogram_latencies_equal_the_list_reference(xs):
    from poabcast.bench import _latencies

    got = _latencies(Counter(xs))
    assert got == reference_latencies(xs)
    assert type(got["lat_min"]) is int and type(got["lat_p99"]) is float
