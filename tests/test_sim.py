"""Simulation kernel: scheduling, links, crashes, oracle script, determinism."""

import ast
import copy
import gc
import heapq
import pathlib
import pickle
import warnings
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poabcast
from poabcast.bench import WARMUP, WINDOW, bench_throughput, run_throughput
from poabcast.runner import build, run
from poabcast.scenario import random_scenario
from poabcast.sim import DelayModel, OmegaScript, SchedulingError, Simulator


def make_sim(n=3, delta=10, omega=None, **kw):
    return Simulator(
        n=n,
        delay_model=DelayModel.fixed(delta),
        omega=omega or OmegaScript.single(n, 0),
        **kw,
    )


class Recorder:
    def __init__(self):
        self.messages = []

    def on_message(self, frm, msg):
        self.messages.append((frm, msg))


def test_schedule_fires_at_requested_time():
    sim = make_sim()
    fired = []
    sim.schedule(5, lambda: sim.schedule(10, lambda: fired.append(sim.now)))
    sim.run(20)
    assert fired == [10]


def test_equal_time_events_fire_in_insertion_order():
    sim = make_sim()
    order = []
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(10, lambda: order.append("b"))
    sim.run(20)
    assert order == ["a", "b"]


def test_scheduling_in_the_past_raises():
    sim = make_sim()
    sim.now = 5
    with pytest.raises(SchedulingError):
        sim.schedule(4, lambda: None)


def test_fixed_delay_delivery_time():
    sim = make_sim(delta=10)
    times = []

    class Probe:
        def on_message(self, frm, msg):
            times.append(sim.now)

    sim.add_actor(1, Probe())
    sim.schedule(5, lambda: sim.send(0, 1, "hello"))
    sim.run(100)
    assert times == [15]


def test_send_to_crashed_process_is_dropped():
    sim = make_sim(delta=10, crashes={1: 12})
    rec = Recorder()
    sim.add_actor(1, rec)
    sim.schedule(5, lambda: sim.send(0, 1, "x"))  # would arrive at 15 > 12
    sim.run(100)
    assert rec.messages == []


def test_crashed_sender_sends_nothing():
    sim = make_sim(delta=10, crashes={0: 4}, omega=OmegaScript.single(3, 2))
    rec = Recorder()
    sim.add_actor(1, rec)
    sim.schedule(5, lambda: sim.send(0, 1, "x"))
    sim.run(100)
    assert rec.messages == []


def test_actor_bound_event_at_the_crash_tick_is_dropped():
    sim = make_sim(crashes={1: 12})
    fired = []
    sim.schedule(12, lambda: fired.append("at crash"), actor=1)
    sim.run(100)
    assert fired == []


def test_actor_bound_event_a_tick_before_the_crash_fires():
    sim = make_sim(crashes={1: 12})
    fired = []
    sim.schedule(11, lambda: fired.append(sim.now), actor=1)
    sim.run(100)
    assert fired == [11]


def test_unbound_event_fires_after_every_process_crashed():
    sim = make_sim(crashes={0: 5, 1: 5, 2: 5})
    fired = []
    sim.schedule(50, lambda: fired.append(sim.now))
    sim.run(100)
    assert fired == [50]


def test_self_send_is_immediate():
    sim = make_sim(delta=10)
    times = []

    class Probe:
        def on_message(self, frm, msg):
            times.append(sim.now)

    sim.add_actor(0, Probe())
    sim.schedule(5, lambda: sim.send(0, 0, "x"))
    sim.run(100)
    assert times == [5]


def test_fifo_links_preserve_order_without_reorder():
    sim = make_sim(delta=10)
    got = []

    class Probe:
        def on_message(self, frm, msg):
            got.append(msg)

    sim.add_actor(1, Probe())
    sim.schedule(5, lambda: (sim.send(0, 1, "first"), sim.send(0, 1, "second")))
    sim.run(100)
    assert got == ["first", "second"]


def test_per_byte_cost_serializes_the_sender():
    sim = make_sim(delta=10, per_byte=1.0)
    times = []

    class Probe:
        def on_message(self, frm, msg):
            times.append((msg, sim.now))

    sim.add_actor(1, Probe())
    sim.schedule(0, lambda: (sim.send(0, 1, "a", size=5), sim.send(0, 1, "b", size=5)))
    sim.run(100)
    # first departs at 5, second at 10; both then take the 10-tick link
    assert times == [("a", 15), ("b", 20)]


def test_a_link_with_no_byte_cost_departs_at_the_send_tick():
    sim = Simulator(n=3, delay_model=DelayModel.jitter(5, 15, seed=3),
                    omega=OmegaScript.single(3, 0), per_byte=0)
    due, got = [], []

    class Probe:
        def on_message(self, frm, msg):
            got.append((msg, sim.now))

    def burst(tag):
        for k in range(4):
            sim.send(0, 1, (tag, k), size=1000)  # link message len(due) + 1
            due.append(((tag, k), sim.now + sim.delay_model.delay(len(due) + 1)))
            assert sim.sender_free_at(0) <= sim.now

    sim.add_actor(1, Probe())
    sim.schedule(0, lambda: burst("a"))
    sim.schedule(3, lambda: burst("b"))
    sim.run(100)
    floor, expected = 0, []
    for msg, at in due:  # the FIFO floor: never due before the message ahead
        floor = max(floor, at)
        expected.append((msg, floor))
    assert got == expected
    assert expected != due  # some message waits for the one ahead of it
    assert sim.sender_free_at(0) <= sim.now


def test_jitter_is_a_pure_function_of_seed_and_seq():
    m1 = DelayModel.jitter(8, 12, seed=1)
    m2 = DelayModel.jitter(8, 12, seed=1)
    assert [m1.delay(s) for s in range(50)] == [m2.delay(s) for s in range(50)]
    assert all(8 <= m1.delay(s) <= 12 for s in range(200))


def test_jitter_bounds_validated():
    with pytest.raises(ValueError):
        DelayModel.jitter(0, 5, seed=1)
    with pytest.raises(ValueError):
        DelayModel.jitter(6, 5, seed=1)
    with pytest.raises(ValueError):
        DelayModel.fixed(0)


@pytest.mark.parametrize(
    "fields",
    [(1.5, 3), (True, 3), (1, 3.5), (1, True), (5, 20, 1.5), (5, 20, False), (5, 20, "7")],
    ids=["float-min", "bool-min", "float-max", "bool-max", "float-seed", "bool-seed", "str-seed"],
)
def test_a_non_integer_delay_field_is_rejected(fields):
    # time is integral ticks: 1.5..3.5 would draw 2.5, and a float seed
    # would fail only at the run's first link message
    with pytest.raises(ValueError, match="must be an integer"):
        DelayModel(*fields)


def test_a_zero_width_jitter_is_a_fixed_delay():
    for d in (1, 10, 55):
        for seed in (0, 3, 2**40 + 1):
            model = DelayModel.jitter(d, d, seed)
            assert all(model.delay(seq) == d for seq in (0, 1, 2, 997, 2**33))
            assert model.max_delay == DelayModel.fixed(d).max_delay == d


def test_omega_segment_lookup_and_inclusive_boundary():
    script = OmegaScript(
        [(0, {p: 1 for p in range(3)}), (100, {p: 2 for p in range(3)})]
    )
    assert script.output(0, 50) == 1
    assert script.output(0, 99) == 1
    assert script.output(0, 100) == 2  # boundary is inclusive
    assert script.output(2, 500) == 2


def test_omega_divergent_segment_allows_two_leaders():
    script = OmegaScript(
        [
            (0, {0: 0, 1: 0, 2: 0}),
            (50, {0: 0, 1: 1, 2: 1}),  # two simultaneous leaders
            (100, {0: 1, 1: 1, 2: 1}),
        ]
    )
    assert script.output(0, 60) == 0
    assert script.output(1, 60) == 1
    script.validate(3, {})


def test_omega_validation_rejects_bad_scripts():
    with pytest.raises(ValueError):
        OmegaScript([]).validate(3, {})
    with pytest.raises(ValueError):
        OmegaScript([(0, {0: 0}), (0, {0: 1})]).validate(3, {})
    with pytest.raises(ValueError):
        # final segment disagrees about the leader
        OmegaScript([(0, {0: 0, 1: 1, 2: 1})]).validate(3, {})
    with pytest.raises(ValueError, match="first omega segment"):
        # process 1 and 2 have no output until t=50
        OmegaScript([(0, {0: 0}), (50, {p: 1 for p in range(3)})]).validate(3, {})
    with pytest.raises(ValueError):
        # final leader is crashed
        OmegaScript.single(3, 0).validate(3, {0: 100})
    with pytest.raises(ValueError, match="must agree on one leader"):
        # the final segment moves process 0 alone: 1 and 2 keep leader 0
        OmegaScript([(0, {p: 0 for p in range(3)}), (50, {0: 1})]).validate(3, {})
    with pytest.raises(ValueError, match="must name a correct process"):
        # process 0 is crashed, and 1 and 2 keep it as their leader
        OmegaScript([(0, {p: 0 for p in range(3)}), (50, {0: 1})]).validate(3, {0: 10})
    # a final segment may omit a process whose earlier output already agrees
    OmegaScript([(0, {0: 0, 1: 1, 2: 1}), (50, {0: 1})]).validate(3, {})


def test_omega_notifications_reach_live_actors_once_per_change():
    # process 0 crashes between the first two segments; the one at 50 names
    # process 1's output again unchanged, so 1 hears of it only at 80
    sim = make_sim(
        crashes={0: 20},
        omega=OmegaScript([(0, {0: 0, 1: 0, 2: 0}), (50, {0: 1, 1: 0, 2: 1}), (80, {1: 1})]),
    )
    seen = []
    for p in range(3):
        sim.add_actor(p, Recorder())
        sim.actors[p].on_omega = lambda leader, p=p: seen.append((sim.now, p, leader))
    trace = sim.run(200)
    assert seen == [(0, 0, 0), (0, 1, 0), (0, 2, 0), (50, 2, 1), (80, 1, 1)]
    assert [(e.time, e.actor, e.leader) for e in trace.by_kind("omega")] == seen


def test_empty_workload_trace_contains_only_omega_events():
    sim = make_sim()
    sim.add_actor(0, Recorder())
    trace = sim.run(100)
    assert len(trace.by_kind("omega")) == len(trace) > 0


def test_run_is_deterministic():
    s = random_scenario(3, "tau-paxos")
    assert run(s).to_jsonl() == run(s).to_jsonl()


def test_jitter_draw_is_splitmix64_of_seed_and_seq():
    """A draw is splitmix64's output z for the state ``(seed << 32) ^ seq``,
    reduced to ``min + z % (max - min + 1)``. A width of 2**64 exposes z
    itself, which the published vectors pin: state 0, and state 1234567."""
    raw = DelayModel.jitter(1, 2**64, seed=0)
    assert raw.delay(0) - 1 == 0xE220A8397B1DCDAF
    assert raw.delay(1234567) - 1 == 6457827717110365317


# (min, max, seed, seq) -> delay: width 1, the smallest width above it,
# negative seeds, and seqs at and past 2**32, which reach the seed's bits
JITTER_DRAWS = {
    (7, 7, 5, 1): 7,
    (1, 2, 0, 1): 2,
    (1, 2, 0, 2): 1,
    (5, 20, 0, 1): 6,
    (5, 20, 1, 1): 20,
    (5, 20, 1, 2): 7,
    (5, 20, -7, 3): 14,
    (1, 1024, -1, 255): 318,
    (3, 6, 2**31 - 1, 4096): 5,
    (2, 1000, 99, 2**32 - 1): 27,
    (1, 58, 1963, 2**32): 3,
    (1, 58, 1963, 2**33 + 1): 1,
}


def test_jitter_draws_are_pinned():
    for (lo, hi, seed, seq), want in JITTER_DRAWS.items():
        assert DelayModel.jitter(lo, hi, seed=seed).delay(seq) == want, (lo, hi, seed, seq)


def splitmix64_delay(lo, hi, seed, seq):
    """The README's definition, one seq at a time: the reference for ``delays``."""
    z = (((seed << 32) ^ seq) + 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    z = z ^ (z >> 31)
    return lo + z % (hi - lo + 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    lo=st.integers(1, 50),
    width=st.sampled_from([1, 2, 3, 16, 1000, 2**32 + 1, 2**64]) | st.integers(1, 2**70),
    seed=st.sampled_from([0, 1, -1, -7, 2**31 - 1, 2**32, 2**40 + 3]) | st.integers(-2**70, 2**70),
    first=st.sampled_from([0, 1, 2**32 - 1100, 2**32 - 1, 2**64 - 700, -1, -2**32 - 5])
    | st.integers(-2**66, 2**66),
    count=st.integers(1, 1100),
)
def test_delays_are_the_scalar_draws_lane_by_lane(lo, width, seed, first, count):
    """Property: the 128-bit-lane evaluation gives, for every seq of the
    block, what the four-line definition gives for that seq alone, also for
    blocks that cross a multiple of 2**32 or of 2**64 and for negative seqs."""
    hi = lo + width - 1
    got = DelayModel.jitter(lo, hi, seed).delays(first, count)
    assert got == [splitmix64_delay(lo, hi, seed, s) for s in range(first, first + count)]


def test_a_runs_draws_are_delay_of_1_2_3_across_every_block_edge():
    # a run draws 64 seqs at a time: 3100 seqs cross 48 block edges. Message
    # k goes between two clients, whose link reorder frees of the FIFO floor,
    # so at tick 0 it is queued for tick delay(k)
    for model in (DelayModel.jitter(5, 20, 3), DelayModel.jitter(1, 2**64, -9),
                  DelayModel.fixed(7)):
        sim = Simulator(n=3, delay_model=model, omega=OmegaScript.single(3, 0), reorder=True)
        for seq in range(1, 3101):
            sim.send(3, 4, seq)
        due = {seq: at for at, entries in sim._due.items() for _, _, _, seq in entries}
        assert due == {seq: model.delay(seq) for seq in range(1, 3101)}


def test_two_simulators_of_one_scenario_run_interleaved_give_its_trace():
    """No draw state lives on the shared ``DelayModel``: two runs built from
    one scenario and advanced in turn each give ``run(scenario)``'s events."""
    scenario = random_scenario(11, "barrier-free")
    want = run(scenario).events
    a, b = build(scenario), build(scenario)
    for until in range(0, scenario.horizon + 1, 50):
        a.run(until)
        b.run(until)
    assert a.run(scenario.horizon).events == b.run(scenario.horizon).events == want


def test_seeds_congruent_mod_2_to_the_32_draw_alike():
    """The seed is shifted 32 bits into a 64-bit state, so only its low 32
    bits count: seeds 3 and 2**40 + 3 draw the same delays."""
    seqs = range(1, 1000)
    for lo, hi in ((1, 2), (5, 20), (1, 1024)):
        a = DelayModel.jitter(lo, hi, seed=3)
        b = DelayModel.jitter(lo, hi, seed=2**40 + 3)
        assert [a.delay(seq) for seq in seqs] == [b.delay(seq) for seq in seqs]


def test_jitter_draws_cover_the_range_evenly():
    # 16000 draws over 16 values: each value within 15% of its 1000
    for seed in (0, 3, -7):
        model = DelayModel.jitter(5, 20, seed=seed)
        counts = Counter(model.delay(seq) for seq in range(1, 16001))
        assert sorted(counts) == list(range(5, 21)), seed
        assert all(850 <= c <= 1150 for c in counts.values()), (seed, counts)


def test_message_to_an_id_with_no_actor_is_dropped_silently():
    sim = make_sim(delta=10)
    rec = Recorder()
    sim.add_actor(1, rec)
    sim.schedule(5, lambda: (sim.send(0, 2, "lost"), sim.send(0, 1, "kept")))
    sim.schedule(5, lambda: sim.send(2, 2, "self, lost"))
    sim.run(100)
    assert rec.messages == [(0, "kept")]


@pytest.mark.parametrize("message_first", [True, False])
def test_message_and_callback_due_at_the_same_tick_fire_in_insertion_order(message_first):
    sim = make_sim(delta=10)
    order = []

    class Probe:
        def on_message(self, frm, msg):
            order.append(msg)

    sim.add_actor(1, Probe())

    def queue_both():
        # the message is due at 5 + 10 = 15, the callback is scheduled for 15
        if message_first:
            sim.send(0, 1, "message")
            sim.schedule(15, lambda: order.append("callback"), actor=1)
        else:
            sim.schedule(15, lambda: order.append("callback"), actor=1)
            sim.send(0, 1, "message")

    sim.schedule(5, queue_both)
    sim.run(100)
    expected = ["message", "callback"] if message_first else ["callback", "message"]
    assert order == expected


# -- the calendar queue: one list per tick, walked as it grows ------------------

def test_work_queued_for_the_current_tick_fires_after_what_was_queued_before():
    sim = make_sim()
    order = []

    class Probe:
        def on_message(self, frm, msg):
            order.append(msg)

    sim.add_actor(0, Probe())

    def handler():
        order.append("handler")
        sim.send(0, 0, "self-send")
        sim.schedule(sim.now, lambda: order.append("callback"))

    sim.schedule(5, handler)
    sim.schedule(5, lambda: order.append("queued before"))
    sim.run(10)
    assert order == ["handler", "queued before", "self-send", "callback"]


def test_a_schedule_at_now_after_run_returns_fires_on_the_next_run():
    sim = make_sim()
    fired = []
    sim.schedule(10, lambda: fired.append(("in run", sim.now)))
    sim.run(10)
    sim.schedule(sim.now, lambda: fired.append(("after run", sim.now)))
    assert fired == [("in run", 10)]
    sim.run(20)
    assert fired == [("in run", 10), ("after run", 10)]


def test_a_run_that_would_turn_the_clock_back_raises_and_fires_nothing():
    sim = make_sim()
    fired = []
    sim.run(100)
    sim.schedule(120, lambda: fired.append(sim.now))
    with pytest.raises(SchedulingError):
        sim.run(50)
    assert sim.now == 100 and fired == []
    with pytest.raises(SchedulingError):
        sim.schedule(60, lambda: fired.append(sim.now))
    sim.run(100)  # a run until now is allowed and fires nothing new
    sim.run(150)
    assert fired == [120]


def test_close_leaves_no_pending_tick():
    sim = make_sim()
    sim.add_actor(1, Recorder())
    sim.schedule(50, lambda: None)
    sim.schedule(5, lambda: sim.send(0, 1, "in flight"))
    sim.run(10)
    assert sim._ticks and sim._due
    sim.close()
    assert sim._ticks == [] and sim._due == {}


def test_a_handler_that_raises_drops_the_rest_of_its_tick_and_no_later_one():
    sim = make_sim()
    fired = []

    def boom():
        raise RuntimeError("boom")

    sim.schedule(5, boom)
    sim.schedule(5, lambda: fired.append(("dropped", sim.now)))
    sim.schedule(6, lambda: fired.append(("later", sim.now)))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(10)
    assert sim.now == 5 and fired == []
    # the raising tick left the queue whole: work queued at it again fires
    sim.schedule(5, lambda: fired.append(("again", sim.now)))
    sim.run(10)
    assert fired == [("again", 5), ("later", 6)]


class HeapKernel:
    """The queue the calendar replaced: one heap ordered by (tick, insertion),
    with a fixed link delay, crashes and the same dropping rules."""

    def __init__(self, delta, crashes):
        self.now, self.heap, self.seq, self.actors = 0, [], 0, {}
        self.delta, self.crashes = delta, crashes

    def schedule(self, at, fn, actor=None):
        self.seq += 1
        heapq.heappush(self.heap, (at, self.seq, actor, fn, None, None))

    def send(self, frm, to, msg):
        if self.now < self.crashes.get(frm, self.now + 1):
            self.seq += 1
            at = self.now if frm == to else self.now + self.delta
            heapq.heappush(self.heap, (at, self.seq, to, None, frm, msg))

    def run(self, until):
        while self.heap and self.heap[0][0] <= until:
            at, _, actor, fn, frm, msg = heapq.heappop(self.heap)
            self.now = at
            if at >= self.crashes.get(actor, at + 1):
                continue
            if fn is not None:
                fn()
            elif actor in self.actors:
                self.actors[actor].on_message(frm, msg)
        self.now = until


# one step of a program: ("schedule", ticks ahead, bound actor or None) or
# ("send", sender, receiver); a receiver equal to the sender is a self-send
PROGRAM_STEPS = st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 4), st.sampled_from([None, 0, 1, 2])),
    st.tuples(st.just("send"), st.integers(0, 2), st.integers(0, 2)),
)


def play(kernel, program, starts, horizons, budget=120):
    """Run ``program`` on ``kernel``: event k, a callback or a message, logs
    (tick, k) as it fires and then takes the steps of ``program[k % len]``,
    each queueing a fresh event, until ``budget`` events exist. ``starts``
    are queued before the first run, and after each run one more callback
    is queued at the tick the run left ``now`` at."""
    log, made = [], [0]

    def fire(k):
        log.append((kernel.now, k))
        for step in program[k % len(program)]:
            if made[0] >= budget:
                return
            made[0] += 1
            if step[0] == "schedule":
                kernel.schedule(kernel.now + step[1], lambda k=made[0]: fire(k), actor=step[2])
            else:
                kernel.send(step[1], step[2], made[0])

    class Probe:
        def on_message(self, frm, msg):
            fire(msg)

    for p in range(3):
        kernel.actors[p] = Probe()
    for at, actor in starts:
        made[0] += 1
        kernel.schedule(at, lambda k=made[0]: fire(k), actor=actor)
    for until in horizons:
        kernel.run(until)
        made[0] += 1
        kernel.schedule(kernel.now, lambda k=made[0]: fire(k))
    return log


@settings(max_examples=200, deadline=None)
@given(
    delta=st.integers(1, 3),
    crashes=st.dictionaries(st.sampled_from([1, 2]), st.integers(0, 40)),
    program=st.lists(st.lists(PROGRAM_STEPS, max_size=4), min_size=1, max_size=8),
    starts=st.lists(st.tuples(st.integers(0, 6), st.sampled_from([None, 0, 1, 2])),
                    min_size=1, max_size=5),
    horizons=st.lists(st.integers(0, 30), min_size=1, max_size=3).map(
        lambda hs: sorted(set(hs))),
)
def test_the_calendar_queue_fires_in_the_heaps_order(delta, crashes, program, starts, horizons):
    """Property: random programs of callbacks, process and self sends,
    schedules at the current tick from handlers, crashes and runs resumed
    at later horizons fire in the order of a heap keyed by (tick,
    insertion), the queue the kernel had before its calendar."""
    sim = make_sim(delta=delta, crashes=crashes)
    want = play(HeapKernel(delta, crashes), program, starts, horizons)
    assert play(sim, program, starts, horizons) == want


# jitter seed 1 draws 20 ticks for message 1 and 7 for message 2, so two
# messages sent together arrive in the opposite order
def make_reordering_sim(**kw):
    sim = Simulator(
        n=3,
        delay_model=DelayModel.jitter(5, 20, seed=1),
        omega=OmegaScript.single(3, 0),
        reorder=True,
        **kw,
    )
    assert sim.delay_model.delay(1) == 20 and sim.delay_model.delay(2) == 7
    return sim


def test_reorder_keeps_the_delivery_floor_on_a_process_link():
    sim = make_reordering_sim()
    got = []

    class Probe:
        def on_message(self, frm, msg):
            got.append((msg, sim.now))

    sim.add_actor(1, Probe())

    def send_both():
        sim.send(0, 1, "first")  # due at 25
        # due at the same tick and inserted between the sends, so it fires
        # between the two messages
        sim.schedule(25, lambda: got.append(("callback", sim.now)))
        sim.send(0, 1, "second")  # due at 12 by its draw; the floor makes it 25

    sim.schedule(5, send_both)
    sim.run(100)
    assert got == [("first", 25), ("callback", 25), ("second", 25)]


def test_reorder_leaves_client_links_unsequenced():
    sim = make_reordering_sim()
    rec = Recorder()
    sim.add_actor(1, rec)
    # actor 3 is a client (id >= n): its later message overtakes the earlier
    sim.schedule(5, lambda: (sim.send(3, 1, "first"), sim.send(3, 1, "second")))
    sim.run(100)
    assert rec.messages == [(3, "second"), (3, "first")]


def test_a_frame_due_after_its_receiver_crashes_is_never_dispatched():
    # "first" is due at 25 and "second", whose draw gives 12, at 25 by the floor;
    # the receiver crashes at 20, so neither reaches it
    sim = make_reordering_sim(crashes={1: 20})
    rec = Recorder()
    sim.add_actor(1, rec)
    sim.schedule(5, lambda: (sim.send(0, 1, "first"), sim.send(0, 1, "second")))
    sim.run(100)
    assert rec.messages == []


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    sends=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 4), st.integers(0, 4)).filter(
            lambda s: s[1] != s[2]
        ),
        max_size=40,
    ),
)
def test_reorder_floors_process_links_and_leaves_client_links_to_their_draws(seed, sends):
    """Property: under jitter and reorder, with ids 3 and 4 clients of a
    3-process system, message k of a process link is delivered at
    max(its own draw, the tick of message k-1), so in send order, and a
    message with a client end at its own draw."""
    model = DelayModel.jitter(1, 20, seed)
    sim = Simulator(n=3, delay_model=model, omega=OmegaScript.single(3, 0), reorder=True)
    delivered = {}

    class Probe:
        def __init__(self, pid):
            self.pid = pid

        def on_message(self, frm, msg):
            delivered.setdefault((frm, self.pid), []).append((msg, sim.now))

    for pid in range(5):
        sim.add_actor(pid, Probe(pid))
    for k, (at, frm, to) in enumerate(sends):
        sim.schedule(at, lambda frm=frm, to=to, k=k: sim.send(frm, to, k))

    # sends fire by time, then insertion order; the kernel numbers messages
    # from 1 in that order, and a draw is a pure function of the number
    expected = {}
    order = sorted(range(len(sends)), key=lambda k: sends[k][0])
    for seq, k in enumerate(order, start=1):
        at, frm, to = sends[k]
        due = at + model.delay(seq)
        link = expected.setdefault((frm, to), [])
        if frm < 3 and to < 3 and link:
            due = max(due, link[-1][1])
        link.append((k, due))

    sim.run(100)
    for link, want in expected.items():
        if link[0] < 3 and link[1] < 3:
            assert delivered[link] == want
        else:
            assert sorted(delivered[link]) == sorted(want)
    assert delivered.keys() == expected.keys()


# -- call counts the benchmark reads ------------------------------------------

def counted(monkeypatch, owner, attr):
    """Count the calls of class attribute ``owner.attr`` for the test."""
    original = getattr(owner, attr)
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


def recorded_runs(monkeypatch, record=lambda sim, trace: (sim, trace)):
    """Keep ``record(simulator, returned trace)`` of each ``Simulator.run`` call."""
    runs = []
    sim_run = Simulator.run

    def recording_run(self, until):
        trace = sim_run(self, until)
        runs.append(record(self, trace))
        return trace

    monkeypatch.setattr(Simulator, "run", recording_run)
    return runs


def delays_taken(sim):
    """The link delays ``sim`` has taken: the seqs of the blocks it drew,
    less those left in its current block."""
    return sim._drawn - sim._next_delay.__self__.__length_hint__()


@pytest.mark.parametrize("workload", ["corpus", "throughput"])
def test_emit_runs_once_per_event_and_delay_once_per_link_message(monkeypatch, workload):
    # the benchmark counts trace events by wrapping this class attribute, so
    # no path may go round it; a link message is a send from a live sender to
    # another id, and it takes exactly one draw from its run's own stream
    runs = recorded_runs(monkeypatch)
    emits = counted(monkeypatch, Simulator, "emit")
    send = Simulator.send
    links = Counter()

    def counting_send(sim, frm, to, msg, size=0):
        crash_at = sim.crashes.get(frm)
        if frm != to and (crash_at is None or sim.now < crash_at):
            links[sim] += 1
        send(sim, frm, to, msg, size)

    monkeypatch.setattr(Simulator, "send", counting_send)
    if workload == "corpus":
        for seed in range(3):
            for variant in ("tau-seq", "tau-paxos", "barrier-free"):
                run(random_scenario(seed, variant))
    else:
        bench_throughput(request_size=1024, clients_sweep=[8])
    assert runs
    assert emits[0] == sum(len(trace) for _, trace in runs) > 0
    assert [delays_taken(sim) for sim, _ in runs] == [links[sim] for sim, _ in runs]
    assert sum(links.values()) > 0


# -- a finished run is freed by reference counting ------------------------------

def test_close_leaves_the_returned_trace_whole():
    sim = build(random_scenario(5, "tau-paxos"))
    trace = sim.run(3000)
    text = trace.to_jsonl()
    sim.close()
    assert trace.to_jsonl() == text


def test_a_finished_run_is_freed_without_the_cyclic_collector():
    gc.disable()
    try:
        trace = run(random_scenario(5, "tau-paxos"))
        ref = weakref.ref(trace)
        del trace
        assert ref() is None
    finally:
        gc.enable()


def test_a_finished_throughput_run_is_freed_without_the_cyclic_collector(monkeypatch):
    refs = recorded_runs(monkeypatch, lambda sim, trace: weakref.ref(trace))
    gc.disable()
    try:
        run_throughput("parallel", 16, 1024)
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


# -- a mid-run simulator is a value ---------------------------------------------

def forks(sim):
    """A deep copy and a pickle round trip of ``sim``, neither of which may
    lean on a copy protocol Python deprecates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return [copy.deepcopy(sim), pickle.loads(pickle.dumps(sim))]


def test_a_simulator_cut_mid_run_forks_by_deepcopy_and_pickle():
    """Each queued entry is a message or a bound method with its arguments,
    so a copy of a stopped run holds its own actors: the original, a deep
    copy and a pickle round trip, each cut at ticks 50, 150 and 400 and run
    on to the horizon, all write the uncut run's trace."""
    for variant in ("tau-seq", "tau-paxos", "barrier-free"):
        for seed in range(50):
            scenario = random_scenario(seed, variant)
            want = build(scenario).run(scenario.horizon).to_jsonl()
            sim, copies = build(scenario), []
            for cut in (50, 150, 400):
                sim.run(cut)
                copies += forks(sim)
            for fork in [sim] + copies:
                assert fork.run(scenario.horizon).to_jsonl() == want, (variant, seed)


def test_a_throughput_run_cut_mid_run_forks_by_deepcopy_and_pickle(monkeypatch):
    # a sweep step stopped at tick 3000, inside the measurement window: its
    # copies run on to the window's end with the original's trace and latencies
    runs, sim_run = [], Simulator.run

    def cut_run(self, until):
        sim_run(self, 3000)
        runs.append(forks(self))
        trace = sim_run(self, until)
        runs.append((trace.to_jsonl(), self.actors[0]))
        return trace

    monkeypatch.setattr(Simulator, "run", cut_run)
    run_throughput("parallel", 16, 1024)
    monkeypatch.undo()
    copies, (want, leader) = runs
    assert sum(leader.latencies.values()) > 0
    for fork in copies:
        assert fork.run(WARMUP + WINDOW).to_jsonl() == want
        assert fork.actors[0].latencies == leader.latencies


def test_the_kernel_queues_no_closure():
    """The ``fn`` of every ``schedule`` call in the package is an attribute,
    such as ``self._watchdog``: a lambda, a ``partial`` or a nested function
    would bind the actors it was made with, and a copied run would call them."""
    calls = 0
    for path in sorted(pathlib.Path(poabcast.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "schedule"):
                calls += 1
                fn = node.args[1]
                where = f"{path.name}:{node.lineno}"
                assert isinstance(fn, ast.Attribute), f"{where} queues {ast.unparse(fn)}"
    assert calls > 0
