"""Deterministic discrete-event simulation kernel.

Virtual time is integral ticks. Events scheduled at equal times fire in
insertion order, so a run is a pure function of its inputs. The queue is
a calendar queue (Brown, CACM 1988) with one bucket per tick: each tick
with work due holds a list of its entries in insertion order, and a heap
holds the distinct ticks. ``run`` pops a tick and walks its list, which
grows as handlers queue work for that same tick, so a self-send or a
``schedule(now)`` costs one append and no heap operation.

Links lose messages only at a crashed receiver. Every link is FIFO, as
TCP makes it: a message is due no earlier than the one sent ahead of it
on the same link. With ``reorder`` on, only client links (an end above
``n - 1``) drop that floor, so a request or reply may overtake an
earlier one.
Link messages are numbered 1, 2, … in send order, and message ``seq`` is
delayed by ``DelayModel.delay(seq)``, splitmix64 of the seed and ``seq``.
Each run draws them from its own stream, ``DelayModel.draws``, which
evaluates that definition for 64 consecutive seqs at once; the
definition and ``delay(seq)`` stay the reference.
A sender's link is busy only under a per-byte cost, when a message departs
once the sender's earlier ones are on the wire; else it departs at once.
Every queued entry is data, never a closure: a message is its receiver,
sender and payload, and a scheduled call its bound actor, a bound method
and the method's arguments. So a simulator stopped between two ``run``
calls forks by ``copy.deepcopy``, which rebinds each queued method to the
copied actor, and round-trips through ``pickle`` the same way.
Actors and their simulator reach each other, so the builder closes it once
``run`` returns (``runner.run``, ``bench.run_throughput``): ``close`` drops
the actors, the pending events and the trace, so the simulator holds
nothing of the run, and the trace lives on with its holder. The actors
still form cycles among themselves (a ``PaxosNode``'s ``deliver`` is its
owner's bound method; a layer's ``delegate`` and its replica's ``layer``
name each other), so the cyclic collector frees the rest of a closed run.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .trace import Trace, TraceEvent

_M64 = 2**64 - 1
_LOW32 = 2**32 - 1
# seqs a run draws at once: a short run draws few that it never takes, and
# blocks of 256 or 1024 lanes lifted the long-history benchmark's peak RSS by
# ~2.6 MB (BENCH_delay.json) to save 1-2% of its time
_BLOCK = 64


@lru_cache(maxsize=32)
def _lanes(count: int) -> Tuple[int, int, int, struct.Struct]:
    """Seed-free constants for ``count`` 128-bit lanes of one int, lane i at
    bit 128 * i: a 1 in every lane, i in lane i, every lane's low 64 bits
    set, and a reader of every lane's low word, little-endian on any host."""
    reader = struct.Struct("<" + "Q8x" * count)
    ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
    iota = int.from_bytes(reader.pack(*range(count)), "little")
    return ones, iota, ones * _M64, reader


class SchedulingError(Exception):
    """Raised when an event is scheduled, or a run ends, in the virtual past."""


@dataclass(frozen=True)
class DelayModel:
    """Message delay: a seeded draw in [min_delay, max_delay] ticks.

    A fixed delay d is the zero-width jitter (d, d); its seed draws nothing.
    Draws are a pure function of (seed, message sequence number), so
    re-running a scenario reproduces every delivery time.
    """

    min_delay: int
    max_delay: int
    seed: int = 0

    def __post_init__(self):
        for name in ("min_delay", "max_delay", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # a float tick, or a bool read as 0 or 1
                raise ValueError(f"delay {name} must be an integer, got {value!r}")
        if self.min_delay < 1:
            raise ValueError(f"delay min_delay must be at least 1, got {self.min_delay}")
        if self.min_delay > self.max_delay:
            raise ValueError(f"delay max_delay must be at least delay min_delay "
                             f"({self.min_delay}), got {self.max_delay}")

    def delay(self, seq: int) -> int:
        """Delay of message ``seq``: ``min + z % (max - min + 1)`` for z
        splitmix64's output (Steele, Lea & Flood, OOPSLA 2014) from the state
        ``(seed << 32) ^ seq`` mod 2**64, or ``min`` outright when min == max.
        Only the seed's low 32 bits count: seeds congruent mod 2**32 draw alike."""
        return self.delays(seq, 1)[0]

    def delays(self, first: int, count: int) -> List[int]:
        """``delay(seq)`` for the ``count`` seqs from ``first`` on, from one
        evaluation of splitmix64 over ``count`` 128-bit lanes of one int (SWAR).
        Each lane holds one 64-bit state; a mask clears every lane's top half
        after each step, so a product or a shifted-in neighbour never carries
        into the next lane."""
        lo, width = self.min_delay, self.max_delay - self.min_delay + 1
        if width == 1:
            return [lo] * count
        # (seed << 32) ^ seq is high + (seq & _LOW32) while seq >> 32 holds,
        # so a block that crosses a multiple of 2**32 is drawn in two
        cut = ((first >> 32) + 1) << 32
        if first + count > cut:
            return self.delays(first, cut - first) + self.delays(cut, first + count - cut)
        ones, iota, mask, reader = _lanes(count)
        high = ((self.seed ^ (first >> 32)) << 32) & _M64
        z = ((high + (first & _LOW32) + 0x9E3779B97F4A7C15) * ones + iota) & mask
        z = (((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
        z = (((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB) & mask
        # the reader skips each lane's top half, where z >> 31 shifts bits in
        z ^= z >> 31
        return [lo + v % width for v in reader.unpack(z.to_bytes(16 * count, "little"))]

    def draws(self) -> Iterator[int]:
        """``delay(1), delay(2), …`` without end: one run's link delays, drawn
        ``_BLOCK`` seqs at a time. A fresh stream per call; the model keeps no
        draw state."""
        if self.min_delay == self.max_delay:
            return itertools.repeat(self.min_delay)
        blocks = map(self.delays, itertools.count(1, _BLOCK), itertools.repeat(_BLOCK))
        return itertools.chain.from_iterable(blocks)

    @classmethod
    def fixed(cls, delta: int) -> "DelayModel":
        return cls(delta, delta)

    @classmethod
    def jitter(cls, min_delay: int, max_delay: int, seed: int) -> "DelayModel":
        return cls(min_delay, max_delay, seed)


@dataclass
class OmegaScript:
    """Scripted leader-oracle outputs: ordered (from_time, per-process output).

    The first segment names every process; a later one that omits a process
    keeps its previous output. A segment may map different processes to
    different leaders; from the final segment's start on, every correct
    process's output must be one correct process, for the oracle's
    eventual-agreement contract to hold.
    """

    segments: List[Tuple[int, Dict[int, int]]]

    def validate(self, n: int, crashes: Dict[int, int]) -> None:
        if not self.segments:
            raise ValueError("omega script needs at least one segment")
        times = [t for t, _ in self.segments]
        if times[0] < 0 or times != sorted(times) or len(set(times)) != len(times):
            raise ValueError("omega segment start times must be >= 0 and strictly increase")
        for t, outputs in self.segments:
            for p, out in outputs.items():
                if not (0 <= p < n and 0 <= out < n):
                    raise ValueError("omega outputs must name processes in [0, n)")
        if len(self.segments[0][1]) != n:
            raise ValueError("the first omega segment must name every process in [0, n)")
        finals = {self.output(p, times[-1]) for p in range(n) if p not in crashes}
        if len(finals) > 1:
            raise ValueError("final omega outputs must agree on one leader")
        if finals and next(iter(finals)) in crashes:
            raise ValueError("final omega outputs must name a correct process")

    def output(self, p: int, t: int) -> int:
        current = self.segments[0][1][p]
        for start, outputs in self.segments[1:]:
            if start > t:
                break
            current = outputs.get(p, current)
        return current

    @classmethod
    def single(cls, n: int, leader: int) -> "OmegaScript":
        return cls([(0, {p: leader for p in range(n)})])


class Simulator:
    """Single-threaded event loop with virtual clock, links, crashes and omega."""

    def __init__(
        self,
        n: int,
        delay_model: DelayModel,
        omega: OmegaScript,
        crashes: Optional[Dict[int, int]] = None,
        reorder: bool = False,
        per_byte: float = 0.0,
    ):
        self.n = n
        self.delay_model = delay_model
        # this run's stream of link delays: delay(1), delay(2), … in send order
        self._next_delay = delay_model.draws().__next__
        self.omega_script = omega
        self.crashes = dict(crashes or {})
        self.reorder = reorder
        self.per_byte = per_byte

        self.now = 0
        self.trace = Trace()
        self.actors: Dict[int, Any] = {}
        # tick -> its entries in insertion order, each (bound actor or None,
        # method, sender, data): a message is (receiver, None, sender,
        # message), a scheduled call (actor, method, None, its arguments).
        # _ticks heaps _due's ticks, each pushed once, when its list opens
        self._due: Dict[int, List[tuple]] = {}
        self._ticks: List[int] = []
        # per (frm, to), the delivery tick of the link's last message: no
        # message is due before it. Reorder lifts the floor on client links
        # only. Consensus needs FIFO process links: the read phase's no-op
        # gap rule is sound only if each acceptor's accepted instances are
        # prefix-closed per primary.
        self._fifo_floor: Dict[Tuple[int, int], int] = {}
        self._busy_until: Dict[int, int] = {}
        self._started = False

        omega.validate(n, self.crashes)

    # -- actors -------------------------------------------------------------

    def add_actor(self, actor_id: int, actor: Any) -> None:
        self.actors[actor_id] = actor

    # -- scheduling ---------------------------------------------------------

    def schedule(self, at: int, fn: Callable[..., None], *args: Any,
                 actor: Optional[int] = None) -> None:
        """Call ``fn(*args)`` at tick ``at``, or never if ``actor`` has crashed
        by then. ``fn`` is a bound method, not a closure, so the entry stays
        data that deep-copies and pickles with the actors it names."""
        if at < self.now:
            raise SchedulingError(f"cannot schedule at t={at} (now t={self.now})")
        due = self._due.get(at)
        if due is None:
            self._due[at] = [(actor, fn, None, args)]
            heapq.heappush(self._ticks, at)
        else:
            due.append((actor, fn, None, args))

    # -- messaging ----------------------------------------------------------

    def send(self, frm: int, to: int, msg: Any, size: int = 0) -> None:
        now = self.now
        crash_at = self.crashes.get(frm)
        if crash_at is not None and now >= crash_at:
            return
        if frm == to:
            # local self-delivery: immediate, no link traversal
            at = now
        else:
            departure = now
            if self.per_byte:
                busy = self._busy_until.get(frm, 0)
                if busy > now:
                    departure = busy
                if size:
                    departure += int(round(size * self.per_byte))
                self._busy_until[frm] = departure
            at = departure + self._next_delay()
            if not self.reorder or (frm < self.n and to < self.n):
                link = (frm, to)
                floor = self._fifo_floor.get(link, 0)
                if at < floor:
                    at = floor
                self._fifo_floor[link] = at
        due = self._due.get(at)
        if due is None:
            self._due[at] = [(to, None, frm, msg)]
            heapq.heappush(self._ticks, at)
        else:
            due.append((to, None, frm, msg))

    def sender_free_at(self, pid: int) -> int:
        """Tick at which ``pid``'s link has sent all it queued; 0 with no byte cost."""
        return self._busy_until.get(pid, 0)

    # -- omega --------------------------------------------------------------

    def _install_omega_notifications(self) -> None:
        # one entry per change of a process's output, bound to it so that its
        # crash silences its oracle; a tick's entries come in process order
        for p in range(self.n):
            if p in self.actors:
                last = None
                for start, outputs in self.omega_script.segments:
                    out = outputs.get(p, last)
                    if out != last:
                        last = out
                        self.schedule(start, self._notify_omega, p, out, actor=p)

    def _notify_omega(self, p: int, leader: int) -> None:
        self.emit("omega", p, leader=leader)
        handler = getattr(self.actors[p], "on_omega", None)
        if handler is not None:
            handler(leader)

    # -- trace --------------------------------------------------------------

    def emit(self, kind: str, actor: int, **data: Any) -> None:
        # one call per event, straight onto the trace; index = position.
        # tuple.__new__ skips the Python-level __new__ a NamedTuple call runs
        events = self.trace.events
        events.append(tuple.__new__(TraceEvent, (self.now, len(events), actor, kind, data)))

    # -- main loop ----------------------------------------------------------

    def _crash(self, p: int) -> None:
        self.emit("crash", p)

    def run(self, until: int) -> Trace:
        """Fire every event due at or before ``until``, then set ``now`` to
        ``until``; an ``until`` below ``now`` raises ``SchedulingError``. A
        handler's exception propagates out with the rest of its tick dropped;
        later ticks stay queued for the next ``run``."""
        if until < self.now:
            raise SchedulingError(f"cannot run until t={until} (now t={self.now})")
        if not self._started:
            self._started = True
            self._install_omega_notifications()
            for p, t in sorted(self.crashes.items()):
                self.schedule(t, self._crash, p)
            for aid, actor in self.actors.items():
                if hasattr(actor, "on_start"):
                    self.schedule(0, actor.on_start, actor=aid)
        ticks, dues, crashes, actors = self._ticks, self._due, self.crashes, self.actors
        while ticks and ticks[0] <= until:
            at = heapq.heappop(ticks)
            self.now = at
            # the walk also fires what this tick's handlers queue for it; the
            # list goes even if one raises, so its tick is never orphaned
            try:
                for actor, fn, frm, data in dues[at]:
                    if actor is not None:
                        # an actor-bound event at or after its actor's crash is dropped
                        crash_at = crashes.get(actor)
                        if crash_at is not None and at >= crash_at:
                            continue
                    if fn is not None:
                        fn(*data)
                    else:
                        # a message to an id with no actor is dropped
                        receiver = actors.get(actor)
                        if receiver is not None:
                            receiver.on_message(frm, data)
            finally:
                del dues[at]
        self.now = until
        return self.trace

    def close(self) -> None:
        """Drop the actors, the pending events (each names an actor or a
        method bound to one) and the trace; the trace ``run`` returned stays
        whole with whoever holds it. A closed simulator is not run again."""
        self.actors.clear()
        self._due.clear()
        self._ticks.clear()
        self.trace = None
