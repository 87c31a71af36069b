"""Multi-instance single-decree Paxos driven by simulator events.

Each process is acceptor and learner for every instance; a process told
to lead picks a fresh ballot, runs one read phase covering all instances
from its lowest undecided one, then writes picked values (gaps filled
with no-ops) and the caller's proposals the read left open. Ballots are
leader-wide: a single promise guards all instances.

Nodes rely on the simulator's FIFO links between processes: the no-op gap
rule is unsound without them. This module holds protocol state only.

A node is a black box: it neither orders nor holds back proposals, so a
caller that wants one instance at a time proposes one at a time. The
layers rely on this contract alone:

- validity: a decided value was proposed at its instance, or is a no-op;
- agreement: every process decides the same value at an instance;
- prefix order: ``deliver`` is called in instance order, with no gaps;
- termination: a proposal lives until its instance is decided or the
  node relinquishes, and a later proposal at its instance replaces it,
  so once one leader is stable each instance it holds one at is decided.

The one surface beyond propose/decide is the optional ``on_phase_change``
hook, called with ``None`` as each read phase starts and with the read's
watermark as its write phase begins. A hooked caller's epoch ends at
each read phase, and its proposals end with it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Set, Tuple

from .sim import Simulator
from .values import NOOP, app_payload


IDLE = "idle"
READING = "reading"
WRITING = "writing"

# Watchdog period, in multiples of the base message delay. A leader with
# outstanding work and no progress for this long re-runs its read phase
# with a higher ballot.
RETRY_DELAYS = 6

# told None as a read phase starts and the read's watermark as its writes begin
PhaseHook = Callable[[Optional[int]], None]


# Messages are immutable tuple records, one per multicast, shared by its
# receivers. They compare as plain tuples, ReadMsg(3, 1) == WriteAck(3, 1),
# so nothing compares messages of different types: dispatch is by type.
class ReadMsg(NamedTuple):
    ballot: int
    lo: int


class ReadAck(NamedTuple):
    ballot: int
    accepted: Tuple[Tuple[int, Tuple[Any, int]], ...]  # (instance, (value, ballot))


class WriteMsg(NamedTuple):
    ballot: int
    instance: int
    value: Any


class WriteAck(NamedTuple):
    ballot: int
    instance: int


class DecideMsg(NamedTuple):
    instance: int
    value: Any


class PaxosNode:
    def __init__(
        self,
        sim: Simulator,
        pid: int,
        n: int,
        deliver: Callable[[Any, int], None],
        on_phase_change: Optional[PhaseHook] = None,
    ):
        self.sim = sim
        self.pid = pid
        self.n = n
        self.quorum = n // 2 + 1
        self.deliver = deliver
        self.on_phase_change = on_phase_change

        # acceptor
        self.promised = 0
        self.accepted: Dict[int, Tuple[Any, int]] = {}
        # learner
        self.decided: Dict[int, Any] = {}
        self._next_decide = 1
        # leader
        self.phase = IDLE
        self.ballot = 0
        self.read_lo = 1
        self.read_acks: Dict[int, Dict[int, Tuple[Any, int]]] = {}
        self.proposals: Dict[int, Any] = {}  # instance -> latest, until decided
        self.writes: Dict[int, Tuple[Any, Set[int]]] = {}  # instance -> (value, ackers)
        self._progress = 0
        self._watchdog_armed = False

    # -- leadership -----------------------------------------------------

    def ensure_leadership(self) -> None:
        if self.phase == IDLE:
            self.begin_read_phase()

    def begin_read_phase(self) -> None:
        # a round above every ballot seen here: each is at most the promise or ours
        rnd = max(self.promised, self.ballot) // self.n + 1
        self.ballot = rnd * self.n + self.pid
        self.phase = READING
        self.read_lo = self._next_decide
        self.read_acks = {}
        self.writes = {}
        if self.on_phase_change is not None:
            # the write phase, if any, is over before the new ballot's read,
            # and the hooked caller's epoch ends with its proposals
            self.proposals.clear()
            self.on_phase_change(None)
        self.sim.emit("paxos-read", self.pid, ballot=self.ballot, lo=self.read_lo)
        msg = ReadMsg(self.ballot, self.read_lo)
        for q in range(self.n):
            self.sim.send(self.pid, q, msg)
        self._arm_watchdog()

    def relinquish(self) -> None:
        self.phase = IDLE
        self.proposals.clear()

    # -- proposing ------------------------------------------------------

    def propose(self, value: Any, instance: int) -> None:
        if instance in self.decided:
            return
        self.proposals[instance] = value  # replaces an earlier proposal
        self.sim.emit(
            "propose", self.pid, instance=instance, value=value.digest(),
            app=app_payload(value) is not None,
        )
        if self.phase == WRITING and instance not in self.writes:
            self._write(instance, value)

    def _write(self, instance: int, value: Any) -> None:
        self.writes[instance] = (value, set())
        payload = app_payload(value)
        digest, size = (None, 0) if payload is None else (payload.digest(), payload.size)
        self.sim.emit(
            "paxos-write", self.pid, instance=instance, value=value.digest(),
            ballot=self.ballot, app=payload is not None, payload=digest,
        )
        msg = WriteMsg(self.ballot, instance, value)
        for q in range(self.n):
            self.sim.send(self.pid, q, msg, size=size)
        self._arm_watchdog()

    # -- message handling -------------------------------------------------

    def on_message(self, frm: int, msg: Any) -> None:
        handler = self._HANDLERS.get(type(msg))
        if handler is not None:
            handler(self, frm, msg)

    def _on_read(self, frm: int, msg: ReadMsg) -> None:
        if msg.ballot <= self.promised:
            return
        self.promised = msg.ballot
        report = tuple(
            (i, acc) for i, acc in sorted(self.accepted.items()) if i >= msg.lo
        )
        self.sim.send(self.pid, frm, ReadAck(msg.ballot, report))

    def _on_read_ack(self, frm: int, msg: ReadAck) -> None:
        if self.phase != READING or msg.ballot != self.ballot:
            return
        self.read_acks[frm] = dict(msg.accepted)
        if len(self.read_acks) < self.quorum:
            return
        picked: Dict[int, Tuple[Any, int]] = {}
        for report in self.read_acks.values():
            for i, (value, ballot) in report.items():
                cur = picked.get(i)
                if cur is None or ballot > cur[1]:
                    picked[i] = (value, ballot)
        watermark = max(picked, default=0)
        for i in range(self.read_lo, watermark + 1):
            picked.setdefault(i, (NOOP, 0))
        self.phase = WRITING
        self._progress += 1
        self.sim.emit(
            "paxos-writing", self.pid, ballot=self.ballot, watermark=watermark
        )
        for i in sorted(picked):
            if i not in self.decided:
                self._write(i, picked[i][0])
        # a proposal the read resolved loses to the pick, as the decides show
        for i in sorted(self.proposals):
            if i not in self.writes:
                self._write(i, self.proposals[i])
        if self.on_phase_change is not None:
            self.on_phase_change(watermark)

    def _on_write(self, frm: int, msg: WriteMsg) -> None:
        if msg.ballot < self.promised:
            return
        self.promised = msg.ballot
        self.accepted[msg.instance] = (msg.value, msg.ballot)
        self.sim.send(self.pid, frm, WriteAck(msg.ballot, msg.instance))

    def _on_write_ack(self, frm: int, msg: WriteAck) -> None:
        if self.phase == IDLE or msg.ballot != self.ballot or msg.instance in self.decided:
            return
        value, acks = self.writes[msg.instance]
        acks.add(frm)
        if len(acks) >= self.quorum:
            self._learn(msg.instance, value, announce=True)

    def _on_decide(self, frm: int, msg: DecideMsg) -> None:
        self._learn(msg.instance, msg.value, announce=False)

    _HANDLERS: Dict[type, Callable[["PaxosNode", int, Any], None]] = {
        ReadMsg: _on_read,
        ReadAck: _on_read_ack,
        WriteMsg: _on_write,
        WriteAck: _on_write_ack,
        DecideMsg: _on_decide,
    }

    # -- learning -------------------------------------------------------

    def _learn(self, instance: int, value: Any, announce: bool) -> None:
        if instance in self.decided:
            return
        self.decided[instance] = value
        self.writes.pop(instance, None)  # writes holds only undecided instances
        self._progress += 1
        self.sim.emit(
            "decide", self.pid, instance=instance, value=value.digest(),
            app=app_payload(value) is not None,
        )
        if announce:
            msg = DecideMsg(instance, value)
            for q in range(self.n):
                if q != self.pid:
                    self.sim.send(self.pid, q, msg)
        self.proposals.pop(instance, None)
        while self._next_decide in self.decided:
            i = self._next_decide
            self._next_decide = i + 1
            self.deliver(self.decided[i], i)

    # -- watchdog ---------------------------------------------------------

    def _arm_watchdog(self) -> None:
        if self._watchdog_armed:
            return
        self._watchdog_armed = True
        period = RETRY_DELAYS * self.sim.delay_model.max_delay
        stamp = self._progress
        self.sim.schedule(
            self.sim.now + period,
            lambda: self._watchdog(stamp),
            actor=self.pid,
        )

    def _watchdog(self, stamp: int) -> None:
        self._watchdog_armed = False
        if self.phase == IDLE:
            return
        outstanding = self.phase == READING or bool(self.proposals) or bool(self.writes)
        if not outstanding:
            return
        if self._progress == stamp:
            self.begin_read_phase()
        else:
            self._arm_watchdog()
