"""Passive replication on top of a primary-order broadcast layer.

The primary executes client operations against a shadow state and
broadcasts each resulting ``StateUpdate`` as itself: an update is an
application value whose body is the operation's record. Every replica
applies delivered updates to its actual state. An update carries the
digests of the states before and after execution: applying it on any
other state is a hard fault, so a replica that receives a mismatching
update halts and the trace records it. The replicated "service" is a
digest chain, which makes execution deterministic and mismatches
detectable without modelling a real data structure.

Duplicate suppression is two-level: a replied table keyed by
(client, request id) across the whole run, and a per-epoch executed set
so a primary does not re-execute an operation it already has in flight.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from .sim import Simulator
from .values import AppValue

INITIAL_STATE = hashlib.sha256(b"genesis").hexdigest()[:12]


def _digest(pre: str, record: str) -> str:
    return hashlib.sha256(f"{pre}|{record}".encode()).hexdigest()[:12]


def op_record(client: int, reqid: int, op: str) -> str:
    """What executing an operation appends to the service's chain."""
    return f"r({client}:{reqid}:{op})"


@dataclass(frozen=True, kw_only=True)
class StateUpdate(AppValue):
    """A primary's state update, broadcast as itself; its body is the record.
    Its digest is ``AppValue``'s, over the vid and the record."""

    client: int
    reqid: int
    pre: str
    post: str

    @property
    def record(self) -> str:
        return self.body


class Request(NamedTuple):  # an immutable tuple record, as Paxos's messages
    client: int
    reqid: int
    op: str


class Reply(NamedTuple):
    client: int
    reqid: int
    record: str
    post: str


def execute(state: str, req: Request, vid: str) -> StateUpdate:
    record = op_record(req.client, req.reqid, req.op)
    return StateUpdate(
        vid=vid, body=record, client=req.client, reqid=req.reqid, pre=state,
        post=_digest(state, record),
    )


class Replica:
    """One replica: broadcast-layer delegate plus client-facing frontend."""

    def __init__(self, sim: Simulator, pid: int, layer: Any):
        self.sim = sim
        self.pid = pid
        self.layer = layer
        layer.delegate = self

        self.state = INITIAL_STATE
        self.shadow: Optional[str] = None  # the primary's executed state; None at a backup
        self.halted = False
        self.replied: Dict[Tuple[int, int], Reply] = {}
        self.executed_epoch: Set[Tuple[int, int]] = set()
        self.pending: Dict[Tuple[int, int], Request] = {}  # in arrival order
        self._seq = 0

    # -- broadcast layer callbacks -------------------------------------------

    def on_primary_change(self, primary: bool) -> None:
        if primary:
            self.shadow = self.state
            self.executed_epoch = set()
            for req in list(self.pending.values()):
                self._maybe_execute(req)
        else:
            self.shadow = None

    def on_deliver(self, update: StateUpdate) -> None:
        if self.halted:
            return
        key = (update.client, update.reqid)
        if key in self.replied:
            # a re-execution of an operation whose original update already
            # made it through; the original answer stands
            return
        if update.pre != self.state:
            self.halted = True
            self.sim.emit(
                "apply-bot", self.pid, client=update.client, reqid=update.reqid,
                expected=update.pre, state=self.state,
            )
            return
        self.state = update.post
        reply = Reply(update.client, update.reqid, update.record, update.post)
        self.replied[key] = reply
        self.pending.pop(key, None)
        self.sim.emit(
            "applied", self.pid, client=update.client, reqid=update.reqid,
            record=update.record, state=self.state,
        )
        self.sim.send(self.pid, update.client, reply)

    # -- client requests ------------------------------------------------------

    def on_request(self, req: Request) -> None:
        if self.halted:
            return
        key = (req.client, req.reqid)
        if key in self.replied:
            self.sim.send(self.pid, req.client, self.replied[key])
            return
        # a request stays pending until its update is applied; if the epoch
        # ends with the update undecided, the next epoch re-executes it
        self.pending.setdefault(key, req)
        self._maybe_execute(req)

    def _maybe_execute(self, req: Request) -> None:
        key = (req.client, req.reqid)
        if key in self.replied or key in self.executed_epoch:
            return
        if self.shadow is None:
            return
        self.executed_epoch.add(key)
        self._seq += 1
        vid = f"u{req.client}.{req.reqid}.{self.pid}.{self._seq}"
        update = execute(self.shadow, req, vid)
        self.shadow = update.post
        self.sim.emit(
            "execute", self.pid, client=req.client, reqid=req.reqid,
            pre=update.pre, post=update.post,
        )
        self.layer.poabcast(update)

    # -- simulator plumbing ------------------------------------------------------

    def on_omega(self, leader: int) -> None:
        self.layer.on_omega(leader)

    def on_message(self, frm: int, msg: Any) -> None:
        if isinstance(msg, Request):
            self.on_request(msg)
        else:
            self.layer.on_message(frm, msg)


class Client:
    """Closed-loop client: one outstanding operation, retransmit until replied.

    Requests go to every replica; whichever is primary executes, the rest
    buffer. Actor ids for clients start at n.
    """

    def __init__(
        self,
        sim: Simulator,
        cid: int,
        n: int,
        ops: List[str],
        retry_every: int = 0,
        start_at: int = 0,
    ):
        self.sim = sim
        self.cid = cid
        self.n = n
        self.ops = list(ops)
        self.retry_every = retry_every or 4 * sim.delay_model.max_delay
        self.start_at = start_at
        self.next_op = 0
        self.waiting: Optional[Request] = None

    def on_start(self) -> None:
        self.sim.schedule(self.start_at, self._issue, actor=self.cid)

    def _issue(self) -> None:
        if self.next_op >= len(self.ops):
            return
        req = Request(self.cid, self.next_op + 1, self.ops[self.next_op])
        self.next_op += 1
        self.waiting = req
        self.sim.emit("request", self.cid, reqid=req.reqid, op=req.op)
        self._send(req)

    def _send(self, req: Request) -> None:
        for p in range(self.n):
            self.sim.send(self.cid, p, req)
        self.sim.schedule(
            self.sim.now + self.retry_every, lambda: self._retry(req), actor=self.cid
        )

    def _retry(self, req: Request) -> None:
        if self.waiting is not None and self.waiting.reqid == req.reqid:
            self.sim.emit("retransmit", self.cid, reqid=req.reqid)
            self._send(req)

    def on_message(self, frm: int, msg: Any) -> None:
        if not isinstance(msg, Reply):
            return
        if self.waiting is None or msg.reqid != self.waiting.reqid:
            return
        self.waiting = None
        self.sim.emit(
            "response", self.cid, reqid=msg.reqid, record=msg.record, post=msg.post
        )
        self._issue()


class ScriptedClient:
    """Client with fully scripted sends: (time, replica, reqid, op).

    Each send targets exactly one replica and is never retransmitted, which
    is what adversarial and latency-measurement schedules need.
    """

    def __init__(self, sim: Simulator, cid: int, sends: List[Tuple[int, int, int, str]]):
        self.sim = sim
        self.cid = cid
        self.sends = list(sends)
        self.seen: Set[int] = set()

    def on_start(self) -> None:
        for at, replica, reqid, op in self.sends:
            req = Request(self.cid, reqid, op)
            def push(req=req, replica=replica):
                self.sim.emit("request", self.cid, reqid=req.reqid, op=req.op, to=replica)
                self.sim.send(self.cid, replica, req)
            self.sim.schedule(at, push, actor=self.cid)

    def on_message(self, frm: int, msg: Any) -> None:
        if isinstance(msg, Reply) and msg.reqid not in self.seen:
            self.seen.add(msg.reqid)
            self.sim.emit(
                "response", self.cid, reqid=msg.reqid, record=msg.record, post=msg.post
            )
