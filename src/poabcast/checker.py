"""Post-hoc property verification over traces.

All checks are pure functions of a trace: same trace, same report. The
catalogue covers the atomic-broadcast core (integrity, total order,
agreement), the primary-order extensions (local primary order, global
primary order, primary integrity), the barrier contract, replication
invariants (at-most-once, no failed applies, digest convergence),
protocol-specific invariants, liveness, and linearizability of the client
history, decided on every run by one walk along the service's digest chain.

``check_all`` reads the trace once: one pass builds a ``TraceIndex``, every
check reads that index, and ``check_all`` alone builds the ``Report``.

Primary epochs are intervals between primary-begin and primary-end
events at one process. Epochs in which at least one broadcast value was
delivered get an identifier; how the identifier is derived depends on
the protocol (decided instance, ballot, or election instance), and the
identifiers' integer order is the epoch order every ordering property is
checked against.

A fault is always a verdict, so ``check_all`` returns a ``Report`` for
every trace that names its protocol: epochs that cannot be mapped fail
``primary-mapping``, and the ordering properties are checked over the
epochs that did map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import takewhile
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from .replication import INITIAL_STATE, _digest as _chain, op_record  # the service's steps
from .trace import Trace, TraceEvent


@dataclass
class Epoch:
    process: int
    end_index: float  # inf if still open at end of trace
    crossing: Optional[TraceEvent] = None  # barrier-crossed event, if any
    established: Optional[TraceEvent] = None  # epoch-established event, if any
    broadcasts: List[TraceEvent] = field(default_factory=list)
    ident: Optional[int] = None  # lambda; None if nothing delivered


@dataclass
class Report:
    """A trace's verdicts and liveness; only ``check_all`` builds one."""

    verdicts: Dict[str, Optional[str]]
    liveness: str  # "pass" | "inconclusive"

    @property
    def violations(self) -> Dict[str, str]:
        return {p: v for p, v in self.verdicts.items() if v is not None}

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def linearizable(self) -> bool:
        """The ``linearizable`` verdict passed."""
        return self.verdicts.get("linearizable") is None


# -- trace digestion ---------------------------------------------------------


def _prefix_chain(seqs: Dict[int, List[str]]) -> Tuple[List[str], Optional[Tuple]]:
    """The longest of the per-process sequences (the first, on a tie) and the
    first (process, position, item, longest's item) at which another one
    leaves it, or None if every sequence is a prefix of it."""
    longest = max(seqs.values(), key=len, default=[])
    for p, seq in seqs.items():
        for i, (x, y) in enumerate(zip(seq, longest)):
            if x != y:
                return longest, (p, i, x, y)
    return longest, None


class TraceIndex:
    """What the checks read from a trace, gathered in one pass over it: events
    by kind, deliveries, first deliveries and decisions, the global delivery
    order, integrity and the primary epochs (derived on first use). Holds
    references to the trace's events, not copies."""

    def __init__(self, trace: Trace) -> None:
        self.summary = trace.summary
        self.kinds: Dict[str, List[TraceEvent]] = {}
        for e in trace:
            self.kinds.setdefault(e.kind, []).append(e)

        self.deliveries: Dict[int, List[TraceEvent]] = {}  # per process, in order
        self.delivered_at: Dict[Tuple[int, str], int] = {}  # first, per process
        self.first_delivery: Dict[str, TraceEvent] = {}
        for e in self.by_kind("deliver"):
            v = e.data["value"]
            self.deliveries.setdefault(e.actor, []).append(e)
            self.delivered_at.setdefault((e.actor, v), e.index)
            self.first_delivery.setdefault(v, e)
        self.decided_instance: Dict[str, int] = {}
        for e in self.by_kind("decide"):
            self.decided_instance.setdefault(e.data["value"], e.data["instance"])
        self.responses: Dict[Tuple[int, int], TraceEvent] = {}  # first, per request
        for e in self.by_kind("response"):
            self.responses.setdefault((e.actor, e.data["reqid"]), e)

        # the global delivery order: per-process delivery sequences must form
        # a prefix chain of the longest one
        self.order, first_break = _prefix_chain(
            {p: [e.data["value"] for e in evs] for p, evs in self.deliveries.items()}
        )
        self.position = {v: i for i, v in enumerate(self.order)}
        self.chain_violation: Optional[str] = None if first_break is None else (
            "process {} delivery #{} is {}, global order has {}".format(*first_break)
        )
        broadcast_values = {e.data["value"] for e in self.by_kind("broadcast")}
        self.integrity: Optional[str] = next(
            (
                f"process {p} delivered {e.data['value']} which was never broadcast"
                if e.data["value"] not in broadcast_values
                else f"process {p} delivered {e.data['value']} twice"
                for p, evs in self.deliveries.items()
                for e in evs
                if e.data["value"] not in broadcast_values
                or self.delivered_at[(p, e.data["value"])] != e.index
            ),
            None,
        )

    def by_kind(self, *kinds: str) -> List[TraceEvent]:
        """Events of the given kinds, in trace (event index) order."""
        if len(kinds) == 1:
            return self.kinds.get(kinds[0], [])
        return sorted(
            (e for k in kinds for e in self.kinds.get(k, [])), key=attrgetter("index")
        )

    @cached_property
    def epochs(self) -> Tuple[List[Epoch], Optional[str]]:
        """The primary epochs in primary-begin order, and the first fault in
        their nesting: a nested primary-begin or a primary-end with no open
        epoch, either of which is then skipped."""
        open_epochs: Dict[int, Epoch] = {}
        last_crossing: Dict[int, TraceEvent] = {}
        last_established: Dict[int, TraceEvent] = {}
        epochs: List[Epoch] = []
        fault: Optional[str] = None
        for e in self.by_kind(
            "barrier-crossed", "epoch-established", "primary-begin", "primary-end", "broadcast"
        ):
            if e.kind == "barrier-crossed":
                last_crossing[e.actor] = e
            elif e.kind == "epoch-established":
                last_established[e.actor] = e
            elif e.kind == "primary-begin":
                if e.actor in open_epochs:
                    fault = fault or f"nested primary-begin at process {e.actor}"
                    continue
                epoch = Epoch(e.actor, float("inf"))
                epoch.crossing = last_crossing.pop(e.actor, None)
                epoch.established = last_established.get(e.actor)
                open_epochs[e.actor] = epoch
                epochs.append(epoch)
            elif e.kind == "primary-end":
                epoch = open_epochs.pop(e.actor, None)
                if epoch is None:
                    fault = fault or f"primary-end without begin at process {e.actor}"
                    continue
                epoch.end_index = e.index
            else:
                epoch = open_epochs.get(e.actor)
                if epoch is not None:
                    epoch.broadcasts.append(e)
        return epochs, fault


def derive_primary_mapping(idx: TraceIndex, protocol: str) -> Tuple[List[Epoch], Optional[str]]:
    """Assign identifiers to epochs that had at least one value delivered,
    and return those epochs in identifier order, with the first fault: the
    epochs' own, else the first epoch left out for want of an identifier or
    for claiming one an earlier epoch holds.

    tau-seq and naive: the decided instance of the epoch's first delivered
    value. tau-paxos: the ballot the primary crossed the barrier with.
    barrier-free: the instance in which the epoch was established.
    """
    epochs, fault = idx.epochs
    first = idx.first_delivery
    seen: Dict[int, Epoch] = {}
    for epoch in epochs:
        delivered = [b for b in epoch.broadcasts if b.data["value"] in first]
        if not delivered:
            continue
        if protocol == "tau-paxos":
            if epoch.crossing is None:
                fault = fault or f"epoch at process {epoch.process} has no barrier crossing"
                continue
            ident = epoch.crossing.data["ballot"]
        elif protocol == "barrier-free":
            if epoch.established is None:
                fault = fault or f"epoch at process {epoch.process} was never established"
                continue
            ident = epoch.established.data["instance"]
        else:  # tau-seq, naive: decided instance of the first delivered value
            ident = min(first[b.data["value"]].data["instance"] for b in delivered)
        if ident in seen:
            fault = fault or (
                f"identifier {ident} claimed by epochs at processes "
                f"{seen[ident].process} and {epoch.process}"
            )
            continue
        epoch.ident = ident
        seen[ident] = epoch
    return sorted(seen.values(), key=attrgetter("ident")), fault


# -- atomic broadcast properties --------------------------------------------


def check_abcast(idx: TraceIndex) -> Dict[str, Optional[str]]:
    conflict = False
    if idx.chain_violation is not None:
        # classify: an order conflict is a total-order violation, a gap in an
        # otherwise order-consistent sequence breaks agreement
        for evs in idx.deliveries.values():
            indices = [idx.position.get(e.data["value"]) for e in evs]
            indices = [i for i in indices if i is not None]
            conflict = conflict or indices != sorted(indices)
    return {
        "integrity": idx.integrity,
        "total-order": idx.chain_violation if conflict else None,
        "agreement": None if conflict else idx.chain_violation,
    }


# -- primary order properties -------------------------------------------------


def check_poabcast(idx: TraceIndex, ordered: List[Epoch]) -> Dict[str, Optional[str]]:
    """The primary-order properties over ``ordered``, the identified epochs in
    identifier order that ``derive_primary_mapping`` returns."""
    pos = idx.position

    # per epoch, the global delivery positions of its broadcasts, in broadcast order
    ranks = [
        [pos[b.data["value"]] for b in e.broadcasts if b.data["value"] in pos] for e in ordered
    ]

    # local primary order: delivered values of an epoch are a prefix of its
    # broadcast order, delivered in that order
    lpo = None
    for epoch, positions in zip(ordered, ranks):
        digests = [b.data["value"] for b in epoch.broadcasts]
        delivered_flags = [d in pos for d in digests]
        if False in delivered_flags and True in delivered_flags[delivered_flags.index(False):]:
            i = delivered_flags.index(False)
            j = i + delivered_flags[i:].index(True)
            lpo = (
                f"epoch {epoch.ident}: {digests[j]} delivered but the earlier "
                f"broadcast {digests[i]} was not"
            )
            break
        if positions != sorted(positions):
            lpo = f"epoch {epoch.ident}: deliveries out of broadcast order"
            break

    # global primary order: all deliveries of an earlier epoch precede all
    # deliveries of a later one
    pi = _primary_integrity(idx, ordered)
    gpo = None
    spans = [(e.ident, min(p), max(p)) for e, p in zip(ordered, ranks) if p]
    for (l1, lo1, hi1), (l2, lo2, hi2) in zip(spans, spans[1:]):
        if hi1 > lo2:
            early = idx.order[lo2]
            gpo = (
                f"epochs {l1} and {l2} interleave in the delivery order: epoch {l2}'s "
                f"{early} at position {lo2} precedes epoch {l1}'s {idx.order[hi1]} at {hi1}"
            )
            # with integrity, total order, agreement, local primary order and
            # primary integrity all holding, this happens only if the later
            # primary delivered its value before broadcasting it: integrity asks
            # that a delivered value was broadcast, not that it came first
            others = (lpo, pi, idx.integrity, idx.chain_violation)
            if all(v is None for v in others):
                gpo += f"; {early} was delivered before it was broadcast"
            break
    return {"local-primary-order": lpo, "global-primary-order": gpo, "primary-integrity": pi}


def _primary_integrity(idx: TraceIndex, ordered: List[Epoch]) -> Optional[str]:
    """Before broadcasting a delivered value, a primary has itself delivered
    every delivered value of every earlier epoch. An epoch's broadcasts are in
    trace order, so a delivery too late for any is too late for the first."""
    # per primary, the latest first delivery (inf: none) of an earlier epoch's value
    latest = {e.process: float("-inf") for e in ordered}
    for i, later in enumerate(ordered):
        delivered = [b for b in later.broadcasts if b.data["value"] in idx.position]
        if delivered and latest[later.process] > delivered[0].index:
            b_new = delivered[0]
            for earlier in ordered[:i]:
                for b_old in earlier.broadcasts:
                    u = b_old.data["value"]
                    seen_at = idx.delivered_at.get((later.process, u), float("inf"))
                    if u in idx.position and seen_at > b_new.index:
                        return (
                            f"epoch {later.ident} (process {later.process}) "
                            f"broadcast {b_new.data['value']} before delivering "
                            f"{u} from earlier epoch {earlier.ident}"
                        )
        for b in delivered:
            for q in latest:
                seen_at = idx.delivered_at.get((q, b.data["value"]), float("inf"))
                latest[q] = max(latest[q], seen_at)
    return None


def check_barrier(idx: TraceIndex, ordered: List[Epoch]) -> Optional[str]:
    """Each crossing's decided watermark covers every instance at which an
    earlier epoch's value was decided (finite-trace restriction); ``ordered``
    as in ``check_poabcast``."""
    decided_at = idx.decided_instance
    highest = float("-inf")  # over the values of the epochs before the current one
    for i, epoch in enumerate(ordered):
        if epoch.crossing is not None and highest > epoch.crossing.data["dec"]:
            dec = epoch.crossing.data["dec"]
            for earlier in ordered[:i]:
                for b in earlier.broadcasts:
                    inst = decided_at.get(b.data["value"])
                    if inst is not None and inst > dec:
                        return (
                            f"epoch {epoch.ident} crossed with dec={dec} but "
                            f"earlier epoch {earlier.ident}'s value "
                            f"{b.data['value']} was decided at instance {inst}"
                        )
        for b in epoch.broadcasts:
            highest = max(highest, decided_at.get(b.data["value"], highest))
    return None


# -- replication invariants ---------------------------------------------------


def check_replication(idx: TraceIndex) -> Dict[str, Optional[str]]:
    bots = idx.by_kind("apply-bot")
    failed = (
        f"process {bots[0].actor} hit a failed apply at t={bots[0].time}"
        if bots
        else None
    )

    # at-most-once: a request key is applied at most once per replica, and
    # every replica that applies it records the same result
    amo = None
    outcome: Dict[Tuple[int, int], Tuple[str, str]] = {}
    per_replica: Set[Tuple[int, int, int]] = set()
    for e in idx.by_kind("applied"):
        key = (e.data["client"], e.data["reqid"])
        rkey = (e.actor,) + key
        if rkey in per_replica:
            amo = f"process {e.actor} applied request {key} twice"
            break
        per_replica.add(rkey)
        result = (e.data["record"], e.data["state"])
        if outcome.setdefault(key, result) != result:
            amo = f"request {key} applied with diverging results"
            break

    # digest convergence: per-replica applied state chains form a prefix chain
    chains: Dict[int, List[str]] = {}
    for e in idx.by_kind("applied"):
        chains.setdefault(e.actor, []).append(e.data["state"])
    first_break = _prefix_chain(chains)[1]
    conv = None if first_break is None else (
        f"process {first_break[0]} state chain diverges from the common chain"
    )
    return {"no-failed-applies": failed, "at-most-once": amo, "digest-convergence": conv}


# -- protocol-specific invariants ----------------------------------------------


def check_sequentiality(idx: TraceIndex) -> Optional[str]:
    """tau-seq runs one instance at a time: each ``broadcast`` ``instance`` and
    ``skip-proposed`` ``target`` is the lowest instance its process has not
    seen a ``decide`` for."""
    lowest: Dict[int, int] = {}
    above: Dict[int, Set[int]] = {}  # per process, decided instances past a gap
    for e in idx.by_kind("broadcast", "skip-proposed", "decide"):
        nxt = lowest.get(e.actor, 1)
        if e.kind == "decide":
            done = above.setdefault(e.actor, set())
            done.add(e.data["instance"])
            while nxt in done:
                done.remove(nxt)
                nxt += 1
            lowest[e.actor] = nxt
            continue
        at = e.data["instance" if e.kind == "broadcast" else "target"]
        if at != nxt:
            return (f"process {e.actor} proposed at instance {at} at t={e.time}; "
                    f"its lowest undecided instance is {nxt}")
    return None


def check_single_ballot_epochs(idx: TraceIndex) -> Optional[str]:
    """tau-paxos: a primary epoch spans one ballot, so no read phase starts at
    a process inside its own open primary epoch."""
    in_epoch: Set[int] = set()
    for e in idx.by_kind("primary-begin", "primary-end", "paxos-read"):
        if e.kind == "primary-begin":
            in_epoch.add(e.actor)
        elif e.kind == "primary-end":
            in_epoch.discard(e.actor)
        elif e.actor in in_epoch:
            return (
                f"process {e.actor} began a read phase with ballot "
                f"{e.data['ballot']} inside its primary epoch at t={e.time}"
            )
    return None


def check_consensus(idx: TraceIndex) -> Optional[str]:
    """Agreement at the consensus level: one value per decided instance."""
    chosen: Dict[int, str] = {}
    for e in idx.by_kind("decide"):
        v = chosen.setdefault(e.data["instance"], e.data["value"])
        if v != e.data["value"]:
            return (
                f"instance {e.data['instance']} decided as both {v} and "
                f"{e.data['value']}"
            )
    return None


def check_barrier_free(idx: TraceIndex) -> Optional[str]:
    """Election-protocol invariants on barrier-free traces.

    Each epoch is established at one election instance, and distinct epochs
    at distinct ones; per process and epoch, delivered seqnos run gap-free
    from the election instance + 1. Integrity, not this check, catches duplicates.
    """
    election_at: Dict[int, int] = {}
    for e in idx.by_kind("epoch-established"):
        inst = election_at.setdefault(e.data["epoch"], e.data["instance"])
        if inst != e.data["instance"]:
            return (
                f"epoch {e.data['epoch']} established at two instances "
                f"({inst} and {e.data['instance']})"
            )
    expected: Dict[Tuple[int, int], int] = {}
    for e in idx.by_kind("deliver"):
        key = (e.actor, e.data["epoch"])
        want = expected.get(key, election_at.get(e.data["epoch"], 0) + 1)
        if e.data["seqno"] != want:
            return (
                f"process {e.actor} epoch {e.data['epoch']}: delivered seqno "
                f"{e.data['seqno']}, expected {want}"
            )
        expected[key] = want + 1
    # epoch numbers from different proposers carry no global order; the epoch
    # order is by election instance, so instances must be distinct
    by_instance: Dict[int, int] = {}
    for epoch, inst in election_at.items():
        other = by_instance.setdefault(inst, epoch)
        if other != epoch:
            return f"epochs {other} and {epoch} share election instance {inst}"
    return None


# -- liveness --------------------------------------------------------------------


def check_liveness(idx: TraceIndex) -> str:
    """'pass' when the run demonstrably made progress, else 'inconclusive'.

    A finite trace can never prove a liveness failure, so the negative
    verdict only says the horizon was too short to tell. The crashed
    processes are those with a ``crash`` event.
    """
    horizon = idx.summary["horizon"]
    slack = 20 * idx.summary["base_delay"]
    crashed = {e.actor for e in idx.by_kind("crash")}

    # the stable leader must have an open primary epoch at the horizon
    views = {e.actor: e.data["leader"] for e in idx.by_kind("omega")}
    leaders = {l for p, l in views.items() if p not in crashed}
    if len(leaders) != 1:
        return "inconclusive"
    leader = leaders.pop()
    if not any(e.process == leader and e.end_index == float("inf") for e in idx.epochs[0]):
        return "inconclusive"

    # every request issued early enough has a response
    for e in idx.by_kind("request"):
        if e.time <= horizon - slack and (e.actor, e.data["reqid"]) not in idx.responses:
            return "inconclusive"

    # every value delivered early enough reached every correct process
    correct = [p for p in idx.deliveries if p not in crashed]
    for v, e in idx.first_delivery.items():
        if e.time > horizon - slack:
            continue
        if any((p, v) not in idx.delivered_at for p in correct):
            return "inconclusive"
    return "pass"


# -- linearizability ---------------------------------------------------------------


@dataclass(frozen=True)
class HistoryOp:
    client: int
    reqid: int
    op: str
    invoked: int  # event index
    responded: Optional[int]  # event index, None if pending
    record: Optional[str]
    post: Optional[str]

    def expected_record(self) -> str:
        return op_record(self.client, self.reqid, self.op)


def extract_history(idx: TraceIndex) -> List[HistoryOp]:
    invokes: Dict[Tuple[int, int], TraceEvent] = {}
    for e in idx.by_kind("request"):
        invokes.setdefault((e.actor, e.data["reqid"]), e)
    ops = []
    for key, inv in sorted(invokes.items(), key=lambda kv: kv[1].index):
        resp = idx.responses.get(key)
        ops.append(
            HistoryOp(
                client=key[0],
                reqid=key[1],
                op=inv.data["op"],
                invoked=inv.index,
                responded=resp.index if resp else None,
                record=resp.data["record"] if resp else None,
                post=resp.data["post"] if resp else None,
            )
        )
    return ops


def check_linearizable(history: List[HistoryOp]) -> bool:
    """Walk the digest chain from ``INITIAL_STATE``, placing each completed
    operation where its reported ``post`` says it ran.

    A ``post`` hashes the state before and the record, so it fixes where its
    operation sits in the chain: the known-order case of Wing & Gong's search
    (Lowe, "Testing for linearizability", 2017). Each step places the ready
    completed operation (every completed operation that responded before it
    was invoked is placed) whose record takes the current state to its
    ``post``. A sequential client has at most one ready operation, so the
    walk hashes at most ops x clients times. A pending operation may or may
    not have taken effect; it is placed only to bridge a gap before the next
    completed one. A bridge tries every order of the pending operations ready
    at that gap, exponential in their number, which in this kit's histories
    is at most one per loop client.
    """
    completed = [op for op in history if op.responded is not None]
    if any(op.record != op.expected_record() for op in completed):
        return False
    completed.sort(key=attrgetter("invoked"))
    by_response = sorted(completed, key=attrgetter("responded"))
    pending = [op for op in history if op.responded is None]
    state = INITIAL_STATE
    while completed:
        frontier = by_response[0].responded  # the earliest response not yet placed
        ready = list(takewhile(lambda op: op.invoked <= frontier, completed))
        steps = _extend(state, ready, [p for p in pending if p.invoked <= frontier])
        if steps is None:
            return False
        *bridge, op = steps
        for p in bridge:
            pending.remove(p)
        completed.remove(op)
        by_response.remove(op)
        state = op.post
    return True


def _extend(
    state: str, ready: List[HistoryOp], bridge: List[HistoryOp]
) -> Optional[List[HistoryOp]]:
    """The ops that take ``state`` to the next completed op to place: some of
    the ready pending ops in ``bridge``, in order, then the ready completed op
    whose record takes the state reached to its ``post``; None if none does."""
    for op in ready:
        if _chain(state, op.record) == op.post:
            return [op]
    for i, p in enumerate(bridge):
        rest = _extend(_chain(state, p.expected_record()), ready, bridge[:i] + bridge[i + 1 :])
        if rest is not None:
            return [p] + rest
    return None


# -- one-stop entry point --------------------------------------------------------------


def check_all(trace: Trace) -> Report:
    idx = TraceIndex(trace)
    protocol = idx.summary["protocol"]
    verdicts = {"consensus-agreement": check_consensus(idx)}
    verdicts.update(check_abcast(idx))
    ordered, verdicts["primary-mapping"] = derive_primary_mapping(idx, protocol)
    verdicts.update(check_poabcast(idx, ordered))
    if protocol in ("tau-seq", "tau-paxos"):
        verdicts["barrier"] = check_barrier(idx, ordered)
    if protocol == "tau-seq":
        verdicts["sequential-instances"] = check_sequentiality(idx)
    if protocol == "tau-paxos":
        verdicts["single-ballot-epochs"] = check_single_ballot_epochs(idx)
    if protocol == "barrier-free":
        verdicts["election-order"] = check_barrier_free(idx)
    verdicts.update(check_replication(idx))
    liveness = check_liveness(idx)
    linearizable = check_linearizable(extract_history(idx))
    verdicts["linearizable"] = None if linearizable else (
        "no order of the client history follows the service's digest chain"
    )
    return Report(verdicts, liveness)
