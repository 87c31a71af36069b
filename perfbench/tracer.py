"""Span tracer that wraps the layers' public entry points from outside.

Nothing under ``src/`` knows about it: ``Tracer.installed()`` replaces
each entry point listed in ``TARGETS`` (a class or module attribute) with
a timing wrapper and puts every original back on exit, even when the
traced code raises. Each wrapped call is a span; a layer's self time is
its spans' duration minus the part covered by the spans they call.

Spans of the hot entry points (event kernel, transport, digests, ...)
run millions of times per sweep, so only their per-name totals are kept.
Spans in ``RECORDED`` (one or a few per run) are kept whole as
(name, start, end, parent, run) and written out by ``write_spans``.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from poabcast import (
    abcast, barrier_free, bench, checker, paxos, replication, runner, sim, tau, trace, values,
)

# (span name, owner, attribute); the layer is the part of the name before
# the first dot. Several entry points may share one span name.
TARGETS: Tuple[Tuple[str, Any, str], ...] = (
    ("sim.run", sim.Simulator, "run"),
    ("sim.schedule", sim.Simulator, "schedule"),
    ("sim.send", sim.Simulator, "send"),
    ("delay.delay", sim.DelayModel, "delay"),
    ("paxos.on_message", paxos.PaxosNode, "on_message"),
    ("paxos.propose", paxos.PaxosNode, "propose"),
    ("paxos.begin_read_phase", paxos.PaxosNode, "begin_read_phase"),
    *(
        (f"broadcast.{attr}", cls, attr)
        for cls in (tau.TauBroadcast, barrier_free.BarrierFreeBroadcast, abcast.NaiveAbcast)
        for attr in ("on_decide", "poabcast", "on_omega")
    ),
    ("replication.on_message", replication.Replica, "on_message"),
    ("replication.on_deliver", replication.Replica, "on_deliver"),
    ("replication.client_on_message", replication.Client, "on_message"),
    ("values.digest", values.AppValue, "digest"),
    ("values.digest", values.Batch, "digest"),
    ("trace.emit", sim.Simulator, "emit"),
    ("trace.serialize", trace.Trace, "to_jsonl"),
    ("runner.build", runner, "build"),
    # the bench leader's entry points: from its clients, from the event
    # kernel (the batching pump) and from consensus (decided batches)
    ("bench.submit", bench.BatchingLeader, "submit"),
    ("bench.pump", bench.BatchingLeader, "_run_pump"),
    ("bench.decide", bench.BatchingLeader, "_on_decide"),
    # every helper check_all calls, looked up as poabcast.checker attributes
    ("checker.check_all", checker, "check_all"),
    ("checker.consensus", checker, "check_consensus"),
    ("checker.abcast", checker, "check_abcast"),
    ("checker.mapping", checker, "derive_primary_mapping"),
    ("checker.poabcast", checker, "check_poabcast"),
    ("checker.barrier", checker, "check_barrier"),
    ("checker.sequentiality", checker, "check_sequentiality"),
    ("checker.election", checker, "check_barrier_free"),
    ("checker.replication", checker, "check_replication"),
    ("checker.liveness", checker, "check_liveness"),
    ("checker.linearizability", checker, "extract_history"),
    ("checker.linearizability", checker, "check_linearizable"),
)

# full trace scans, counted while check_all runs
SCANS: Tuple[Tuple[Any, str], ...] = ((trace.Trace, "by_kind"), (trace.Trace, "__iter__"))

RECORDED = frozenset(
    {"run", "scenario.generate", "sim.run", "runner.build", "trace.serialize"}
    | {name for name, _, _ in TARGETS if name.startswith("checker.")}
)

# the helpers behind the checker.<helper>_s metrics
CHECKER_HELPERS = tuple(dict.fromkeys(
    n.split(".")[1] for n, _, _ in TARGETS if n.startswith("checker.") and n != "checker.check_all"
))


class Tracer:
    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, self_s, total_s]
        self.kinds: Counter = Counter()  # trace events emitted, by kind
        self.counts: Counter = Counter()  # checker scans, bench batches and requests
        self.spans: List[list] = []  # recorded [name, start, end, parent, run]
        self.run_id = -1
        self.t0 = time.perf_counter()
        self._child: List[float] = []  # time covered by child spans, per open span
        self._open: List[int] = []  # indices of open recorded spans
        self._checking = 0

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``hook(args)`` runs before each call."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child, spans, opened = self._child, self.spans, self._open
        record = name in RECORDED
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            child.append(0.0)
            if record:
                span = [name, 0.0, 0.0, opened[-1] if opened else -1, self.run_id]
                opened.append(len(spans))
                spans.append(span)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                inner = child.pop()
                if child:
                    child[-1] += dur
                stat[0] += 1
                stat[1] += dur - inner
                stat[2] += dur
                if record:
                    span[1], span[2] = t0, t1
                    opened.pop()

        return wrapper

    def _hooks(self) -> Dict[str, Callable]:
        kinds, counts = self.kinds, self.counts

        def emitted(args):
            kinds[args[1]] += 1

        def proposed(args):
            if isinstance(args[1], values.Batch):
                counts["bench.batches"] += 1
                counts["bench.batch_items"] += len(args[1].items)

        def decided(args):
            if isinstance(args[1], values.Batch):
                counts["bench.completed"] += len(args[1].items)

        return {"trace.emit": emitted, "paxos.propose": proposed, "bench.decide": decided}

    def _checking_scope(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self._checking += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._checking -= 1

        return wrapper

    def _scan_counter(self, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self._checking:
                counts["checker.scans"] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block."""
        hooks = self._hooks()
        saved = []
        try:
            for name, owner, attr in TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                wrapped = self.wrap(name, original, hooks.get(name))
                if name == "checker.check_all":
                    wrapped = self._checking_scope(wrapped)
                setattr(owner, attr, wrapped)
            for owner, attr in SCANS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._scan_counter(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0,))[0])

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def layer_self_s(self, layer: str) -> float:
        return sum(v[1] for k, v in self.stats.items() if k.split(".")[0] == layer)

    def counters(self) -> Dict[str, int]:
        """Every count the tracer made; identical across runs of the same inputs."""
        out = {f"calls.{k}": int(v[0]) for k, v in self.stats.items()}
        out.update({f"kind.{k}": v for k, v in self.kinds.items()})
        out.update(self.counts)
        return dict(sorted(out.items()))

    def write_spans(self, path: str) -> None:
        """Recorded spans, one JSON object a line, then the per-name totals."""
        with open(path, "w") as f:
            for name, start, end, parent, run in self.spans:
                rec = {"name": name, "start": start - self.t0, "end": end - self.t0,
                       "parent": parent, "run": run}
                f.write(json.dumps(rec) + "\n")
            totals = {k: {"calls": int(v[0]), "self_s": v[1], "total_s": v[2]}
                      for k, v in sorted(self.stats.items())}
            f.write(json.dumps({"totals": totals, "counts": self.counters()}) + "\n")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, lin_checked: int, checked_runs: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    completed = tr.kinds["response"] + tr.counts["bench.completed"]
    run_s = tr.total_s("run")
    check_runs = tr.calls("checker.check_all")
    m: Dict[str, Tuple[float, str]] = {
        "sim.self_s": (tr.layer_self_s("sim"), "s"),
        "sim.schedule_calls": (tr.calls("sim.schedule"), "count"),
        "sim.send_calls": (tr.calls("sim.send"), "count"),
        "sim.events_per_request": (ratio(tr.calls("sim.schedule"), completed), "ratio"),
        "delay.calls": (tr.calls("delay.delay"), "count"),
        "delay.self_s": (tr.layer_self_s("delay"), "s"),
        "paxos.self_s": (tr.layer_self_s("paxos"), "s"),
        "paxos.messages_in": (tr.calls("paxos.on_message"), "count"),
        "paxos.read_phases": (tr.calls("paxos.begin_read_phase"), "count"),
        "paxos.messages_per_decide": (
            ratio(tr.calls("paxos.on_message"), tr.kinds["decide"]), "ratio"),
        "broadcast.self_s": (tr.layer_self_s("broadcast"), "s"),
        "broadcast.decides": (tr.calls("broadcast.on_decide"), "count"),
        "broadcast.broadcasts": (tr.calls("broadcast.poabcast"), "count"),
        "replication.self_s": (tr.layer_self_s("replication"), "s"),
        "replication.deliveries": (tr.calls("replication.on_deliver"), "count"),
        "replication.retransmits_per_request": (
            ratio(tr.kinds["retransmit"], tr.kinds["request"]), "ratio"),
        "values.digest_calls": (tr.calls("values.digest"), "count"),
        "values.digest_s": (tr.layer_self_s("values"), "s"),
        "trace.events": (tr.calls("trace.emit"), "count"),
        "trace.emit_s": (tr.self_s("trace.emit"), "s"),
        "trace.serialize_s": (tr.self_s("trace.serialize"), "s"),
        "checker.self_s": (tr.layer_self_s("checker"), "s"),
        "checker.share": (ratio(tr.total_s("checker.check_all"), run_s), "ratio"),
        "checker.scans_per_trace": (ratio(tr.counts["checker.scans"], check_runs), "ratio"),
        "checker.linearizable_checked_share": (ratio(lin_checked, checked_runs), "ratio"),
    }
    for helper in CHECKER_HELPERS:
        m[f"checker.{helper}_s"] = (tr.self_s(f"checker.{helper}"), "s")
    m["scenario.generate_s"] = (tr.total_s("scenario.generate"), "s")
    m["runner.build_s"] = (tr.total_s("runner.build"), "s")
    m["bench.self_s"] = (tr.layer_self_s("bench"), "s")
    m["bench.submits"] = (tr.calls("bench.submit"), "count")
    m["bench.items_per_batch"] = (
        ratio(tr.counts["bench.batch_items"], tr.counts["bench.batches"]), "ratio")
    return m


@contextmanager
def counting(owner: Any, attr: str) -> Iterator[List[int]]:
    """Count calls of one entry point for the duration of the block."""
    original = vars(owner)[attr]
    count = [0]

    def wrapper(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield count
    finally:
        setattr(owner, attr, original)
