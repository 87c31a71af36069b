"""Scenario files: declarative descriptions of a run.

A scenario fixes everything the simulator needs - protocol stack, process
count, delay model, crash schedule, leader-oracle script, client
workload - so that a run is reproducible from the file alone. Scenarios
are YAML on disk; see the bundled files under ``scenarios/``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

from .sim import DelayModel, OmegaScript
from .trace import PROTOCOLS

CLIENT_KINDS = ("loop", "scripted")


class ScenarioError(Exception):
    pass


def _int(value: Any, key: str) -> int:
    if type(value) is not int:  # int() would truncate 3.7 to 3 and read true as 1
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    return value


# what each key that from_dict iterates takes: a string or a mapping read
# as a list would split silently into its items
_SHAPES = {"clients": list, "omega": list, "ops": list, "sends": list, "jitter": dict,
           "crashes": dict, "outputs": dict}
_NOUNS = {list: "a list", dict: "a mapping"}


def _mapping(raw: Any, where: str) -> Dict[Any, Any]:
    # checked before any key is looked up, so a list or a number gets a shape error
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where} must be a mapping, got {raw!r}")
    return raw


def _known(raw: Dict[Any, Any], where: str, *read: str) -> None:
    # a key that nothing reads is a typo or misplaced, never a silent default
    _mapping(raw, where)
    unread = sorted(map(str, set(raw) - set(read)))
    if unread:
        raise ScenarioError(f"{where} key {unread[0]!r} is not read here")
    for key, kind in _SHAPES.items():
        if key in raw and not isinstance(raw[key], kind):
            raise ScenarioError(f"{key} must be {_NOUNS[kind]}, got {raw[key]!r}")


def _delay(raw: Dict[str, Any]) -> DelayModel:
    # DelayModel judges a delay's values; its errors name its fields, which
    # are reworded here as the file's keys
    if "jitter" in raw:
        j = raw["jitter"]
        _known(j, "jitter", "min", "max", "seed")
        args = j["min"], j["max"], j.get("seed", 0)
        keys = "jitter min", "jitter max", "jitter seed"
    else:
        args, keys = (raw.get("delta", 10),) * 2, ("delta", "delta")
    try:
        return DelayModel(*args)
    except ValueError as e:
        text = str(e)
        for field, key in zip(("min_delay", "max_delay", "seed"), keys):
            text = text.replace(f"delay {field}", key)
        raise ScenarioError(text) from e


def _yaml_problem(e: Exception) -> str:
    # PyYAML's own text quotes the offending source over several lines
    mark, problem = getattr(e, "problem_mark", None), getattr(e, "problem", None)
    if mark is None or problem is None:
        return " ".join(str(e).split())
    return f"{problem}, line {mark.line + 1}, column {mark.column + 1}"


@dataclass
class ClientSpec:
    cid: int
    kind: str  # "loop" | "scripted"
    ops: List[str] = field(default_factory=list)
    # scripted sends, each (at, to, reqid, op)
    sends: List[Tuple[int, int, int, str]] = field(default_factory=list)
    retry_every: int = 0
    start_at: int = 0


@dataclass
class Scenario:
    name: str
    protocol: str
    n: int
    horizon: int
    delay: DelayModel
    omega: OmegaScript
    crashes: Dict[int, int] = field(default_factory=dict)
    reorder: bool = False
    clients: List[ClientSpec] = field(default_factory=list)
    expect_violation: bool = False

    def validate(self) -> None:
        name = self.name  # the stem of each file that ``run --out`` writes
        if not isinstance(name, str) or name in ("", ".", "..") or set(name) & set("/\\\0"):
            raise ScenarioError(f"name must be a plain file name, got {name!r}")
        for key, value in self._integers():
            _int(value, key)
        for key in ("reorder", "expect_violation"):  # read as truth values: "no" is true
            if type(getattr(self, key)) is not bool:
                raise ScenarioError(f"{key} must be true or false, got {getattr(self, key)!r}")
        if self.protocol not in PROTOCOLS:
            raise ScenarioError(f"unknown protocol: {self.protocol}")
        if self.n < 3 or self.n % 2 == 0:
            raise ScenarioError("n must be an odd number >= 3")
        if self.horizon < 1:
            raise ScenarioError(f"horizon must be at least 1 tick, got {self.horizon}")
        if len(self.crashes) > (self.n - 1) // 2:
            raise ScenarioError("crashes must leave a quorum of correct processes")
        for p, t in self.crashes.items():
            if not 0 <= p < self.n:
                raise ScenarioError(f"crash names unknown process {p}")
            if not 0 <= t <= self.horizon:  # a crash past the horizon never happens
                raise ScenarioError(f"crash of process {p} at tick {t} is outside the run")
        seen = set()
        for c in self.clients:
            if c.cid < self.n or c.cid in seen:
                raise ScenarioError("client ids must be unique and >= n")
            seen.add(c.cid)
            if c.kind not in CLIENT_KINDS:
                raise ScenarioError(f"unknown client kind: {c.kind}")
            if c.retry_every < 0 or c.start_at < 0:
                raise ScenarioError(f"client {c.cid}: retry_every and start_at must be >= 0")
            if any(type(op) is not str for op in [*c.ops, *(send[3] for send in c.sends)]):
                raise ScenarioError(f"client {c.cid}: each op must be text")
            ops = {}  # a reply names its reqid alone, so one reqid names one op
            for at, to, reqid, op in c.sends:
                if ops.setdefault(reqid, op) != op:
                    raise ScenarioError(f"client {c.cid}: reqid {reqid} names two ops")
                if at < 0 or not 0 <= to < self.n:
                    raise ScenarioError(f"client {c.cid}: send at t={at} to {to} is out of range")
        try:
            self.omega.validate(self.n, self.crashes)
        except ValueError as e:
            raise ScenarioError(str(e)) from e

    def _integers(self) -> Iterator[Tuple[str, Any]]:
        """Each tick and id field, named as its error names it: the trace
        writes them as integers, and a float tick would run between ticks."""
        yield "n", self.n
        yield "horizon", self.horizon
        for p, t in self.crashes.items():
            yield "crash process", p
            yield f"crash tick of process {p}", t
        for at, outputs in self.omega.segments:
            yield "omega at", at
            for p, leader in outputs.items():
                yield "omega process", p
                yield "omega leader", leader
        for c in self.clients:
            yield "client id", c.cid
            yield f"client {c.cid}: retry_every", c.retry_every
            yield f"client {c.cid}: start_at", c.start_at
            for at, to, reqid, _ in c.sends:
                yield f"client {c.cid}: send at", at
                yield f"client {c.cid}: send to", to
                yield f"client {c.cid}: reqid", reqid

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "Scenario":
        try:
            _known(raw, "scenario", "name", "protocol", "n", "horizon", "omega", "crashes",
                   "reorder", "clients", "expect_violation",
                   "jitter" if "jitter" in raw else "delta")
            n = _int(raw["n"], "n")  # a leader: segment names each process in range(n)
            delay = _delay(raw)

            segments = []
            for seg in raw.get("omega", [{"at": 0, "leader": 0}]):
                shape = "outputs" if "outputs" in _mapping(seg, "omega segment") else "leader"
                _known(seg, "omega segment", "at", shape)
                segments.append((seg["at"], seg["outputs"] if shape == "outputs"
                                 else dict.fromkeys(range(n), seg["leader"])))
            omega = OmegaScript(segments)

            clients = []
            for c in raw.get("clients", []):
                kind = _mapping(c, "client").get("kind", "loop")
                if kind not in CLIENT_KINDS:  # before its kind picks the keys it reads
                    raise ScenarioError(f"unknown client kind: {kind}")
                reads = ("ops", "retry_every", "start_at") if kind == "loop" else ("sends",)
                _known(c, f"{kind} client", "id", "kind", *reads)
                for s in c.get("sends", []):
                    _known(s, "send", "at", "to", "reqid", "op")
                clients.append(
                    ClientSpec(
                        cid=c["id"],
                        kind=kind,
                        ops=c.get("ops", []),
                        sends=[(s["at"], s["to"], s["reqid"], s["op"]) for s in c.get("sends", [])],
                        retry_every=c.get("retry_every", 0),
                        start_at=c.get("start_at", 0),
                    )
                )

            scenario = cls(
                name=raw["name"],
                protocol=raw["protocol"],
                n=n,
                horizon=raw["horizon"],
                delay=delay,
                omega=omega,
                crashes=raw.get("crashes", {}),
                reorder=raw.get("reorder", False),
                clients=clients,
                expect_violation=raw.get("expect_violation", False),
            )
        except KeyError as e:
            raise ScenarioError(f"scenario is missing required key: {e}") from e
        scenario.validate()
        return scenario

    @classmethod
    def from_yaml(cls, text: str) -> "Scenario":
        import yaml  # here, not at the top: only a parse pays PyYAML's start-up

        try:
            raw = yaml.safe_load(text)
        except (yaml.YAMLError, ValueError) as e:  # ValueError: a bad tagged scalar, !!int x
            raise ScenarioError(f"scenario is not valid YAML: {_yaml_problem(e)}") from e
        if not isinstance(raw, dict):
            raise ScenarioError("scenario file must contain a mapping")
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path) as f:
            return cls.from_yaml(f.read())


def random_scenario(seed: int, protocol: str) -> Scenario:
    """A randomized but reproducible stress scenario for one protocol.

    Mixes delay jitter, message reordering, minority crashes, and a leader
    oracle that flaps (including split views) before settling.
    """
    rng = random.Random(seed)
    n = rng.choice([3, 5])
    delta_min, delta_max = 5, rng.randint(8, 20)
    horizon = 3000

    crashes: Dict[int, int] = {}
    for p in rng.sample(range(n), rng.randint(0, (n - 1) // 2)):
        crashes[p] = rng.randint(100, horizon // 2)

    correct = [p for p in range(n) if p not in crashes]
    segments = [(0, {p: rng.randrange(n) for p in range(n)})]
    t = 0
    for _ in range(rng.randint(1, 5)):
        t += rng.randint(60, 300)
        if rng.random() < 0.3:
            # split view: processes disagree about the leader for a while
            outputs = {p: rng.randrange(n) for p in range(n)}
        else:
            leader = rng.randrange(n)
            outputs = {p: leader for p in range(n)}
        segments.append((t, outputs))
    final_leader = rng.choice(correct)
    segments.append((t + rng.randint(60, 200), {p: final_leader for p in range(n)}))

    clients = []
    for i in range(rng.randint(1, 3)):
        ops = [f"op{i}.{k}" for k in range(rng.randint(2, 4))]
        clients.append(
            ClientSpec(
                cid=n + i,
                kind="loop",
                ops=ops,
                retry_every=rng.randint(40, 120),
                start_at=rng.randint(0, 200),
            )
        )

    scenario = Scenario(
        name=f"random-{protocol}-{seed}",
        protocol=protocol,
        n=n,
        horizon=horizon,
        delay=DelayModel.jitter(delta_min, delta_max, seed),
        omega=OmegaScript(segments),
        crashes=crashes,
        reorder=rng.random() < 0.5,
        clients=clients,
    )
    scenario.validate()
    return scenario
