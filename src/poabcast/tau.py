"""Primary-order broadcast built from a barrier over consensus.

A process is a primary only while the leader oracle points at it *and*
its decided watermark has caught up with the barrier. The barrier comes
in two flavours:

- ``seq``: barrier = max(proposed, decided). Consensus is a black box
  that runs instances in parallel; this barrier alone runs them one at a
  time, as each broadcast ends the epoch until its instance is decided.
- ``paxos``: the barrier is what consensus reports to ``on_phase_change``:
  the read phase's watermark while this process leads and writes, and
  unreachable otherwise. Instances run in parallel. The read phase is the
  barrier: it fills every gap up to the watermark with picked values or
  no-ops, and every read phase, a watchdog re-read included, reports
  ``None`` and so ends the primary epoch, which its ballot names.

Skips are ``seq`` only. A ``seq`` primary has at most one undecided
proposal, so on election the gap up to the barrier is one instance, and
the new primary closes it with a skip value at that instance.
"""

from __future__ import annotations

from typing import Any, Optional

from .broadcast import PrimaryOrderLayer
from .sim import Simulator
from .values import Noop, Skip

TOP = float("inf")  # barrier value meaning "not currently passable"


class TauBroadcast(PrimaryOrderLayer):
    def __init__(self, sim: Simulator, pid: int, n: int, mode: str = "seq"):
        if mode not in ("seq", "paxos"):
            raise ValueError(f"unknown barrier mode: {mode}")
        hook = self._on_phase_change if mode == "paxos" else None
        super().__init__(sim, pid, n, on_phase_change=hook)
        self.mode = mode
        self.prop = 0
        self.dec = 0
        # paxos mode: the watermark of the write phase under way, None in a read
        self.watermark: Optional[int] = None

    # -- barrier ----------------------------------------------------------

    def tau(self):
        if self.mode == "seq":
            return max(self.prop, self.dec)
        if self.leader == self.pid and self.watermark is not None:
            return self.watermark
        return TOP

    def _on_phase_change(self, watermark: Optional[int]) -> None:
        self.watermark = watermark
        self._refresh()

    def _refresh(self) -> None:
        primary = self.leader == self.pid and self.dec >= self.tau()
        if primary and not self.primary:
            # the epoch broadcasts from dec on: a prop left over from an
            # earlier epoch would open a gap no one fills
            self.prop = self.dec
            if self.mode == "paxos":  # the ballot names the epoch (trace.OWN_LAYOUTS)
                self.sim.emit("barrier-crossed", self.pid, tau=int(self.tau()), dec=self.dec,
                              ballot=self.paxos.ballot)
            else:
                self.sim.emit("barrier-crossed", self.pid, tau=int(self.tau()), dec=self.dec)
        self._set_primary(primary)

    # -- oracle and consensus callbacks ------------------------------------

    def on_omega(self, leader: int) -> None:
        if self._follow(leader) and self.mode == "seq":
            self._propose_skip()
        self._refresh()

    def _propose_skip(self) -> None:
        target = self.tau()
        if target <= self.dec:
            return
        # prop <= dec + 1 always holds, so the gap is the one instance prop
        self.sim.emit("skip-proposed", self.pid, lo=self.dec + 1, target=target)
        self.paxos.propose(Skip(target), target)

    def on_decide(self, value: Any, instance: int) -> None:
        self.dec = instance
        if not isinstance(value, (Noop, Skip)):
            self.sim.emit("deliver", self.pid, instance=instance, value=value.digest())
            self.delegate.on_deliver(value)
        self._refresh()

    # -- broadcasting -------------------------------------------------------

    def poabcast(self, value: Any) -> None:
        self._require_primary()
        self.prop = max(self.prop + 1, self.dec + 1)
        self.sim.emit(
            "broadcast", self.pid, instance=self.prop, value=value.digest()
        )
        self.paxos.propose(value, self.prop)
        self._refresh()
