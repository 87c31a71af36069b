"""Primary-order broadcast built from a barrier over consensus.

A process is a primary only while the leader oracle points at it *and*
its decided watermark has caught up with the barrier. The barrier comes
in two flavours:

- ``seq``: barrier = max(proposed, decided). Consensus is a black box;
  the cost is that instances are forced to run one at a time.
- ``paxos``: the barrier peeks inside the consensus leader. It is the
  read-phase watermark while this process leads and is in its write
  phase, and unreachable otherwise. Instances run in parallel.

On election the new primary closes the gap up to the barrier with skip
values; deciding skip(k) fast-forwards the decided watermark to k and
discards any decisions inside the gap.
"""

from __future__ import annotations

from typing import Any

from .broadcast import PrimaryOrderLayer
from .paxos import WRITING
from .sim import Simulator
from .values import Noop, Skip, describe

TOP = float("inf")  # barrier value meaning "not currently passable"


class TauBroadcast(PrimaryOrderLayer):
    def __init__(self, sim: Simulator, pid: int, n: int, mode: str = "seq"):
        if mode not in ("seq", "paxos"):
            raise ValueError(f"unknown barrier mode: {mode}")
        super().__init__(
            sim,
            pid,
            n,
            whitebox=(mode == "paxos"),
            sequential=(mode == "seq"),
            on_phase_change=self._on_phase_change if mode == "paxos" else None,
        )
        self.mode = mode
        self.prop = 0
        self.dec = 0
        self._skips_pending = False  # paxos mode: waiting for the write phase

    # -- barrier ----------------------------------------------------------

    def tau(self):
        if self.mode == "seq":
            return max(self.prop, self.dec)
        phase, watermark = self.paxos.whitebox_observe()
        if self.leader == self.pid and phase == WRITING:
            return watermark
        return TOP

    def is_primary(self) -> bool:
        # a live test, not the announced flag: a watchdog re-read leaves the
        # write phase without a phase callback
        return self.leader == self.pid and self.dec >= self.tau()

    def _refresh(self) -> None:
        primary = self.is_primary()
        if primary and not self.primary:
            self.sim.emit(
                "barrier-crossed", self.pid, tau=int(self.tau()), dec=self.dec,
                ballot=self.paxos.ballot,
            )
        self._set_primary(primary)

    # -- oracle and consensus callbacks ------------------------------------

    def on_omega(self, leader: int) -> None:
        gained = self._follow(leader)
        if gained:
            self._propose_skips()
        elif gained is False:
            # a demoted process abandons outstanding work; clients retry
            # against the new primary
            self._skips_pending = False
        self._refresh()

    def _on_phase_change(self) -> None:
        if self._skips_pending:
            self._propose_skips()
        self._refresh()

    def _propose_skips(self) -> None:
        if self.mode == "paxos":
            phase, _ = self.paxos.whitebox_observe()
            if not (self.leader == self.pid and phase == WRITING):
                self._skips_pending = True
                return
            self._skips_pending = False
        target = self.tau()
        if target <= self.dec:
            return
        self.sim.emit("skip-proposed", self.pid, lo=self.dec + 1, target=target)
        for i in range(self.dec + 1, int(target) + 1):
            self.paxos.propose(Skip(int(target)), i)

    def on_decide(self, value: Any, instance: int) -> None:
        if isinstance(value, Skip):
            self.dec = max(self.dec, value.target)
            self.paxos.advance_to(value.target)
        elif isinstance(value, Noop):
            self.dec = instance
        else:
            self.dec = instance
            self.sim.emit("deliver", self.pid, instance=instance, value=describe(value))
            self.delegate.on_deliver(value)
        self._refresh()

    # -- broadcasting -------------------------------------------------------

    def poabcast(self, value: Any) -> None:
        self._require_primary()
        self.prop = max(self.prop + 1, self.dec + 1)
        self.sim.emit(
            "broadcast", self.pid, instance=self.prop, value=describe(value)
        )
        self.paxos.propose(value, self.prop)
        self._refresh()
