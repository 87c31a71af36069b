"""The machine every primary-order broadcast layer shares.

The layers differ only in how a process becomes primary: a barrier over
consensus (``tau``), an election through consensus (``barrier_free``) or
the leader oracle alone (``abcast``). ``PrimaryOrderLayer`` holds the
rest: the consensus node, the delegate, the oracle's leader and the
primary flag with its announcements. Only tau's paxos barrier hooks the
node's phases; the rest use consensus through propose and decide alone.
"""

from __future__ import annotations

from typing import Any, Optional

from .paxos import PaxosNode, PhaseHook
from .sim import Simulator


class NotPrimaryError(Exception):
    """A broadcast was attempted by a process that is not a primary.

    Callers own the retry policy; the layers never queue rejected values.
    """


class NullDelegate:
    """Default sink for layer callbacks when no replica is attached."""

    def on_primary_change(self, primary: bool) -> None:
        pass

    def on_deliver(self, value) -> None:
        pass


class PrimaryOrderLayer:
    """Base of the broadcast layers; subclasses supply ``on_decide``,
    ``poabcast`` and ``on_omega`` in their own bodies."""

    def __init__(
        self, sim: Simulator, pid: int, n: int, on_phase_change: Optional[PhaseHook] = None
    ):
        self.sim = sim
        self.pid = pid
        self.n = n
        self.paxos = PaxosNode(sim, pid, n, self.on_decide, on_phase_change)
        self.delegate = NullDelegate()
        self.leader: Optional[int] = None
        self.primary = False

    def _require_primary(self) -> None:
        if not self.primary:
            raise NotPrimaryError(f"process {self.pid} is not a primary")

    # -- oracle -------------------------------------------------------------

    def _follow(self, leader: int) -> Optional[bool]:
        """Record the oracle's output and move consensus leadership with it.

        Returns True when this process just became the leader and False
        when it just stopped being it; a demoted process is no longer a
        primary. Returns None when neither happened.
        """
        prev = self.leader
        self.leader = leader
        if leader == self.pid and prev != self.pid:
            self.paxos.ensure_leadership()
            return True
        if leader != self.pid and prev == self.pid:
            self.paxos.relinquish()
            self._set_primary(False)
            return False
        return None

    # -- primary bookkeeping ------------------------------------------------

    def _set_primary(self, primary: bool) -> None:
        """Announce a change of the primary flag; a repeat does nothing."""
        if primary == self.primary:
            return
        self.primary = primary
        self.sim.emit("primary-begin" if primary else "primary-end", self.pid)
        self.delegate.on_primary_change(primary)

    # -- simulator plumbing -------------------------------------------------

    def on_message(self, frm: int, msg: Any) -> None:
        self.paxos.on_message(frm, msg)
