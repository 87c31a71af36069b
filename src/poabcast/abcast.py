"""Plain atomic broadcast dressed up as a primary-order interface.

This is the deliberately weak control variant: a process calls itself a
primary whenever the leader oracle points at it, with no barrier and no
epoch tagging on values. If a proposal loses its instance to someone
else's value, the still-leading process simply re-proposes it at its next
free instance. Total order and agreement hold, but nothing ties delivered
values to the primary epoch that produced them - which is exactly the gap
the stronger layers close.
"""

from __future__ import annotations

from typing import Any, Dict

from .broadcast import PrimaryOrderLayer
from .sim import Simulator
from .values import Noop


class NaiveAbcast(PrimaryOrderLayer):
    def __init__(self, sim: Simulator, pid: int, n: int):
        super().__init__(sim, pid, n)
        self.prop = 0
        self.dec = 0
        self.outstanding: Dict[int, Any] = {}  # instance -> our undecided value

    # -- oracle -------------------------------------------------------------

    def on_omega(self, leader: int) -> None:
        gained = self._follow(leader)
        if gained:
            # the oracle alone makes a primary: no barrier, no election
            self._set_primary(True)
        elif gained is False:
            self.outstanding.clear()

    # -- consensus decisions ----------------------------------------------------

    def on_decide(self, value: Any, instance: int) -> None:
        self.dec = instance
        if not isinstance(value, Noop):
            self.sim.emit("deliver", self.pid, instance=instance, value=value.digest())
            self.delegate.on_deliver(value)
        mine = self.outstanding.pop(instance, None)
        if mine is not None and mine != value and self.leader == self.pid:
            # lost the instance; move our value to the next free one
            self.prop = max(self.prop + 1, self.dec + 1)
            self.outstanding[self.prop] = mine
            self.sim.emit(
                "reproposed", self.pid, instance=self.prop, value=mine.digest()
            )
            self.paxos.propose(mine, self.prop)

    # -- broadcasting ---------------------------------------------------------------

    def poabcast(self, value: Any) -> None:
        self._require_primary()
        self.prop = max(self.prop + 1, self.dec + 1)
        self.outstanding[self.prop] = value
        self.sim.emit("broadcast", self.pid, instance=self.prop, value=value.digest())
        self.paxos.propose(value, self.prop)
