"""Primary-order broadcast without a barrier.

Primaries are elected through consensus itself: a candidate proposes a
NEW-EPOCH value at its lowest undecided instance and becomes primary only
if that value wins the instance while the leader oracle still points at
it. Application values travel as (value, epoch, seqno) tuples; receivers
deliver only tuples carrying the current epoch, in seqno order. A primary
whose tuple loses an instance to an older-epoch value re-proposes it at
its next free instance with the original seqno, so the per-epoch delivery
sequence stays gap-free without ever blocking on a barrier.

Epoch numbers are attempt * n + pid: unique per election attempt and
totally ordered across processes.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from .broadcast import PrimaryOrderLayer
from .sim import Simulator
from .values import NewEpoch, Noop, ValTuple


class BarrierFreeBroadcast(PrimaryOrderLayer):
    def __init__(self, sim: Simulator, pid: int, n: int):
        super().__init__(sim, pid, n)
        self.epoch = 0  # last established epoch, 0 before any election
        self.tent_epoch = 0  # epoch this process is trying to establish
        self.attempt = 0
        self.dec = 1  # lowest consensus instance not yet decided here
        self.prop = 1  # next instance this primary proposes at
        self.seqno = 1  # next delivery sequence number this primary assigns
        self.deliv_seqno = 1  # next seqno to hand to the delegate
        self.dec_array: Dict[int, Any] = {}  # seqno -> decided value, buffered
        self.prop_array: Dict[int, Tuple[Any, int]] = {}  # instance -> (value, seqno)

    # -- oracle -------------------------------------------------------------

    def on_omega(self, leader: int) -> None:
        if self._follow(leader):
            self._try_primary()

    def _try_primary(self) -> None:
        self.attempt += 1
        self.tent_epoch = self.attempt * self.n + self.pid
        self.sim.emit(
            "new-epoch-proposed", self.pid, epoch=self.tent_epoch, instance=self.dec
        )
        self.paxos.propose(NewEpoch(self.tent_epoch), self.dec)

    # -- consensus decisions --------------------------------------------------

    def on_decide(self, value: Any, instance: int) -> None:
        self.dec = instance + 1
        if isinstance(value, Noop):
            return
        if isinstance(value, NewEpoch):
            self.epoch = value.epoch
            self.dec_array.clear()
            self.prop_array.clear()
            self.deliv_seqno = self.dec
            self.sim.emit(
                "epoch-established", self.pid, epoch=value.epoch, instance=instance
            )
            if self.leader == self.pid:
                if value.epoch == self.tent_epoch:
                    self.prop = self.dec
                    self.seqno = self.dec
                    self._set_primary(True)
                else:
                    self._set_primary(False)
                    self._try_primary()
            return

        assert isinstance(value, ValTuple)
        if value.epoch == self.epoch:
            self.dec_array[value.seqno] = value.value
            while self.deliv_seqno in self.dec_array:
                v = self.dec_array.pop(self.deliv_seqno)
                self.sim.emit(
                    "deliver", self.pid, instance=instance, epoch=self.epoch,
                    seqno=self.deliv_seqno, value=v.digest(),
                )
                self.deliv_seqno += 1
                self.delegate.on_deliver(v)
        if self.primary and value.epoch != self.epoch and instance in self.prop_array:
            # one of ours lost this instance to an old-epoch tuple: re-propose
            # it at the next free instance, keeping its original seqno
            v2, s2 = self.prop_array[instance]
            self.prop_array[self.prop] = (v2, s2)
            self.sim.emit("val-resent", self.pid, instance=self.prop, seqno=s2)
            self.paxos.propose(ValTuple(v2, self.epoch, s2), self.prop)
            self.prop += 1
        if not self.primary and self.leader == self.pid:
            self._try_primary()
        for i in [k for k in self.prop_array if k < self.dec]:
            del self.prop_array[i]

    # -- broadcasting -----------------------------------------------------------

    def poabcast(self, value: Any) -> None:
        self._require_primary()
        self.sim.emit("broadcast", self.pid, instance=self.prop, value=value.digest())
        self.prop_array[self.prop] = (value, self.seqno)
        self.paxos.propose(ValTuple(value, self.epoch, self.seqno), self.prop)
        self.prop += 1
        self.seqno += 1
