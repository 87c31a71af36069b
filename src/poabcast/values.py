"""Broadcast payloads and the protocol-level wrappers around them.

Application values are opaque to the broadcast layers; the wrappers
(skip, no-op, NEW-EPOCH, VAL, batches) are what the protocols agree on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class AppValue:
    """An opaque application payload with a run-unique identity."""

    vid: str
    body: str = ""
    size: int = 0

    def __post_init__(self):
        # a value is digested at every broadcast, write, decide and
        # delivery: hash it once, as it is made, and keep the result
        h = hashlib.sha256(f"{self.vid}|{self.body}".encode()).hexdigest()
        object.__setattr__(self, "_digest", h[:12])

    def digest(self) -> str:
        return self._digest


@dataclass(frozen=True)
class Batch:
    """Several application values agreed on in a single consensus instance."""

    items: Tuple[AppValue, ...]

    def __post_init__(self):
        # one hash over the items' (vid, body) pairs, each string prefixed
        # by its length so that no two item lists share an encoding
        text = "".join(
            f"{len(v.vid)}:{v.vid}{len(v.body)}:{v.body}" for v in self.items
        )
        object.__setattr__(self, "_digest", "b" + hashlib.sha256(text.encode()).hexdigest()[:11])

    def digest(self) -> str:
        return self._digest

    @property
    def size(self) -> int:
        return sum(v.size for v in self.items)


@dataclass(frozen=True)
class Skip:
    """tau-seq's filler for the one-instance gap at ``target``; delivers nothing."""

    target: int

    def digest(self) -> str:
        return f"skip({self.target})"


@dataclass(frozen=True)
class Noop:
    """Reserved consensus filler value, invisible to the broadcast layer."""

    def digest(self) -> str:
        return "noop"


NOOP = Noop()


@dataclass(frozen=True)
class NewEpoch:
    """Primary-election payload of the barrier-free protocol."""

    epoch: int

    def digest(self) -> str:
        return f"new-epoch({self.epoch})"


@dataclass(frozen=True)
class ValTuple:
    """Value broadcast of the barrier-free protocol: payload + epoch + seqno."""

    value: AppValue | Batch
    epoch: int
    seqno: int

    def digest(self) -> str:
        return f"val({self.value.digest()},{self.epoch},{self.seqno})"


def app_payload(value) -> AppValue | Batch | None:
    """The application payload inside a consensus value, or None."""
    if isinstance(value, ValTuple):
        value = value.value
    return value if isinstance(value, (AppValue, Batch)) else None
