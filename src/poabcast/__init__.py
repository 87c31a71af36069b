"""Primary-order atomic broadcast protocol kit.

Three primary-order broadcast constructions (sequential barrier,
consensus-internal barrier, barrier-free election) plus a deliberately
weak plain-broadcast control, under a passive-replication layer, inside
a deterministic discrete-event simulator with trace checkers for every
safety property.
"""

from .checker import check_all, check_linearizable
from .runner import build, run
from .scenario import Scenario, random_scenario
from .sim import DelayModel, OmegaScript, Simulator
from .trace import Trace, TraceEvent

__all__ = [
    "DelayModel",
    "OmegaScript",
    "Scenario",
    "Simulator",
    "Trace",
    "TraceEvent",
    "build",
    "check_all",
    "check_linearizable",
    "random_scenario",
    "run",
]

__version__ = "0.1.0"
