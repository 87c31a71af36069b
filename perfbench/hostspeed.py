"""Host speed, measured by a fixed reference loop sampled between runs.

The shared VM this benchmark was built on changes speed by 20-40% for
tens of seconds at a time, so raw timings of one invocation differ from
the next by more than a regression worth catching. A loop doing the
kinds of work the simulator does (heap pushes, small dicts, seeding
``random.Random``, ``json.dumps``, sha256) slows down with it: over 200 s
of alternating samples, a fixed chunk of corpus runs varied by 15%
between 10-second bins, and its ratio to the loop by 4%. The loop uses
only the standard library, so no change to poabcast can change it.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import random
import statistics
import time
from typing import List

REFERENCE_S = 0.0172  # the loop's median time on the host of the baseline
EVERY_S = 0.25  # measured seconds between samples
NEAR_S = 2.0  # a run is scaled by the samples taken this close to it


def reference_loop() -> int:
    heap: list = []
    counts: dict = {}
    acc = 0
    for i in range(1500):
        heapq.heappush(heap, (random.Random(i).randint(0, 1000), i))
        counts[i % 97] = counts.get(i % 97, 0) + 1
        acc += len(json.dumps({"t": i, "k": "x"}, sort_keys=True))
        if i % 10 == 0:
            acc += len(hashlib.sha256(str(i).encode()).hexdigest())
    while heap:
        heapq.heappop(heap)
    return acc


def sample() -> float:
    """Host seconds one reference loop takes. The cyclic garbage collector
    is off meanwhile: a collection started by the loop's allocations would
    walk the program's heap, whose size is the program's, not the host's.
    The loop makes no reference cycles, so nothing it leaves is kept."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed(samples: List[float]) -> float:
    """The host's speed relative to the baseline's host; above 1 is faster."""
    return REFERENCE_S / statistics.median(samples)
