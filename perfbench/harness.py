"""Measurement loop, set-up timing, output checks and the result line.

An untraced invocation times the workload for ``seconds`` with the
originals of every entry point in place and prints the end-to-end
metrics, each run's time scaled to the baseline host's speed around it
(see ``hostspeed``). A traced invocation runs one fixed cycle of the
workload twice, untraced and then under the tracer, and prints the
per-layer metrics; its counts depend only on the workload and the seed.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from . import hostspeed
from .tracer import Tracer, layer_metrics
from .workloads import TABLE1, sha256, table1_rows

SETUPS = 5  # set-ups per invocation; setup_s is their median
HOST_AFTER_SETUP = 3  # reference loop samples after each set-up

IMPORTS = "import poabcast.bench, poabcast.checker, poabcast.runner, poabcast.scenario"


@dataclass
class Window:
    """What one measured stretch of runs did.

    An operation is one item of the workload. A window runs every item at
    least once and may repeat them to fill its time; a repeat is another
    timing sample of the same operation, not another operation. So
    ``attempted`` and ``failed`` count items, and an item fails if any of
    its runs fails: both depend only on the workload and the seed.
    """

    times: List[float] = field(default_factory=list)  # host seconds per completed run
    spans: List[Tuple[float, float]] = field(default_factory=list)  # their (start, end)
    run_cycle: List[int] = field(default_factory=list)  # the cycle each was in
    elapsed: float = 0.0
    runs: int = 0  # runs started, repeats included
    items: int = 0  # distinct items run
    failed_items: Set[int] = field(default_factory=set)
    raised: int = 0
    unsafe: int = 0
    not_live: int = 0
    nondeterministic: int = 0
    events: int = 0
    lin_checked: int = 0
    cycles: int = 0  # complete passes over the workload's items
    digests: List[str] = field(default_factory=list)  # first cycle's, per item
    host: List[float] = field(default_factory=list)  # reference loop times
    host_at: List[float] = field(default_factory=list)  # when each was taken

    @property
    def attempted(self) -> int:
        return self.items

    @property
    def failed(self) -> int:
        return len(self.failed_items)

    @property
    def fingerprint(self) -> str:
        return sha256("\n".join(self.digests))

    def speeds(self) -> List[float]:
        """The host's speed around each completed run: from the reference
        loop samples taken within ``hostspeed.NEAR_S`` of it."""
        out = []
        for start, end in self.spans:
            lo = bisect.bisect_left(self.host_at, start - hostspeed.NEAR_S)
            hi = bisect.bisect_right(self.host_at, end + hostspeed.NEAR_S)
            out.append(hostspeed.speed(self.host[lo:hi] or self.host))
        return out


def measure(
    wl: Any, seconds: float, run: Optional[Callable] = None, cycles: int = 0,
    sample_host: bool = False,
) -> Window:
    """Run ``wl``'s items in order, cycle after cycle, for about ``seconds``
    (or ``cycles`` cycles), and always for at least one whole cycle. With
    ``sample_host``, time the reference loop between runs, once per
    ``hostspeed.EVERY_S`` measured seconds and once more at the end, and
    leave it out of the window. What set-up left is frozen out of the
    garbage collector, and before each run the collector runs, also
    outside the window.

    A run fails if it raises, breaks a safety property, is not live, or
    serializes differently from the same item in the first cycle.
    """
    run = run or wl.run_one
    w = Window(digests=[""] * len(wl.items))
    # the inputs and whatever set-up left are frozen out of every
    # collection: the program's collections should not walk the benchmark
    gc.collect()
    gc.freeze()
    try:
        _measure(wl, seconds, run, cycles, sample_host, w)
    finally:
        gc.unfreeze()
    return w


def _measure(
    wl: Any, seconds: float, run: Callable, cycles: int, sample_host: bool, w: Window,
) -> None:
    perf = time.perf_counter
    t0 = perf()
    paused = next_sample = 0.0

    def elapsed() -> float:
        return perf() - t0 - paused

    def sample() -> None:
        nonlocal paused
        w.host_at.append(elapsed())
        w.host.append(hostspeed.sample())
        paused += w.host[-1]

    def settle() -> None:
        # each run starts from a collected heap, so the collections it pays
        # for are its own garbage's, not what the runs before it left
        nonlocal paused
        start = perf()
        gc.collect()
        paused += perf() - start

    while True:
        for i, item in enumerate(wl.items):
            if w.cycles and wl.partial and not cycles and elapsed() >= seconds:
                break
            while sample_host and elapsed() >= next_sample:
                sample()
                next_sample += hostspeed.EVERY_S
            settle()
            w.runs += 1
            w.items = max(w.items, i + 1)
            begin = elapsed()
            start = perf()
            try:
                out = run(item)
            except Exception:
                if not w.raised:
                    traceback.print_exc(file=sys.stderr)
                w.raised += 1
                digest, ok = "raised", False
            else:
                w.times.append(perf() - start)
                w.spans.append((begin, elapsed()))
                w.run_cycle.append(w.cycles)
                w.events += out.events
                w.lin_checked += out.lin_checked
                w.unsafe += not out.safe
                w.not_live += not out.live
                digest, ok = out.digest, out.safe and out.live
            if w.cycles == 0:
                w.digests[i] = digest
            elif w.digests[i] != digest:
                w.nondeterministic += 1
                ok = False
            if not ok:
                w.failed_items.add(i)
        else:
            w.cycles += 1
            if cycles:
                if w.cycles >= cycles:
                    break
                continue
            # whole-cycle workloads stop at the cycle boundary nearest to
            # ``seconds``; partial ones stop once ``seconds`` have passed
            spent = elapsed()
            if spent + (0 if wl.partial else spent / w.cycles / 2) >= seconds:
                break
            continue
        break
    w.elapsed = elapsed()
    if sample_host:
        sample()


def run_times(wl: Any, w: Window, times: List[float]) -> List[float]:
    """Host seconds of each run: ``times`` per completed item, or summed per
    cycle where the workload's run is a whole cycle of its items."""
    if not getattr(wl, "run_is_cycle", False):
        return times
    return [sum(t for t, c in zip(times, w.run_cycle) if c == k) for k in range(w.cycles)]


def fresh_import(src: str) -> None:
    """Start an interpreter that imports the kit's modules, and wait for it."""
    code = f"import sys; sys.path.insert(0, {src!r}); {IMPORTS}"
    subprocess.run([sys.executable, "-I", "-c", code], check=True)


def set_up(make: Callable, seed: int, src: str) -> Tuple[Any, List[float], List[float]]:
    """Import, input generation and warm-up, ``SETUPS`` times. Returns the
    workload, each set-up's host time and the reference loop's time
    (median of ``HOST_AFTER_SETUP`` samples) right after it."""
    times, host = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        fresh_import(src)
        wl = make(seed)
        for item in wl.warm_items:
            try:
                wl.run_one(item)
            except Exception:
                pass  # the timed runs count and report failures
        times.append(time.perf_counter() - t0)
        host.append(statistics.median(hostspeed.sample() for _ in range(HOST_AFTER_SETUP)))
    return wl, times, host


def gates(wl: Any) -> Tuple[List[Tuple[str, bool]], Dict[str, list]]:
    """The once-per-invocation output checks, each one operation, and the
    table1 rows they saw."""
    checked, table1 = [], {}
    try:
        table1 = {p: list(v) for p, v in table1_rows().items()}
        checked.append(("table1", table1 == {p: list(v) for p, v in TABLE1.items()}))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        checked.append(("table1", False))
    try:
        checked.extend(wl.checks())
    except Exception:
        traceback.print_exc(file=sys.stderr)
        checked.append((f"{wl.name}-checks", False))
    return checked, table1


def p95(xs: List[float]) -> float:
    """95th percentile, interpolated between the two nearest samples."""
    return statistics.quantiles(xs, n=20, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def behaviour(wl: Any, w: Window, seed: int, checked, table1) -> Dict[str, Any]:
    """Virtual-time results and fingerprints: printed, not gated as metrics."""
    out: Dict[str, Any] = {
        "workload": wl.name,
        "seed": seed,
        "fingerprint": w.fingerprint,
        "table1": table1,
        "checks": dict(checked),
        "runs_not_live": w.not_live,
        "linearizable_checked": f"{w.lin_checked}/{len(w.times)}",
    }
    if hasattr(wl, "peak_ratio"):
        out["peak_ratio_1k"] = wl.peak_ratio(1024)
    out["python"] = platform.python_version()
    out["nproc"] = os.cpu_count()
    return out


def tally(windows: List[Window], checked: List[Tuple[str, bool]]) -> Dict[str, Any]:
    """Correctness and operation counts of passes over the same items, and
    of the once-per-invocation checks."""
    return {
        "correct": all(ok for _, ok in checked)
        and not any(w.raised or w.unsafe or w.nondeterministic for w in windows),
        "attempted": max(w.attempted for w in windows) + len(checked),
        "failed": len(set().union(*(w.failed_items for w in windows)))
        + sum(not ok for _, ok in checked),
    }


def untraced(make: Callable, seed: int, seconds: float, src: str) -> Tuple[Dict, Dict]:
    """End-to-end metrics of a workload made by ``make(seed)``."""
    wl, setups, setup_host = set_up(make, seed, src)
    w = measure(wl, seconds, sample_host=True)
    if not w.times:
        raise SystemExit("error: every run raised; nothing to measure")
    checked, table1 = gates(wl)
    if hasattr(wl, "events_per_cycle"):
        w.events = w.cycles * wl.events_per_cycle()
    # each run's time as it would read on the baseline's host: times shrink
    # by the factor the host ran slower than it around that run
    times = run_times(wl, w, [t * s for t, s in zip(w.times, w.speeds())])
    busy = sum(times)
    metrics = {
        "setup_s": (
            statistics.median(t * hostspeed.speed([h]) for t, h in zip(setups, setup_host)), "s"),
        "runs_per_s": (len(times) / busy, "1/s"),
        "run_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "run_ms_p95": (p95(times) * 1e3, "ms"),
        "trace_events_per_s": (w.events / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "setup_s": statistics.median(setups),
        "runs_per_s": len(times) / w.elapsed,  # the window's wall time, unscaled
        "trace_events_per_s": w.events / w.elapsed,
    }
    result = tally([w], checked)
    result["metrics"] = metrics
    info = behaviour(wl, w, seed, checked, table1)
    info["runs_timed"] = len(w.times)
    info["host_speed"] = hostspeed.speed(w.host)
    info["raw"] = raw
    return result, info


def traced(make: Callable, seed: int, src: str, spans_path: Optional[str]) -> Tuple[Dict, Dict]:
    """Per-layer metrics of one cycle of the workload made by ``make(seed)``."""
    wl, _, _ = set_up(make, seed, src)
    base = measure(wl, 0, cycles=1)
    tracer = Tracer()
    with tracer.installed():
        wl = tracer.wrap("scenario.generate", make)(seed)
        root = tracer.wrap("run", wl.run_one)

        def run(item):
            tracer.run_id += 1
            return root(item)

        w = measure(wl, 0, run=run, cycles=1)
    checked, table1 = gates(wl)
    checked.append(("tracing-keeps-behaviour", w.digests == base.digests))
    metrics = layer_metrics(tracer, w.lin_checked, len(w.times))
    untraced_rate = len(run_times(wl, base, base.times)) / base.elapsed
    traced_rate = len(run_times(wl, w, w.times)) / w.elapsed
    metrics["tracing.untraced_runs_per_s"] = (untraced_rate, "1/s")
    metrics["tracing.overhead_runs_per_s"] = (traced_rate - untraced_rate, "1/s")
    if spans_path:
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        tracer.write_spans(spans_path)
    result = tally([base, w], checked)
    result["metrics"] = metrics
    info = behaviour(wl, w, seed, checked, table1)
    info["counts"] = tracer.counters()
    return result, info


def report(result: Dict, info: Dict) -> None:
    """Human-readable lines, then the result as the last line of stdout."""
    print(f"workload {info['workload']} seed {info['seed']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  attempted {result['attempted']} failed {result['failed']}"
          f" correct {result['correct']}")
    print("behaviour " + json.dumps(info, sort_keys=True))
    line = dict(result)
    line["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(line), flush=True)
