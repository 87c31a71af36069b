"""Benchmark entry point; run it from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (and writes the recorded spans under ``perfbench/out/``). The last
line of standard output is the result as one JSON object. The program
under test is the checkout's ``src/poabcast``; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "poabcast", "__init__.py")):
        print(f"error: no poabcast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import poabcast

    if os.path.dirname(os.path.abspath(poabcast.__file__)) != os.path.join(SRC, "poabcast"):
        print(f"error: imported poabcast from {poabcast.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    make = WORKLOADS[args.workload]
    if args.trace:
        spans = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
        result, info = harness.traced(make, args.seed, SRC, spans)
    else:
        result, info = harness.untraced(make, args.seed, args.seconds, SRC)
    harness.report(result, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
