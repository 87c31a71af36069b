"""Command-line harness: run scenarios, check traces, run benchmarks.

Exit codes: 0 ok, 1 safety violation, 2 usage or parse error, 3 liveness
inconclusive (safety passed but the horizon was too short to demonstrate
progress). A scenario marked expect_violation exits 0 only if a violation
actually occurred. ``report`` on a saved trace exits as ``run`` did, by the
same rule, reading expect_violation from the trace's summary.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from typing import List, Optional

from . import bench
from .checker import Report, check_all
from .runner import run
from .scenario import Scenario, ScenarioError
from .trace import Trace

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def bundled_scenarios() -> dict:
    root = resources.files("poabcast") / "scenarios"
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".yaml"):
            out[entry.name[: -len(".yaml")]] = entry
    return out


def load_scenario(ref: str) -> Scenario:
    if os.path.isfile(ref):  # not a directory, e.g. ``run --out``'s, that shares the name
        return Scenario.load(ref)
    bundled = bundled_scenarios()
    if ref in bundled:
        return Scenario.from_yaml(bundled[ref].read_text())
    raise ScenarioError(f"no such scenario file or bundled scenario: {ref}")


def render_report(report: Report, expect_violation: bool) -> str:
    lines = []
    for prop in sorted(report.verdicts):
        verdict = report.verdicts[prop]
        if verdict is None:
            lines.append(f"PASS {prop}")
        else:
            lines.append(f"FAIL {prop}: {verdict}")
    lines.append(f"liveness: {report.liveness}")
    if expect_violation:
        lines.append(
            "expected violation: "
            + ("observed" if not report.ok else "NOT OBSERVED")
        )
    return "\n".join(lines) + "\n"


def exit_code(report: Report, expect_violation: bool) -> int:
    """The exit code of ``run``, and of ``report`` on the trace it saved."""
    if report.ok == expect_violation:  # a violation not expected, or not observed
        return EXIT_VIOLATION
    if report.ok and report.liveness == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _save(out: str, name: str, text: str) -> None:
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, name), "w") as f:
        f.write(text)


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    trace = run(scenario)
    report = check_all(trace)
    rendered = render_report(report, scenario.expect_violation)
    if args.out:
        _save(args.out, f"{scenario.name}.trace.jsonl", trace.to_jsonl())
        _save(args.out, f"{scenario.name}.report.txt", rendered)
        _save(args.out, f"{scenario.name}.metrics.csv",
              bench.rows_to_csv([bench.scenario_row(trace)]))
    sys.stdout.write(rendered)
    return exit_code(report, scenario.expect_violation)


def cmd_list(args) -> int:
    for name in bundled_scenarios():
        print(name)
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        with open(args.trace) as f:
            trace = Trace.from_jsonl(f.read())
        report = check_all(trace)
    except ValueError as e:  # not a trace: check_all reads every trace from_jsonl admits
        print(f"error: {args.trace} is not a trace: {e!r}", file=sys.stderr)
        return EXIT_USAGE
    expect_violation = trace.summary["expect_violation"]
    sys.stdout.write(render_report(report, expect_violation))
    return exit_code(report, expect_violation)


def _emit_rows(rows, out: Optional[str], name: str) -> None:
    csv = bench.rows_to_csv(rows)
    if out:
        _save(out, name, csv)
    sys.stdout.write(csv)


def _parse_sweep(sweep: Optional[str]) -> Optional[List[int]]:
    """The ``--sweep`` client counts, or None for the default sweep."""
    entries = sweep.split(",") if sweep is not None else []
    for entry in entries:
        # ASCII digits only: str.isdigit() also takes '²' and '٣'
        digits = entry.strip()
        if not (digits.isascii() and digits.isdigit()) or int(digits) < 1:
            raise ValueError(f"--sweep entries must be integers >= 1, got {entry!r}")
    return [int(entry) for entry in entries] or None


def cmd_bench(args) -> int:
    # the bench functions range-check their own arguments
    try:
        if args.what == "table1":
            rows, name = bench.bench_table1(args.delta, args.clients), "table1.csv"
        else:
            rows = bench.bench_throughput(args.size, _parse_sweep(args.sweep))
            name = f"throughput-{args.size}.csv"
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    _emit_rows(rows, args.out, name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poabcast",
        description="primary-order broadcast protocol kit: simulate, check, benchmark",
    )
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a scenario file (or bundled name)")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", help="directory for trace/report/metrics artifacts")
    p_run.set_defaults(fn=cmd_run)

    p_list = sub.add_parser("list", help="list bundled scenarios")
    p_list.set_defaults(fn=cmd_list)

    p_report = sub.add_parser("report", help="re-check a saved trace")
    p_report.add_argument("trace")
    p_report.set_defaults(fn=cmd_report)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    benches = p_bench.add_subparsers(dest="what", required=True)
    p_table1 = benches.add_parser("table1", help="latency table: stable and leader-change runs")
    p_table1.add_argument("--clients", type=int, default=5)
    p_table1.add_argument("--delta", type=int, default=10, help="message delay in ticks")
    p_tput = benches.add_parser("throughput", help="sequential vs parallel throughput sweep")
    p_tput.add_argument("--size", type=int, default=1024, help="request bytes")
    p_tput.add_argument("--sweep", help="comma-separated client counts")
    for p in (p_table1, p_tput):
        p.add_argument("--out", help="directory for the CSV")
        p.set_defaults(fn=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (ScenarioError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
