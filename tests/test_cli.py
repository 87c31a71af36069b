"""CLI harness: exit codes, artifacts, bundled scenarios, bench output."""

import json
import os
import pathlib
import re
import shlex

import pytest

from poabcast.bench import CSV_COLUMNS, rows_to_csv, scenario_row
from poabcast.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    build_parser,
    bundled_scenarios,
    main,
)
from poabcast.trace import Trace

from test_checker import MAPPING_FAULTS, mapping_fault_trace


def test_list_names_the_bundled_scenarios(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in (
        "fig2-naive-abcast",
        "stable-tau-seq",
        "stable-tau-paxos",
        "stable-barrier-free",
        "stable-naive",
        "leaderchange-tau-seq",
        "dual-leader-sigma3",
    ):
        assert name in out


def test_bundled_index_matches_list():
    names = set(bundled_scenarios())
    assert "fig2-tau-paxos" in names and "leaderchange-naive" in names


def test_run_clean_scenario_exits_zero_and_writes_artifacts(tmp_path, capsys):
    code = main(["run", "stable-tau-paxos", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "liveness: pass" in out
    for suffix in ("trace.jsonl", "report.txt", "metrics.csv"):
        assert os.path.exists(tmp_path / f"stable-tau-paxos.{suffix}")


def test_run_writes_one_metrics_row_under_the_bench_header(tmp_path, capsys):
    # five scripted requests at tick 40, each answered 40 ticks later, in a
    # 400-tick horizon: 5 responses are 12.5 per 1000 ticks
    assert main(["run", "stable-tau-paxos", "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "stable-tau-paxos.metrics.csv").read_text() == (
        ",".join(CSV_COLUMNS) + "\n"
        + "stable-tau-paxos,tau-paxos,5,0,40,40.000,40.000,,12.500,\n"
    )


@pytest.mark.parametrize("name", list(bundled_scenarios()))
def test_run_metrics_are_the_row_of_the_saved_trace(tmp_path, capsys, name):
    main(["run", name, "--out", str(tmp_path)])
    trace = Trace.from_jsonl((tmp_path / f"{name}.trace.jsonl").read_text())
    assert (tmp_path / f"{name}.metrics.csv").read_text() == rows_to_csv([scenario_row(trace)])


def test_run_expected_violation_scenario_exits_zero_and_names_the_fault(capsys):
    code = main(["run", "fig2-naive-abcast"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "expected violation: observed" in out
    assert "failed apply" in out  # the report names the poisoned apply
    assert "FAIL primary-integrity" in out


def test_run_missing_scenario_is_a_usage_error(capsys):
    assert main(["run", "no-such-scenario"]) == EXIT_USAGE


def test_run_malformed_file_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nprotocol: nope\nn: 3\nhorizon: 10\n")
    assert main(["run", str(bad)]) == EXIT_USAGE


@pytest.mark.parametrize(
    "patch",
    [
        "crashes: {2: -5}",
        "clients: [{id: 3, kind: scripted, sends: [{at: -5, to: 0, reqid: 1, op: x}]}]",
        "clients: [{id: 3, kind: scripted, sends: [{at: 5, to: 7, reqid: 1, op: x}]}]",
        "crashes: {2: 101}",
    ],
    ids=["negative-crash-tick", "negative-send-time", "send-target-out-of-range", "late-crash"],
)
def test_run_rejects_bad_timing_or_target_as_a_usage_error(tmp_path, patch):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "name: x\nprotocol: naive\nn: 3\nhorizon: 100\nomega: [{at: 0, leader: 0}]\n"
        + patch + "\n"
    )
    assert main(["run", str(bad)]) == EXIT_USAGE


@pytest.mark.parametrize(
    "patch",
    [
        # a scenario carries no byte model, so each of these keys is unread and
        # the file fails as a whole rather than running without its byte costs
        "per_byte: 1.0\nclients: [{id: 3, kind: scripted, sends: "
        "[{at: 50, to: 0, reqid: 1, op: x, size: -200}]}]",
        "per_byte: 1.0\nclients: [{id: 3, kind: loop, ops: [a], size: -200}]",
        "per_byte: -1.0\nclients: [{id: 3, kind: scripted, sends: "
        "[{at: 50, to: 0, reqid: 1, op: x, size: 200}]}]",
        "per_byte: .nan\nclients: [{id: 3, kind: loop, ops: [a], size: 8}]",
        "per_byte: .inf\nclients: [{id: 3, kind: loop, ops: [a], size: 8}]",
        "per_byte: 1e400\nclients: [{id: 3, kind: loop, ops: [a], size: 8}]",
        "per_byte: 1.0e+308\nclients: [{id: 3, kind: loop, ops: [a], size: 8}]",
        "per_byte: 1.0e+308\nclients: [{id: 3, kind: scripted, sends: "
        "[{at: 50, to: 0, reqid: 1, op: x, size: 8}]}]",
        'per_byte: "0.5"\nclients: [{id: 3, kind: loop, ops: [a], size: 8}]',
        "clients: [{id: 3, kind: loop, ops: [a], retry_every: -5}]",
        "delta: 0",
        "jitter: {min: 0, max: 5}",
        "clients: [{id: 3",
        "name: a\x01",
        "n: !!int x",
        "omega: [{leader: 0}]",
        "omega: [{at: 0, outputs: {0: 0}}, {at: 50, leader: 1}]",
        "omega: [{at: 0, leader: 0}, {at: 50, outputs: {0: 1}}]",
        "horizon: -5",
        "horizon: 0",
        "n: three",
        "horizon: 400.9",
        'reorder: "false"',
        'expect_violation: "false"',
        "name: ../escaped",
        "name: a/b",
        "name: [a, b]",
        "reoder: true",
        "jitter_seed: 3",
        "clients: [{id: 3, kind: loop, ops: [a], retry_evry: 5}]",
        "clients: [{id: 3, kind: loop, ops: [a], sends: []}]",
        "clients: [{id: 3, kind: scripted, ops: [a], sends: []}]",
        "clients: [{id: 3, kind: scripted, retry_every: 5, sends: []}]",
        "clients: [{id: 3, kind: scripted, size: 5, sends: []}]",
        "clients: [{id: 3, kind: scripted, start_at: 5, sends: []}]",
        "clients: [{id: 3, kind: scripted, sends: [{at: 5, to: 0, reqid: 1, op: x, sise: 3}]}]",
        "jitter: {min: 5, max: 12, sed: 3}",
        "delta: 10\njitter: {min: 5, max: 12}",
        "omega: [{at: 0, leader: 0, outputs: {0: 0, 1: 0, 2: 0}}]",
        "omega: [{at: -50, leader: 0}, {at: -10, leader: 1}]",
        # a string or a mapping would be split into its items
        "clients: [{id: 3, kind: loop, ops: abc}]",
        "clients: [{id: 3, kind: loop, ops: {a: 1, b: 2}}]",
        "clients: [{id: 3, kind: scripted, sends: {at: 1}}]",
        "clients: [{id: 3, kind: loop, ops: [a], start_at: -50}]",
        # a reply names its reqid only, so the history would take the first op
        "protocol: tau-paxos\nclients: [{id: 3, kind: scripted, sends: "
        "[{at: 5, to: 0, reqid: 1, op: x}, {at: 9, to: 1, reqid: 1, op: y}]}]",
    ],
    ids=[
        "negative-send-size",
        "negative-client-size",
        "negative-per-byte",
        "nan-per-byte",
        "infinite-per-byte",
        "overflowing-per-byte",
        "overflowing-loop-request-cost",
        "overflowing-send-cost",
        "string-per-byte",
        "negative-retry-every",
        "zero-delta",
        "zero-jitter-min",
        "yaml-syntax-error",
        "yaml-control-character",
        "yaml-bad-int-tag",
        "omega-segment-without-at",
        "omega-first-segment-names-one-process",
        "omega-final-outputs-disagree",
        "negative-horizon",
        "zero-horizon",
        "non-integer-n",
        "float-horizon",
        "string-reorder",
        "string-expect-violation",
        "name-escapes-out",
        "name-with-slash",
        "name-not-a-string",
        "misspelt-reorder",
        "unread-jitter-seed",
        "misspelt-retry-every",
        "sends-on-loop-client",
        "ops-on-scripted-client",
        "retry-every-on-scripted-client",
        "size-on-scripted-client",
        "start-at-on-scripted-client",
        "misspelt-send-size",
        "misspelt-jitter-seed",
        "delta-beside-jitter",
        "leader-beside-outputs",
        "negative-omega-at",
        "ops-string",
        "ops-mapping",
        "sends-mapping",
        "negative-start-at",
        "reqid-names-two-ops",
    ],
)
def test_run_rejects_negative_or_malformed_values_as_a_usage_error(tmp_path, capsys, patch):
    # later keys win in YAML, so a patch may override a base key such as name
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "name: x\nprotocol: naive\nn: 3\nhorizon: 100\nomega: [{at: 0, leader: 0}]\n"
        + patch + "\n"
    )
    out = tmp_path / "out" / "inner"
    assert main(["run", str(bad), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    # one line: the YAML cases too, whose parser quotes the source over several
    assert err.startswith("error: ") and err.count("error: ") == 1
    assert err.endswith("\n") and err.count("\n") == 1
    written = [p for p in tmp_path.rglob("*") if p.is_file() and out not in p.parents]
    assert written == [bad]


@pytest.mark.parametrize(
    "patch, error",
    [
        ("clients: [5]", "client must be a mapping, got 5"),
        ("omega: [5]", "omega segment must be a mapping, got 5"),
        ("clients: [{id: 3, kind: lop, ops: [a]}]", "unknown client kind: lop"),
        ("clients: [{id: 3, kind: [a], ops: [a]}]", "unknown client kind: ['a']"),
    ],
    ids=["client-not-a-mapping", "omega-segment-not-a-mapping", "misspelt-client-kind",
         "client-kind-a-list"],
)
def test_run_names_a_bad_client_or_omega_segment_in_its_own_words(tmp_path, capsys, patch, error):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "name: x\nprotocol: naive\nn: 3\nhorizon: 100\nomega: [{at: 0, leader: 0}]\n"
        + patch + "\n"
    )
    assert main(["run", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {error}\n"


def summary_line(*omit, **fields):
    """A complete summary line of a tau-seq run, without the keys in ``omit``
    and with ``fields`` overriding its own."""
    summary = {"protocol": "tau-seq", "horizon": 100, "base_delay": 10,
               "expect_violation": False, **fields}
    return json.dumps({"summary": {k: v for k, v in summary.items() if k not in omit}}) + "\n"


def event_line(**fields):
    """An event line that no check reads, with ``fields`` overriding its own,
    followed by a valid summary line."""
    return json.dumps({"t": 0, "i": 0, "p": 0, "kind": "note", "data": {}, **fields}) + (
        "\n" + summary_line()
    )


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"t": 0, "i": 0\n', "JSONDecodeError"),
        ('{"t": 0, "i": 0, "p": 0, "data": {}}\n', "KeyError('kind')"),
        ('{"t": 0, "i": 0, "p": 0, "kind": "deliver", "data": {}}\n'
         + summary_line(protocol="naive"), "KeyError('value')"),
        ("", "no summary line"),
        (None, "no summary line"),  # a saved trace cut before its summary line
        ('{"summary": 5}\n', "no summary line"),
        # fields a check or the exit rule reads, which have no default
        (summary_line("horizon"), "summary has no horizon"),
        (summary_line("base_delay"), "summary has no base_delay"),
        (summary_line("expect_violation"), "summary has no expect_violation"),
        # fields of the wrong type, each of which a check or the exit rule reads
        (summary_line(horizon="x"), "horizon is not an integer"),
        (summary_line(horizon=True), "horizon is not an integer"),
        (summary_line(horizon=10.5), "horizon is not an integer"),
        (summary_line(base_delay="x"), "base_delay is not an integer"),
        (summary_line(expect_violation="no"), "expect_violation is not a boolean"),
        (event_line(kind=5), "an event field has the wrong type"),
        (event_line(p="0"), "an event field has the wrong type"),
        (event_line(t="x"), "an event field has the wrong type"),
        (event_line(i=True), "an event field has the wrong type"),
        (event_line(data=[]), "an event field has the wrong type"),
    ],
    ids=["not-json", "lacks-kind", "deliver-lacks-value", "empty", "summary-cut",
         "summary-not-a-mapping", "no-horizon", "no-base-delay", "no-expect-violation",
         "horizon-text", "horizon-bool", "horizon-float", "base-delay-text",
         "expect-violation-text",
         "kind-int", "pid-text", "time-text", "index-bool", "data-list"],
)
def test_report_on_a_malformed_trace_is_a_usage_error(tmp_path, capsys, text, reason):
    if text is None:
        assert main(["run", "stable-tau-seq", "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        text = (tmp_path / "stable-tau-seq.trace.jsonl").read_text()
        text = text[: text.rindex("\n", 0, -1) + 1]
        assert '"summary"' not in text
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text)
    assert main(["report", str(bad)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {bad} is not a trace: ") and reason in err
    assert out == ""


@pytest.mark.parametrize("name", list(MAPPING_FAULTS))
def test_report_on_unmappable_epochs_is_a_violation_not_a_crash(tmp_path, capsys, name):
    # the file is a trace, but its primary epochs cannot be mapped: for a trace
    # the kit produced, that is a protocol fault, reported as a verdict
    path = tmp_path / "epochs.jsonl"
    path.write_text(mapping_fault_trace(name).to_jsonl())
    assert main(["report", str(path)]) == EXIT_VIOLATION
    out, err = capsys.readouterr()
    assert f"FAIL primary-mapping: {MAPPING_FAULTS[name][2]}\n" in out
    assert err == ""


@pytest.mark.parametrize("name", list(bundled_scenarios()))
def test_report_on_a_saved_trace_exits_as_run_did(tmp_path, capsys, name):
    code = main(["run", name, "--out", str(tmp_path)])
    printed = capsys.readouterr().out
    assert main(["report", str(tmp_path / f"{name}.trace.jsonl")]) == code
    assert capsys.readouterr().out == printed


@pytest.mark.parametrize("name", ["fig2-tau-paxos"] + [
    name for name in bundled_scenarios() if name.startswith("leaderchange-")])
def test_report_reads_the_crashes_from_the_trace(tmp_path, capsys, name):
    # each run crashes a process and is live; the summary holds no crash
    # schedule, so its crash events exempt the process from liveness
    assert main(["run", name, "--out", str(tmp_path)]) == EXIT_OK
    path = tmp_path / f"{name}.trace.jsonl"
    assert "crashes" not in json.loads(path.read_text().splitlines()[-1])["summary"]
    assert main(["report", str(path)]) == EXIT_OK


@pytest.mark.parametrize("argv", [["run", "stable-tau-seq"], ["bench", "table1"]],
                         ids=["run", "bench"])
def test_out_naming_a_file_is_a_usage_error(tmp_path, capsys, argv):
    (tmp_path / "taken").write_text("")
    assert main([*argv, "--out", str(tmp_path / "taken")]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and out == ""


def test_no_command_prints_help_and_exits_usage(capsys):
    assert main([]) == EXIT_USAGE


def test_inconclusive_run_exits_three():
    # scripted client targets a replica that crashes before answering, so the
    # run is safe but cannot demonstrate progress
    assert main(["run", "fig2-tau-seq"]) == EXIT_INCONCLUSIVE


def test_report_recheck_of_saved_trace(tmp_path, capsys):
    main(["run", "stable-barrier-free", "--out", str(tmp_path)])
    capsys.readouterr()
    trace_path = tmp_path / "stable-barrier-free.trace.jsonl"
    assert main(["report", str(trace_path)]) == EXIT_OK
    assert main(["report", str(tmp_path / "missing.jsonl")]) == EXIT_USAGE


def test_tampered_trace_fails_the_recheck(tmp_path, capsys):
    main(["run", "stable-naive", "--out", str(tmp_path)])
    capsys.readouterr()
    trace_path = tmp_path / "stable-naive.trace.jsonl"
    lines = trace_path.read_text().splitlines()
    # drop one delivery event: agreement should now fail
    victim = next(i for i, l in enumerate(lines) if '"kind":"deliver"' in l)
    del lines[victim]
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["report", str(trace_path)]) == EXIT_VIOLATION


def test_bench_table1_emits_csv(tmp_path, capsys):
    assert main(["bench", "table1", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("scenario,protocol,")
    assert os.path.exists(tmp_path / "table1.csv")


def test_bench_throughput_with_small_sweep(tmp_path, capsys):
    code = main(
        ["bench", "throughput", "--size", "64", "--sweep", "1,2", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    csv = (tmp_path / "throughput-64.csv").read_text()
    assert len(csv.splitlines()) == 1 + 4  # header + 2 modes x 2 client counts


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--size", "7"],
        ["table1", "--sweep", "1"],
        ["throughput", "--clients", "3"],
        ["--delta", "5", "table1"],
        [],
        ["throughput", "--delta", "10"],
    ],
)
def test_bench_subcommands_reject_flags_of_the_other(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["bench", *argv])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""


def readme_cli_lines():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("poabcast ")]


def test_readme_cli_block_parses():
    # a documented flag that the parser drops or renames fails here; nothing runs
    lines = readme_cli_lines()
    assert any(line.startswith("poabcast bench table1") for line in lines)
    assert any(line.startswith("poabcast bench throughput") for line in lines)
    for line in lines:
        args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
        assert args.fn is not None, line


SWEEP_ERROR = "error: --sweep entries must be integers >= 1, got "


@pytest.mark.parametrize(
    "argv, error",
    [
        (["throughput", "--sweep", "a,b"], SWEEP_ERROR + "'a'"),
        (["throughput", "--sweep", "0"], SWEEP_ERROR + "'0'"),
        (["throughput", "--sweep", "1,,2"], SWEEP_ERROR + "''"),
        (["throughput", "--sweep", ""], SWEEP_ERROR + "''"),
        (["throughput", "--sweep", "2,-1"], SWEEP_ERROR + "'-1'"),
        # digits that str.isdigit() accepts but are not ASCII 0-9
        (["throughput", "--sweep", "\u00b2"], SWEEP_ERROR + "'\u00b2'"),
        (["throughput", "--sweep", "\u0663"], SWEEP_ERROR + "'\u0663'"),
        (["table1", "--delta", "0"], "error: delta must be >= 1, got 0"),
        (["table1", "--clients", "0"], "error: clients must be >= 1, got 0"),
        (["throughput", "--size", "-100000", "--sweep", "1"],
         "error: request_size must be >= 0, got -100000"),
        # a batch of it costs more ticks than a float holds
        (["throughput", "--size", "9" * 321, "--sweep", "1"],
         f"error: request_size {'9' * 321} has no finite batch cost in ticks"),
    ],
    ids=[
        "non-integer-sweep",
        "zero-sweep",
        "empty-sweep-entry",
        "empty-sweep",
        "negative-sweep",
        "superscript-digit-sweep",
        "arabic-indic-digit-sweep",
        "zero-delta-table1",
        "zero-clients",
        "negative-size",
        "huge-size",
    ],
)
def test_bench_rejects_out_of_range_arguments_as_a_usage_error(capsys, argv, error):
    assert main(["bench", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == error + "\n"
