"""Scenario files: parsing, validation, reproducible randomization."""

import pytest

from poabcast.scenario import Scenario, ScenarioError, random_scenario
from poabcast.sim import DelayModel

GOOD = """
name: demo
protocol: tau-paxos
n: 3
horizon: 500
delta: 10
omega:
  - {at: 0, leader: 0}
  - {at: 100, outputs: {0: 0, 1: 1, 2: 1}}
  - {at: 200, leader: 1}
crashes: {0: 150}
clients:
  - {id: 3, kind: loop, ops: [a, b], retry_every: 40}
  - id: 4
    kind: scripted
    sends:
      - {at: 50, to: 0, reqid: 1, op: x}
"""


def test_yaml_round_trip_fields():
    s = Scenario.from_yaml(GOOD)
    assert s.protocol == "tau-paxos"
    assert s.n == 3 and s.horizon == 500
    assert s.delay == DelayModel.fixed(10)
    assert s.omega.segments[1] == (100, {0: 0, 1: 1, 2: 1})
    assert s.crashes == {0: 150}
    assert s.clients[0].kind == "loop" and s.clients[0].ops == ["a", "b"]
    assert s.clients[1].sends == [(50, 0, 1, "x")]


def test_jitter_block_builds_a_jitter_delay_model():
    s = Scenario.from_yaml(
        "name: j\nprotocol: naive\nn: 3\nhorizon: 100\n"
        "jitter: {min: 5, max: 12, seed: 9}\nomega: [{at: 0, leader: 0}]\n"
    )
    assert (s.delay.min_delay, s.delay.max_delay, s.delay.seed) == (5, 12, 9)


def test_a_fixed_delay_loads_as_a_zero_width_jitter():
    base = "name: j\nprotocol: naive\nn: 3\nhorizon: 100\nomega: [{at: 0, leader: 0}]\n"
    fixed = Scenario.from_yaml(base + "delta: 10\n")
    assert Scenario.from_yaml(base + "jitter: {min: 10, max: 10}\n") == fixed
    assert fixed.delay == DelayModel(10, 10, 0)


def test_missing_required_key_is_a_scenario_error():
    with pytest.raises(ScenarioError):
        Scenario.from_yaml("name: x\nprotocol: naive\nn: 3\n")


def test_non_mapping_file_is_a_scenario_error():
    with pytest.raises(ScenarioError):
        Scenario.from_yaml("- just\n- a list\n")


@pytest.mark.parametrize(
    "patch",
    [
        "protocol: unknown-proto",
        "n: 4",  # even
        "n: 1",  # too small
        "crashes: {0: 10, 1: 20}",  # majority crashed for n=3
        "crashes: {7: 10}",  # unknown process
        "crashes: {1: -5}",  # negative crash tick
        "clients: [{id: 3, kind: scripted, sends: [{at: -5, to: 0, reqid: 1, op: x}]}]",
        "clients: [{id: 3, kind: scripted, sends: [{at: 5, to: 7, reqid: 1, op: x}]}]",
        "clients: [{id: 3, kind: loop, ops: [a], retry_every: -5}]",
        # byte-model keys, which a scenario no longer reads
        "clients: [{id: 3, kind: scripted, sends: [{at: 5, to: 0, reqid: 1, op: x, size: -1}]}]",
        "clients: [{id: 3, kind: loop, ops: [a], size: -1}]",
        "per_byte: -1.0",
        # integer fields take no float or bool, which int() would truncate
        "n: 3.7",
        "horizon: 400.9",
        "delta: 10.5",
        "delta: true",
        "jitter: {min: 5, max: 12.5}",
        "omega: [{at: 0.5, leader: 0}]",
        "crashes: {1: 150.9}",
        "clients: [{id: 3, kind: loop, ops: [a], retry_every: 40.2}]",
        "clients: [{id: 3, kind: scripted, sends: [{at: 5, to: 0, reqid: 1, op: x, size: 1.5}]}]",
        "per_byte: true",
    ],
)
def test_validation_rejects_bad_scenarios(patch):
    base = "name: x\nprotocol: naive\nn: 3\nhorizon: 100\nomega: [{at: 0, leader: 2}]\n"
    doc = base + patch + "\n"
    with pytest.raises(ScenarioError):
        Scenario.from_yaml(doc)


@pytest.mark.parametrize(
    "patch, message",
    [
        # a scenario carries no byte model: the link cost is the throughput bench's
        ("per_byte: 0.5", "scenario key 'per_byte' is not read here"),
        ("clients: [{id: 3, kind: loop, ops: [a], size: 8}]",
         "loop client key 'size' is not read here"),
        ("clients: [{id: 3, kind: scripted, sends: [{at: 5, to: 0, reqid: 1, op: x, size: 8}]}]",
         "send key 'size' is not read here"),
        # a jitter block is read whatever its value, so an empty one is named as such
        ("jitter: {}", "scenario is missing required key: 'min'"),
        ("jitter: null", "jitter must be a mapping, got None"),
        ("jitter: []", "jitter must be a mapping, got []"),
    ],
    ids=["per-byte", "loop-size", "send-size", "empty-jitter", "null-jitter", "list-jitter"],
)
def test_a_scenario_error_says_what_is_wrong_with_the_key(patch, message):
    base = "name: x\nprotocol: naive\nn: 3\nhorizon: 100\nomega: [{at: 0, leader: 0}]\n"
    with pytest.raises(ScenarioError) as e:
        Scenario.from_yaml(base + patch + "\n")
    assert str(e.value) == message


@pytest.mark.parametrize("key", ["reorder", "expect_violation"])
def test_yes_no_keys_take_only_booleans(key):
    base = "name: x\nprotocol: naive\nn: 3\nhorizon: 100\nomega: [{at: 0, leader: 0}]\n"
    assert getattr(Scenario.from_yaml(base), key) is False
    assert getattr(Scenario.from_yaml(base + f"{key}: true\n"), key) is True
    assert getattr(Scenario.from_yaml(base + f"{key}: false\n"), key) is False
    for value in ('"false"', "0", "1", "[]"):
        with pytest.raises(ScenarioError, match=f"{key} must be true or false"):
            Scenario.from_yaml(base + f"{key}: {value}\n")


def test_duplicate_or_low_client_ids_rejected():
    base = "name: x\nprotocol: naive\nn: 3\nhorizon: 100\nomega: [{at: 0, leader: 0}]\n"
    with pytest.raises(ScenarioError):
        Scenario.from_yaml(base + "clients: [{id: 2, ops: [a]}]\n")
    with pytest.raises(ScenarioError):
        Scenario.from_yaml(base + "clients: [{id: 3, ops: [a]}, {id: 3, ops: [b]}]\n")


def test_final_omega_segment_must_agree_and_be_correct():
    base = "name: x\nprotocol: naive\nn: 3\nhorizon: 100\n"
    with pytest.raises(ScenarioError):
        Scenario.from_yaml(base + "omega: [{at: 0, outputs: {0: 0, 1: 1, 2: 1}}]\n")
    with pytest.raises(ScenarioError):
        Scenario.from_yaml(base + "omega: [{at: 0, leader: 0}]\ncrashes: {0: 10}\n")


def test_random_scenario_is_reproducible():
    a = random_scenario(42, "barrier-free")
    b = random_scenario(42, "barrier-free")
    assert a == b
    c = random_scenario(43, "barrier-free")
    assert a != c


def test_random_scenarios_are_valid_and_diverse():
    ns, reorders, crashes = set(), set(), 0
    for seed in range(40):
        s = random_scenario(seed, "tau-seq")
        s.validate()
        ns.add(s.n)
        reorders.add(s.reorder)
        crashes += len(s.crashes)
    assert ns == {3, 5}
    assert reorders == {True, False}
    assert crashes > 0
