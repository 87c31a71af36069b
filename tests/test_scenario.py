"""Scenario files: parsing, validation, reproducible randomization."""

import pytest

from poabcast.scenario import ClientSpec, Scenario, ScenarioError, random_scenario
from poabcast.sim import DelayModel, OmegaScript

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
        # DelayModel judges a delay's values, and the error names the file's key
        ("delta: 10.5", "delta must be an integer, got 10.5"),
        ("delta: 0", "delta must be at least 1, got 0"),
        ("jitter: {min: true, max: 12}", "jitter min must be an integer, got True"),
        ("jitter: {min: 0, max: 12}", "jitter min must be at least 1, got 0"),
        ("jitter: {min: 5, max: 12.5}", "jitter max must be an integer, got 12.5"),
        ("jitter: {min: 5, max: 4}", "jitter max must be at least jitter min (5), got 4"),
        ("jitter: {min: 5, max: 12, seed: 1.5}", "jitter seed must be an integer, got 1.5"),
    ],
    ids=["per-byte", "loop-size", "send-size", "empty-jitter", "null-jitter", "list-jitter",
         "float-delta", "zero-delta", "bool-jitter-min", "zero-jitter-min", "float-jitter-max",
         "jitter-max-below-min", "float-jitter-seed"],
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


@pytest.mark.parametrize(
    "client",
    [ClientSpec(cid=3, kind="loop", ops=[1, 2]),
     ClientSpec(cid=3, kind="scripted", sends=[(5, 0, 1, 1.5)])],
    ids=["loop-op", "send-op"],
)
def test_a_client_op_that_is_not_text_is_rejected(client):
    # an op is written into the trace as text, so a run never starts with another
    scenario = Scenario(name="x", protocol="naive", n=3, horizon=100,
                        delay=DelayModel.fixed(10), omega=OmegaScript.single(3, 0),
                        clients=[client])
    with pytest.raises(ScenarioError, match="client 3: each op must be text"):
        scenario.validate()


@pytest.mark.parametrize(
    "patch, fields, error",
    [
        ("clients: [{id: 3, ops: [[a, b]]}]",
         dict(clients=[ClientSpec(cid=3, kind="loop", ops=[["a", "b"]])]),
         "client 3: each op must be text"),
        ("clients: [{id: 3, ops: [null]}]",
         dict(clients=[ClientSpec(cid=3, kind="loop", ops=[None])]),
         "client 3: each op must be text"),
        ("clients: [{id: 3, ops: [7]}]",
         dict(clients=[ClientSpec(cid=3, kind="loop", ops=[7])]),
         "client 3: each op must be text"),
        ("clients: [{id: 3, kind: scripted, sends: [{at: 5, to: 0, reqid: 1, op: {x: 1}}]}]",
         dict(clients=[ClientSpec(cid=3, kind="scripted", sends=[(5, 0, 1, {"x": 1})])]),
         "client 3: each op must be text"),
        ('reorder: "no"', dict(reorder="no"), "reorder must be true or false, got 'no'"),
        ('expect_violation: "no"', dict(expect_violation="no"),
         "expect_violation must be true or false, got 'no'"),
    ],
    ids=["list-op", "null-op", "number-op", "mapping-send-op", "reorder-text",
         "expect-violation-text"],
)
def test_a_file_and_a_hand_built_scenario_are_judged_alike(patch, fields, error):
    # a value is judged by Scenario.validate alone, whichever path built it
    base = "name: x\nprotocol: naive\nn: 3\nhorizon: 100\nomega: [{at: 0, leader: 0}]\n"
    by_hand = dict(name="x", protocol="naive", n=3, horizon=100, delay=DelayModel.fixed(10),
                   omega=OmegaScript.single(3, 0))
    assert Scenario.from_yaml(base) == Scenario(**by_hand)
    with pytest.raises(ScenarioError) as from_file:
        Scenario.from_yaml(base + patch + "\n")
    with pytest.raises(ScenarioError) as built:
        Scenario(**by_hand, **fields).validate()
    assert str(from_file.value) == str(built.value) == error


def integer_fields_scenario(**fields) -> Scenario:
    """A scenario with every tick and id field set, one of them to
    ``fields``' value: ``n``, ``horizon``, ``crash``'s (process, tick), the
    second omega segment's (at, {process: leader}), a loop client's
    (cid, retry_every, start_at) and a scripted send's (at, to, reqid)."""
    f = dict(n=3, horizon=100, crash=(2, 50), omega=(20, {0: 1}), loop=(3, 10, 5),
             send=(5, 0, 1))
    f.update(fields)
    (cid, retry_every, start_at), (at, to, reqid) = f["loop"], f["send"]
    return Scenario(
        name="x", protocol="tau-seq", n=f["n"], horizon=f["horizon"],
        delay=DelayModel.fixed(10),
        omega=OmegaScript([(0, {0: 0, 1: 0, 2: 0}), (f["omega"][0], {p: 1 for p in range(3)}),
                           (40, f["omega"][1])]),
        crashes=dict([f["crash"]]),
        clients=[ClientSpec(cid=cid, kind="loop", ops=["a"], retry_every=retry_every,
                            start_at=start_at),
                 ClientSpec(cid=4, kind="scripted", sends=[(at, to, reqid, "b")])],
    )


@pytest.mark.parametrize(
    "fields, error",
    [
        (dict(n=3.0), "n must be"),
        (dict(horizon=100.5), "horizon must be"),
        (dict(crash=(2.0, 50)), "crash process must be"),
        (dict(crash=(2, 50.5)), "crash tick of process 2 must be"),
        (dict(omega=(20.5, {0: 1})), "omega at must be"),
        (dict(omega=(20, {0.0: 1})), "omega process must be"),
        (dict(omega=(20, {0: True})), "omega leader must be"),
        (dict(loop=(3.5, 10, 5)), "client id must be"),
        (dict(loop=(3, 2.5, 5)), "client 3: retry_every must be"),
        (dict(loop=(3, 10, 2.5)), "client 3: start_at must be"),
        (dict(send=(2.5, 0, 1)), "client 4: send at must be"),
        (dict(send=(5, False, 1)), "client 4: send to must be"),
        (dict(send=(5, 0, 1.5)), "client 4: reqid must be"),
    ],
    ids=["n", "horizon", "crash-process", "crash-tick", "omega-at", "omega-process",
         "omega-leader", "cid", "retry-every", "start-at", "send-at", "send-to", "reqid"],
)
def test_a_tick_or_id_that_is_not_an_integer_is_rejected(fields, error):
    # the trace writes each of these as an integer, and a float tick would
    # run between ticks: refuse them before a run, naming the field
    integer_fields_scenario().validate()
    with pytest.raises(ScenarioError, match=f"^{error} an integer, got"):
        integer_fields_scenario(**fields).validate()


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
