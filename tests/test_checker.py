"""Checker soundness: every property catches its hand-built counterexample."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poabcast import checker
from poabcast.checker import (
    HistoryOp,
    check_abcast,
    check_all,
    check_barrier,
    check_barrier_free,
    check_linearizable,
    check_liveness,
    check_poabcast,
    check_replication,
    check_sequentiality,
    check_single_ballot_epochs,
    TraceIndex,
    derive_primary_mapping,
    extract_history,
    _chain,
)
from poabcast.replication import INITIAL_STATE
from poabcast.trace import Trace, TraceEvent

from oracle import exhaustive_linearizable


def make_trace(rows):
    """rows: (time, actor, kind, data) with auto-assigned global indices."""
    trace = Trace()
    for i, (t, actor, kind, data) in enumerate(rows):
        trace.append(TraceEvent(t, i, actor, kind, data))
    return trace


def make_index(rows):
    """The index of ``make_trace(rows)``, which the property checks read."""
    return TraceIndex(make_trace(rows))


# -- atomic broadcast ---------------------------------------------------------


def test_empty_trace_passes_abcast():
    verdicts = check_abcast(make_index([]))
    assert verdicts == {"integrity": None, "total-order": None, "agreement": None}


def test_integrity_catches_delivery_of_unbroadcast_value():
    idx = make_index([(1, 0, "deliver", {"value": "ghost", "instance": 1})])
    assert check_abcast(idx)["integrity"] is not None


def test_integrity_catches_duplicate_delivery():
    idx = make_index(
        [
            (0, 0, "broadcast", {"value": "v", "instance": 1}),
            (1, 0, "deliver", {"value": "v", "instance": 1}),
            (2, 0, "deliver", {"value": "v", "instance": 1}),
        ]
    )
    assert "delivered v twice" in check_abcast(idx)["integrity"]


def test_total_order_catches_swapped_deliveries():
    idx = make_index(
        [
            (0, 0, "broadcast", {"value": "v1", "instance": 1}),
            (0, 0, "broadcast", {"value": "v2", "instance": 2}),
            (1, 0, "deliver", {"value": "v1", "instance": 1}),
            (2, 0, "deliver", {"value": "v2", "instance": 2}),
            (1, 1, "deliver", {"value": "v2", "instance": 2}),
            (2, 1, "deliver", {"value": "v1", "instance": 1}),
        ]
    )
    verdicts = check_abcast(idx)
    assert verdicts["total-order"] is not None
    assert verdicts["agreement"] is None


def test_agreement_catches_a_gap_in_an_order_consistent_prefix():
    idx = make_index(
        [
            (0, 0, "broadcast", {"value": "v1", "instance": 1}),
            (0, 0, "broadcast", {"value": "v2", "instance": 2}),
            (1, 0, "deliver", {"value": "v1", "instance": 1}),
            (2, 0, "deliver", {"value": "v2", "instance": 2}),
            (1, 1, "deliver", {"value": "v2", "instance": 2}),  # missed v1
        ]
    )
    verdicts = check_abcast(idx)
    assert verdicts["agreement"] is not None
    assert verdicts["total-order"] is None


def test_a_chain_break_names_the_first_process_to_leave_the_longest_sequence():
    # process 0's sequence is the longest; processes 1 and 2 both leave it,
    # and process 1 is named because it delivered first
    rows = [(0, 0, "broadcast", {"value": v, "instance": 1}) for v in ("v1", "v2", "v3")]
    rows += [(1, 0, "deliver", {"value": "v1", "instance": 1})]
    rows += [(2, 1, "deliver", {"value": v, "instance": 1}) for v in ("v1", "v3")]
    rows += [(3, 2, "deliver", {"value": "v2", "instance": 1})]
    rows += [(4, 0, "deliver", {"value": v, "instance": 1}) for v in ("v2", "v3")]
    verdicts = check_abcast(make_index(rows))
    assert verdicts["agreement"] == "process 1 delivery #1 is v3, global order has v2"


def test_digest_convergence_names_the_first_replica_off_the_longest_chain():
    # processes 0 and 1 tie for longest: the first, process 0, is the chain
    def applied(p, reqid, state):
        return (reqid, p, "applied", {"client": 9, "reqid": reqid, "record": "r", "state": state})

    rows = [applied(0, 1, "s1"), applied(0, 2, "s2"), applied(1, 1, "s1"), applied(1, 2, "x")]
    rows += [applied(2, 1, "y")]
    assert check_replication(make_index(rows))["digest-convergence"] == (
        "process 1 state chain diverges from the common chain"
    )


# -- primary mapping -----------------------------------------------------------


def primary_epoch_rows(actor, t0, values, instances):
    rows = [(t0, actor, "primary-begin", {})]
    for v, i in zip(values, instances):
        rows.append((t0 + 1, actor, "broadcast", {"value": v, "instance": i}))
        rows.append((t0 + 2, actor, "decide", {"value": v, "instance": i}))
        rows.append((t0 + 2, actor, "deliver", {"value": v, "instance": i}))
    rows.append((t0 + 3, actor, "primary-end", {}))
    return rows


def ordered_epochs(idx, protocol):
    """The identified epochs of a trace's index whose epochs all map."""
    ordered, fault = derive_primary_mapping(idx, protocol)
    assert fault is None
    return ordered


def test_epochs_without_deliveries_get_no_identifier():
    rows = [
        (0, 0, "primary-begin", {}),
        (1, 0, "broadcast", {"value": "lost", "instance": 1}),
        (2, 0, "primary-end", {}),
    ]
    assert ordered_epochs(make_index(rows), "tau-seq") == []


def test_identifier_is_the_first_delivered_instance_for_tau_seq():
    rows = primary_epoch_rows(0, 0, ["v1", "v2"], [5, 6])
    assert [e.ident for e in ordered_epochs(make_index(rows), "tau-seq")] == [5]


def test_identified_epochs_come_in_identifier_order_not_trace_order():
    # tau-paxos identifies an epoch by its crossing ballot: here the later
    # epoch crossed with the lower ballot
    rows = [(0, 0, "barrier-crossed", {"tau": 0, "dec": 0, "ballot": 9})]
    rows += primary_epoch_rows(0, 0, ["v1"], [1])
    rows += [(9, 1, "barrier-crossed", {"tau": 1, "dec": 1, "ballot": 4})]
    rows += primary_epoch_rows(1, 10, ["v2"], [2])
    ordered = ordered_epochs(make_index(rows), "tau-paxos")
    assert [(e.ident, e.process) for e in ordered] == [(4, 1), (9, 0)]


# each way a trace's epochs fail to map: (protocol, rows, the verdict)
MAPPING_FAULTS = {
    "nested-epochs": (
        "tau-seq",
        [(0, 0, "primary-begin", {}), (1, 0, "primary-begin", {})],
        "nested primary-begin at process 0",
    ),
    "end-without-begin": (
        "tau-seq",
        [(0, 0, "primary-end", {})],
        "primary-end without begin at process 0",
    ),
    "no-crossing": (
        "tau-paxos",
        primary_epoch_rows(0, 0, ["v"], [1]),
        "epoch at process 0 has no barrier crossing",
    ),
    "never-established": (
        "barrier-free",
        [
            (0, 0, "primary-begin", {}),
            (1, 0, "broadcast", {"value": "v", "instance": 1}),
            (2, 0, "deliver", {"value": "v", "instance": 1, "epoch": 1, "seqno": 1}),
        ],
        "epoch at process 0 was never established",
    ),
    # both epochs' first delivered values sit at instance 5, which each
    # process proposes once it has decided 1-4
    "ambiguous-mapping": (
        "tau-seq",
        [(0, p, "decide", {"value": f"d{i}", "instance": i}) for p in (0, 1) for i in range(1, 5)]
        + primary_epoch_rows(0, 0, ["v1"], [5]) + [
            (10, 1, "primary-begin", {}),
            (11, 1, "broadcast", {"value": "v2", "instance": 5}),
            (12, 1, "deliver", {"value": "v2", "instance": 5}),
            (13, 1, "primary-end", {}),
        ],
        "identifier 5 claimed by epochs at processes 0 and 1",
    ),
}


def mapping_fault_trace(name):
    protocol, rows, _ = MAPPING_FAULTS[name]
    trace = make_trace(rows)
    trace.summary = {"protocol": protocol, "horizon": 100, "base_delay": 10,
                     "expect_violation": False}
    return trace


def test_colliding_identifiers_leave_the_first_claimant_mapped():
    idx = TraceIndex(mapping_fault_trace("ambiguous-mapping"))
    ordered, fault = derive_primary_mapping(idx, "tau-seq")
    assert [(e.ident, e.process) for e in ordered] == [(5, 0)]
    assert fault == MAPPING_FAULTS["ambiguous-mapping"][2]


def test_forged_epoch_without_establishment_is_left_unmapped():
    idx = TraceIndex(mapping_fault_trace("never-established"))
    ordered, fault = derive_primary_mapping(idx, "barrier-free")
    assert ordered == []
    assert fault == MAPPING_FAULTS["never-established"][2]


def test_nested_primary_begin_is_rejected():
    rows = [(0, 0, "primary-begin", {}), (1, 0, "primary-begin", {}), (2, 0, "primary-end", {})]
    epochs, fault = make_index(rows).epochs
    assert [e.end_index for e in epochs] == [2]  # the open epoch goes on
    assert fault == "nested primary-begin at process 0"


@pytest.mark.parametrize("name", list(MAPPING_FAULTS))
def test_check_all_files_a_mapping_fault_as_a_verdict(name):
    report = check_all(mapping_fault_trace(name))
    assert report.violations["primary-mapping"] == MAPPING_FAULTS[name][2]
    assert not report.ok


def test_the_ordered_checks_run_over_the_epochs_that_did_map():
    # process 1 delivers v2 where process 0 delivered v1, which breaks
    # agreement; with the colliding epoch left out, the ordering properties
    # see v1's epoch alone, and hold
    report = check_all(mapping_fault_trace("ambiguous-mapping"))
    assert sorted(report.violations) == ["agreement", "primary-mapping"]
    for prop in ("local-primary-order", "global-primary-order", "primary-integrity", "barrier"):
        assert report.verdicts[prop] is None


# -- primary order properties -----------------------------------------------------


def test_primary_integrity_catches_broadcast_before_delivery():
    # epoch B broadcasts v2 before it has delivered epoch A's v1; the global
    # delivery order itself stays consistent, so only primary integrity trips
    rows = primary_epoch_rows(0, 0, ["v1"], [1])
    rows += [
        (10, 1, "primary-begin", {}),
        (11, 1, "broadcast", {"value": "v2", "instance": 2}),
        (12, 1, "deliver", {"value": "v1", "instance": 1}),  # too late
        (13, 1, "decide", {"value": "v2", "instance": 2}),
        (13, 1, "deliver", {"value": "v2", "instance": 2}),
        (14, 1, "primary-end", {}),
        (15, 0, "deliver", {"value": "v2", "instance": 2}),
    ]
    idx = make_index(rows)
    mapping = ordered_epochs(idx, "tau-seq")
    assert check_poabcast(idx, mapping)["primary-integrity"] is not None


def test_a_broadcast_after_its_first_delivery_is_a_global_order_violation():
    # integrity asks only that a delivered value was broadcast at some time:
    # moving a primary's broadcast of the first delivered value into its later
    # epoch keeps every other ordering property and breaks global primary order
    from poabcast.runner import run
    from poabcast.scenario import random_scenario

    trace = run(random_scenario(37, "tau-paxos"))
    first = TraceIndex(trace).order[0]
    moved = next(e for e in trace.by_kind("broadcast") if e.actor == 1 and e.data["value"] == first)
    later_begin = [e for e in trace.by_kind("primary-begin") if e.actor == 1][-1]
    events = [e for e in trace if e is not moved]
    events.insert(events.index(later_begin) + 1, moved)
    rows = [(e.time, e.actor, e.kind, e.data) for e in events]
    perturbed = make_trace(rows)
    perturbed.summary.update(trace.summary)

    report = check_all(perturbed)
    assert not report.ok
    assert set(report.violations) == {"global-primary-order"}
    assert f"{first} was delivered before it was broadcast" in report.violations[
        "global-primary-order"
    ]


def test_local_primary_order_catches_skipped_middle_value():
    rows = [
        (0, 0, "primary-begin", {}),
        (1, 0, "broadcast", {"value": "v1", "instance": 1}),
        (1, 0, "broadcast", {"value": "v2", "instance": 2}),
        (1, 0, "broadcast", {"value": "v3", "instance": 3}),
        (2, 0, "deliver", {"value": "v1", "instance": 1}),
        (3, 0, "deliver", {"value": "v3", "instance": 3}),  # v2 skipped
        (4, 0, "primary-end", {}),
    ]
    idx = make_index(rows)
    mapping = ordered_epochs(idx, "tau-seq")
    assert check_poabcast(idx, mapping)["local-primary-order"] is not None


def test_barrier_catches_crossing_below_earlier_decisions():
    rows = primary_epoch_rows(0, 0, ["v1"], [5])
    rows += [
        (10, 1, "barrier-crossed", {"tau": 2, "dec": 2, "ballot": 4}),
        (10, 1, "primary-begin", {}),
        (11, 1, "broadcast", {"value": "v2", "instance": 6}),
        (12, 1, "decide", {"value": "v2", "instance": 6}),
        (12, 1, "deliver", {"value": "v2", "instance": 6}),
    ]
    idx = make_index(rows)
    mapping = ordered_epochs(idx, "tau-seq")
    msg = check_barrier(idx, mapping)
    assert msg is not None and "dec=2" in msg


def test_barrier_passes_when_crossing_covers_earlier_decisions():
    rows = primary_epoch_rows(0, 0, ["v1"], [5])
    rows += [
        (10, 1, "barrier-crossed", {"tau": 5, "dec": 5, "ballot": 4}),
        (10, 1, "primary-begin", {}),
        (11, 1, "broadcast", {"value": "v2", "instance": 6}),
        (12, 1, "decide", {"value": "v2", "instance": 6}),
        (12, 1, "deliver", {"value": "v2", "instance": 6}),
    ]
    idx = make_index(rows)
    mapping = ordered_epochs(idx, "tau-seq")
    assert check_barrier(idx, mapping) is None


def three_tau_seq_epochs(b_instance, a_late_instance, c_dec):
    """Epochs 1 (process 0), b_instance (process 1) and 5 (process 2); epoch
    1's second value a2 is decided at a_late_instance, after its deposition.
    Only epoch 5 records a barrier crossing."""
    rows = primary_epoch_rows(0, 0, ["a1"], [1])
    rows += [
        (1, 0, "broadcast", {"value": "a2", "instance": a_late_instance}),
        (30, 0, "decide", {"value": "a2", "instance": a_late_instance}),
    ]
    rows += primary_epoch_rows(1, 10, ["b1"], [b_instance])
    rows += [(19, 2, "barrier-crossed", {"tau": c_dec, "dec": c_dec, "ballot": 7})]
    rows += primary_epoch_rows(2, 20, ["c1"], [5])
    idx = make_index(sorted(rows, key=lambda r: r[0]))
    return idx, ordered_epochs(idx, "tau-seq")


def test_barrier_names_an_offending_epoch_two_epochs_back():
    # epoch 2 is covered by dec=3; epoch 1's late value at instance 4 is not
    idx, mapping = three_tau_seq_epochs(b_instance=2, a_late_instance=4, c_dec=3)
    assert [e.ident for e in mapping] == [1, 2, 5]
    assert check_barrier(idx, mapping) == (
        "epoch 5 crossed with dec=3 but earlier epoch 1's value a2 was decided "
        "at instance 4"
    )


def test_barrier_names_the_earliest_offender_not_the_largest_instance():
    # both earlier epochs exceed dec=1; the middle one (3) holds the larger instance
    idx, mapping = three_tau_seq_epochs(b_instance=3, a_late_instance=2, c_dec=1)
    assert check_barrier(idx, mapping) == (
        "epoch 5 crossed with dec=1 but earlier epoch 1's value a2 was decided "
        "at instance 2"
    )


def test_barrier_passes_three_epochs_covered_by_every_crossing():
    idx, mapping = three_tau_seq_epochs(b_instance=2, a_late_instance=4, c_dec=4)
    assert check_barrier(idx, mapping) is None


def three_primaries(third_epoch_rows):
    """Epochs 1, 2 and 3 at processes 0, 1 and 2; process 1 delivers epoch
    1's a1 before broadcasting, process 2 delivers epoch 2's b1 at t=15."""
    rows = primary_epoch_rows(0, 0, ["a1"], [1])
    rows += [(5, 1, "deliver", {"value": "a1", "instance": 1})]
    rows += primary_epoch_rows(1, 10, ["b1"], [2])
    rows += [(15, 2, "deliver", {"value": "b1", "instance": 2})]
    rows += third_epoch_rows
    idx = make_index(sorted(rows, key=lambda r: r[0]))
    return check_poabcast(idx, ordered_epochs(idx, "tau-seq"))


def test_primary_integrity_names_a_missed_value_two_epochs_back():
    verdicts = three_primaries(
        [
            (20, 2, "primary-begin", {}),
            (21, 2, "broadcast", {"value": "c1", "instance": 3}),
            (22, 2, "deliver", {"value": "a1", "instance": 1}),  # too late
            (22, 2, "broadcast", {"value": "c2", "instance": 4}),
            (23, 2, "decide", {"value": "c1", "instance": 3}),
            (23, 2, "deliver", {"value": "c1", "instance": 3}),
            (23, 2, "decide", {"value": "c2", "instance": 4}),
            (23, 2, "deliver", {"value": "c2", "instance": 4}),
            (24, 2, "primary-end", {}),
        ]
    )
    assert verdicts["primary-integrity"] == (
        "epoch 3 (process 2) broadcast c1 before delivering a1 from earlier epoch 1"
    )


def test_primary_integrity_ignores_an_undelivered_first_broadcast():
    verdicts = three_primaries(
        [
            (20, 2, "primary-begin", {}),
            (21, 2, "broadcast", {"value": "c0", "instance": 3}),  # never delivered
            (22, 2, "deliver", {"value": "a1", "instance": 1}),
            (22, 2, "broadcast", {"value": "c1", "instance": 4}),
            (23, 2, "decide", {"value": "c1", "instance": 4}),
            (23, 2, "deliver", {"value": "c1", "instance": 4}),
            (24, 2, "primary-end", {}),
        ]
    )
    assert verdicts["primary-integrity"] is None


# -- protocol-specific ------------------------------------------------------------


def test_sequentiality_catches_two_outstanding_proposals():
    rows = [
        (0, 0, "broadcast", {"value": "v1", "instance": 1}),
        (1, 0, "broadcast", {"value": "v2", "instance": 2}),
    ]
    assert check_sequentiality(make_index(rows)) is not None
    rows_ok = [
        (0, 0, "broadcast", {"value": "v1", "instance": 1}),
        (1, 0, "decide", {"value": "v1", "instance": 1}),
        (2, 0, "broadcast", {"value": "v2", "instance": 2}),
        (3, 0, "decide", {"value": "v3", "instance": 3}),  # learned past the gap at 2
        (4, 0, "decide", {"value": "v2", "instance": 2}),
        (5, 0, "skip-proposed", {"lo": 4, "target": 4}),
    ]
    assert check_sequentiality(make_index(rows_ok)) is None


@pytest.mark.parametrize(
    "kind, data",
    [("broadcast", {"value": "v2", "instance": 1}), ("broadcast", {"value": "v3", "instance": 3}),
     ("skip-proposed", {"lo": 2, "target": 3})],
    ids=["broadcast-at-a-decided-instance", "broadcast-past-a-gap", "skip-past-a-gap"],
)
def test_sequentiality_catches_a_proposal_off_the_lowest_undecided_instance(kind, data):
    rows = [(0, 0, "decide", {"value": "v1", "instance": 1}), (1, 0, kind, data)]
    at = data.get("instance", data.get("target"))
    assert check_sequentiality(make_index(rows)) == (
        f"process 0 proposed at instance {at} at t=1; its lowest undecided instance is 2"
    )


def test_single_ballot_epochs_catches_a_read_phase_inside_an_epoch():
    rows = [
        (0, 0, "paxos-read", {"ballot": 3, "lo": 1}),
        (1, 0, "primary-begin", {}),
        (2, 1, "paxos-read", {"ballot": 4, "lo": 1}),  # another process: fine
        (3, 0, "paxos-read", {"ballot": 6, "lo": 1}),
    ]
    assert "ballot 6" in check_single_ballot_epochs(make_index(rows))
    rows_ok = rows[:3] + [(3, 0, "primary-end", {}), (3, 0, "paxos-read", {"ballot": 6, "lo": 1})]
    assert check_single_ballot_epochs(make_index(rows_ok)) is None


def test_barrier_free_checker_catches_seqno_gap():
    rows = [
        (0, 0, "epoch-established", {"epoch": 3, "instance": 1}),
        (1, 0, "deliver", {"value": "v", "instance": 2, "epoch": 3, "seqno": 3}),
    ]
    assert "expected 2" in check_barrier_free(make_index(rows))


def test_barrier_free_checker_catches_epoch_at_two_instances():
    rows = [
        (0, 0, "epoch-established", {"epoch": 3, "instance": 1}),
        (1, 1, "epoch-established", {"epoch": 3, "instance": 4}),
    ]
    assert check_barrier_free(make_index(rows)) is not None


def test_barrier_free_checker_catches_shared_election_instance():
    rows = [
        (0, 0, "epoch-established", {"epoch": 3, "instance": 1}),
        (1, 1, "epoch-established", {"epoch": 4, "instance": 1}),
    ]
    assert "share election instance" in check_barrier_free(make_index(rows))


# -- linearizability ------------------------------------------------------------------


def op(client, reqid, name, invoked, responded, state_before):
    record = f"r({client}:{reqid}:{name})"
    post = _chain(state_before, record)
    return (
        HistoryOp(client, reqid, name, invoked, responded, record, post),
        post,
    )


def test_sequential_history_linearizes():
    o1, s1 = op(3, 1, "a", 0, 1, INITIAL_STATE)
    o2, s2 = op(4, 1, "b", 2, 3, s1)
    assert check_linearizable([o1, o2]) is True


def test_concurrent_history_linearizes_in_either_order():
    o1, s1 = op(3, 1, "a", 0, 5, INITIAL_STATE)
    # overlapping op whose results reflect executing AFTER o1
    o2, _ = op(4, 1, "b", 1, 6, s1)
    assert check_linearizable([o1, o2]) is True


def test_result_from_impossible_order_fails():
    o1, s1 = op(3, 1, "a", 0, 1, INITIAL_STATE)
    # o2 strictly follows o1 in real time but its post-state ignores o1
    o2, _ = op(4, 1, "b", 2, 3, INITIAL_STATE)
    assert check_linearizable([o1, o2]) is False


def test_pending_operation_may_or_may_not_take_effect():
    pending = HistoryOp(3, 1, "a", 0, None, None, None)
    o2, _ = op(4, 1, "b", 1, 2, INITIAL_STATE)  # result as if the pending op never ran
    assert check_linearizable([pending, o2]) is True
    o3, _ = op(4, 2, "c", 3, 4, _chain(o2.post, pending.expected_record()))
    assert check_linearizable([pending, o2, o3]) is True  # pending ran after o2


def test_history_past_the_old_exhaustive_reach_linearizes():
    ops = []
    state = INITIAL_STATE
    for k in range(12):
        o, state = op(3 + k % 2, k + 1, f"op{k}", 2 * k, 2 * k + 1, state)
        ops.append(o)
    assert check_linearizable(ops) is True


def concurrent_history(clients, ops, seed=0):
    """Sequential clients whose ops take effect in one random interleaving.
    The op at place i in it responds at 3i+1, and its client invokes the next
    op at 3i+2, so each op overlaps the ops of every client placed meanwhile."""
    order = [c for c in range(clients) for _ in range(ops)]
    random.Random(seed).shuffle(order)
    invoked = {c: -1 - c for c in range(clients)}
    issued = {c: 0 for c in range(clients)}
    history, state = [], INITIAL_STATE
    for i, c in enumerate(order):
        issued[c] += 1
        o, state = op(c, issued[c], "x", invoked[c], 3 * i + 1, state)
        history.append(o)
        invoked[c] = 3 * i + 2
    return sorted(history, key=lambda o: o.invoked)


def test_concurrent_history_walks_the_chain_in_ops_times_clients_hashes(monkeypatch):
    history = concurrent_history(clients=16, ops=100)
    calls = []
    original = checker._chain

    def counted(state, record):
        calls.append(state)
        return original(state, record)

    monkeypatch.setattr(checker, "_chain", counted)
    assert check_linearizable(history) is True
    assert len(history) <= len(calls) <= len(history) * 16


def test_pending_operation_bridges_a_gap_mid_history():
    o1, s1 = op(3, 1, "a", 0, 1, INITIAL_STATE)
    pending = HistoryOp(4, 1, "p", 2, None, None, None)
    o2, s2 = op(5, 1, "b", 3, 4, _chain(s1, pending.expected_record()))
    o3, _ = op(3, 2, "c", 5, 6, s2)
    history = [o1, pending, o2, o3]
    assert check_linearizable(history) is True
    assert exhaustive_linearizable(history) is True
    # without the pending op nothing bridges s1 to o2's pre-state
    assert check_linearizable([o1, o2, o3]) is False


def test_ready_operation_off_the_chain_fails():
    o1, _ = op(3, 1, "a", 0, 3, INITIAL_STATE)
    # concurrent with o1, so ready, but its post extends a state the chain never reaches
    o2, _ = op(4, 1, "b", 1, 2, _chain(INITIAL_STATE, "r(9:9:elsewhere)"))
    assert check_linearizable([o1, o2]) is False
    assert exhaustive_linearizable([o1, o2]) is False


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=6))
def test_any_sequential_execution_linearizes(names):
    """Property: histories produced by actually running ops in some order
    against the digest chain always linearize."""
    ops = []
    state = INITIAL_STATE
    for k, name in enumerate(names):
        o, state = op(3 + (k % 2), k + 1, name, 2 * k, 2 * k + 1, state)
        ops.append(o)
    assert check_linearizable(ops) is True


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chain_walk_agrees_with_the_oracle_on_random_windows(data):
    """Property: ops run in a drawn order (a pending one may not take effect)
    and get drawn invocation/response windows, so some histories linearize
    and some do not; the walk and the exhaustive oracle agree on each."""
    n = data.draw(st.integers(1, 6))
    order = data.draw(st.permutations(range(n)))
    pending = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    took_effect = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    posts, state = {}, INITIAL_STATE
    for i in order:
        if not pending[i] or took_effect[i]:
            state = _chain(state, f"r({3 + i}:1:x)")
            posts[i] = state
    history = []
    for i in range(n):
        invoked = data.draw(st.integers(0, 3 * n))
        if pending[i]:
            history.append(HistoryOp(3 + i, 1, "x", invoked, None, None, None))
        else:
            responded = invoked + data.draw(st.integers(1, 3 * n))
            record = f"r({3 + i}:1:x)"
            history.append(HistoryOp(3 + i, 1, "x", invoked, responded, record, posts[i]))
    assert check_linearizable(history) == exhaustive_linearizable(history)


def test_corrupted_reply_fails_linearizability():
    from poabcast.cli import load_scenario
    from poabcast.runner import run

    trace = run(load_scenario("stable-tau-paxos"))
    assert check_linearizable(extract_history(TraceIndex(trace))) is True
    # tamper with one response as a corrupted reply table would
    victim = trace.by_kind("response")[0]
    victim.data["record"] = "r(999:999:forged)"
    assert check_linearizable(extract_history(TraceIndex(trace))) is False


# -- liveness & plumbing -----------------------------------------------------------------


def live_index(extra=(), crashes=None):
    """The index of a trace in which a leader (process 0) has an open epoch,
    one request is answered and one value is delivered at processes 0 and 1;
    horizon 1000, slack 200."""
    rows = [
        (0, 0, "omega", {"leader": 0}),
        (0, 1, "omega", {"leader": 0}),
        (1, 0, "primary-begin", {}),
        (2, 5, "request", {"reqid": 1, "op": "a"}),
        (3, 0, "broadcast", {"value": "v", "instance": 1}),
        (4, 0, "deliver", {"value": "v", "instance": 1}),
        (4, 1, "deliver", {"value": "v", "instance": 1}),
        (5, 5, "response", {"reqid": 1, "record": "r", "post": "p"}),
    ]
    rows += [(t, p, "crash", {}) for p, t in (crashes or {}).items()]
    trace = make_trace(sorted(rows + list(extra), key=lambda r: r[0]))
    trace.summary = {"horizon": 1000, "base_delay": 10}
    return TraceIndex(trace)


def test_liveness_passes_a_run_that_made_progress():
    assert check_liveness(live_index()) == "pass"


def test_liveness_needs_a_single_leader_among_correct_processes():
    assert check_liveness(live_index([(6, 1, "omega", {"leader": 1})])) == "inconclusive"


def test_liveness_needs_the_leader_epoch_open_at_the_horizon():
    assert check_liveness(live_index([(900, 0, "primary-end", {})])) == "inconclusive"


def test_liveness_needs_a_response_to_every_early_request():
    early = [(10, 6, "request", {"reqid": 1, "op": "b"})]
    assert check_liveness(live_index(early)) == "inconclusive"
    late = [(801, 6, "request", {"reqid": 1, "op": "b"})]
    assert check_liveness(live_index(late)) == "pass"


def test_liveness_needs_every_early_value_at_every_correct_process():
    early = [(6, 0, "deliver", {"value": "w", "instance": 2})]
    assert check_liveness(live_index(early)) == "inconclusive"
    late = [(801, 0, "deliver", {"value": "w", "instance": 2})]
    assert check_liveness(live_index(late)) == "pass"


def test_liveness_exempts_a_crashed_process():
    # process 1 trusts itself and misses w, but it crashed
    extra = [
        (6, 0, "deliver", {"value": "w", "instance": 2}),
        (7, 1, "omega", {"leader": 1}),
    ]
    assert check_liveness(live_index(extra)) == "inconclusive"
    assert check_liveness(live_index(extra, crashes={1: 8})) == "pass"


def test_check_all_needs_the_protocol_the_summary_names():
    trace = make_trace(primary_epoch_rows(0, 0, ["v1"], [1]))
    with pytest.raises(KeyError, match="protocol"):
        check_all(trace)


def test_check_all_flags_nothing_on_clean_runs():
    from poabcast.cli import load_scenario
    from poabcast.runner import run

    trace = run(load_scenario("stable-naive"))
    report = check_all(trace)
    assert report.ok
    assert report.liveness == "pass"


@pytest.mark.parametrize(
    "name", ["leaderchange-tau-seq", "leaderchange-tau-paxos", "leaderchange-barrier-free"]
)
def test_check_all_scans_the_trace_once(monkeypatch, name):
    from poabcast.cli import load_scenario
    from poabcast.runner import run

    trace = run(load_scenario(name))
    scans = []
    for attr in ("__iter__", "by_kind"):
        original = getattr(Trace, attr)

        def counted(self, *args, _attr=attr, _original=original):
            scans.append(_attr)
            return _original(self, *args)

        monkeypatch.setattr(Trace, attr, counted)
    check_all(trace)
    assert scans == ["__iter__"]
