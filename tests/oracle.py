"""Reference oracle for linearizability: exhaustive search over orders.

``checker.check_linearizable`` walks the digest chain in one pass; this
search tries every legal sequential order instead, so the two are checked
against each other. It is exponential and meant for histories of about
ten operations.
"""

from typing import List, Set, Tuple

from poabcast.checker import HistoryOp, _chain
from poabcast.replication import INITIAL_STATE


def exhaustive_linearizable(history: List[HistoryOp]) -> bool:
    """Search for a legal sequential order respecting real time.

    Completed operations must all be placed with their observed results;
    pending operations may be placed (their effect may have been applied)
    or dropped.
    """
    completed = [op for op in history if op.responded is not None]
    pending = [op for op in history if op.responded is None]

    def precedes(a: HistoryOp, b: HistoryOp) -> bool:
        return a.responded is not None and a.responded < b.invoked

    seen_states: Set[Tuple[frozenset, str]] = set()

    def search(state: str, placed: frozenset) -> bool:
        if all(id(op) in placed for op in completed):
            return True
        key = (placed, state)
        if key in seen_states:
            return False
        seen_states.add(key)
        for op in completed + pending:
            if id(op) in placed:
                continue
            if any(
                id(other) not in placed and precedes(other, op)
                for other in completed
                if other is not op
            ):
                continue
            record = op.expected_record()
            post = _chain(state, record)
            if op.responded is not None:
                if op.record != record or op.post != post:
                    continue
            if search(post, placed | {id(op)}):
                return True
        return False

    return search(INITIAL_STATE, frozenset())
