"""Trace rows built from an event's fields, for tests that build traces."""

from typing import Any, Dict, Optional

from poabcast.trace import layouts


def row(t: Any, i: Any, p: Any, kind: Any, data: Dict[str, Any],
        protocol: Optional[str] = None) -> tuple:
    """The row ``Simulator.emit`` appends for an event of ``kind`` with
    ``data`` in a trace of ``protocol`` (None: no summary): ``(t, i, p,
    kind)``, then the values of the kind's layout's fields in declared order,
    then those of any key the layout lacks. So a missing or extra key leaves
    a row of the wrong arity, as an emit call with that keyword set would."""
    layout = layouts(protocol).get(kind, {})
    return (t, i, p, kind, *(data[name] for name in layout if name in data),
            *(value for name, value in data.items() if name not in layout))


def edited(event: tuple, /, **changes: Any) -> tuple:
    """The row of ``event``, a ``Trace.by_kind`` record, with ``changes``
    made to its named fields."""
    return tuple(changes.get(name, value) for name, value in zip(event._fields, event))
