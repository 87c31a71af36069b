"""Which trace events ``Trace.to_jsonl`` wrote through the JSON encoder.

An event whose kind, field names and value types fit a ``trace.SCHEMA``
layout is written by a compiled line; any other event falls back to the
encoder. This serializes a trace with the encoder wrapped, and names each
event that the encoder wrote.
"""

from typing import List

from poabcast import trace as trace_module
from poabcast.trace import Trace


def layout_of(data) -> str:
    """An event's fields and their types, as ``{name: type, …}``."""
    if not isinstance(data, dict):
        return type(data).__name__
    return "{" + ", ".join(f"{k}: {type(v).__name__}" for k, v in sorted(data.items())) + "}"


def encoder_fallbacks(trace: Trace) -> List[str]:
    """Each event the encoder wrote in place of a compiled line, by kind and
    layout; the summary line, always the encoder's, is not counted."""
    encode, written = trace_module._ITERENCODE, set()

    def counting(obj, level):
        written.add(id(obj))
        return encode(obj, level)

    trace_module._ITERENCODE = counting
    try:
        trace.to_jsonl()
    finally:
        trace_module._ITERENCODE = encode
    # every event's data outlives the call, so no other object shared its id
    return [f"{ev.kind} {layout_of(ev.data)}" for ev in trace if id(ev.data) in written]
