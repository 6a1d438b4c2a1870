"""The event-trace format (paper section 3.3.2).

Converse defines "a standard for an event trace format [with] two parts: a
standard format which must be adhered to by all language implementors, and
an extensible self-describing format which may be language-specific".

* The **standard part** is the fixed set of event kinds in
  :data:`STANDARD_KINDS` — message send/receive/processing plus object and
  thread creation, exactly the events the paper says must be recorded.
* The **self-describing part** is the free-form ``fields`` dict carried by
  every event, plus per-language schemas announced with
  :class:`SchemaDeclaration` records, so a tool that has never heard of a
  language can still render its events (it knows the field names and
  types from the declaration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

__all__ = ["STANDARD_KINDS", "FAULT_KINDS", "FT_KINDS", "TraceEvent",
           "SchemaDeclaration"]

#: Event kinds every language implementation must emit (the "standard
#: format").  Runtime-internal kinds (enqueue/dequeue/...) are also listed
#: here since the core emits them uniformly for all languages.
STANDARD_KINDS = frozenset(
    {
        "send",            # a message left this PE
        "broadcast",       # a broadcast left this PE
        "receive",         # a message arrived at this PE (network delivery)
        "handler_begin",   # message processing started
        "handler_end",     # message processing finished
        "enqueue",         # message entered the Csd queue
        "dequeue",         # message left the Csd queue
        "object_create",   # a concurrent object (e.g. chare) was created
        "thread_create",   # a Cth thread was created
        "thread_resume",
        "thread_suspend",
        "idle_begin",
        "idle_end",
        "converse_exit",
        "user",            # language-specific event (self-describing part)
    }
)

#: Event kinds emitted by the fault-injection network and the CMI
#: reliable-delivery protocol.  Not part of the paper's mandatory
#: standard format (``TraceEvent.standard`` is False for them) but
#: emitted uniformly by the core so tools can audit hostile-network runs:
#: every injected fault and every protocol reaction is in the trace.
FAULT_KINDS = frozenset(
    {
        "fault",           # the network injected a fault (fields: action, dst, size)
        "rel_data",        # a reliable data packet was first transmitted
        "rel_retransmit",  # retransmission after an ack timeout
        "rel_giveup",      # retry cap exhausted (a RetryExhaustedError follows)
        "rel_release",     # an in-order message was released to the app
        "rel_dup",         # a duplicate data packet was suppressed
        "rel_hold",        # an out-of-order packet entered the reassembly buffer
        "rel_corrupt",     # a corrupted packet was detected and discarded
        "rel_ack",         # an acknowledgement arrived (seq, ack, stale, piggyback)
        "rel_ack_out",     # an acknowledgement was transmitted (dest, seq, ack, piggyback)
        "rel_paused_drop", # an arrival swallowed by a paused (recovering) receiver
    }
)

#: Event kinds emitted by the fault-tolerance layer (``Machine(ft=...)``)
#: and the machine's crash injector.  Like :data:`FAULT_KINDS` they sit
#: outside the paper's standard format but are emitted uniformly, so a
#: crashy run's trace tells the whole story: the crash, the detection
#: verdicts, every checkpoint, and the recovery that closed the episode.
FT_KINDS = frozenset(
    {
        "ft_checkpoint",   # state snapshot shipped to the buddy (epoch, bytes, reason)
        "ft_failure",      # crash / suspect / down / give-up evidence (phase, target)
        "ft_recover",      # a restarted PE rejoined (restored, latency)
    }
)


@dataclass(frozen=True)
class TraceEvent:
    """One trace record: where, when, what, and open-ended details."""

    pe: int
    time: float
    kind: str
    fields: Mapping[str, Any] = field(default_factory=dict)

    @property
    def standard(self) -> bool:
        """True when this kind belongs to the mandatory standard format."""
        return self.kind in STANDARD_KINDS

    def as_dict(self) -> Dict[str, Any]:
        """A plain-dict rendering (JSON-friendly)."""
        return {
            "pe": self.pe,
            "time": self.time,
            "kind": self.kind,
            **dict(self.fields),
        }


@dataclass(frozen=True)
class SchemaDeclaration:
    """A language's announcement of its self-describing event schema.

    ``fields`` maps field name to a type tag (``"int"``, ``"float"``,
    ``"str"``).  Tools consume declarations before any ``user`` events of
    that language, so traces remain interpretable without per-language
    code in the tool.
    """

    language: str
    event_name: str
    fields: Tuple[Tuple[str, str], ...]

    def validate(self, payload: Mapping[str, Any]) -> bool:
        """Check a user event's fields against this schema."""
        types = {"int": int, "float": (int, float), "str": str}
        for name, tag in self.fields:
            if name not in payload:
                return False
            if not isinstance(payload[name], types[tag]):  # type: ignore[arg-type]
                return False
        return True
