"""Generalized messages (paper section 3.1.1).

A generalized message is "an arbitrary block of memory, with the first word
specifying a function that will handle the message", where the function is
named by an *index* into a registration table (which "has the advantage of
working even on heterogeneous machines").  A generalized message uniformly
represents:

1. a message sent from a remote processor,
2. a scheduler entry for a ready thread,
3. a delayed function with its argument.

This module provides:

* :class:`Message` — the in-memory form: handler index, optional priority,
  an explicit modelled byte size, and a payload.
* header ``pack()`` / ``unpack()`` — a concrete wire representation for
  ``bytes`` payloads, proving the handler-index-in-first-word layout.
* :func:`wire_fields` / :func:`from_wire_fields` — every field of a plain
  message except its payload as fixed-width integers, for a transport
  header (the ``mp`` machine layer's data frames) that carries the
  payload beside them.
* the CMI **buffer-ownership protocol**: a delivered message is owned by
  the CMI; a handler that wants to keep it must call ``grab()``
  (``CmiGrabBuffer``).  Buffers not grabbed are recycled when the handler
  returns — modelled here by *poisoning* the message so that later access
  raises :class:`BufferOwnershipError`, turning silent reuse bugs into
  loud test failures.
* priority values: plain integers (smaller = more urgent) and
  :class:`BitVector` priorities compared as binary fractions, which
  state-space search needs for "consistent and monotonic speedups"
  (section 2.3).
"""

from __future__ import annotations

import struct
from functools import total_ordering
from typing import Any, Iterable, Optional, Tuple, Union

from repro.core.errors import BufferOwnershipError, MessageError

__all__ = [
    "BitVector",
    "Priority",
    "Message",
    "estimate_size",
    "HEADER_BYTES",
    "WIRE_FIELDS",
    "wire_copy",
    "wire_fields",
    "from_wire_fields",
]

_HEADER_MAGIC = 0xC51996  # 'Converse, IPPS 1996'
_HEADER_FMT = "<IiiQH"  # magic, handler, prio_kind, int prio payload, bits len
HEADER_BYTES = struct.calcsize(_HEADER_FMT)

_PRIO_NONE = 0
_PRIO_INT = 1
_PRIO_BITVEC = 2

#: an integer priority travels as its unsigned 64-bit two's complement
#: word, in ``pack()``'s header and in :data:`WIRE_FIELDS` alike.
_PRIO_WORD = (1 << 64) - 1
_PRIO_SIGN = 1 << 63


def _prio_from_word(word: int) -> int:
    """The integer priority a 64-bit header word carries (undoes the
    unsigned wrap of a negative one)."""
    return word if word < _PRIO_SIGN else word - (1 << 64)


@total_ordering
class BitVector:
    """A bit-vector priority, compared as a binary fraction in [0, 1).

    ``BitVector("01")`` means the fraction 0.01b = 0.25.  Missing trailing
    bits are treated as zeros for *comparison*, so ``"01" == "010"`` and
    ``"011" > "01"`` — but the stored vector keeps its exact bits, because
    tree searches extend priorities by appending (``"0"`` extended by
    ``"1"`` must give ``"01"``, not ``"1"``).  Smaller fractions are *more
    urgent* (dequeued first), matching Charm's bitvector priorities.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: Union[str, Iterable[int]] = "") -> None:
        if isinstance(bits, str):
            if any(c not in "01" for c in bits):
                raise MessageError(f"bit-vector priority must be 0/1 chars, got {bits!r}")
            self.bits = bits
        else:
            seq = list(bits)
            if any(b not in (0, 1) for b in seq):
                raise MessageError(f"bit-vector priority must be 0/1 ints, got {seq!r}")
            self.bits = "".join(str(b) for b in seq)

    def extended(self, more: Union[str, Iterable[int]]) -> "BitVector":
        """Child priority: this priority with ``more`` bits appended —
        the standard way tree searches derive child priorities."""
        extra = more if isinstance(more, str) else "".join(str(b) for b in more)
        return BitVector(self.bits + extra)

    def as_fraction(self) -> float:
        """The numeric value of the fraction (for reporting only; ordering
        uses exact string comparison, never floats)."""
        val = 0.0
        for i, c in enumerate(self.bits, start=1):
            if c == "1":
                val += 2.0 ** -i
        return val

    def _key(self) -> str:
        """Comparison key: trailing zeros do not change the fraction, and
        without them fraction order is plain lexicographic order (a
        strict prefix is smaller)."""
        return self.bits.rstrip("0")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other: "BitVector") -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._key() < other._key()

    def __hash__(self) -> int:
        return hash(("BitVector", self._key()))

    def __repr__(self) -> str:
        return f"BitVector({self.bits!r})"


Priority = Union[None, int, BitVector]


def _prio_sort_key(prio: Priority) -> Tuple[int, Any]:
    """Total order over all priority kinds for mixed queues.

    Integer priorities order among themselves; bit-vector priorities order
    among themselves; ``None`` sorts as integer 0 (the default urgency).
    Integers sort before bit-vectors of equal rank only via the kind tag —
    mixing kinds in one queue is legal but discouraged.
    """
    if prio is None:
        return (0, 0)
    if isinstance(prio, bool):
        raise MessageError("bool is not a valid message priority")
    if isinstance(prio, int):
        return (0, prio)
    if isinstance(prio, BitVector):
        return (1, prio._key())
    raise MessageError(f"unsupported priority type {type(prio).__name__}")


def estimate_size(payload: Any) -> int:
    """Deterministic modelled size (bytes) of an arbitrary payload.

    Used when the caller does not pass an explicit ``size``.  The rules are
    intentionally simple and stable: benchmarks that care about sizes pass
    them explicitly.
    """
    if payload is None:
        return 0
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (tuple, list, set, frozenset)):
        return 16 + sum(estimate_size(x) for x in payload)
    if isinstance(payload, dict):
        return 16 + sum(estimate_size(k) + estimate_size(v) for k, v in payload.items())
    # NumPy arrays and anything else exposing nbytes.
    nbytes = getattr(payload, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    return 64


class Message:
    """A generalized message.

    Parameters
    ----------
    handler:
        Index into the destination PE's handler table (``CmiSetHandler``).
    payload:
        Arbitrary data.  Only ``bytes`` payloads can be packed to the wire
        format, but the simulator happily carries any object.
    size:
        Modelled size in bytes; defaults to :func:`estimate_size`.
    prio:
        ``None``, ``int`` (smaller = more urgent) or :class:`BitVector`.
    src_pe:
        Filled in by the CMI at send time.
    """

    __slots__ = (
        "handler", "_payload", "size", "prio", "src_pe",
        "_cmi_owned", "_valid", "corrupted", "msg_id", "enq_time",
        "_pooled", "steal_ok", "seq", "ack",
    )

    def __init__(self, handler: int, payload: Any = None, size: Optional[int] = None,
                 prio: Priority = None, src_pe: Optional[int] = None) -> None:
        if not isinstance(handler, int) or handler < 0:
            raise MessageError(f"handler must be a non-negative int, got {handler!r}")
        if prio is not None:
            _prio_sort_key(prio)  # validates (None — the default — needs none)
        self.handler = handler
        self._payload = payload
        self.size = estimate_size(payload) if size is None else int(size)
        if self.size < 0:
            raise MessageError(f"message size must be >= 0, got {self.size}")
        self.prio = prio
        self.src_pe = src_pe
        self._cmi_owned = False
        self._valid = True
        #: machine-wide trace correlation id, stamped by the CMI on wire
        #: copies when tracing is enabled (``None`` otherwise).  Lets
        #: offline tools join a ``send`` event to the ``receive`` and
        #: ``handler_begin`` it caused — the edges of the dependency DAG
        #: the critical-path extractor walks.
        self.msg_id: Optional[int] = None
        #: virtual time of the last ``CsdEnqueue`` (stamped by the
        #: scheduler only when metering is on; keying wait-time samples
        #: by ``id(msg)`` would leak entries for never-dequeued messages
        #: and misattribute timestamps across id reuse).
        self.enq_time: Optional[float] = None
        #: True only for wire copies drawn from a per-PE
        #: :class:`~repro.core.pool.MessagePool`; such buffers are
        #: returned to the pool (still poisoned) after the CMI recycles
        #: them.  User-constructed messages are never pooled.
        self._pooled = False
        #: True only for queued *seeds* rooted by a Cld strategy that
        #: permits later migration (``adaptive``/``steal``): such
        #: messages may be pulled back out of the Csd queue by
        #: :meth:`CsdScheduler.take_stealable` and re-forwarded.
        #: Ordinary messages — including seeds under non-migrating
        #: strategies — are never touched once enqueued.
        self.steal_ok = False
        #: the reliable-delivery header: sequence number (-1:
        #: unsequenced) and the cumulative ack riding on it (0: none).
        self.seq = -1
        self.ack = 0
        #: set by the simulated network's fault injector when this wire
        #: copy was damaged in flight.  The raw (unreliable) machine layer
        #: delivers the message anyway — exactly like real hardware
        #: without checksums — while the reliable CMI layer detects the
        #: flag (its stand-in for a failed checksum) and waits for the
        #: retransmission.
        self.corrupted = False

    # ------------------------------------------------------------------
    # buffer-ownership protocol
    # ------------------------------------------------------------------
    @property
    def payload(self) -> Any:
        """The message contents (BufferOwnershipError once recycled)."""
        if not self._valid:
            raise BufferOwnershipError(
                "message buffer was recycled by the CMI after its handler "
                "returned; call grab() (CmiGrabBuffer) inside the handler "
                "to take ownership"
            )
        return self._payload

    @property
    def valid(self) -> bool:
        """False once the CMI has recycled this buffer."""
        return self._valid

    @property
    def cmi_owned(self) -> bool:
        """True while the CMI owns this buffer (grab() to keep it)."""
        return self._cmi_owned

    def mark_cmi_owned(self) -> None:
        """Called by the CMI when handing the buffer to a handler."""
        self._cmi_owned = True

    def grab(self) -> "Message":
        """Take ownership (``CmiGrabBuffer``): the CMI will no longer
        recycle this buffer.  Returns self for chaining."""
        if not self._valid:
            raise BufferOwnershipError("cannot grab an already-recycled buffer")
        self._cmi_owned = False
        return self

    def recycle(self) -> None:
        """Called by the CMI after a handler returns without grabbing."""
        if self._cmi_owned:
            self._valid = False
            self._payload = None

    # ------------------------------------------------------------------
    # priority helpers
    # ------------------------------------------------------------------
    def sort_key(self) -> Tuple[int, Any]:
        """Total-order key of this message's priority."""
        return _prio_sort_key(self.prio)

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def pack(self) -> bytes:
        """Serialize to the wire format (bytes payloads only).

        Layout: a fixed header whose *first field after the magic* is the
        handler index — the paper's "first word specifies a function" —
        followed by priority data and the raw payload.
        """
        if not isinstance(self._payload, (bytes, bytearray)):
            raise MessageError(
                f"only bytes payloads can be packed, got {type(self._payload).__name__}"
            )
        if self.prio is None:
            kind, ival, bits = _PRIO_NONE, 0, b""
        elif isinstance(self.prio, int):
            kind, ival, bits = _PRIO_INT, self.prio & _PRIO_WORD, b""
        else:
            bitstr = self.prio.bits
            kind, ival, bits = _PRIO_BITVEC, 0, bitstr.encode("ascii")
        header = struct.pack(_HEADER_FMT, _HEADER_MAGIC, self.handler, kind, ival, len(bits))
        return header + bits + bytes(self._payload)

    @classmethod
    def unpack(cls, wire: bytes, src_pe: Optional[int] = None) -> "Message":
        """Parse a packed message.  Round-trips with :meth:`pack`."""
        if len(wire) < HEADER_BYTES:
            raise MessageError(f"short message: {len(wire)} bytes < header {HEADER_BYTES}")
        magic, handler, kind, ival, nbits = struct.unpack_from(_HEADER_FMT, wire)
        if magic != _HEADER_MAGIC:
            raise MessageError(f"bad message magic {magic:#x}")
        pos = HEADER_BYTES
        prio: Priority
        if kind == _PRIO_NONE:
            prio = None
        elif kind == _PRIO_INT:
            prio = _prio_from_word(ival)
        elif kind == _PRIO_BITVEC:
            prio = BitVector(wire[pos:pos + nbits].decode("ascii"))
        else:
            raise MessageError(f"unknown priority kind {kind}")
        if kind == _PRIO_BITVEC:
            pos += nbits
        payload = bytes(wire[pos:])
        return cls(handler, payload, size=len(payload), prio=prio, src_pe=src_pe)

    def __repr__(self) -> str:
        own = " cmi-owned" if self._cmi_owned else ""
        val = "" if self._valid else " RECYCLED"
        return (
            f"<Message h={self.handler} size={self.size} prio={self.prio!r}"
            f" src={self.src_pe}{own}{val}>"
        )


# ----------------------------------------------------------------------
# a plain message's fields as fixed-width integers
# ----------------------------------------------------------------------
#: ``struct`` codes, without a byte-order prefix (the embedding header
#: supplies it), of what :func:`wire_fields` returns: flags, handler,
#: size, msg_id, priority word, seq, ack.
WIRE_FIELDS = "BIQqQqq"

_F_CORRUPTED = 1
_F_STEAL_OK = 2
_F_PRIO = 4
_F_MSG_ID = 8


def wire_copy(msg: Message, src_pe: int, msg_id: Optional[int] = None,
              pool: Any = None) -> Message:
    """The copy of a caller's ``msg`` that a send from ``src_pe`` puts on
    the wire: its handler, payload (read through ``payload``, so a
    recycled buffer raises), size and priority, trace id ``msg_id``,
    fresh ownership state, unsequenced.  Drawn from ``pool`` (a
    :class:`~repro.core.pool.MessagePool`) when one is given."""
    if pool is not None:
        wire = pool.acquire(msg.handler, msg.payload, msg.size, msg.prio, src_pe)
    else:
        wire = Message(msg.handler, msg.payload, size=msg.size, prio=msg.prio,
                       src_pe=src_pe)
    wire.msg_id = msg_id
    return wire


def wire_fields(msg: Any, src_pe: int, copy: bool = False,
                msg_id: Optional[int] = None) -> Optional[Tuple[int, ...]]:
    """Every field of ``msg`` but its payload, as :data:`WIRE_FIELDS`
    packs them, when ``msg`` is a plain :class:`Message` sent by
    ``src_pe`` whose other state a receiver can rebuild from them (see
    :func:`from_wire_fields`): unowned and valid, no ``enq_time`` stamp,
    an integer or no priority.  With ``copy``, ``msg`` is a caller's
    message and the fields are those of ``wire_copy(msg, src_pe,
    msg_id)``, read off ``msg`` itself, whose other slots are ignored.
    ``None`` otherwise — the caller then ships the whole
    object (or that copy).  A field too wide for its code (a handler past
    32 bits, a ``msg_id`` past 64) makes ``struct.pack`` raise
    ``struct.error``, which the caller treats the same way."""
    if type(msg) is not Message:
        return None
    prio = msg.prio
    if prio is None:
        flags, word = 0, 0
    elif type(prio) is int and -_PRIO_SIGN <= prio < _PRIO_SIGN:
        flags, word = _F_PRIO, prio & _PRIO_WORD
    else:
        return None  # a BitVector, or an int past 64 bits
    if copy:
        seq, ack = -1, 0
    elif (msg.src_pe != src_pe or msg._cmi_owned or not msg._valid
          or msg.enq_time is not None):
        return None
    else:
        flags |= msg.corrupted * _F_CORRUPTED | msg.steal_ok * _F_STEAL_OK
        msg_id, seq, ack = msg.msg_id, msg.seq, msg.ack
    if msg_id is None:
        msg_id = 0
    else:
        flags |= _F_MSG_ID
    return flags, msg.handler, msg.size, msg_id, word, seq, ack


def from_wire_fields(fields: Tuple[int, ...], payload: Any,
                     src_pe: int) -> Message:
    """The message whose :func:`wire_fields` were ``fields``, around
    ``payload``: every slot equal to what pickling the sender's message
    would have rebuilt.  Skips ``__init__`` validation, like the message
    pool: the sender's message was validated when it was built."""
    flags, handler, size, msg_id, word, seq, ack = fields
    msg = Message.__new__(Message)
    msg.handler = handler
    msg._payload = payload
    msg.size = size
    msg.prio = _prio_from_word(word) if flags & _F_PRIO else None
    msg.src_pe = src_pe
    msg._cmi_owned = False
    msg._valid = True
    msg.msg_id = msg_id if flags & _F_MSG_ID else None
    msg.enq_time = None
    msg.corrupted = bool(flags & _F_CORRUPTED)
    msg._pooled = False
    msg.steal_ok = bool(flags & _F_STEAL_OK)
    msg.seq = seq
    msg.ack = ack
    return msg
