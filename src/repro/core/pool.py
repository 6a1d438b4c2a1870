"""Per-PE pooled message allocation (the raw-speed slab layer).

Fine-grained Converse programs allocate one wire-copy :class:`Message`
per send; the AMT literature (see PAPERS.md) identifies exactly this
per-message allocation churn as a dominant cost in fine-grained
runtimes.  The :class:`MessagePool` kills the churn with a classic
free-list: wire copies whose handler returned *without grabbing* the
buffer are recycled by the CMI as always (poisoned so stale references
still raise :class:`~repro.core.errors.BufferOwnershipError`), then
parked here and resurrected — every slot reset — for the next send.

Ownership-protocol invariants the pool must never weaken:

* a buffer sitting in the free list stays *poisoned* (``_valid`` is
  False, payload cleared).  A handler that stashed a reference and
  touches it later fails loudly, pool or no pool.
* ``grab()`` (``CmiGrabBuffer``) transfers ownership to the program, so
  a grabbed buffer is never recycled and therefore never pooled.
* :meth:`acquire` resets **every** slot — payload, priority, size,
  ``src_pe``, ``msg_id``, ``enq_time``, ``corrupted``, ``seq``/``ack``,
  ownership bits — so no state leaks from a previous life.

Only the CMI's wire-copy paths draw from the pool; user-constructed
messages (``CmiNew``), aggregation batch wrappers and reliable sends
(a duplicate may arrive after the receiver recycled one) are ordinary
garbage-collected objects.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.message import Message, Priority

__all__ = ["MessagePool"]

#: Default cap on parked buffers per PE.  Beyond this the free list
#: stops growing and excess buffers fall back to the garbage collector —
#: a bound, not a budget: steady-state fine-grained traffic reuses a
#: handful of buffers and never approaches it.
DEFAULT_MAX_FREE = 1024


class MessagePool:
    """A per-PE free list of recycled wire-copy messages."""

    __slots__ = ("_free", "max_free", "created", "reused", "released",
                 "dropped")

    def __init__(self, max_free: int = DEFAULT_MAX_FREE) -> None:
        self._free: List[Message] = []
        self.max_free = int(max_free)
        #: fresh Message objects built because the free list was empty
        self.created = 0
        #: acquires satisfied from the free list (allocations avoided)
        self.reused = 0
        #: recycled buffers parked for reuse
        self.released = 0
        #: recycled buffers discarded because the free list was full
        self.dropped = 0

    # ------------------------------------------------------------------
    def acquire(self, handler: int, payload: Any, size: int,
                prio: Priority, src_pe: Optional[int]) -> Message:
        """Return a ready-to-send wire copy, reusing a parked buffer
        when one is available.

        The arguments duplicate fields of an already-validated source
        message, so construction skips ``Message.__init__`` validation
        on both paths (the fresh-object path fills slots directly for
        the same reason: this *is* the hot path).
        """
        free = self._free
        if free:
            msg = free.pop()
            self.reused += 1
        else:
            msg = Message.__new__(Message)
            self.created += 1
        msg.handler = handler
        msg._payload = payload
        msg.size = size
        msg.prio = prio
        msg.src_pe = src_pe
        msg._cmi_owned = False
        msg._valid = True
        msg.msg_id = None
        msg.enq_time = None
        msg.corrupted = False
        msg.steal_ok = False
        msg.seq = -1
        msg.ack = 0
        msg._pooled = True
        return msg

    def release(self, msg: Message) -> None:
        """Park one recycled (poisoned) buffer for reuse.

        Only poisoned pool-born buffers are accepted; anything else —
        grabbed buffers, user messages, double releases — is ignored, so
        callers may invoke this unconditionally from the recycle path.
        The buffer stays poisoned while parked: stale references keep
        failing loudly until :meth:`acquire` resurrects it for a brand
        new message.
        """
        if msg._valid or not msg._pooled:
            return
        # Clearing the flag makes a second release() of the same object
        # a no-op and keeps foreign pools from adopting it.
        msg._pooled = False
        if len(self._free) < self.max_free:
            self._free.append(msg)
            self.released += 1
        else:
            self.dropped += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._free)

    def stats(self) -> dict:
        """Counter snapshot (for tests and the bench report)."""
        return {
            "created": self.created,
            "reused": self.reused,
            "released": self.released,
            "dropped": self.dropped,
            "free": len(self._free),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MessagePool free={len(self._free)}/{self.max_free} "
                f"created={self.created} reused={self.reused}>")
