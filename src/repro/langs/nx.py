"""An NXLib subset on Converse (paper sections 1, 5).

NX is the native message-passing interface of the Intel Paragon (and the
iPSC line before it); NXLib is its portable library form.  The subset here
is the part parallel codes of the era actually used: typed blocking and
asynchronous sends/receives plus the global operations.

* ``csend`` / ``crecv`` — blocking typed send / receive (``-1`` matches
  any type on receive).
* ``isend`` / ``irecv`` — asynchronous variants returning message ids;
  ``msgwait`` / ``msgdone`` complete them.  An ``irecv`` posted before the
  message arrives is filled straight from the wire.
* ``iprobe`` / ``infocount`` / ``infonode`` — arrival queries and the
  envelope of the last completed receive.
* ``gsync`` and ``gisum``/``gdsum``/``gprod``/``ghigh``/``glow`` — the
  global barrier and reductions, built on the EMI spanning tree.

Like the PVM subset, blocking receives are SPM-blocking from plain code
and thread-blocking from inside a Cth thread.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.core.errors import NxError
from repro.core.message import Message, estimate_size
from repro.langs.common import LanguageRuntime
from repro.machine.emi_groups import world_group
from repro.msgmgr.message_manager import CMM_WILDCARD, MessageManager

__all__ = ["NX", "NxRecvHandle", "NX_ANY"]

#: NX's wildcard message type for receives.
NX_ANY = -1


def _norm(value: int) -> Any:
    return CMM_WILDCARD if value == NX_ANY else value


class NxRecvHandle:
    """An ``irecv`` message id: fills when a matching message lands."""

    __slots__ = ("typesel", "data", "mtype", "source", "count", "_done")

    def __init__(self, typesel: int) -> None:
        self.typesel = typesel
        self.data: Any = None
        self.mtype: Optional[int] = None
        self.source: Optional[int] = None
        self.count = 0
        self._done = False

    @property
    def done(self) -> bool:
        """True once the operation has completed (virtual-time check)."""
        return self._done

    def _fill(self, mtype: int, source: int, data: Any, count: int) -> None:
        self.mtype = mtype
        self.source = source
        self.data = data
        self.count = count
        self._done = True


class NX(LanguageRuntime):
    """Per-node NX instance."""

    lang_name = "nx"

    def __init__(self, runtime: Any) -> None:
        super().__init__(runtime)
        self.mailbox = MessageManager()
        self.handler_id = runtime.register_handler(self._on_message, "nx.recv")
        #: posted irecvs awaiting a match, oldest first.
        self._posted: List[NxRecvHandle] = []
        #: threads blocked in crecv: (typesel, thread).
        self._waiting: List[Tuple[int, Any]] = []
        #: envelope of the last completed blocking receive.
        self._last_count = 0
        self._last_node = -1

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def mynode(self) -> int:
        """This node's number (NX naming)."""
        return self.my_pe

    def numnodes(self) -> int:
        """Total node count (NX naming)."""
        return self.num_pes

    # ------------------------------------------------------------------
    # sends
    # ------------------------------------------------------------------
    def _check_type(self, mtype: int) -> None:
        if isinstance(mtype, bool) or not isinstance(mtype, int) or mtype < 0:
            raise NxError(f"message types must be ints >= 0, got {mtype!r}")

    def csend(self, mtype: int, data: Any, node: int,
              size: Optional[int] = None) -> None:
        """Blocking typed send (``csend``); ``node == -1`` broadcasts to
        all other nodes, as on the Paragon."""
        self._check_type(mtype)
        msg = Message(
            self.handler_id, (mtype, data),
            size=size if size is not None else estimate_size(data),
        )
        if node == -1:
            self.cmi.sync_broadcast(msg)
        else:
            self.cmi.sync_send(node, msg)

    def isend(self, mtype: int, data: Any, node: int,
              size: Optional[int] = None) -> Any:
        """Asynchronous typed send; complete with ``msgwait``/``msgdone``."""
        self._check_type(mtype)
        if node == -1:
            raise NxError("isend cannot broadcast; use csend(type, data, -1)")
        msg = Message(
            self.handler_id, (mtype, data),
            size=size if size is not None else estimate_size(data),
        )
        return self.cmi.async_send(node, msg)

    # ------------------------------------------------------------------
    # receives
    # ------------------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        mtype, data = msg.payload
        # A pre-posted irecv takes the message straight from the wire.
        for i, h in enumerate(self._posted):
            if h.typesel == NX_ANY or h.typesel == mtype:
                del self._posted[i]
                h._fill(mtype, msg.src_pe, data, msg.size)
                self.runtime.node.kick()
                return
        self.mailbox.put(data, mtype, msg.src_pe, size=msg.size)
        self._wake_one_matching(mtype)

    def _wake_one_matching(self, mtype: int) -> None:
        for i, (wtype, thr) in enumerate(self._waiting):
            if wtype == NX_ANY or wtype == mtype:
                del self._waiting[i]
                self.runtime.cth.awaken(thr)
                return

    def crecv(self, typesel: int = NX_ANY) -> Any:
        """Blocking typed receive; returns the data.  Envelope available
        via ``infocount``/``infonode`` afterwards."""
        in_thread = not self.runtime.cth.self_thread().is_main
        while True:
            entry = self.mailbox.get(_norm(typesel), CMM_WILDCARD)
            if entry is not None:
                self._last_count = entry.size
                self._last_node = entry.tag2 if entry.tag2 is not None else -1
                return entry.payload
            if in_thread:
                me = self.runtime.cth.self_thread()
                self._waiting.append((typesel, me))
                self.runtime.cth.suspend()
            else:
                msg = self.cmi.get_specific_msg(self.handler_id)
                msg.grab()
                mtype, data = msg.payload
                self.mailbox.put(data, mtype, msg.src_pe, size=msg.size)

    def irecv(self, typesel: int = NX_ANY) -> NxRecvHandle:
        """Post an asynchronous receive.  If a matching message already
        arrived it completes immediately; otherwise it fills on arrival."""
        entry = self.mailbox.get(_norm(typesel), CMM_WILDCARD)
        h = NxRecvHandle(typesel)
        if entry is not None:
            h._fill(entry.tag1, entry.tag2 if entry.tag2 is not None else -1,
                    entry.payload, entry.size)
        else:
            self._posted.append(h)
        return h

    def msgdone(self, handle: Any) -> bool:
        """True when an isend/irecv id has completed."""
        return handle.done

    def msgwait(self, handle: Any) -> Any:
        """Block until the id completes.  For an irecv, returns the data.

        An isend id completes at a known local time (the send engine
        finishing with the buffer) — we simply advance to it.  An irecv id
        completes on message arrival, so we drain incoming traffic while
        waiting."""
        rt = self.runtime
        while not handle.done:
            complete_at = getattr(handle, "complete_at", None)
            if complete_at is not None:
                remaining = complete_at - rt.node.engine.now
                if remaining > 0:
                    rt.node.engine.sleep(remaining)
                continue
            if rt.has_pending_network:
                rt.scheduler.deliver_network_msgs(limit=1)
            else:
                # About to block: our own send may sit in a batch.
                self.cmi.flush_aggregation("idle")
                rt.node.wait_until(lambda: rt.has_pending_network or handle.done)
        if isinstance(handle, NxRecvHandle):
            self._last_count = handle.count
            self._last_node = handle.source if handle.source is not None else -1
            return handle.data
        return None

    def iprobe(self, typesel: int = NX_ANY) -> bool:
        """True when a matching message has arrived (drains fresh
        arrivals first)."""
        self.runtime.drain_for(self.handler_id, self._on_message)
        return self.mailbox.probe(_norm(typesel), CMM_WILDCARD) >= 0

    def infocount(self) -> int:
        """Byte count of the last completed receive."""
        return self._last_count

    def infonode(self) -> int:
        """Source node of the last completed receive."""
        return self._last_node

    # ------------------------------------------------------------------
    # global operations
    # ------------------------------------------------------------------
    def gsync(self) -> None:
        """Global barrier over all nodes."""
        self.cmi.groups.barrier(world_group(self.runtime.machine))

    def _gop(self, value: Any, op: Callable[[Any, Any], Any]) -> Any:
        return self.cmi.groups.reduce(world_group(self.runtime.machine), value, op)

    def gisum(self, value: int) -> int:
        """Global integer sum (result on every node, as NX defines)."""
        return self._gop(int(value), lambda a, b: a + b)

    def gdsum(self, value: float) -> float:
        """Global double sum."""
        return self._gop(float(value), lambda a, b: a + b)

    def gprod(self, value: Any) -> Any:
        """Global product."""
        return self._gop(value, lambda a, b: a * b)

    def ghigh(self, value: Any) -> Any:
        """Global maximum."""
        return self._gop(value, max)

    def glow(self, value: Any) -> Any:
        """Global minimum."""
        return self._gop(value, min)
