"""SM — the "simple messaging layer" (paper sections 1, 5).

The smallest useful SPMD language on Converse: tagged sends and blocking
tagged receives, no concurrency within a process (category 1 of section
2.1).  A blocking receive uses ``CmiGetSpecificMsg`` underneath, so "no
other actions ... take place within the same process" while waiting —
messages for other handlers are side-buffered by the CMI, not executed.

Arrived-but-unclaimed messages live in a Cmm message manager, keyed
``(tag, source PE)``, so receives may match on tag, source, both, or
neither (wildcards).

Usage::

    SM.attach(machine)          # once, before launching
    def main():
        sm = SM.get()
        if sm.my_pe == 0:
            sm.send(1, tag=7, data=b"hi")
        else:
            tag, src, data = sm.recv(tag=7)
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.core.errors import LanguageError
from repro.core.message import Message, estimate_size
from repro.langs.common import LanguageRuntime
from repro.msgmgr.message_manager import CMM_WILDCARD, MessageManager

__all__ = ["SM", "SM_ANY"]

#: wildcard for tag or source in receives/probes.
SM_ANY = CMM_WILDCARD


class SM(LanguageRuntime):
    """Per-PE SM instance."""

    lang_name = "sm"

    def __init__(self, runtime: Any) -> None:
        super().__init__(runtime)
        self.mailbox = MessageManager()
        self.handler_id = runtime.register_handler(self._on_message, "sm.recv")
        self.sends = 0
        self.receives = 0

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, dest_pe: int, tag: int, data: Any,
             size: Optional[int] = None) -> None:
        """Tagged send; returns when the buffer is reusable."""
        if isinstance(tag, bool) or not isinstance(tag, int):
            raise LanguageError(f"SM tags must be ints, got {type(tag).__name__}")
        payload = (tag, data)
        msg = Message(
            self.handler_id, payload,
            size=size if size is not None else estimate_size(data),
        )
        self.sends += 1
        self.cmi.sync_send(dest_pe, msg)

    def broadcast(self, tag: int, data: Any, include_self: bool = False,
                  size: Optional[int] = None) -> None:
        """Tagged broadcast (not a barrier)."""
        payload = (tag, data)
        msg = Message(
            self.handler_id, payload,
            size=size if size is not None else estimate_size(data),
        )
        if include_self:
            self.cmi.sync_broadcast_all(msg)
        else:
            self.cmi.sync_broadcast(msg)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        """Converse handler: file the message in the mailbox.

        Runs when something *else* drives message delivery (e.g. the PE
        donates time via the Csd scheduler while overlapping with another
        module); the pure-SPM path claims messages before this handler
        ever runs.
        """
        tag, data = msg.payload
        self.mailbox.put(data, tag, msg.src_pe, size=msg.size)

    def try_recv(self, tag: Any = SM_ANY, source: Any = SM_ANY
                 ) -> Optional[Tuple[int, int, Any]]:
        """Non-blocking receive: (tag, source, data) or ``None``."""
        entry = self.mailbox.get(tag, source)
        if entry is None:
            return None
        self.receives += 1
        return entry.tag1, entry.tag2, entry.payload

    def recv(self, tag: Any = SM_ANY, source: Any = SM_ANY
             ) -> Tuple[int, int, Any]:
        """Blocking receive: waits (SPM-style: executing nothing else)
        until a matching message is available."""
        while True:
            got = self.try_recv(tag, source)
            if got is not None:
                return got
            # Block for the next SM message; others stay CMI-buffered.
            self._on_message(self.cmi.get_specific_msg(self.handler_id).grab())

    def probe(self, tag: Any = SM_ANY, source: Any = SM_ANY) -> int:
        """Size of the oldest matching already-arrived message, or -1.
        Drains fresh arrivals non-blockingly first so the answer reflects
        everything the wire has delivered."""
        self.runtime.drain_for(self.handler_id, self._on_message)
        return self.mailbox.probe(tag, source)

    @property
    def pending(self) -> int:
        """Messages waiting in the mailbox."""
        return len(self.mailbox)
