"""A PVM subset on Converse (paper sections 1, 2.1, 5).

PVM is the paper's example of a *no-concurrency / single-process-module*
language: "modules in such languages block after issuing a 'receive' for
specific messages (identified by tags and source processors)".  Converse
runs it in two modes — exactly as the paper promises ("PVM, NXLib, and
SM ... will be supported both in SPMD as well as multithreaded mode"):

* **SPM mode** (the default): a blocking ``recv`` uses
  ``CmiGetSpecificMsg`` underneath, so nothing else executes on the PE
  while waiting.
* **threaded mode**: the same ``recv`` called from inside a Cth thread
  suspends only that thread; the Csd scheduler keeps the PE busy with
  other work — PVM modules become composable with message-driven ones.

Task ids (tids) are PE numbers: the subset models one PVM task per PE,
which is how the paper's SPMD experiments use it.  Wildcards follow PVM:
``-1`` for "any tag" / "any source".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.errors import PvmError
from repro.core.message import Message, estimate_size
from repro.langs.common import LanguageRuntime
from repro.machine.emi_groups import world_group
from repro.msgmgr.message_manager import CMM_WILDCARD, MessageManager

__all__ = ["PVM", "PvmMessage", "PVM_ANY"]

#: PVM's wildcard value for tags and sources.
PVM_ANY = -1


@dataclass(frozen=True)
class PvmMessage:
    """What ``recv`` returns: the payload plus its envelope."""

    tag: int
    source: int
    data: Any
    size: int


def _norm(value: int) -> Any:
    """Map PVM's -1 wildcard onto the message manager's wildcard."""
    return CMM_WILDCARD if value == PVM_ANY else value


class PVM(LanguageRuntime):
    """Per-PE (per-task) PVM instance."""

    lang_name = "pvm"

    def __init__(self, runtime: Any) -> None:
        super().__init__(runtime)
        self.mailbox = MessageManager()
        self.handler_id = runtime.register_handler(self._on_message, "pvm.recv")
        #: threads blocked in recv (threaded mode): (tag, src, thread).
        self._waiting: List[Tuple[Any, Any, Any]] = []
        self.stats_sent = 0
        self.stats_received = 0

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def mytid(self) -> int:
        """``pvm_mytid``: task id == PE number in this subset."""
        return self.my_pe

    def ntasks(self) -> int:
        """Total task count (one PVM task per PE)."""
        return self.num_pes

    # ------------------------------------------------------------------
    # threaded mode
    # ------------------------------------------------------------------
    def spawn(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run a PVM module as a Cth thread scheduled by the Converse
        scheduler — the multithreaded PVM mode.  The PE must be running
        the Csd scheduler for the thread to execute."""
        cth = self.runtime.cth
        thr = cth.create(lambda _: fn(*args), None)
        cth.use_scheduler_strategy(thr)
        cth.awaken(thr)
        return thr

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def _check_tag(self, tag: int) -> None:
        if isinstance(tag, bool) or not isinstance(tag, int) or tag < 0:
            raise PvmError(f"send tags must be ints >= 0, got {tag!r}")

    def send(self, tid: int, tag: int, data: Any,
             size: Optional[int] = None) -> None:
        """``pvm_send`` (pack+send collapsed: Python objects are the
        buffer)."""
        self._check_tag(tag)
        msg = Message(
            self.handler_id, (tag, data),
            size=size if size is not None else estimate_size(data),
        )
        self.stats_sent += 1
        self.cmi.sync_send(tid, msg)

    def mcast(self, tids: Sequence[int], tag: int, data: Any,
              size: Optional[int] = None) -> None:
        """``pvm_mcast``: send to an explicit list of tasks."""
        self._check_tag(tag)
        for tid in tids:
            self.send(tid, tag, data, size)

    def bcast_all(self, tag: int, data: Any, size: Optional[int] = None) -> None:
        """Broadcast to every *other* task (PVM group bcast over the
        implicit all-tasks group)."""
        self._check_tag(tag)
        msg = Message(
            self.handler_id, (tag, data),
            size=size if size is not None else estimate_size(data),
        )
        self.cmi.sync_broadcast(msg)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        tag, data = msg.payload
        self.mailbox.put(data, tag, msg.src_pe, size=msg.size)
        self._wake_one_matching(tag, msg.src_pe)

    def _wake_one_matching(self, tag: int, source: Optional[int]) -> None:
        for i, (wtag, wsrc, thr) in enumerate(self._waiting):
            if (wtag is CMM_WILDCARD or wtag == tag) and (
                wsrc is CMM_WILDCARD or wsrc == source
            ):
                del self._waiting[i]
                self.runtime.cth.awaken(thr)
                return

    def nrecv(self, tid: int = PVM_ANY, tag: int = PVM_ANY) -> Optional[PvmMessage]:
        """``pvm_nrecv``: non-blocking receive."""
        entry = self.mailbox.get(_norm(tag), _norm(tid))
        if entry is None:
            return None
        self.stats_received += 1
        return PvmMessage(entry.tag1, entry.tag2, entry.payload, entry.size)

    def recv(self, tid: int = PVM_ANY, tag: int = PVM_ANY) -> PvmMessage:
        """``pvm_recv``: blocking receive.

        From plain (SPM) code this blocks the whole PE via
        ``CmiGetSpecificMsg``.  From inside a Cth thread it suspends only
        the thread — the multithreaded PVM mode.
        """
        in_thread = not self.runtime.cth.self_thread().is_main
        while True:
            got = self.nrecv(tid, tag)
            if got is not None:
                return got
            if in_thread:
                me = self.runtime.cth.self_thread()
                self._waiting.append((_norm(tag), _norm(tid), me))
                self.runtime.cth.suspend()
            else:
                self._file(self.cmi.get_specific_msg(self.handler_id).grab())

    def _file(self, msg: Message) -> None:
        mtag, data = msg.payload
        self.mailbox.put(data, mtag, msg.src_pe, size=msg.size)

    def probe(self, tid: int = PVM_ANY, tag: int = PVM_ANY) -> int:
        """``pvm_probe``: size of the oldest matching arrived message, or
        -1.  Drains fresh arrivals for this runtime first (non-blocking)."""
        self.runtime.drain_for(self.handler_id, self._file)
        return self.mailbox.probe(_norm(tag), _norm(tid))

    # ------------------------------------------------------------------
    # collectives (over the implicit all-tasks group)
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """``pvm_barrier`` over all tasks (EMI spanning-tree barrier)."""
        g = world_group(self.runtime.machine)
        self.cmi.groups.barrier(g)

    def reduce(self, op: Callable[[Any, Any], Any], value: Any) -> Any:
        """``pvm_reduce`` over all tasks.  PVM defines the result only at
        the root; the EMI tree hands it to everyone, so all tasks get it
        (a strict superset of the PVM contract)."""
        g = world_group(self.runtime.machine)
        return self.cmi.groups.reduce(g, value, op)

    def gather(self, value: Any, root: int = 0) -> Optional[List[Any]]:
        """``pvm_gather``: every task contributes; the root returns the
        list indexed by tid, others return ``None``."""
        g = world_group(self.runtime.machine)

        def merge(a: Any, b: Any) -> Any:
            out = dict(a)
            out.update(b)
            return out

        combined = self.cmi.groups.reduce(g, {self.mytid(): value}, merge)
        if self.mytid() != root:
            return None
        return [combined[t] for t in range(self.ntasks())]
