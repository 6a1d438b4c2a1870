"""A mini-MPI on the minimal machine interface (paper section 3.1.3).

The MMI deliberately omits what MPI promises: "MPI provides a 'receive'
call based on context, tag and source processor.  It also guarantees that
messages are delivered in the sequence in which they are sent between a
pair of processors.  The overhead of maintaining messages indexed for
such retrieval ... is unnecessary for many applications.  The interface
we propose ... is minimal, yet **it is possible to provide an efficient
MPI-style retrieval on top of this interface.**"

This module makes good on that sentence.  It provides:

* **communicators** — ``COMM_WORLD`` plus ``comm.split(color, key)``;
  each communicator is an MPI *context*: messages never cross
  communicators even with equal tags;
* **(context, tag, source) retrieval with wildcards** (``ANY_TAG``,
  ``ANY_SOURCE``), built on one Cmm message manager per communicator —
  the need-based-cost composition the paper prescribes;
* **pairwise ordering** — guaranteed by construction: the simulated
  channels are FIFO and the mailbox is FIFO within a match set, so
  matching receives complete in send order;
* blocking and nonblocking point-to-point (``send`` / ``recv`` /
  ``isend`` / ``irecv`` / ``wait`` / ``test`` / ``probe`` / ``iprobe``);
* collectives over the communicator: ``barrier``, ``bcast``, ``reduce``,
  ``allreduce``, ``gather``, ``scatter``, ``alltoall``.

Naming follows mpi4py's lowercase pickled-object methods; like the other
language runtimes, blocking receives are SPM-blocking from plain code and
thread-blocking from inside a Cth thread.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import LanguageError
from repro.core.message import Message, estimate_size
from repro.langs.common import LanguageRuntime
from repro.msgmgr.message_manager import CMM_WILDCARD, MessageManager

__all__ = ["MPI", "Communicator", "Request", "Status", "ANY_TAG", "ANY_SOURCE"]

ANY_TAG = -1
ANY_SOURCE = -1

#: tag space reserved for collective operations (per collective call).
_COLL_TAG_BASE = 1 << 28


class Status:
    """Envelope of a completed receive (``MPI_Status``)."""

    __slots__ = ("source", "tag", "count")

    def __init__(self, source: int = -1, tag: int = -1, count: int = 0) -> None:
        self.source = source
        self.tag = tag
        self.count = count

    def __repr__(self) -> str:
        return f"Status(source={self.source}, tag={self.tag}, count={self.count})"


class Request:
    """A nonblocking operation handle (``MPI_Request``)."""

    __slots__ = ("_comm", "_kind", "_match", "_done", "_data", "status", "_send_handle")

    def __init__(self, comm: "Communicator", kind: str,
                 match: Optional[Tuple[Any, Any]] = None,
                 send_handle: Any = None) -> None:
        self._comm = comm
        self._kind = kind          # "send" or "recv"
        self._match = match        # (tag, source) for recvs
        self._done = False
        self._data: Any = None
        self.status = Status()
        self._send_handle = send_handle

    def test(self) -> bool:
        """Nonblocking completion check; recvs poach from the mailbox."""
        if self._done:
            return True
        if self._kind == "send":
            if self._send_handle is None or self._send_handle.done:
                self._done = True
            return self._done
        got = self._comm._try_match(*self._match)  # type: ignore[misc]
        if got is not None:
            self._data, self.status = got
            self._done = True
        return self._done

    def wait(self) -> Any:
        """Block until complete; returns the data for receives."""
        if self._kind == "send":
            mpi = self._comm.mpi
            h = self._send_handle
            while not self.test():
                remaining = h.complete_at - mpi.runtime.node.engine.now
                if remaining > 0:
                    mpi.runtime.node.engine.sleep(remaining)
            return None
        self._comm.mpi._block_until(self.test)
        return self._data


class Communicator:
    """An MPI communicator: a context id + a rank <-> PE mapping."""

    def __init__(self, mpi: "MPI", context: int, members: List[int]) -> None:
        self.mpi = mpi
        self.context = context
        #: communicator rank -> PE, sorted construction order.
        self.members = list(members)
        self._pe_to_rank = {pe: r for r, pe in enumerate(self.members)}
        self.mailbox = MessageManager()
        #: threads blocked in recv on this communicator.
        self._waiting: List[Tuple[Any, Any, Any]] = []
        self._coll_seq = 0

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        try:
            return self._pe_to_rank[self.mpi.my_pe]
        except KeyError:
            raise LanguageError(
                f"PE {self.mpi.my_pe} is not a member of communicator "
                f"{self.context}"
            ) from None

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self.members)

    def _pe_of(self, rank: int) -> int:
        if not 0 <= rank < self.size:
            raise LanguageError(f"rank {rank} out of range [0, {self.size})")
        return self.members[rank]

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, data: Any, dest: int, tag: int = 0) -> None:
        """Blocking send (buffered: returns when the buffer is free)."""
        self._check_tag(tag)
        self.mpi._send(self, self._pe_of(dest), tag, data, sync=True)

    def isend(self, data: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send; complete with ``wait``/``test``."""
        self._check_tag(tag)
        handle = self.mpi._send(self, self._pe_of(dest), tag, data, sync=False)
        return Request(self, "send", send_handle=handle)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Optional[Status] = None) -> Any:
        """Blocking receive by (context, tag, source) with wildcards."""
        got = self.mpi._recv_blocking(self, tag, source)
        data, st = got
        if status is not None:
            status.source, status.tag, status.count = st.source, st.tag, st.count
        return data

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; ``wait()`` returns the data."""
        return Request(self, "recv", match=(tag, source))

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Blocking probe: waits for a matching envelope without
        consuming the message."""
        self.mpi._block_until(lambda: self._peek(tag, source) is not None)
        st = self._peek(tag, source)
        assert st is not None
        return st

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG
               ) -> Optional[Status]:
        """Nonblocking probe (drains fresh arrivals first)."""
        mpi = self.mpi
        mpi.runtime.drain_for(mpi.handler_id, mpi._on_message)
        return self._peek(tag, source)

    # -- matching internals ------------------------------------------------
    def _check_tag(self, tag: int) -> None:
        if isinstance(tag, bool) or not isinstance(tag, int) or tag < 0:
            raise LanguageError(f"send tags must be ints >= 0, got {tag!r}")

    def _norm(self, tag: Any, source: Any) -> Tuple[Any, Any]:
        t = CMM_WILDCARD if tag == ANY_TAG else tag
        s = CMM_WILDCARD if source == ANY_SOURCE else self._pe_of(source)
        return t, s

    def _try_match(self, tag: Any, source: Any) -> Optional[Tuple[Any, Status]]:
        t, s = self._norm(tag, source)
        entry = self.mailbox.get(t, s)
        if entry is None:
            return None
        st = Status(self._pe_to_rank[entry.tag2], entry.tag1, entry.size)
        return entry.payload, st

    def _peek(self, tag: Any, source: Any) -> Optional[Status]:
        t, s = self._norm(tag, source)
        tags = self.mailbox.probe_tags(t, s)
        if tags is None:
            return None
        size = self.mailbox.probe(t, s)
        return Status(self._pe_to_rank[tags[1]], tags[0], size)

    def _file(self, tag: int, src_pe: int, data: Any, size: int) -> None:
        self.mailbox.put(data, tag, src_pe, size=size)
        # Wake one matching blocked thread, if any.
        for i, (wtag, wsrc, thr) in enumerate(self._waiting):
            tag_ok = wtag == ANY_TAG or wtag == tag
            src_ok = wsrc == ANY_SOURCE or self._pe_of(wsrc) == src_pe
            if tag_ok and src_ok:
                del self._waiting[i]
                self.mpi.runtime.cth.awaken(thr)
                return

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _next_coll_tag(self) -> int:
        """Collective tag allocation: every member calls collectives in
        the same order (the MPI contract), so sequences agree."""
        self._coll_seq += 1
        return _COLL_TAG_BASE + self._coll_seq

    def barrier(self) -> None:
        """Dissemination-free tree barrier: gather-to-root + broadcast."""
        self.reduce(0, lambda a, b: 0, root=0)
        self.bcast(None, root=0)

    def bcast(self, data: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast; returns the data on every rank."""
        tag = self._next_coll_tag()
        me, size = self.rank, self.size
        rel = (me - root) % size
        if rel != 0:
            parent = (((rel - 1) >> 1) + root) % size
            data = self.recv(source=parent, tag=tag)
        for k in (2 * rel + 1, 2 * rel + 2):
            if k < size:
                self.send(data, ((k + root) % size), tag=tag)
        return data

    def reduce(self, value: Any, op: Callable[[Any, Any], Any],
               root: int = 0) -> Optional[Any]:
        """Binary-tree reduction; the result lands on ``root`` (None
        elsewhere).  ``op`` must be associative."""
        tag = self._next_coll_tag()
        me, size = self.rank, self.size
        rel = (me - root) % size
        acc = value
        for k in (2 * rel + 1, 2 * rel + 2):
            if k < size:
                acc = op(acc, self.recv(source=(k + root) % size, tag=tag))
        if rel != 0:
            parent = (((rel - 1) >> 1) + root) % size
            self.send(acc, parent, tag=tag)
            return None
        return acc

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any]) -> Any:
        """Reduction whose result lands on every rank."""
        total = self.reduce(value, op, root=0)
        return self.bcast(total, root=0)

    def gather(self, value: Any, root: int = 0) -> Optional[List[Any]]:
        """Everyone contributes; root returns the rank-ordered list."""
        merged = self.reduce({self.rank: value},
                             lambda a, b: {**a, **b}, root=root)
        if merged is None:
            return None
        return [merged[r] for r in range(self.size)]

    def scatter(self, values: Optional[List[Any]], root: int = 0) -> Any:
        """Root distributes ``values[r]`` to each rank r."""
        tag = self._next_coll_tag()
        if self.rank == root:
            if values is None or len(values) != self.size:
                raise LanguageError(
                    f"scatter needs exactly {self.size} values at the root"
                )
            for r in range(self.size):
                if r != root:
                    self.send(values[r], r, tag=tag)
            return values[root]
        return self.recv(source=root, tag=tag)

    def alltoall(self, values: List[Any]) -> List[Any]:
        """values[r] goes to rank r; returns what every rank sent here."""
        if len(values) != self.size:
            raise LanguageError(
                f"alltoall needs exactly {self.size} values"
            )
        tag = self._next_coll_tag()
        me = self.rank
        out: List[Any] = [None] * self.size
        out[me] = values[me]
        for r in range(self.size):
            if r != me:
                self.send(values[r], r, tag=tag)
        for _ in range(self.size - 1):
            st = Status()
            data = self.recv(source=ANY_SOURCE, tag=tag, status=st)
            out[st.source] = data
        return out

    # ------------------------------------------------------------------
    # communicator construction
    # ------------------------------------------------------------------
    def split(self, color: int, key: int = 0) -> Optional["Communicator"]:
        """Collective: ranks with equal ``color`` form a new communicator,
        ordered by (key, old rank).  ``color < 0`` opts out (None)."""
        triples = self.gather((color, key, self.rank), root=0)
        groups: Optional[Dict[int, List[int]]] = None
        if self.rank == 0:
            groups = {}
            for c, k, r in sorted(triples, key=lambda t: (t[0], t[1], t[2])):
                if c >= 0:
                    groups.setdefault(c, []).append(self._pe_of(r))
        groups = self.bcast(groups, root=0)
        if color < 0:
            return None
        members = groups[color]
        ctx = self.mpi._context_for(("split", self.context, color,
                                     tuple(members)))
        return self.mpi._get_comm(ctx, members)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator ctx={self.context} size={self.size}>"


class MPI(LanguageRuntime):
    """Per-PE mini-MPI runtime."""

    lang_name = "mpi"

    def __init__(self, runtime: Any) -> None:
        super().__init__(runtime)
        self.handler_id = runtime.register_handler(self._on_message, "mpi.recv")
        #: context id -> communicator (per-PE instances share ids).
        self._comms: Dict[int, Communicator] = {}
        self._context_ids: Dict[Any, int] = {}
        self._next_context = 1
        self.COMM_WORLD = self._get_comm(0, list(range(self.num_pes)))

    # ------------------------------------------------------------------
    # communicator bookkeeping
    # ------------------------------------------------------------------
    def _context_for(self, key: Any) -> int:
        """Deterministic context allocation: identical split sequences on
        all PEs yield identical context ids."""
        ctx = self._context_ids.get(key)
        if ctx is None:
            ctx = self._next_context
            self._next_context += 1
            self._context_ids[key] = ctx
        return ctx

    def _get_comm(self, context: int, members: List[int]) -> Communicator:
        comm = self._comms.get(context)
        if comm is None:
            comm = Communicator(self, context, members)
            self._comms[context] = comm
        return comm

    # ------------------------------------------------------------------
    # wire layer
    # ------------------------------------------------------------------
    def _send(self, comm: Communicator, dest_pe: int, tag: int, data: Any,
              sync: bool) -> Any:
        payload = (comm.context, tag, data)
        msg = Message(self.handler_id, payload,
                      size=estimate_size(data))
        if sync:
            self.cmi.sync_send(dest_pe, msg)
            return None
        return self.cmi.async_send(dest_pe, msg)

    def _on_message(self, msg: Message) -> None:
        context, tag, data = msg.payload
        comm = self._comms.get(context)
        if comm is None:
            raise LanguageError(
                f"MPI message for unknown context {context} on PE "
                f"{self.my_pe}; split communicators must be constructed "
                "collectively before use"
            )
        comm._file(tag, msg.src_pe, data, msg.size)

    # ------------------------------------------------------------------
    # blocking machinery (shared by every communicator)
    # ------------------------------------------------------------------
    def _block_until(self, predicate: Callable[[], bool]) -> None:
        """SPM-style wait: drain MPI arrivals (side-buffering foreign
        handlers) until the predicate holds."""
        self.runtime.drain_for(self.handler_id, self._on_message, until=predicate)

    def _recv_blocking(self, comm: Communicator, tag: Any, source: Any
                       ) -> Tuple[Any, Status]:
        in_thread = not self.runtime.cth.self_thread().is_main
        while True:
            got = comm._try_match(tag, source)
            if got is not None:
                return got
            if in_thread:
                me = self.runtime.cth.self_thread()
                comm._waiting.append((tag, source, me))
                self.runtime.cth.suspend()
            else:
                self._block_until(lambda: comm._peek(tag, source) is not None)
