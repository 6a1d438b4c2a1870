"""The multiprocess machine layer: one OS process per PE.

This is the second registered machine layer (after the simulator) and the
first with *real* parallelism: every PE is a child process with its own
interpreter (and GIL), wired to the parent and its peers over Unix-domain
sockets (:func:`_socket_dir` names them).  The layers above the machine
interface — :class:`ConverseRuntime`, the Csd scheduler, the CMI, the
message manager — run in each worker process **unmodified**: the worker
derives the five machine-interface classes (:mod:`repro.machine.interface`
— a wall-clock engine, a node that reads its own sockets, a
socket-backed network, a forwarding console and a one-PE host) and adds
only what real processes and sockets need.

Topology is a full mesh beside a hub: a worker writes each data frame
— a struct header, then the payload pickled once by its sender; for a
CMI send, straight from the caller's message, with no wire copy — by
gather writes to a link of its own to the destination worker,
which decodes it in place (see "framing" below).  The parent process (the
hub) is the control plane: membership and respawn, console, results,
health, clock probes and quiescence detection, run from one selector
loop and one deadline heap driven by :meth:`MpMachine.run` and
:meth:`MpMachine.shutdown` on the caller's thread.

**Quiescence** uses counting over FIFO channels: each worker counts, per
peer, the data frames it sent there (when written or held) and the ones
it dispatched from there; as its mains return, and once a park has
lasted ``_IDLE_GRACE`` with nothing arriving, it reports both vectors,
the peer epochs they refer to and its armed timers.  The hub declares
quiescence when no
respawn is owed and every live PE's last report is idle, timer-free and
of the hub's epochs, with ``sent_i[j] == recv_j[i]`` for every ordered
pair.  That cannot hold while a frame is in flight: a PE woken after its
report was woken by a frame sent before its sender's report, which that
pair's counts still show.  A parked worker wakes only on arrivals
(counted) and local timers (reported), so the check is also complete.

**Observability** works distributed: with ``trace=``/``metrics=`` each
worker runs the ordinary per-PE tracer and metrics registry *in its own
process* (instrumented-vs-fast dispatch selection is unchanged, so the
off-cost stays zero), spooling trace events to per-PE JSONL files and
shipping a metrics snapshot to the hub at shutdown.  The hub estimates
each worker's monotonic-clock offset with echo probes at startup and
close, merges the spools onto one timeline (:mod:`repro.tracing.merge`)
and recombines the snapshots (:func:`repro.metrics.registry.merge_snapshots`),
so the unchanged analysis/critpath/export/report pipelines consume mp
runs exactly like simulator runs.  After :meth:`MpMachine.shutdown`,
``trace=True``/``"memory"`` leaves the merged trace on
``machine.tracer``; ``"count"`` leaves merged per-kind counters there;
``"jsonl:<path>"`` (or a path) also writes the merged trace at
``<path>`` plus a ``<path minus ext>.clock.json`` offset sidecar, and
keeps the per-PE spools (``trace.pe0.jsonl``, ...) for re-merging with
``repro.trace merge``.  Workers additionally stream periodic
health snapshots; the hub keeps a bounded flight-recorder ring of them,
serves :meth:`MpMachine.health`, and attaches the last snapshots to
timeout/crash errors so hung runs die with evidence.

**Faults and fault tolerance** are real on this layer.  With
``faults=FaultPlan(...)`` each worker applies the seeded plan where a
remote packet leaves it (:meth:`_MpNetwork._transmit_faulty`, through
the simulator's own :meth:`~repro.machine.faults.FaultPlan.apply`); a
delayed copy waits on the sender's timer heap, so the idle report's
timer count holds quiescence until it has left.  Self-sends are exempt.
``CrashSpec`` entries make the hub **SIGKILL** workers at their
wall-clock times (counted from the start of ``run()``) and respawn a
fresh incarnation (epoch bump, restart-with-amnesia) after
``restart_after``; frames sent to a dead incarnation are dropped at
their sender, and the hub announces the fresh one's hello to every live
worker, which restarts its link and counts for that peer.  The
reliable-delivery (``reliable=True``) and fault-tolerance
(``ft=FTConfig()``) layers run *inside each worker* unmodified, on its
main thread: acks, retransmissions, heartbeats and checkpoint custody
happen when it next enters the runtime (the progress rule, see
:class:`_MpNode`), and each worker's :class:`~repro.ft.manager.FTCoordinator`
replica is fed the crash schedule.  Protocol timeouts are floored to
socket scale at construction (the simulator's microsecond RTOs would
retransmit thousands of times per real RTT).  An *unscheduled* worker
death (an outside SIGKILL, an OOM kill) is classified from the torn
socket and surfaces as a structured :class:`~repro.core.errors.WorkerDied`
carrying the PE id and the flight-recorder's last health snapshot.

Scope (documented in the README machine-layer matrix): cost models and
aggregation are restricted options; Cth threads/tasklets, console input,
one-sided get/put and ``register_quiescence`` are capabilities this
layer leaves to the interface's refusing defaults.  Time is wall-clock;
runs are not deterministic (mp fault tests assert invariants, not
byte-identical traces).
"""

from __future__ import annotations

import mmap
import os
import pickle
import random
import select
import selectors
import shutil
import signal
import socket
import struct
import sys
import tempfile
import threading
import time
import traceback
from collections import deque
from contextlib import suppress
from dataclasses import replace
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core import context
from repro.core.errors import SimulationError, WorkerDied
from repro.core.message import WIRE_FIELDS, from_wire_fields, wire_copy, wire_fields
from repro.machine.base import MachineConfig, MachineLayer, build_pe_stack
from repro.machine.faults import FaultPlan
from repro.machine.interface import (
    ConsoleLog,
    Engine,
    Interconnect,
    MachineModel,
    PEHost,
    PENode,
    ProtocolTiming,
    SendHandle,
)
from repro.tracing.tracer import (
    CountingTracer,
    JsonlTracer,
    Tracer,
    parse_trace_spec,
)

__all__ = ["MpMachine", "MP_MODEL"]

#: cadence of worker health snapshots (seconds); also the resolution of
#: the flight recorder attached to timeout errors.  Read when the hub
#: starts a worker, which gets it as an argument.
_HEALTH_INTERVAL = 0.25

#: flight-recorder depth: most recent health snapshots the hub retains
#: for post-mortem attachment to timeout/crash errors.
_FLIGHT_DEPTH = 64

#: all-zero cost model: on a real machine layer the costs are real, so
#: the virtual accounting terms must not add phantom time to ``charge``.
MP_MODEL = MachineModel(
    name="mp",
    description="multiprocess machine layer (real costs; no virtual charges)",
    send_overhead=0.0,
    recv_overhead=0.0,
    latency_per_hop=0.0,
    per_byte=0.0,
    cvs_send_extra=0.0,
    cvs_dispatch_extra=0.0,
    enqueue_cost=0.0,
    dequeue_cost=0.0,
)

_LEN = struct.Struct("<I")

#: a connection's standing read buffer (anonymous memory: resident as reads
#: reach it): small frames or a 64 KiB message per ``recv_into``.  A larger
#: frame gets an exact-size buffer of its own.
_BUF_BYTES = 1 << 17
_IOV_MAX = 1024  #: most chunks one ``sendmsg`` takes; a longer queue is joined
#: a worker's send buffer toward the hub (Linux caps it at net.core.wmem_max):
#: a result frame of 0.2-10 MB is written without waiting on ~200 KiB reads.
_HUB_SNDBUF = 4 << 20

#: how long a park lasts, with nothing arriving, before a worker reports
#: idle (else every park would wake the hub once per message).
_IDLE_GRACE = 1e-3


# ----------------------------------------------------------------------
# framing.  Every frame is a length prefix (_LEN) and a body whose first
# byte says what it is:
#
# * a control frame (hello, idle, result, printf, health, shutdown, ...)
#   is a pickled tuple, so its first byte is pickle's PROTO opcode;
# * a data frame — one packet from a sending PE to a destination PE — is
#   a fixed header (tag, immediate, destination, sender) and then either
#   a plain Message's fields (repro.core.message.WIRE_FIELDS, reliable
#   delivery's seq/ack among them) and a pickle of its payload alone
#   (_TAG_MSG), or a pickle of the whole packet (_TAG_OBJ: Message
#   subclasses, a set enq_time, a BitVector priority, a field too wide for
#   the header).  A CMI send's frame is encoded from the caller's message,
#   as its wire copy's would be, by the same function (_encode_data with
#   copy=True): no copy is made unless the header cannot hold it;
# * a link header (_TAG_LINK: sender, its epoch, the target's epoch)
#   opens every worker-to-worker link.  Listeners are named, not
#   numbered: _peer_name derives one from the machine, the PE and its
#   epoch.
#
# Control frames pass between a worker and the hub; data frames go from
# one worker to another on a link only the sender writes and only the
# destination reads.  A data frame is sent as header and payload pickle by
# one gather ``sendmsg`` (CmiVectorSend's lowering; held frames share
# one), and read by a _Reader, which decodes in place (pickle copies).
# This section is the only code that knows the frame format.
# ----------------------------------------------------------------------
_PICKLE = pickle.PROTO[0]
_TAG_MSG = 0x01
_TAG_OBJ = 0x02
_TAG_LINK = 0x03
#: a data frame's length prefix and header.
_ROUTE = struct.Struct("<IBBii")
#: ... followed by a plain Message's fields (_TAG_MSG only).
_DATA = struct.Struct(_ROUTE.format + WIRE_FIELDS)
#: a link header: prefix, tag, sender, its epoch, target epoch.
_LINK = struct.Struct("<IBiii")


def _encode(frame: Any) -> bytes:
    """A control frame."""
    data = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
    return _LEN.pack(len(data)) + data


def _encode_link(src: int, epoch: int, target: int) -> bytes:
    """The header of a link from PE ``src`` to a peer's incarnation ``target``."""
    return _LINK.pack(_LINK.size - _LEN.size, _TAG_LINK, src, epoch, target)


def _encode_data(src: int, dst: int, packet: Any, immediate: bool,
                 copy: bool = False, msg_id: Optional[int] = None) -> Optional[tuple]:
    """A data frame carrying ``packet`` from PE ``src`` to PE ``dst``, as
    its two chunks: the header and the body pickle.  With ``copy``,
    ``packet`` is a caller's message and the frame carries its
    :func:`~repro.core.message.wire_copy` (trace id ``msg_id``); None
    where that copy's fields do not fit the header."""
    try:
        fields = wire_fields(packet, src, copy, msg_id)
        if fields is not None:
            body = pickle.dumps(packet.payload, protocol=pickle.HIGHEST_PROTOCOL)
            try:
                return _DATA.pack(_DATA.size - _LEN.size + len(body), _TAG_MSG,
                                  immediate, dst, src, *fields), body
            except struct.error:
                pass  # a field too wide for the header
        if copy:
            return None
        body = pickle.dumps(packet, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SimulationError(f"the mp machine layer could not pickle an "
                              f"outgoing message for PE {dst}: {exc}") from exc
    return _ROUTE.pack(_ROUTE.size - _LEN.size + len(body), _TAG_OBJ,
                       immediate, dst, src), body


def _socket_dir() -> str:
    """Where a new machine names its sockets: a private directory of its
    own (:meth:`MpMachine.shutdown` removes it)."""
    return tempfile.mkdtemp(prefix="repro-mp-") + "/"


def _peer_name(base: str, pe: int, epoch: int) -> str:
    """Where incarnation ``epoch`` of PE ``pe`` listens (the hub: ``base + "hub"``)."""
    return f"{base}{pe}.{epoch}"


def _unsent(chunks: Sequence[Any], sent: int) -> List[Any]:
    """What a gather write of ``chunks`` left after ``sent`` bytes, as views."""
    for i, chunk in enumerate(chunks):
        size = len(chunk)
        if sent < size:
            return [memoryview(chunk)[sent:], *chunks[i + 1:]]
        sent -= size
    return []


class _Reader:
    """One socket's read side, at either end: one ``recv_into`` the free
    tail of a standing buffer per :meth:`read`, whole frames decoded in
    place.  Compacted only when the partial frame at the front needs room.
    ``origin``: a link's header ``(sender, epoch, target epoch)``."""

    __slots__ = ("sock", "flags", "standing", "view", "start", "end", "origin")

    def __init__(self, sock: Optional[socket.socket], flags: int = 0) -> None:
        self.sock, self.flags = sock, flags
        self.standing = self.view = memoryview(
            mmap.mmap(-1, _BUF_BYTES, flags=mmap.MAP_PRIVATE))
        self.start = self.end = 0  # view[start:end]: read, not decoded
        self.origin: Optional[tuple] = None

    def read(self, frames: Any) -> bool:
        """One ``recv_into``, decoded onto ``frames``; False at EOF or error."""
        view, start, end = self.view, self.start, self.end
        need = _LEN.size + (_LEN.unpack_from(view, start)[0]
                            if end - start >= _LEN.size else 0)
        if start + need > len(view):  # the partial frame at the front needs room
            new = self.standing if need <= _BUF_BYTES else memoryview(bytearray(need))
            new[:end - start] = view[start:end]
            view, start, end = new, 0, end - start
            self.view, self.start, self.end = view, start, end
        try:
            n = self.sock.recv_into(view[end:], 0, self.flags)
        except (BlockingIOError, InterruptedError):
            return True
        except OSError:
            return False
        self.end = end + n
        if n:
            self.decode(frames)
            if self.start == self.end:  # the next read starts at the front
                self.view, self.start, self.end = self.standing, 0, 0
        return n > 0

    def decode(self, frames: Any) -> Any:
        """Append every whole frame read to ``frames``: a control frame's
        tuple, or ``("msg", packet, immediate, origin)``; a link header
        sets ``origin``.  A bad frame raises after those before it."""
        view, pos, end = self.view, self.start, self.end
        try:
            while end - pos >= _LEN.size:
                head = pos + _LEN.size
                stop = head + _LEN.unpack_from(view, pos)[0]
                if stop > end:
                    break
                tag = view[head] if stop > head else None
                if tag == _TAG_MSG:
                    fields = _DATA.unpack_from(view, pos)
                    payload = pickle.loads(view[pos + _DATA.size:stop])
                    frames.append(("msg", from_wire_fields(fields[5:], payload,
                                                           fields[4]),
                                   fields[2], self.origin))
                elif tag == _PICKLE:
                    frames.append(pickle.loads(view[head:stop]))
                elif tag == _TAG_OBJ:
                    frames.append(("msg", pickle.loads(view[pos + _ROUTE.size:stop]),
                                   _ROUTE.unpack_from(view, pos)[2], self.origin))
                elif tag == _TAG_LINK and stop - pos == _LINK.size:
                    self.origin = _LINK.unpack_from(view, pos)[2:]
                else:
                    raise pickle.UnpicklingError(f"unknown frame tag {tag!r}")
                pos = stop
        finally:
            self.start = pos
        return frames


def _decode(buf: bytearray, frames: Optional[List[Any]] = None) -> List[Any]:
    """:meth:`_Reader.decode` of the stream in ``buf``, whose decoded
    bytes it deletes."""
    reader = _Reader(None)
    reader.view, reader.end = memoryview(bytes(buf)), len(buf)
    try:
        return reader.decode([] if frames is None else frames)
    finally:
        del buf[:reader.start]


# ======================================================================
# worker-process side
# ======================================================================
class _WorkerStop(BaseException):
    """Raised inside a parked worker main when the hub shuts the run
    down; unwinds user code without being caught by ``except Exception``
    (like :class:`TaskletKilled` in the simulator)."""


class _Timer:
    """One armed callback: the handle :meth:`_MpEngine.schedule` returns."""

    __slots__ = ("engine", "fn", "args")

    def __init__(self, engine: "_MpEngine", fn: Callable[..., Any],
                 args: tuple) -> None:
        self.engine = engine
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args

    def cancel(self) -> None:
        # Marked, not removed: the heap drops the entry when it comes due.
        if self.fn is not None:
            self.fn = None
            self.engine.pending_timers -= 1


class _MpEngine(Engine):
    """Wall-clock engine inside a worker: the clock is
    ``time.monotonic`` since boot and delayed callbacks are a deadline
    heap that the PE's main thread owns and drains from the node's pump
    (:meth:`_MpNode.pump`), so a callback never runs beside a handler.
    No tasklets — one main runs per PE, so the interface's tasklet
    operations keep refusing until a real Cth backend exists.  The hub's
    loop keeps its deadlines in one of these too.
    """

    layer_name = "mp"

    def __init__(self) -> None:
        self._t0 = time.monotonic()
        #: ``(deadline, tie-break, timer)``, earliest first.
        self._heap: List[tuple] = []
        self._seq = 0
        #: armed timers: scheduled, neither cancelled nor run to
        #: completion.  Written by the main thread only; the health
        #: thread reads it lock-free.
        self.pending_timers = 0

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> _Timer:
        return self.schedule_until(time.monotonic() + max(0.0, delay), fn, *args)

    def schedule_until(self, deadline: float, fn: Callable[..., Any],
                       *args: Any) -> _Timer:
        """Arm ``fn(*args)`` for a ``time.monotonic()`` deadline (ties
        fire in arming order)."""
        timer = _Timer(self, fn, args)
        self._seq += 1
        heappush(self._heap, (deadline, self._seq, timer))
        self.pending_timers += 1
        return timer

    def fire_due(self) -> None:
        """Run every callback whose deadline has passed, earliest first."""
        heap = self._heap
        while heap and heap[0][0] <= time.monotonic():
            timer = heappop(heap)[2]
            fn = timer.fn
            if fn is None:
                continue  # cancelled
            timer.fn = None
            try:
                fn(*timer.args)
            finally:
                # Counted until the callback returns: one that re-arms
                # (retransmit backoff) pushes its successor first, so the
                # count a nested wait could report never dips to zero
                # while protocol work is pending.
                self.pending_timers -= 1

    def due(self) -> bool:
        """True when the earliest deadline has passed."""
        heap = self._heap
        return bool(heap) and heap[0][0] <= time.monotonic()

    def next_deadline_in(self, cap: Optional[float] = None) -> Optional[float]:
        """Seconds until the earliest deadline, at most ``cap`` (None
        with no cap and nothing armed)."""
        if not self._heap:
            return cap
        due = max(0.0, self._heap[0][0] - time.monotonic())
        return due if cap is None else min(cap, due)


class _Peer:
    """The sending side toward one peer incarnation: its link and queue."""

    __slots__ = ("pe", "name", "sock", "out", "out_bytes", "polled")

    def __init__(self, pe: int, name: Optional[str]) -> None:
        self.pe, self.name = pe, name  # its listener; None: the incarnation is gone
        self.sock: Optional[socket.socket] = None
        self.out: List[Any] = []
        self.out_bytes, self.polled = 0, False


class _WorkerLink:
    """A worker's Unix-domain sockets — to the hub, its listener, links
    from and to each peer, each opened by a link header (sender, its epoch,
    the target's) and carrying data frames encoded before the send call
    returned — and the per-peer counts of its idle report, all the main
    thread's; the health thread also writes the hub socket."""

    def __init__(self, sock: socket.socket, pe: int,
                 listener: Optional[socket.socket] = None, base: str = "",
                 epochs: Sequence[int] = ()) -> None:
        self.sock = sock
        self.pe = pe
        #: held to write the hub socket (main, health thread) or a peer queue.
        self.wlock = threading.Lock()
        self.arm: Callable[[], Any] = lambda: None
        self.reader = _Reader(sock, socket.MSG_DONTWAIT)
        #: what a parked main thread polls; per fd, its socket and handler.
        self.poller = select.poll()
        self.watched: Dict[int, tuple] = {}
        self._watch(sock, select.POLLIN, partial(self._read, self.reader))
        self.listener, self.base = listener, base
        if listener is not None:
            listener.setblocking(False)
            self._watch(listener, select.POLLIN, self._accept)
        #: per PE: its incarnation, the data frames sent to it and
        #: dispatched from it, the sending side.
        self.epochs = list(epochs)
        self.sent = [0] * len(epochs)
        self.recv = [0] * len(epochs)
        self.out = [_Peer(pe, _peer_name(base, pe, epoch))
                    for pe, epoch in enumerate(epochs)]
        #: peers given held frames since the last flush_held.
        self.held: List[_Peer] = []
        self.stop = threading.Event()
        self.engine: Optional[_MpEngine] = None
        self._last_idle: Optional[tuple] = None

    def _watch(self, sock: socket.socket, events: int, fn: Callable) -> None:
        self.poller.register(sock, events)
        self.watched[sock.fileno()] = (sock, fn)

    def _unwatch(self, sock: socket.socket) -> None:
        self.poller.unregister(sock)
        del self.watched[sock.fileno()]

    def send(self, frame: Any) -> None:
        """A control frame to the hub."""
        data = _encode(frame)
        with self.wlock:
            self.sock.sendall(data)

    def hold(self, peer: _Peer, chunks: tuple) -> None:
        """Hold a data frame's two chunks (a new batch arms the alarm);
        write now if one more frame might not fit in one ``sendmsg``."""
        with self.wlock:
            if not peer.out:
                if not self.held:
                    self.arm()
                self.held.append(peer)
            peer.out += chunks
            peer.out_bytes += len(chunks[0]) + len(chunks[1])
            if len(peer.out) < _IOV_MAX - 1 and peer.out_bytes < _BUF_BYTES:
                return
        self.flush(peer)

    def flush(self, peer: _Peer, chunks: Sequence[Any] = ()) -> None:
        """Write ``peer``'s queue, then ``chunks``, by one gather ``sendmsg``
        that never blocks: the rest waits for ``POLLOUT``.  Frames for a
        gone incarnation are dropped."""
        with self.wlock:
            if peer.out:
                chunks, peer.out, peer.out_bytes = [*peer.out, *chunks], [], 0
            if not chunks:
                return
            sock = peer.sock if peer.sock is not None else self._connect(peer)
            if sock is None:
                return
            if len(chunks) > _IOV_MAX:
                chunks = [b"".join(chunks)]
            try:
                peer.out = _unsent(chunks, sock.sendmsg(chunks))
            except (BlockingIOError, InterruptedError):
                peer.out = list(chunks)
            except OSError:  # the incarnation died
                self._close(peer)
                return
            if bool(peer.out) != peer.polled:
                peer.polled = bool(peer.out)
                if peer.polled:
                    self._watch(sock, select.POLLOUT, lambda _frames: self.flush(peer))
                else:
                    self._unwatch(sock)

    def _connect(self, peer: _Peer) -> Optional[socket.socket]:
        """Open the link to ``peer``, link header first (under ``wlock``);
        None when its incarnation is gone."""
        if peer.name is None:
            return None
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(peer.name)
            sock.sendall(_encode_link(self.pe, self.epochs[self.pe],
                                      self.epochs[peer.pe]))
        except OSError:  # refused: nothing listens for that incarnation
            sock.close()
            peer.name = None
            return None
        sock.setblocking(False)
        peer.sock = sock
        return sock

    def _close(self, peer: _Peer) -> None:
        """Drop the link to ``peer`` and what waits for it (under ``wlock``)."""
        if peer.polled:
            self._unwatch(peer.sock)
            peer.polled = False
        if peer.sock is not None:
            peer.sock.close()
        peer.sock, peer.name, peer.out, peer.out_bytes = None, None, [], 0

    def close(self) -> None:
        """Close every socket, the hub's last (shut down: the hub reads EOF)."""
        socks = [s for s, _fn in self.watched.values()] + [p.sock for p in self.out]
        for sock in socks:
            if sock is not None and sock is not self.sock:
                sock.close()
        with suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()

    def flush_held(self) -> None:
        held, self.held = self.held, []
        for peer in held:
            self.flush(peer)

    def on_alarm(self, *_: Any) -> None:
        """SIGALRM, a switch interval after a batch began: write what the
        main thread holds, unless the code it interrupted (or the health
        thread) is writing."""
        if self.wlock.locked():
            self.arm()  # look again later
        elif self.held:
            self.flush_held()

    def renew(self, pe: int, epoch: int) -> None:
        """Incarnation ``epoch`` of PE ``pe`` is up: an older one's link and
        queue go, and both counts for the peer restart."""
        if epoch <= self.epochs[pe]:
            return
        with self.wlock:
            self._close(self.out[pe])
            self.out[pe] = _Peer(pe, _peer_name(self.base, pe, epoch))
        self.epochs[pe] = epoch
        self.sent[pe] = self.recv[pe] = 0

    def report_idle(self) -> None:
        """Tell the hub this PE is parked (the counts, their epochs, armed
        timers), after every held frame; only state changes cross the wire."""
        self.flush_held()
        snap = (tuple(self.sent), tuple(self.recv), tuple(self.epochs),
                self.engine.pending_timers)
        if snap == self._last_idle:
            return
        self._last_idle = snap
        try:
            self.send(("idle", *snap))
        except OSError:
            self.stop.set()

    def fail(self, why: str) -> None:
        """Ship a structured failure to the hub and stop this worker."""
        with suppress(OSError):
            self.send(("fatal", why))
        self.stop.set()

    def read(self, frames: deque, ready: Optional[list] = None) -> None:
        """One read (or, on ``POLLOUT``, write) per socket ``ready`` names
        (a parked poll's list), or else per socket a ``poll(0)`` finds."""
        for fd, _mask in self.poller.poll(0) if ready is None else ready:
            watched = self.watched.get(fd)  # None: closed earlier in this batch
            if watched is not None:
                watched[1](frames)

    def _accept(self, frames: deque) -> None:
        """Take every waiting link, and read each at once."""
        while True:
            try:
                sock, _addr = self.listener.accept()
            except OSError:  # BlockingIOError: the backlog is empty
                return
            fn = partial(self._read, _Reader(sock, socket.MSG_DONTWAIT))
            self._watch(sock, select.POLLIN, fn)
            fn(frames)

    def _read(self, reader: _Reader, frames: deque) -> None:
        """One read of the hub socket (EOF stops the worker) or of a peer's
        link, whose header names the sender: a link to an older incarnation
        of this PE is closed unread; a newer incarnation of the sender renews it."""
        new, before = reader.origin is None, len(frames)
        try:
            alive = reader.read(frames)
        except Exception:
            # The frame arrived whole and would not decode (a payload whose
            # unpickling raises, a class this process cannot import): a
            # structured failure.  The frames before it stay.
            src = reader.origin
            self.fail(f"PE {self.pe} could not decode a frame from "
                      f"{'the hub' if src is None else f'PE {src[0]}'}:\n"
                      f"{traceback.format_exc()}")
            return
        if reader is self.reader:
            if not alive:
                self.stop.set()
            return
        if new and reader.origin is not None:
            src, epoch, target = reader.origin
            if target != self.epochs[self.pe]:
                while len(frames) > before:
                    frames.pop()
                alive = False
            else:
                self.renew(src, epoch)
        if not alive:
            self._unwatch(reader.sock)
            reader.sock.close()


class _MpNode(PENode):
    """A PE whose main thread is the only thread that reads its sockets
    or touches runtime, protocol, inbox or timer state.
    :meth:`pump` — in :meth:`poll` once the inbox is empty or a timer is
    due, and in :meth:`wait_until` after each park — reads the ready
    sockets, runs what it decoded through the interceptors, then fires
    due timers.  A parked PE waits on its sockets and its timer heap, the
    only things that can wake it.

    The progress rule that follows: acks, retransmissions, heartbeats,
    Ccd callbacks and immediate handlers happen when the PE is inside
    the runtime (scheduler loop, blocking receive, ``poll``, or parked
    after its mains returned), not beside a compute-only handler.  A
    send made while arrivals wait is held, for a switch interval at
    most.  An immediate message overtakes the Csd queue and everything
    that arrives after it; it does not interrupt user code."""

    #: protocol timeouts at socket scale: a ~100 us frame hop would make
    #: the simulator's microsecond timers retransmit pathologically.
    #: ``ctl_rto * ctl_retries`` (5 s) outlasts a respawn and recovery.
    timing = ProtocolTiming(rto_floor=0.02, max_rto=0.25,
                            heartbeat_period=0.025, ctl_rto=0.05,
                            ctl_retries=100, checkpoint_floor=0.05)

    def __init__(self, machine: "_WorkerMachine", pe: int) -> None:
        super().__init__(machine, pe)
        #: frames read off the sockets, not yet dispatched.
        self._frames: deque = deque()
        #: True while the main thread is parked in :meth:`wait_until`
        #: (read lock-free by the health thread — a stale value is fine).
        self._parked = False

    def deliver(self, payload: Any) -> None:
        interceptors = self._interceptors
        if interceptors is not None:
            for fn in interceptors:
                if fn(payload):
                    return
        self.inbox.append(payload)
        self._arrived(payload)

    def pump(self, ready: Optional[list] = None) -> None:
        """Read the ready sockets (``ready``: those a park's poll found)
        when no decoded frame waits, dispatch frames in order, *then*
        fire due timers: an ack must cancel its retransmit timer, and a
        heartbeat refresh the failure detector's evidence, before either
        timer looks.  One read per socket per pump, so a flood cannot
        starve the timers; a re-entrant pump continues the queue."""
        link, frames = self.machine.worker, self._frames
        if not frames:
            link.read(frames, ready)
        while frames:
            frame = frames.popleft()
            kind = frame[0]
            if kind == "msg":
                if frame[2]:
                    self.deliver_immediate(frame[1])
                else:
                    self.deliver(frame[1])
                src, epoch, _target = frame[3]
                if link.epochs[src] == epoch:  # not an older incarnation's
                    link.recv[src] += 1
            elif kind == "peer":
                link.renew(*frame[1:])  # a respawned incarnation said hello
            elif kind == "clock_probe":
                # Clock-alignment echo: the hub's timestamp back with this
                # worker's engine clock.  Not a data frame, so the
                # quiescence counters never see it.
                with suppress(OSError):
                    link.send(("clock", frame[1], frame[2], self.engine.now))
            elif kind == "shutdown":
                link.stop.set()
        self.engine.fire_due()
        if link.held:  # what the frames and timers sent
            link.flush_held()

    def poll(self) -> Optional[Any]:
        # A busy scheduler reads the socket once per inbox drain, and in
        # between only when a timer is due: heartbeats go out, and peers'
        # evidence comes in, between handlers of a long drain.
        if not self.inbox or self.engine.due():
            self.pump()
        return super().poll()

    def wait_until(self, predicate: Callable[[], bool]) -> None:
        link, engine = self.machine.worker, self.engine
        # The caller looked at the sockets last, and the park's poll is
        # level-triggered: pump first only for what a park would not see.
        pump, ready = bool(self._frames or link.held or engine.due()), None
        while True:
            if pump:
                self.pump(ready)
            if predicate():
                return
            if link.stop.is_set():
                raise _WorkerStop()
            self._parked = pump = True
            # Idle is reported once a park has lasted the grace with
            # nothing arriving, and a timer due sooner ends the park first.
            grace = engine.next_deadline_in(_IDLE_GRACE)
            ready = link.poller.poll(grace * 1e3)
            if not ready and grace == _IDLE_GRACE:
                link.report_idle()
                timeout = engine.next_deadline_in()
                ready = link.poller.poll(None if timeout is None else timeout * 1e3)
            self._parked = False

    def kick(self) -> None:
        """Nothing to wake: every caller is the PE's main thread, which
        is running — and re-reads its predicate after whatever handler
        or callback made this call returns."""


class _MpNetwork(Interconnect):
    """The worker-side view of the interconnect: every remote payload
    becomes a data frame (:func:`_encode_data`), counted and written to
    the destination's link; self-sends stay local.  A frame is encoded
    before a send call returns, held or not, so the interface's
    complete-at-once ``async_send`` is already right for this layer, and
    a CMI send frames the caller's message with no copy
    (:meth:`send_msg`).  A fault plan binds :meth:`_transmit_faulty` over
    :meth:`_transmit` at construction, and the interface's copying
    ``send_msg`` over this one: its copies are encoded as each verdict
    is drawn."""

    def __init__(self, machine: "_WorkerMachine", link: _WorkerLink,
                 plan: Optional[FaultPlan] = None) -> None:
        super().__init__()
        self.machine = machine
        self.link = link
        if plan is not None:
            self.plan = plan
            #: dst -> ``(deadline, timer)`` of its last FIFO-kept copy.
            self._fifo_tail: Dict[int, tuple] = {}
            self._transmit = self._transmit_faulty
            self.send_msg = super().send_msg

    def send_msg(self, src_node: _MpNode, dst: int, msg: Any,
                 msg_id: Optional[int] = None, extra_send_cost: float = 0.0,
                 immediate: bool = False,
                 asynchronous: bool = False) -> Optional[SendHandle]:
        """Frame the caller's ``msg`` as its wire copy would travel: the
        frame is the receiver's buffer.  A self-send, a ``Message``
        subclass or a header that cannot hold a field takes a plain
        :func:`~repro.core.message.wire_copy` through :meth:`_transmit`.
        The model charges nothing, so neither does this."""
        src = src_node.pe
        frame = None if dst == src else _encode_data(src, dst, msg, immediate,
                                                     True, msg_id)
        if frame is None:
            self._transmit(src, dst, msg.size, wire_copy(msg, src, msg_id), immediate)
        else:
            self.stats.record(src, dst, msg.size)
            self._write(dst, frame, immediate)
        return SendHandle() if asynchronous else None

    def broadcast_msg(self, src_node: _MpNode, msg: Any, msg_ids: Dict[int, int],
                      include_self: bool = False, extra_send_cost: float = 0.0,
                      asynchronous: bool = False) -> Optional[SendHandle]:
        """One :meth:`send_msg` per destination."""
        self.stats.broadcasts += 1
        for dst in range(self.machine.num_pes):
            if include_self or dst != src_node.pe:
                self.send_msg(src_node, dst, msg, msg_ids.get(dst))
        return SendHandle() if asynchronous else None

    def _transmit(self, src_pe: int, dst: int, nbytes: int, payload: Any,
                  immediate: bool = False) -> None:
        """Count one packet and put it on its way (a self-send is
        delivered in place)."""
        self.stats.record(src_pe, dst, nbytes)
        if dst == src_pe:
            node = self.machine.node_obj
            (node.deliver_immediate if immediate else node.deliver)(payload)
            return
        self._write(dst, _encode_data(src_pe, dst, payload, immediate), immediate)

    def _write(self, dst: int, frame: tuple, immediate: bool) -> None:
        """Count a frame for PE ``dst`` and send it, or hold it while
        arrivals wait to be dispatched."""
        link, node = self.link, self.machine.node_obj
        link.sent[dst] += 1
        held = not immediate and (node.inbox or node._frames)
        (link.hold if held else link.flush)(link.out[dst], frame)

    def _transmit_faulty(self, src_pe: int, dst: int, nbytes: int,
                         payload: Any, immediate: bool = False) -> None:
        """:meth:`_transmit` under a fault plan, applied where a remote
        packet leaves its sender.  Each copy is encoded when its verdict
        is drawn, so a later flag reset cannot reach it.
        A copy that leaves later waits on this PE's timer heap, whose
        count in the idle report holds quiescence; a FIFO-kept copy
        leaves no earlier than the one before it on its channel."""
        if dst == src_pe:  # self-sends are exempt
            _MpNetwork._transmit(self, src_pe, dst, nbytes, payload, immediate)
            return
        self.stats.record(src_pe, dst, nbytes)
        engine, write, fifo = self.machine.engine, self._write, self._fifo_tail

        def emit(extra: float, keep_fifo: bool) -> None:
            data = _encode_data(src_pe, dst, payload, immediate)
            tail = fifo.get(dst) if keep_fifo else None
            queued = tail is not None and tail[1].fn is not None  # unsent
            if extra <= 0.0 and not queued:
                write(dst, data, immediate)
                return
            deadline = max(time.monotonic() + extra, tail[0] if queued else 0.0)
            timer = engine.schedule_until(deadline, write, dst, data, immediate)
            if keep_fifo:
                fifo[dst] = (deadline, timer)

        flag = getattr(payload, "corrupted", None)
        try:
            self.plan.apply(src_pe, dst, nbytes, payload, emit,
                            self.machine.tracer, engine.now)
        finally:
            if flag is not None:
                payload.corrupted = flag  # only the encoded copies carry it

    def sync_send(self, src_node: _MpNode, dst: int, nbytes: int, payload: Any,
                  extra_send_cost: float = 0.0, immediate: bool = False) -> None:
        src_node.charge(extra_send_cost)
        self._transmit(src_node.pe, dst, nbytes, payload, immediate)

    def inject(self, src_pe: int, dst: int, nbytes: int, payload: Any) -> None:
        self._transmit(src_pe, dst, nbytes, payload)


class MpConsole(ConsoleLog):
    """The job-wide console in the hub: workers' atomic writes arrive as
    frames stamped with the writer's clock, and the hub's loop appends
    them, so the record list has one writer.  No job-input channel exists
    yet, so input stays refused."""

    layer_name = "mp"


class _WorkerConsole(MpConsole):
    """Worker-side console: a write becomes a frame to the hub."""

    def __init__(self, link: _WorkerLink, engine: _MpEngine) -> None:
        super().__init__(engine)
        self.link = link

    def write(self, pe: int, text: str, stream: str = "out",
              t: Optional[float] = None) -> None:
        self.link.send(("printf", stream, pe, text, self.engine.now))


class _WorkerMachine(PEHost):
    """The worker's machine object: one PE's view of the whole machine
    (the :class:`~repro.machine.interface.PEHost` of a single PE)."""

    layer_name = "mp"
    model = MP_MODEL
    #: wall-clock gossip period for Cld strategies carrying a
    #: remote-load table.  Coarser than the virtual-time default: a
    #: pending timer wakes the parked main at its deadline and holds hub
    #: quiescence for up to a period after the load drains.
    cld_gossip_interval = 0.02

    def __init__(self, pe: int, link: _WorkerLink, cfg: MachineConfig) -> None:
        self.num_pes = cfg.num_pes
        self.engine = _MpEngine()
        link.engine = self.engine
        self.worker = link
        self.tracer = self._make_tracer(pe, cfg.trace)
        self.network = _MpNetwork(self, link, cfg.faults)
        self.console = _WorkerConsole(link, self.engine)
        if cfg.metrics:
            from repro.metrics.registry import MetricsRegistry

            self.metrics = MetricsRegistry()
        self.rng = random.Random(cfg.seed * 1_000_003 + pe)
        self.pgrp_registry = {}
        #: trace correlation ids minted from a per-process residue class
        #: (PE p issues {p + k*N}), globally unique with no coordination.
        self._msg_id_seq = pe
        self._msg_id_stride = cfg.num_pes
        self.node_obj = _MpNode(self, pe)
        #: only the local node lives in this process.
        self.nodes = {pe: self.node_obj}

    @staticmethod
    def _make_tracer(pe: int, spec: Any) -> Optional[Tracer]:
        """Build this worker's in-process trace sink from the hub's
        shipped spec: ``jsonl:<base>`` spools full events to this PE's
        sibling file; ``count`` keeps per-kind counters that travel to
        the hub as one frame at shutdown."""
        mode, base = parse_trace_spec(spec)
        if mode == "jsonl":
            from repro.tracing.merge import spool_path

            return JsonlTracer(spool_path(base, pe))
        if mode == "count":
            return CountingTracer()
        return None


def _worker_health_loop(link: _WorkerLink, machine: "_WorkerMachine",
                        node: _MpNode, interval: float) -> None:
    """Health thread in a worker: periodically snapshot progress counters
    and stream them to the hub.  Reads are lock-free (ints and deque
    length under the GIL) — a snapshot is a statistical observation, not
    a synchronized one — so the thread never perturbs the hot path."""
    stats = node.stats
    while not link.stop.wait(interval):
        snap = {
            "delivered": sum(link.recv),
            "sent_to": list(link.sent),  # the hub sums it per destination
            # dispatched, not yet consumed; the hub adds what peers sent
            # that this PE has not read (MpMachine.health).
            "inbox": len(node.inbox),
            "idle": node._parked,
            "timers": machine.engine.pending_timers,
            "handlers": stats.handlers_run,
            "sent": stats.msgs_sent,
            "cpu": time.process_time(),
        }
        try:
            link.send(("health", node.pe, snap))
        except OSError:
            return


def _worker_main(pe: int, base: str, specs: list, cfg: MachineConfig,
                 health_period: float, epoch: int = 0,
                 listener: Optional[socket.socket] = None,
                 epochs: Sequence[int] = (), inherited: Sequence[Any] = ()) -> None:
    """Entry point of one PE process.

    Builds the *machine-independent* runtime stack
    (:func:`~repro.machine.base.build_pe_stack`) on top of the worker
    machine pieces, then runs the launch specs in order and parks until
    the hub shuts the job down.  ``base``: where the machine names its
    sockets; ``epochs``: every PE's incarnation at the start;
    ``inherited``: the peer listeners a forked child got with the hub's
    memory, closed but for its own.
    """
    for other in inherited:
        if other is not listener:
            other.close()
    # The hub listens before any worker starts.  Sends block; reads
    # never do: each one is a single non-blocking recv_into.
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, _HUB_SNDBUF)
    sock.connect(base + "hub")
    link = _WorkerLink(sock, pe, listener, base, epochs)
    # A held batch waits one switch interval at most: a writer thread's GIL wait.
    signal.signal(signal.SIGALRM, link.on_alarm)
    link.arm = partial(signal.setitimer, signal.ITIMER_REAL, sys.getswitchinterval())
    if cfg.faults is not None:
        cfg.faults.reseed(pe, epoch)
    machine = _WorkerMachine(pe, link, cfg)
    node = machine.node_obj
    if epoch > 0:
        # A respawned incarnation: restart-with-amnesia.  The epoch bump
        # strides the ft control sequences past the previous life's, and
        # crashed_at = 0.0 on the fresh engine clock makes the reported
        # recovery latency "respawn to recovered" in wall seconds.
        node.epoch = epoch
        node.crashed_at = 0.0
    coordinator = None
    if cfg.ft is not None:
        from repro.ft.manager import FTCoordinator

        # A per-process replica, fed by the shipped crash schedule.
        coordinator = FTCoordinator(cfg.num_pes, cfg.crash_schedule,
                                    distributed=True)
    rt = build_pe_stack(node, machine, cfg, coordinator=coordinator,
                        restarting=epoch > 0)

    # One user thread runs Converse code in this process, with no
    # tasklet: the node itself is what "the current PE" resolves to.
    context.bind_node(node)
    try:
        link.send(("hello", pe))
        health = threading.Thread(
            target=_worker_health_loop,
            args=(link, machine, node, health_period),
            name=f"mp-health-pe{pe}", daemon=True,
        )
        health.start()
        for idx, kind, fn, args, _name in specs:
            try:
                if kind == "scheduler":
                    rt.scheduler.run(-1)
                    value = None
                else:
                    value = fn(*args)
            except _WorkerStop:
                return
            except BaseException:
                link.send(("result", idx, False, traceback.format_exc()))
                return
            try:
                link.send(("result", idx, True, value))
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                link.send(("result", idx, False,
                           f"main returned an unpicklable value: {exc}"))
                return
        # All mains finished: report idle at once (the run may be over, so
        # no grace), then stay in the runtime — acking, heartbeating,
        # serving checkpoint custody and firing timers — until shutdown.
        link.report_idle()
        node.wait_until(lambda: False)
    except _WorkerStop:
        pass
    except OSError:
        pass  # hub went away; nothing left to report to
    except BaseException:
        link.fail(traceback.format_exc())
    finally:
        # The final frames, read by the hub up to EOF.  Jsonl spools
        # just need a flush; the hub reads the files.
        finals: List[Callable[[], tuple]] = []
        if machine.metrics is not None:
            finals.append(lambda: ("metrics", pe, machine.metrics.snapshot()))
        if cfg.faults is not None:
            finals.append(lambda: ("faults", pe, cfg.faults.stats))
        tracer = machine.tracer
        if isinstance(tracer, CountingTracer):
            finals.append(lambda: ("trace_counts", pe, dict(tracer.counts)))
        finals.append(lambda: ("cpu", time.process_time()))
        for final in finals:
            try:
                link.send(final())
            except Exception:
                pass  # a failed frame must not cost the ones after it
        if tracer is not None:
            try:
                tracer.close()
            except OSError:
                pass
        link.close()


# ======================================================================
# hub (parent-process) side
# ======================================================================
class MpMain:
    """Launch record for one main on one PE (duck-types the simulator
    tasklet's ``finished``/``result`` surface)."""

    __slots__ = ("pe", "name", "index", "finished", "result", "error")

    def __init__(self, pe: int, name: str, index: int) -> None:
        self.pe = pe
        self.name = name
        self.index = index
        self.finished = False
        self.result: Any = None
        self.error: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else "running"
        return f"<MpMain pe={self.pe} name={self.name!r} {state}>"


class _HubConn:
    """One worker connection as the hub's loop sees it: its reader,
    chunks queued to go out (and whether they wait on write interest),
    and the PE it serves from its hello on.  Queued chunks die with the
    connection; they never follow a PE to its next incarnation."""

    __slots__ = ("sock", "pe", "reader", "out", "waiting", "on_ready")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.pe: Optional[int] = None
        self.reader = _Reader(sock)
        self.out: List[Any] = []
        self.waiting = False
        self.on_ready: Callable[[int], None]


#: resolved-value types an option may have when it must reach worker
#: processes as plain data.
_PLAIN = (type(None), bool, str, os.PathLike)
_SIM_ONLY = "a simulator-only subsystem (use machine_backend='sim')"

#: how long shutdown() reads the workers' final frames before it
#: terminates what has not closed its socket (seconds).  Generous: a
#: loaded host can stretch a worker's exit path (metrics snapshot, trace
#: spool flush) well past a few seconds, and cutting it short silently
#: costs those frames.
_SHUTDOWN_GRACE = 15.0


def _first_boot_method() -> str:
    """The start method of a first boot: ``fork`` where the platform has
    it (cheapest, and the child inherits ``sys.path``), else ``spawn``.
    The hub starts no thread, and every first incarnation is forked
    before the hub accepts a connection, so a child inherits only
    listeners (the peers' it closes: :func:`_worker_main`)."""
    import multiprocessing

    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class MpMachine(MachineLayer):
    """An N-PE machine where each PE is an OS process.

    Takes the shared ``Machine(...)`` keywords (one table, on
    :class:`repro.sim.machine.Machine`; how tracing, metrics, faults,
    ``reliable`` and ``ft`` behave across processes is in this module's
    docstring), minus what :attr:`restricted_options` declares, plus
    the extras below.  ``model`` and ``inline`` are accepted and unused:
    costs are real here, and a worker's scheduler loop already runs
    handlers with no context switch.

    Parameters
    ----------
    timeout:
        Wall-clock cap for :meth:`run`; a deadlocked or hung worker
        fails the run with :class:`SimulationError` instead of stalling
        forever (default 60 s).
    watch:
        Live-health ticker: ``True`` (1 s) or a float interval in
        seconds.  While :meth:`run` waits, a line of per-PE progress
        (delivered counts, idle states, CPU time) is printed to stderr
        each tick — the hub's view of the same snapshots
        :meth:`health` serves.

    A first boot forks where the platform can and spawns otherwise
    (:func:`_first_boot_method`); a respawn always spawns.  Workers send
    health snapshots every ``_HEALTH_INTERVAL`` (0.25 s).
    """

    layer_name = "mp"

    restricted_options = {
        "aggregation": ((type(None),), _SIM_ONLY),
        "queue": ((str,), "queue strategies reach the workers by name "
                          "(per-PE factories live in the driver process)"),
        "trace": (_PLAIN, "a live tracer or file object cannot be shared "
                          "across process boundaries; pass True, 'count' or "
                          "'jsonl:<path>' and read machine.tracer (or the "
                          "merged file) after shutdown()"),
        "metrics": ((type(None), bool),
                    "every worker process runs its own registry (registry "
                    "instances cannot cross process boundaries); pass "
                    "metrics=True and read machine.metrics_snapshot() "
                    "after the run"),
    }

    def __init__(self, num_pes: int = 1, model: Any = None, *,
                 timeout: float = 60.0, watch: Any = False,
                 **shared: Any) -> None:
        #: what every worker is built from (shipped whole at spawn).
        self.config = cfg = self.make_config(num_pes, model, **shared)
        self.num_pes = num_pes
        self.model = MP_MODEL
        self.console = MpConsole(echo=cfg.echo)
        self.fault_plan = cfg.faults
        # -- observability configuration --------------------------------
        self._trace_mode, self._trace_base = parse_trace_spec(cfg.trace)
        self._watch_interval = (
            1.0 if watch is True else float(watch) if watch else 0.0
        )
        #: merged trace sink; populated by :meth:`shutdown` when tracing
        #: (``None`` before then, and always ``None`` with tracing off —
        #: the same attribute surface the simulator machine exposes).
        self.tracer: Optional[Tracer] = None
        self.metrics = None  # registries live in the workers; see metrics_snapshot()
        self._spool_dir: Optional[str] = None
        self._merged_metrics: Optional[dict] = None
        #: non-fatal trace-merge failure from a crashy teardown, kept for
        #: inspection instead of masking the primary error in shutdown().
        self.trace_merge_error: Optional[str] = None
        self._timeout = timeout
        self._mains: List[MpMain] = []
        self._specs: Dict[int, list] = {}
        self._next_index = 0
        self._started = False
        self._shut_down = False
        self._shutting_down = False
        # -- hub state: written only by the loop (_loop), which run() and
        # shutdown() drive on the caller's thread ------------------------
        #: pe -> its last idle report ``(sent, recv, epochs, timers)``.
        self._idle: Dict[int, tuple] = {}
        #: pe -> what it last said (idle report or health) it sent each PE.
        self._sent: Dict[int, Sequence[int]] = {}
        self._quiescent = False
        self._worker_error: Optional[tuple] = None
        self._worker_cpu: Dict[int, float] = {}
        # -- observability state ----------------------------------------
        self._health: Dict[int, dict] = {}
        self._flight: deque = deque(maxlen=_FLIGHT_DEPTH)
        self._clock: Dict[int, tuple] = {}  # pe -> (rtt, offset) best sample
        self._next_probe = 0
        self._worker_metrics: Dict[int, dict] = {}
        self._worker_trace_counts: Dict[int, dict] = {}
        # -- crash / fault state ----------------------------------------
        #: PEs currently dead (scheduled kill until the respawn's hello).
        self._down: set = set()
        #: PEs whose CrashSpec promises a respawn that has not said hello
        #: yet.  Quiescence must wait for them: the surviving PEs can
        #: drain to balanced counts during the crash window, but the
        #: run is not over until the fresh incarnation rejoins and the
        #: FT layer replays into it.
        self._respawn_owed: set = set()
        #: per PE: its incarnation (bumped by every respawn).
        self._epochs = [0] * num_pes
        #: killed incarnations, reaped at shutdown.
        self._dead_procs: List[Any] = []
        #: where this machine names its sockets (:func:`_socket_dir`).
        self._base: Optional[str] = None
        self._worker_cfg: Optional[MachineConfig] = None
        # -- plumbing ---------------------------------------------------
        #: the loop's deadline heap: crash kills, respawns, connect
        #: deadlines and watch ticks.
        self._timers = _MpEngine()
        self._sel: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        #: each PE's current incarnation (killed ones move to _dead_procs).
        self._procs: List[Any] = []
        #: started incarnations that have not said hello: pe -> process.
        self._unborn: Dict[int, Any] = {}
        #: every first incarnation has said hello (:meth:`_boot`).
        self._booted = False
        #: every open worker connection, greeted or not.
        self._links: set = set()
        #: pe -> the connection of its live incarnation.
        self._conns: Dict[int, _HubConn] = {}

    @property
    def now(self) -> float:
        """Wall-clock seconds; each PE additionally has its own clock."""
        return time.monotonic()

    # ------------------------------------------------------------------
    # launching
    # ------------------------------------------------------------------
    def _add_spec(self, pe: int, kind: str, fn: Any, args: tuple, name: str) -> MpMain:
        if self._started:
            raise SimulationError(
                "the mp machine layer launches before run(); late launches "
                "are simulator-only"
            )
        if kind == "main":
            try:
                pickle.dumps((fn, args), protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                raise SimulationError(
                    "mp machine mains must be picklable module-level "
                    f"functions with picklable arguments: {exc}"
                ) from exc
        rec = MpMain(pe, name, self._next_index)
        self._next_index += 1
        self._specs.setdefault(pe, []).append((rec.index, kind, fn, args, name))
        self._mains.append(rec)
        return rec

    def launch(self, fn: Callable[..., Any], *args: Any,
               pes: Optional[Iterable[int]] = None, name: str = "main") -> List[MpMain]:
        return [self._add_spec(pe, "main", fn, args, name)
                for pe in self._targets(pes)]

    def launch_schedulers(self, pes: Optional[Iterable[int]] = None) -> List[MpMain]:
        return [self._add_spec(pe, "scheduler", None, (), "csd")
                for pe in self._targets(pes)]

    # ------------------------------------------------------------------
    # hub internals
    # ------------------------------------------------------------------
    def _check_quiescent(self) -> None:
        """No respawn owed, and every live PE's last report idle, timer-free,
        of the hub's epochs and matching: ``sent_i[j] == recv_j[i]``."""
        live = [pe for pe in range(self.num_pes) if pe not in self._down]
        reports = [self._idle.get(pe) for pe in live]
        epochs = tuple(self._epochs)
        if self._respawn_owed or any(r is None or r[3] or r[2] != epochs
                                     for r in reports):
            return
        if all(ri[0][j] == rj[1][i] for i, ri in zip(live, reports)
               for j, rj in zip(live, reports)):
            self._quiescent = True

    def _sent_to(self, pe: int) -> int:
        """What the other PEs last said they sent PE ``pe``."""
        return sum(sent[pe] for src, sent in self._sent.items() if src != pe)

    def _fail(self, pe: int, why: str, died: bool = False) -> None:
        if self._worker_error is None:
            self._worker_error = (pe, why, died)

    def _send(self, conn: _HubConn, data: bytes) -> None:
        """Send a control frame on ``conn`` now, or behind what waits on
        write interest."""
        conn.out.append(data)
        if not conn.waiting:
            self._flush(conn)

    def _flush(self, conn: _HubConn) -> None:
        """One gather ``sendmsg`` of ``conn``'s queue.  A short write's tail
        waits on write interest (registered only then)."""
        out = conn.out
        chunks = out if len(out) <= _IOV_MAX else [b"".join(out)]
        try:
            rest = _unsent(chunks, conn.sock.sendmsg(chunks))
        except (BlockingIOError, InterruptedError):
            rest = chunks
        except OSError:
            rest = []  # broken or dropped: the queue goes with it
        out[:] = rest
        if conn.waiting != bool(out):
            conn.waiting = bool(out)
            self._sel.modify(conn.sock, selectors.EVENT_READ | (
                selectors.EVENT_WRITE if out else 0), conn.on_ready)

    # ------------------------------------------------------------------
    # scheduled crashes: SIGKILL + respawn (CrashSpec entries)
    # ------------------------------------------------------------------
    def _crash_worker(self, spec: Any) -> None:
        """Deadline entry: SIGKILL the worker named by ``spec`` — a real
        process death, not a simulation of one.  Its connection, and
        every frame queued on it, go with it; the process is reaped at
        shutdown."""
        pe = spec.pe
        # A crash landing after quiescence is a no-op: the run is over,
        # the workers are only awaiting collection.
        if self._shutting_down or self._quiescent or pe in self._down:
            return
        self._down.add(pe)
        self._idle.pop(pe, None)
        self._sent.pop(pe, None)
        if spec.restart_after is not None:
            # Block quiescence until the promised respawn says hello —
            # the survivors going idle mid-crash-window is not the end
            # of the run.
            self._respawn_owed.add(pe)
            self._timers.schedule(max(0.0, spec.restart_after),
                                  self._respawn_worker, pe)
        proc = self._procs[pe]
        proc.kill()  # a no-op on a process that already exited
        self._dead_procs.append(proc)
        conn = self._conns.get(pe)
        if conn is not None:
            self._drop(conn)

    def _respawn_worker(self, pe: int) -> None:
        """Deadline entry: boot a fresh incarnation of PE ``pe`` (epoch
        bump) — restart-with-amnesia over real processes.  It rejoins
        through the one handshake path."""
        import multiprocessing

        if self._shutting_down:
            return
        # Spawn, never fork: a forked child would inherit every live hub
        # socket and hold each open after the hub closes it; a fresh
        # interpreter inherits none.
        ctx = multiprocessing.get_context("spawn")
        self._epochs[pe] += 1
        try:
            self._procs[pe] = self._spawn(ctx, pe, self._bind(pe))
        except Exception as exc:
            self._respawn_owed.discard(pe)
            self._fail(pe, f"worker respawn failed: {exc}")

    # ------------------------------------------------------------------
    # the one handshake path
    # ------------------------------------------------------------------
    def _bind(self, pe: int) -> socket.socket:
        """The peer listener of PE ``pe``'s current incarnation."""
        return socket.create_server(_peer_name(self._base, pe, self._epochs[pe]),
                                    family=socket.AF_UNIX)

    def _spawn(self, ctx: Any, pe: int, listener: socket.socket,
               inherited: Sequence[socket.socket] = ()) -> Any:
        """Start PE ``pe``'s current incarnation on its peer ``listener`` (the
        hub's copy closes) and watch it until its hello: its sentinel fails
        the run if it exits first, a deadline entry if it is late."""
        epoch = self._epochs[pe]
        proc = ctx.Process(
            target=_worker_main,
            args=(pe, self._base, self._specs.get(pe, []), self._worker_cfg,
                  _HEALTH_INTERVAL, epoch, listener, list(self._epochs),
                  inherited),
            name=f"repro-mp-pe{pe}" + (f"e{epoch}" if epoch else ""),
            daemon=True,
        )
        try:
            proc.start()
        finally:
            listener.close()
        self._unborn[pe] = proc
        self._sel.register(proc.sentinel, selectors.EVENT_READ,
                           partial(self._on_exit, pe, proc))
        self._timers.schedule(min(30.0, self._timeout), self._hello_overdue,
                              pe, proc)
        return proc

    def _hello_overdue(self, pe: int, proc: Any) -> None:
        if self._unborn.get(pe) is proc and not self._shutting_down:
            self._fail(pe, f"mp machine workers did not all connect within "
                           f"{min(30.0, self._timeout):.0f}s "
                           f"({self.num_pes - len(self._unborn)}/"
                           f"{self.num_pes} up)")

    def _on_exit(self, pe: int, proc: Any, mask: int = 0) -> None:
        """A worker process exited (``mask``: its sentinel fired; 0: a
        re-check from the heap).  After its hello, its connection's EOF
        classifies the death; before it, the run fails at once, naming
        the PE, the epoch and the exit code."""
        if mask:
            self._sel.unregister(proc.sentinel)
        if self._unborn.get(pe) is not proc or self._shutting_down:
            return
        if proc.exitcode is None:
            # The sentinel can close a moment before the exit status is
            # readable.
            self._timers.schedule(0.001, self._on_exit, pe, proc)
            return
        # A worker that exits right after its hello (a main that failed
        # at once) can wake this sentinel before its connection is
        # accepted or read: take its hello first.
        self._on_accept(0)
        for conn in [c for c in self._links if c.pe is None]:
            self._on_conn(conn, selectors.EVENT_READ)
        if self._unborn.get(pe) is not proc:
            return
        self._fail(pe, f"worker process (epoch {self._epochs[pe]}) exited "
                       f"with code {proc.exitcode} before its hello")

    def _on_accept(self, _mask: int) -> None:
        """Take every waiting connection; its first frame must be a hello
        (:meth:`_greet`)."""
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:  # BlockingIOError: the backlog is empty
                return
            sock.setblocking(False)
            conn = _HubConn(sock)
            conn.on_ready = partial(self._on_conn, conn)
            self._links.add(conn)
            self._sel.register(sock, selectors.EVENT_READ, conn.on_ready)

    def _greet(self, conn: _HubConn, hello: Any) -> Optional[int]:
        """A connection's first frame: the hello of a started incarnation,
        which thereby goes live.  Returns its PE, or None when the
        connection was turned away."""
        pe = hello[1] if hello[0] == "hello" else None
        if self._unborn.pop(pe, None) is None or self._shutting_down:
            # A worker greeting a hub that is shutting down is turned
            # away: the EOF stops it.
            if not self._shutting_down:
                self._fail(-1, "mp machine worker handshake failed "
                               "(bad hello frame)")
            self._drop(conn)
            return None
        conn.pe = pe
        self._conns[pe] = conn
        self._down.discard(pe)
        self._respawn_owed.discard(pe)
        if self._booted:
            # A respawn: every live peer learns its incarnation, and it
            # learns every live peer's latest.
            epochs = self._epochs
            for q, peer in list(self._conns.items()):
                if q != pe:
                    self._send(peer, _encode(("peer", pe, epochs[pe])))
                    self._send(conn, _encode(("peer", q, epochs[q])))
        elif not self._unborn:
            self._boot()
        return pe

    def _boot(self) -> None:
        """Every first incarnation has said hello: probe clocks and arm
        the crash schedule."""
        self._booted = True
        if self._trace_mode in ("memory", "jsonl"):
            # Startup clock probes: sample each worker's monotonic offset
            # while the sockets are quiet (the mains are still booting).
            self._send_clock_probes()
        # spec.at counts wall-clock seconds from here (= run start).
        for spec in self.config.crash_schedule:
            self._timers.schedule(max(0.0, spec.at), self._crash_worker, spec)

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    def _on_conn(self, conn: _HubConn, mask: int) -> None:
        """One wakeup on one connection: flush what waits to go out, then
        one read, decoded into every whole frame it completed."""
        if mask & selectors.EVENT_WRITE:
            self._flush(conn)
        if not mask & selectors.EVENT_READ:
            return
        frames: List[Any] = []
        try:
            if not conn.reader.read(frames):
                self._on_eof(conn)
                return
            bad = None
        except Exception:
            # The frame arrived whole (a torn one reads as EOF) and would
            # not decode: a control frame whose unpickling raises (a
            # main's result, say), or a class this process cannot
            # import.  The frames before it (a hello among them) still
            # count.
            bad = traceback.format_exc()
        pe = conn.pe
        if pe is None and frames:
            pe = self._greet(conn, frames.pop(0))
            if pe is None:
                return
        if bad is not None:
            self._fail(-1 if pe is None else pe,
                       f"the hub could not decode a frame from PE {pe}:\n{bad}")
            return
        if pe is None:
            return
        on_frame = self._on_frame
        for frame in frames:
            on_frame(pe, frame)

    def _on_frame(self, pe: int, frame: tuple) -> None:
        """Dispatch one frame from PE ``pe``."""
        kind = frame[0]
        if kind == "idle":
            self._idle[pe] = frame[1:]
            self._sent[pe] = frame[1]
            self._check_quiescent()
        elif kind == "result":
            _, index, ok, value = frame
            rec = self._mains[index]
            rec.finished = True
            if ok:
                rec.result = value
            else:
                rec.error = value
                self._fail(pe, value)
        elif kind == "printf":
            _, stream, wpe, text, t = frame
            self.console.write(wpe, text, stream, t)
        elif kind == "cpu":
            self._worker_cpu[pe] = frame[1]
        elif kind == "health":
            _, wpe, snap = frame
            # What the PE has not read yet still waits in its sockets.
            self._sent[wpe] = snap["sent_to"]
            snap["inbox"] += self._sent_to(wpe) - snap["delivered"]
            self._health[wpe] = snap
            self._flight.append((time.monotonic(), wpe, snap))
        elif kind == "clock":
            # Echo reply: frame carries our original send timestamp and
            # the worker's engine clock at the bounce.  Midpoint
            # estimation; the minimum-RTT sample per PE wins (its
            # asymmetry error is the smallest).
            _, _probe_id, t_send, worker_now = frame
            t_recv = time.monotonic()
            rtt = t_recv - t_send
            best = self._clock.get(pe)
            if best is None or rtt < best[0]:
                self._clock[pe] = (rtt, (t_send + t_recv) / 2.0 - worker_now)
        elif kind == "metrics":
            self._worker_metrics[frame[1]] = frame[2]
        elif kind == "faults":
            self.fault_plan.stats.add(frame[2])
        elif kind == "trace_counts":
            self._worker_trace_counts[frame[1]] = frame[2]
        elif kind == "fatal":
            self._fail(pe, frame[1])
        elif kind == "eof" and not (self._shutting_down or self._quiescent):
            self._fail(pe, "worker process exited unexpectedly (socket "
                           "EOF / torn frame)", died=True)

    def _on_eof(self, conn: _HubConn) -> None:
        """EOF or a torn frame.  Expected once the run is over; otherwise
        an *unscheduled* worker death, surfaced as a structured
        WorkerDied from run().  (A hub kill drops the connection first,
        so its EOF is never read.)"""
        self._drop(conn)
        if conn.pe is not None:
            self._on_frame(conn.pe, ("eof",))

    def _drop(self, conn: _HubConn) -> None:
        """Forget a connection, its out-queue with it (once: a wakeup
        already selected may still name it)."""
        if conn not in self._links:
            return
        self._links.discard(conn)
        self._sel.unregister(conn.sock)
        conn.sock.close()
        conn.on_ready = None  # no cycle: its read buffer is freed now
        if self._conns.get(conn.pe) is conn:
            del self._conns[conn.pe]

    def _start(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context(_first_boot_method())
        self._base = _socket_dir()
        self._sel = selectors.DefaultSelector()
        listener = socket.create_server(self._base + "hub", family=socket.AF_UNIX,
                                        backlog=self.num_pes)
        self._listener = listener
        listener.setblocking(False)
        self._sel.register(listener, selectors.EVENT_READ, self._on_accept)
        cfg = self.config
        if self._trace_mode in ("memory", "jsonl"):
            if self._trace_base is None:
                # memory mode: spool to a temp dir the hub reads back and
                # removes at shutdown.
                self._spool_dir = tempfile.mkdtemp(prefix="repro-mp-trace-")
                self._trace_base = os.path.join(self._spool_dir, "trace.jsonl")
            # Workers spool to per-PE siblings of the base; the hub merges.
            cfg = replace(cfg, trace="jsonl:" + self._trace_base)
        self._worker_cfg = cfg
        # Every worker starts knowing every peer's address.
        listeners = [self._bind(pe) for pe in range(self.num_pes)]
        inherited = listeners if ctx.get_start_method() == "fork" else ()
        try:
            for pe in range(self.num_pes):
                self._procs.append(self._spawn(ctx, pe, listeners[pe], inherited))
        finally:
            for sock in listeners:
                sock.close()

    def _send_clock_probes(self) -> None:
        """One echo probe per worker (replies land in ``_on_frame``).
        Probes ride the hub sockets, which carry no data frame, so
        quiescence accounting never sees them."""
        for conn in self._conns.values():
            self._send(conn, _encode(("clock_probe", self._next_probe,
                                      time.monotonic())))
            self._next_probe += 1

    def _loop(self, done: Callable[[], bool], seconds: float) -> None:
        """The hub: one thread, one selector over the listener, every
        worker connection and every running worker's process sentinel,
        and one deadline heap.  Each wakeup runs the ready handlers, then the
        due deadlines — until ``done()`` or ``seconds`` pass.  Nothing else
        writes hub state."""
        select, timers = self._sel.select, self._timers
        deadline = time.monotonic() + seconds
        while True:
            if done():
                return
            left = deadline - time.monotonic()
            if left <= 0:
                return
            for key, mask in select(timers.next_deadline_in(left)):
                key.data(mask)
            timers.fire_due()

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> str:
        """Drive the machine to quiescence (wall-clock-bounded by the
        machine's ``timeout``); returns ``"quiescent"``."""
        if until is not None or max_events is not None:
            raise SimulationError(
                "until=/max_events= are virtual-time horizons; on the mp "
                "machine layer run() only stops at quiescence (or timeout)"
            )
        if self._shut_down:
            raise SimulationError("machine has been shut down")
        if self._started:
            raise SimulationError(
                "the mp machine layer supports a single run() per machine"
            )
        self._started = True
        try:
            self._start()
        except BaseException:
            self.shutdown()
            raise
        if self._watch_interval > 0:
            self._timers.schedule(self._watch_interval, self._watch_tick)
        self._loop(lambda: self._worker_error is not None or self._quiescent,
                   self._timeout)
        if self._worker_error is None:
            if self._quiescent:
                return "quiescent"
            evidence = self._flight_summary()
            self.shutdown()
            raise SimulationError(
                f"mp machine run timed out after {self._timeout:.0f}s "
                "(deadlocked or hung worker?)" + evidence
            )
        pe, why, died = self._worker_error
        last = self._health.get(pe)
        evidence = self._flight_summary()
        self.shutdown()
        if died:
            # Unscheduled process death (torn socket): structured
            # node-down evidence instead of an opaque traceback race.
            raise WorkerDied(pe, last_health=last, evidence=evidence)
        raise SimulationError(
            f"mp machine worker on PE {pe} failed:\n{why}" + evidence
        )

    # ------------------------------------------------------------------
    # live health: what the loop wrote, read on the caller's thread
    # ------------------------------------------------------------------
    def health(self) -> Dict[int, Dict[str, Any]]:
        """The hub's latest view of every PE: the most recent worker
        health snapshot (delivered/sent_to/inbox/idle/timers/handlers/sent/
        cpu) plus ``forwarded``, what the other PEs last said they sent it
        — the two sides of the quiescence counts.  ``inbox`` is the PE's
        backlog: its inbox plus what was sent to it and not yet read.  It
        reads what the loop wrote as of its last wakeup (the loop runs
        inside run() and shutdown())."""
        out: Dict[int, Dict[str, Any]] = {}
        for pe in range(self.num_pes):
            snap = dict(self._health.get(pe, ()))
            snap["forwarded"] = self._sent_to(pe)
            idle = self._idle.get(pe)
            if idle is not None and "delivered" not in snap:
                snap["delivered"] = sum(idle[1])
            out[pe] = snap
        return out

    def flight_recorder(self) -> List[tuple]:
        """The bounded ring of recent ``(hub_time, pe, snapshot)`` health
        reports — the raw evidence :meth:`run` attaches to timeout and
        crash errors, as the loop recorded them."""
        return list(self._flight)

    def _flight_summary(self) -> str:
        """Render the last-known per-PE state for attachment to an error
        message (empty string when no report of any kind ever arrived)."""
        reported = set(self._health) | set(self._idle)
        if not reported:
            return ""
        health = self.health()
        parts = []
        for pe in sorted(health):
            snap = health[pe]
            if pe not in reported:
                parts.append(f"pe{pe}: <no report> "
                             f"forwarded={snap.get('forwarded', '?')}")
                continue
            parts.append(
                f"pe{pe}: delivered={snap.get('delivered', '?')}"
                f"/{snap.get('forwarded', '?')}"
                f" inbox={snap.get('inbox', '?')}"
                f" idle={str(snap.get('idle', '?')).lower()}"
                f" handlers={snap.get('handlers', '?')}"
                f" cpu={snap.get('cpu', 0.0):.2f}s"
            )
        return ("\nlast health snapshots (flight recorder):\n  "
                + "\n  ".join(parts))

    def _watch_tick(self) -> None:
        """Deadline entry: one stderr line of per-PE progress, re-armed
        until shutdown."""
        if self._shutting_down:
            return
        health = self.health()
        cells = []
        for pe in sorted(health):
            snap = health[pe]
            mark = "idle" if snap.get("idle") else "busy"
            cells.append(
                f"pe{pe} {mark}"
                f" d={snap.get('delivered', '?')}/{snap.get('forwarded', '?')}"
                f" h={snap.get('handlers', '?')}"
            )
        sys.stderr.write("[mp health] " + " | ".join(cells) + "\n")
        self._timers.schedule(self._watch_interval, self._watch_tick)

    # ------------------------------------------------------------------
    # results & teardown
    # ------------------------------------------------------------------
    def results(self) -> List[Any]:
        out = []
        for rec in self._mains:
            if not rec.finished:
                raise SimulationError(
                    f"main {rec.name!r} on PE {rec.pe} has not finished; "
                    "run() the machine to completion first"
                )
            if rec.error is not None:
                raise SimulationError(
                    f"main {rec.name!r} on PE {rec.pe} failed:\n{rec.error}"
                )
            out.append(rec.result)
        return out

    def worker_cpu_seconds(self) -> Dict[int, float]:
        """Per-PE ``time.process_time()`` totals reported by the workers
        at shutdown, as the loop recorded them — the measured-parallelism
        evidence (their sum can exceed the wall-clock run time only with
        real concurrency)."""
        return dict(self._worker_cpu)

    def shutdown(self) -> None:
        """Tell the workers to stop, drive the loop until every
        connection has delivered its final frames and reached EOF (or the
        drain grace passed), then reap the processes.  Idempotent."""
        if self._shut_down:
            return
        self._shut_down = self._shutting_down = True
        sel = self._sel
        if sel is None:
            return  # never started
        if self._trace_mode in ("memory", "jsonl"):
            # Close-time clock probes: a second offset sample at the end
            # of the run bounds drift over its span.  Same-socket FIFO
            # means every worker answers the probe *before* it sees the
            # shutdown frame, so the replies always drain.
            self._send_clock_probes()
        # Every open link, greeted or not (a worker whose first frame
        # would not decode never named its PE), or it waits out the grace.
        bye = _encode(("shutdown",))
        for conn in self._links:
            self._send(conn, bye)
        # Workers answer with their final frames (metrics, trace counts,
        # cpu) and close: read every socket to its EOF before closing
        # anything, or those frames are lost.
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        self._loop(lambda: not self._links, _SHUTDOWN_GRACE)
        for conn in list(self._links):
            self._drop(conn)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        sel.close()
        # An incarnation that never said hello has no final frames, and
        # with the listener closed it would only retry its connect.
        for proc in self._unborn.values():
            proc.terminate()
        # Killed-and-replaced incarnations are reaped too.
        for proc in self._dead_procs + self._procs:
            proc.join(timeout=max(1.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=1.0)
        shutil.rmtree(self._base, ignore_errors=True)
        # Every final frame (clock echoes, metrics snapshots, trace
        # counters, cpu) has been absorbed.  Merge.
        if self._trace_mode is not None and self.tracer is None:
            try:
                self._finalize_trace()
            except Exception:
                # shutdown() also runs on the failure path (timeout,
                # worker crash); a merge problem there must not mask the
                # primary error — keep it inspectable instead.
                self.trace_merge_error = traceback.format_exc()

    def _finalize_trace(self) -> None:
        """Combine the workers' trace output into ``self.tracer`` (and,
        for jsonl mode, the merged on-disk trace + clock sidecar)."""
        if self._trace_mode == "count":
            merged = CountingTracer()
            for counts in self._worker_trace_counts.values():
                for key, n in counts.items():
                    merged.counts[key] += n
            self.tracer = merged
            return
        from repro.tracing.merge import (
            load_spool,
            merge_tracers,
            save_clock_file,
            spool_path,
        )

        offsets = {pe: off for pe, (_rtt, off) in self._clock.items()}
        tracers = []
        for pe in range(self.num_pes):
            path = spool_path(self._trace_base, pe)
            if os.path.exists(path):
                tracers.append(load_spool(path))
        self.tracer = merge_tracers(tracers, offsets=offsets)
        if self._trace_mode == "jsonl":
            from repro.tracing.merge import write_jsonl

            write_jsonl(self.tracer, self._trace_base)
            root, _ext = os.path.splitext(self._trace_base)
            save_clock_file(f"{root}.clock.json", offsets)
        elif self._spool_dir is not None:
            # memory mode spooled to a temp dir: nothing outlives the
            # merged in-RAM tracer.
            shutil.rmtree(self._spool_dir, ignore_errors=True)
            self._spool_dir = None

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """The machine-wide metrics snapshot: every worker's per-process
        registry snapshot, merged (same shape the simulator's single
        registry produces, so reports and assertions port unchanged).

        Workers ship their snapshots as they exit, so on this single-run
        layer asking for the snapshot finalizes the machine: if the run
        is still live, :meth:`shutdown` is invoked first.
        """
        if not self.config.metrics:
            raise SimulationError(
                "machine was built without metrics; pass metrics=True"
            )
        if self._merged_metrics is None:
            self.shutdown()
            from repro.metrics.registry import merge_snapshots

            snaps = [self._worker_metrics[pe]
                     for pe in sorted(self._worker_metrics)]
            self._merged_metrics = merge_snapshots(snaps)
        return self._merged_metrics

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "shut down" if self._shut_down else (
            "running" if self._started else "new"
        )
        return f"<MpMachine pes={self.num_pes} {state}>"
