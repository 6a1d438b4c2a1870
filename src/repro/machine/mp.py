"""The multiprocess machine layer: one OS process per PE.

This is the second registered machine layer (after the simulator) and the
first with *real* parallelism: every PE is a child process with its own
interpreter (and GIL), wired to the parent over loopback TCP sockets.
The layers above the machine interface — :class:`ConverseRuntime`, the
Csd scheduler, the CMI, the message manager — run in each worker process
**unmodified**: the worker derives the five machine-interface classes
(:mod:`repro.machine.interface` — a wall-clock engine, a node that
reads its own hub socket, a socket-backed network, a forwarding console
and a one-PE host) and adds only what real processes and sockets need.

Topology is hub-and-spoke: the parent process routes length-prefixed
pickled frames between workers and runs the machine-level services —
console aggregation, result collection, quiescence detection, fault
injection and respawn — from one selector loop and one deadline heap,
driven by :meth:`MpMachine.run` and :meth:`MpMachine.shutdown` on the
caller's thread.

**Quiescence** uses counting over FIFO channels: the hub counts every
message it forwards to each PE; a worker, whenever it parks idle, reports
how many hub messages it has consumed and how many local timers are
armed.  Because a worker's sends reach the hub *before* its subsequent
idle report (same socket, FIFO), the hub's forwarded counters are always
at least as fresh as the reports, so "every PE idle, every report equal
to the forward count, zero timers" cannot hold while anything is in
flight.  The only wake sources a parked worker has are hub deliveries
(counted) and local timers (reported), so the check is also complete.
Both numbers are the main thread's own, and so is the socket's read
side: it counts an arrival once dispatched and reports only on its way
to park, with every frame it has read dispatched, so no report can
describe a state some other thread is in the middle of changing.

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

**Faults and fault tolerance** are real on this layer: with
``faults=FaultPlan(...)`` the hub applies the unchanged seeded plan to
every frame in flight between processes (per-link drop / duplicate /
delay / reorder / corrupt, decided by the same RNG stream as the
simulator), and ``CrashSpec`` entries drive the hub to **SIGKILL**
worker processes at their appointed wall-clock times (``at`` /
``restart_after`` count seconds from the start of ``run()``) —
respawning a fresh incarnation (epoch bump, restart-with-amnesia) when
the spec has a ``restart_after``.  Self-sends never cross the hub, so
link faults do not apply to them.  The CMI reliable-delivery layer
(``reliable=True``) and the fault-tolerance layer (``ft=FTConfig()``)
run *inside each worker* unmodified and, like everything else on a PE,
on its main thread only, which reads the hub socket itself: acks,
retransmissions, heartbeats and checkpoint custody happen when it next
enters the runtime (the progress rule, see :class:`_MpNode`).  Each
worker carries its own distributed
:class:`~repro.ft.manager.FTCoordinator` replica fed by the
shipped crash schedule.  Protocol timeouts are floored to socket scale
at construction (the simulator's microsecond RTOs would retransmit
thousands of times per real RTT).
An *unscheduled* worker death (an outside SIGKILL, an OOM kill) is
classified from the torn socket and surfaces as a structured
:class:`~repro.core.errors.WorkerDied` carrying the PE id and the
flight-recorder's last health snapshot.

Scope (documented in the README machine-layer matrix): cost models and
aggregation are restricted options; Cth threads/tasklets, console input,
one-sided get/put and ``register_quiescence`` are capabilities this
layer leaves to the interface's refusing defaults.  Time is wall-clock;
runs are not deterministic (mp fault tests assert invariants, not
byte-identical traces).
"""

from __future__ import annotations

import os
import pickle
import random
import select
import selectors
import socket
import struct
import threading
import time
import traceback
from collections import deque
from dataclasses import replace
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core import context
from repro.core.errors import SimulationError, WorkerDied
from repro.machine.base import MachineConfig, MachineLayer, build_pe_stack
from repro.machine.faults import FaultPlan
from repro.machine.interface import (
    ConsoleLog,
    Engine,
    Interconnect,
    MachineModel,
    PEHost,
    PENode,
)
from repro.tracing.tracer import (
    CountingTracer,
    JsonlTracer,
    Tracer,
    parse_trace_spec,
)

__all__ = ["MpMachine", "MP_MODEL", "MP_START_METHOD_ENV_VAR"]

#: environment override for the multiprocessing start method.
MP_START_METHOD_ENV_VAR = "REPRO_MP_START_METHOD"

#: default cadence of worker health snapshots (seconds).
_HEALTH_INTERVAL = 0.25

#: flight-recorder depth: most recent health snapshots the hub retains
#: for post-mortem attachment to timeout/crash errors.
_FLIGHT_DEPTH = 64

#: protocol-timeout floors for real sockets (seconds).  The simulator's
#: defaults are microsecond-scale virtual times; on a wall-clock layer
#: with ~100 us frame hops they would retransmit pathologically, so
#: reliable/ft configs are floored to these values at construction.
_MP_REL_RTO_FLOOR = 0.02
_MP_REL_MAX_RTO_FLOOR = 0.25
_MP_FT_HB_FLOOR = 0.025
_MP_FT_CTL_RTO_FLOOR = 0.05
_MP_FT_CTL_RETRIES_FLOOR = 100
_MP_FT_CKPT_FLOOR = 0.05

#: worker -> hub connect retry schedule (transport hardening).
_CONNECT_ATTEMPTS = 5
_CONNECT_BACKOFF = 0.05

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

#: bytes one ``recv`` asks for: a burst of small frames in one read.
_RECV_BYTES = 1 << 16


# ----------------------------------------------------------------------
# framing: length-prefixed pickles over a stream socket.  These two are
# the only code that knows the frame format, on both sides.
# ----------------------------------------------------------------------
def _encode(frame: Any) -> bytes:
    data = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
    return _LEN.pack(len(data)) + data


def _decode(buf: bytearray, frames: Optional[List[Any]] = None) -> List[Any]:
    """Take every whole frame off the front of ``buf`` and append it to
    ``frames`` (a new list by default); a partial one stays for the next
    read.  Raises whatever unpickling raises, after taking the frames
    before the failing one: a caller that passed ``frames`` keeps them."""
    if frames is None:
        frames = []
    pos, end = 0, len(buf)
    try:
        with memoryview(buf) as view:
            while end - pos >= _LEN.size:
                stop = pos + _LEN.size + _LEN.unpack_from(view, pos)[0]
                if stop > end:
                    break
                frames.append(pickle.loads(view[pos + _LEN.size:stop]))
                pos = stop
    finally:
        del buf[:pos]
    return frames


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
        timer = _Timer(self, fn, args)
        self._seq += 1
        heappush(self._heap,
                 (time.monotonic() + max(0.0, delay), self._seq, timer))
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


class _WorkerLink:
    """A worker's connection to the hub plus the idle-report state.  The
    main thread alone reads it; the health thread only writes."""

    def __init__(self, sock: socket.socket, pe: int) -> None:
        self.sock = sock
        self.pe = pe
        #: the main and health threads share the socket's write side.
        self.wlock = threading.Lock()
        #: bytes read from the hub that are not yet a whole frame.
        self.buf = bytearray()
        #: what a parked main thread waits on: the socket turning readable.
        self.poller = select.poll()
        self.poller.register(sock, select.POLLIN)
        #: hub-forwarded messages the main thread has finished
        #: dispatching (part of the quiescence protocol).
        self.net_recv = 0
        self.stop = threading.Event()
        self.engine: Optional[_MpEngine] = None
        self._last_idle: Optional[tuple] = None

    def send(self, frame: Any) -> None:
        data = _encode(frame)
        with self.wlock:
            self.sock.sendall(data)

    def report_idle(self) -> None:
        """Tell the hub this PE is parked.  Deduplicated: only state
        changes cross the wire."""
        snap = (self.net_recv, self.engine.pending_timers)
        if snap == self._last_idle:
            return
        self._last_idle = snap
        try:
            self.send(("idle", snap[0], snap[1]))
        except OSError:
            self.stop.set()

    def fail(self, why: str) -> None:
        """Ship a structured failure to the hub and stop this worker."""
        try:
            self.send(("fatal", why))
        except OSError:
            pass
        self.stop.set()

    def read(self, frames: deque) -> None:
        """One non-blocking ``recv``, decoded by the hub's own decoder
        onto ``frames``.  EOF or a dead socket stops the worker."""
        try:
            data = self.sock.recv(_RECV_BYTES, socket.MSG_DONTWAIT)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            self.stop.set()
            return
        self.buf += data
        try:
            _decode(self.buf, frames)
        except Exception:
            # The frame arrived whole and would not decode (a payload
            # whose unpickling raises, a class this process cannot
            # import): a structured failure.  The frames before it stay.
            self.fail(f"PE {self.pe} could not decode a frame from the "
                      f"hub:\n{traceback.format_exc()}")


class _MpNode(PENode):
    """A PE whose main thread is the only thread that reads its hub
    socket or touches runtime, protocol, inbox or timer state.
    :meth:`pump` — at the top of every :meth:`wait_until` iteration, and
    in :meth:`poll` once the inbox is empty or a timer is due — reads the
    socket, runs what it decoded through the interceptors, then fires
    due timers.  A parked PE waits on its socket and its timer heap, the
    only two things that can wake it.

    The progress rule that follows: acks, retransmissions, heartbeats,
    Ccd callbacks and immediate handlers happen when the PE is inside
    the runtime (scheduler loop, blocking receive, ``poll``, or parked
    after its mains returned), not beside a compute-only handler.  An
    immediate message overtakes the Csd queue and everything that
    arrives after it; it does not interrupt user code."""

    def __init__(self, machine: "_WorkerMachine", pe: int) -> None:
        super().__init__(machine, pe)
        #: frames read off the hub socket, not yet dispatched.
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

    def pump(self) -> None:
        """Read the socket when no decoded frame waits, dispatch frames in
        order, *then* fire due timers: an ack must cancel its retransmit
        timer, and a heartbeat refresh the failure detector's evidence,
        before either timer looks.  One ``recv`` per pump, so a flood
        cannot starve the timers; a re-entrant pump continues the queue."""
        link, frames = self.machine.worker, self._frames
        if not frames:
            link.read(frames)
        while frames:
            frame = frames.popleft()
            kind = frame[0]
            if kind == "msg":
                if frame[2]:
                    self.deliver_immediate(frame[1])
                else:
                    self.deliver(frame[1])
                link.net_recv += 1
            elif kind == "clock_probe":
                # Clock-alignment echo: the hub's timestamp back with this
                # worker's engine clock.  Not a forwarded message, so the
                # quiescence counters never see it.
                try:
                    link.send(("clock", frame[1], frame[2], self.engine.now))
                except OSError:
                    pass
            elif kind == "shutdown":
                link.stop.set()
        self.engine.fire_due()

    def poll(self) -> Optional[Any]:
        # A busy scheduler reads the socket once per inbox drain, and in
        # between only when a timer is due: heartbeats go out, and peers'
        # evidence comes in, between handlers of a long drain.
        if not self.inbox or self.engine.due():
            self.pump()
        return super().poll()

    def wait_until(self, predicate: Callable[[], bool]) -> None:
        link, engine = self.machine.worker, self.engine
        while True:
            self.pump()
            if predicate():
                return
            if link.stop.is_set():
                raise _WorkerStop()
            self._parked = True
            link.report_idle()
            timeout = engine.next_deadline_in()
            link.poller.poll(None if timeout is None else timeout * 1e3)
            self._parked = False

    def kick(self) -> None:
        """Nothing to wake: every caller is the PE's main thread, which
        is running — and re-reads its predicate after whatever handler
        or callback made this call returns."""


class _MpNetwork(Interconnect):
    """The worker-side view of the interconnect: every remote payload
    becomes a pickled frame routed through the hub; self-sends stay
    local.  ``sendall`` returns before a send call does, so the
    interface's complete-at-once ``async_send`` and per-destination
    ``broadcast`` are already right for this layer."""

    def __init__(self, machine: "_WorkerMachine", link: _WorkerLink) -> None:
        super().__init__()
        self.machine = machine
        self.link = link

    def _transmit(self, src_pe: int, dst: int, nbytes: int, payload: Any,
                  immediate: bool = False) -> bool:
        """Count one packet and put it on its way; True when it left as
        a frame (False: a self-send, delivered in place)."""
        self.stats.record(src_pe, dst, nbytes)
        if dst == src_pe:
            node = self.machine.node_obj
            (node.deliver_immediate if immediate else node.deliver)(payload)
            return False
        try:
            self.link.send(("send", dst, payload, immediate))
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise SimulationError(
                f"the mp machine layer could not pickle an outgoing message "
                f"for PE {dst}: {exc}"
            ) from exc
        return True

    def sync_send(self, src_node: _MpNode, dst: int, nbytes: int, payload: Any,
                  extra_send_cost: float = 0.0, immediate: bool = False) -> None:
        src_node.charge(extra_send_cost)
        framed = self._transmit(src_node.pe, dst, nbytes, payload, immediate)
        if framed and getattr(payload, "_pooled", False):
            # The frame is on the wire (pickled by value); the local wire
            # copy is dead.  Reclaim pooled copies so the send side reuses
            # buffers instead of leaking them to the garbage collector.
            rt = src_node.runtime
            if rt is not None and rt.pool is not None:
                payload._valid = False
                payload._payload = None
                rt.pool.release(payload)

    def inject(self, src_pe: int, dst: int, nbytes: int, payload: Any) -> None:
        # Protocol packets are never pooled, so there is nothing to
        # reclaim after the frame is pickled onto the wire.
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
        self.network = _MpNetwork(self, link)
        self.console = _WorkerConsole(link, self.engine)
        self.tracer = self._make_tracer(pe, cfg.trace)
        if cfg.metrics:
            from repro.metrics.registry import MetricsRegistry

            self.metrics = MetricsRegistry()
        self.rng = random.Random(cfg.seed * 1_000_003 + pe)
        self.msg_pooling = cfg.pool
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
            "delivered": link.net_recv,
            # dispatched, not yet consumed; the hub adds what it forwarded
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


def _worker_main(pe: int, port: int, specs: list, cfg: MachineConfig,
                 health_interval: float, epoch: int = 0) -> None:
    """Entry point of one PE process.

    Builds the *machine-independent* runtime stack
    (:func:`~repro.machine.base.build_pe_stack`) on top of the worker
    machine pieces, then runs the launch specs in order and parks until
    the hub shuts the job down.
    """
    # Bounded connect retry: a respawned worker can race the hub's
    # accept loop, and loopback connects occasionally bounce under load.
    sock = None
    delay = _CONNECT_BACKOFF
    for attempt in range(_CONNECT_ATTEMPTS):
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
            break
        except OSError:
            if attempt == _CONNECT_ATTEMPTS - 1:
                raise
            time.sleep(delay)
            delay *= 2
    # The connect timeout must not linger: sends block (reads never do:
    # each one is a single non-blocking recv).
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    link = _WorkerLink(sock, pe)
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
            args=(link, machine, node, health_interval),
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
        # All mains finished: stay in the runtime — acking, heartbeating,
        # serving checkpoint custody and firing timers — until the hub
        # says shutdown.
        node.wait_until(lambda: False)
    except _WorkerStop:
        pass
    except OSError:
        pass  # hub went away; nothing left to report to
    except BaseException:
        link.fail(traceback.format_exc())
    finally:
        # Ship the observability payloads before the cpu frame (the
        # hub reads everything up to EOF): the metrics
        # snapshot, and — for count-mode tracing — the event counters.
        # Jsonl spools just need a flush; the hub reads the files.
        if machine.metrics is not None:
            try:
                link.send(("metrics", pe, machine.metrics.snapshot()))
            except Exception:
                # A snapshot/serialization failure must not cost the cpu
                # frame and the orderly close below.
                pass
        tracer = machine.tracer
        if tracer is not None:
            if isinstance(tracer, CountingTracer):
                try:
                    link.send(("trace_counts", pe, dict(tracer.counts)))
                except OSError:
                    pass
            try:
                tracer.close()
            except OSError:
                pass
        try:
            link.send(("cpu", time.process_time()))
        except OSError:
            pass
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()


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
    """One worker connection as the hub's loop sees it: bytes read but
    not yet a whole frame, chunks queued to go out, and the PE it serves
    from its hello on.  Queued chunks die with the connection; they never
    follow a PE to its next incarnation."""

    __slots__ = ("sock", "pe", "inbuf", "out", "on_ready")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.pe: Optional[int] = None
        self.inbuf = bytearray()
        self.out: List[Any] = []
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
    start_method:
        ``multiprocessing`` start method (default: the
        ``REPRO_MP_START_METHOD`` env var, else ``fork`` where
        available, else the platform default).
    watch:
        Live-health ticker: ``True`` (1 s) or a float interval in
        seconds.  While :meth:`run` waits, a line of per-PE progress
        (delivered counts, idle states, CPU time) is printed to stderr
        each tick — the hub's view of the same snapshots
        :meth:`health` serves.
    health_interval:
        Cadence of worker health snapshots (default 0.25 s); also the
        resolution of the flight recorder attached to timeout errors.
    """

    layer_name = "mp"

    restricted_options = {
        "aggregation": ((type(None),), _SIM_ONLY),
        "backend": ((type(None),), "tasklet switching is " + _SIM_ONLY),
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
                 timeout: float = 60.0, start_method: Optional[str] = None,
                 watch: Any = False, health_interval: float = _HEALTH_INTERVAL,
                 **shared: Any) -> None:
        cfg = self.make_config(num_pes, model, **shared)
        # Protocol timeouts floored to socket scale (see the _MP_*_FLOOR
        # constants) before the configs ship to the workers.
        rel, ft = cfg.reliable, cfg.ft
        if rel is not None:
            rel = replace(
                rel,
                rto=max(rel.rto, _MP_REL_RTO_FLOOR),
                max_rto=max(rel.max_rto, _MP_REL_MAX_RTO_FLOOR),
            )
        if ft is not None:
            ft = replace(
                ft,
                heartbeat_period=max(ft.heartbeat_period, _MP_FT_HB_FLOOR),
                ctl_rto=max(ft.ctl_rto, _MP_FT_CTL_RTO_FLOOR),
                ctl_retries=max(ft.ctl_retries, _MP_FT_CTL_RETRIES_FLOOR),
                checkpoint_interval=(
                    max(ft.checkpoint_interval, _MP_FT_CKPT_FLOOR)
                    if ft.checkpoint_interval > 0 else 0.0
                ),
            )
        #: what every worker is built from (shipped whole at spawn).
        self.config = cfg = replace(cfg, reliable=rel, ft=ft)
        self.num_pes = num_pes
        self.model = MP_MODEL
        self.console = MpConsole(echo=cfg.echo)
        self.fault_plan = cfg.faults
        self._crash_schedule = cfg.crash_schedule
        self.msg_pooling = cfg.pool
        # -- observability configuration --------------------------------
        self._trace_mode, self._trace_base = parse_trace_spec(cfg.trace)
        self._watch_interval = (
            1.0 if watch is True else float(watch) if watch else 0.0
        )
        self._health_interval = max(0.01, float(health_interval))
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
        self._start_method = start_method
        self._mains: List[MpMain] = []
        self._specs: Dict[int, list] = {}
        self._next_index = 0
        self._started = False
        self._shut_down = False
        self._shutting_down = False
        # -- hub state: written only by the loop (_loop), which run() and
        # shutdown() drive on the caller's thread ------------------------
        self._forwarded = [0] * num_pes
        self._idle: Dict[int, tuple] = {}
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
        #: drain to a balanced ledger during the crash window, but the
        #: run is not over until the fresh incarnation rejoins and the
        #: FT layer replays into it.
        self._respawn_owed: set = set()
        #: per-PE incarnation counter (bumped by every respawn); delayed
        #: frames carry the epoch they were parked under.
        self._epochs = [0] * num_pes
        #: fault-delayed frames parked on the deadline heap (their
        #: forwarded count lands at delivery, so quiescence must wait).
        self._delayed = 0
        #: killed incarnations, reaped at shutdown.
        self._dead_procs: List[Any] = []
        #: per-frame routing entry, bound once: the plain counted forward
        #: with no fault plan (zero new per-frame work), the fault-
        #: injecting variant otherwise.
        self._route = (self._forward if cfg.faults is None
                       else self._forward_faulty)
        self._port: Optional[int] = None
        self._worker_cfg: Optional[MachineConfig] = None
        # -- plumbing ---------------------------------------------------
        #: the loop's deadline heap: fault-delayed frames, crash kills,
        #: respawns, connect deadlines and watch ticks.
        self._timers = _MpEngine()
        self._sel: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        #: each PE's current incarnation (killed ones move to _dead_procs).
        self._procs: List[Any] = []
        #: started incarnations that have not said hello: pe -> process.
        self._unborn: Dict[int, Any] = {}
        #: ``(pe, frame)`` read before every first incarnation said hello,
        #: routed once they all have; None from then on.
        self._held: Optional[List[tuple]] = []
        #: every open worker connection, greeted or not.
        self._links: set = set()
        #: pe -> the connection of its live incarnation.
        self._conns: Dict[int, _HubConn] = {}
        #: connections whose out-queue gained its first chunk this wakeup.
        self._dirty: List[_HubConn] = []

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
    def _resolve_start_method(self) -> str:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        wanted = self._start_method or os.environ.get(MP_START_METHOD_ENV_VAR)
        if wanted:
            if wanted not in methods:
                raise SimulationError(
                    f"multiprocessing start method {wanted!r} not available "
                    f"here; choose from {', '.join(methods)}"
                )
            return wanted
        # fork is cheapest and inherits sys.path.  The hub starts no
        # thread, and every first incarnation is forked before the hub
        # accepts a connection, so a child inherits only the listener.
        return "fork" if "fork" in methods else methods[0]

    def _check_quiescent(self) -> None:
        if self._delayed:
            return  # fault-delayed frames still parked on the heap
        if self._respawn_owed:
            return  # a killed PE is promised back; the run is not over
        down = self._down
        if len(self._idle) < self.num_pes - len(down):
            return
        for pe in range(self.num_pes):
            if pe in down:
                continue  # a dead PE neither receives nor reports
            entry = self._idle.get(pe)
            if entry is None:
                return
            recv, timers = entry
            if timers != 0 or recv != self._forwarded[pe]:
                return
        self._quiescent = True

    def _fail(self, pe: int, why: str, died: bool = False) -> None:
        if self._worker_error is None:
            self._worker_error = (pe, why, died)

    def _forward(self, src: int, dst: int, payload: Any, immediate: bool) -> None:
        conn = self._conns.get(dst)
        if conn is None:
            if not 0 <= dst < self.num_pes:
                self._fail(-1, f"routing frame addressed to PE {dst}")
            return  # the PE's connection is gone; its EOF said why
        self._forwarded[dst] += 1
        self._send(conn, _encode(("msg", payload, immediate)))

    def _send(self, conn: _HubConn, data: bytes) -> None:
        """Queue ``data`` on ``conn``; the loop sends each connection's
        queue with one ``send`` before it next waits."""
        if not conn.out:
            self._dirty.append(conn)
        conn.out.append(data)

    def _flush(self, conn: _HubConn, writing: bool) -> None:
        """One ``send`` of ``conn``'s whole queue.  Write interest is
        registered only while a short write leaves something behind;
        ``writing`` says it is now (a write wakeup: a queue with write
        interest is never in the dirty list)."""
        out = conn.out
        data = out[0] if len(out) == 1 else b"".join(out)
        out.clear()
        try:
            sent = conn.sock.send(data)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            sent = len(data)  # broken or dropped: the queue goes with it
        if sent < len(data):
            out.append(memoryview(data)[sent:])
        if writing != bool(out):
            self._sel.modify(conn.sock, selectors.EVENT_READ | (
                selectors.EVENT_WRITE if out else 0), conn.on_ready)

    # ------------------------------------------------------------------
    # hub-level fault injection (bound as _route only with a fault plan)
    # ------------------------------------------------------------------
    def _forward_faulty(self, src: int, dst: int, payload: Any,
                        immediate: bool) -> None:
        if dst in self._down:
            return  # packets to a dead host vanish, uncounted
        dropped, corrupted, copies = self.fault_plan.decide(src, dst)
        if dropped:
            return  # neither forwarded nor received: the ledger never sees it
        if corrupted:
            try:
                # Flagged on the hub-side unpickled object; the flag
                # rides the re-pickle to the receiver, whose protocol
                # layers treat it as a checksum failure.
                payload.corrupted = True
            except AttributeError:
                pass  # payload type carries no corruption slot
        for extra_delay, _keep_fifo, _action in copies:
            if extra_delay <= 0.0:
                self._forward(src, dst, payload, immediate)
            else:
                # Counted on the ledger only when its heap entry fires;
                # until then _delayed holds quiescence.
                self._delayed += 1
                self._timers.schedule(extra_delay, self._deliver_delayed,
                                      src, dst, payload, immediate,
                                      self._epochs[dst])

    def _deliver_delayed(self, src: int, dst: int, payload: Any,
                         immediate: bool, epoch: int) -> None:
        self._delayed -= 1
        if dst in self._down or self._epochs[dst] != epoch:
            # The destination died (or was reborn) while the frame was
            # parked: drop it.  This may have been the last thing the
            # ledger was waiting on.
            self._check_quiescent()
            return
        self._forward(src, dst, payload, immediate)

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
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "spawn" if "spawn" in methods else methods[0]
        )
        self._epochs[pe] += 1
        try:
            self._procs[pe] = self._spawn(ctx, pe)
        except Exception as exc:
            self._respawn_owed.discard(pe)
            self._fail(pe, f"worker respawn failed: {exc}")

    # ------------------------------------------------------------------
    # the one handshake path
    # ------------------------------------------------------------------
    def _spawn(self, ctx: Any, pe: int) -> Any:
        """Start PE ``pe``'s current incarnation and watch it until its
        hello: its process sentinel fails the run if it exits first, a
        deadline entry if it has not connected in time."""
        epoch = self._epochs[pe]
        proc = ctx.Process(
            target=_worker_main,
            args=(pe, self._port, self._specs.get(pe, []), self._worker_cfg,
                  self._health_interval, epoch),
            name=f"repro-mp-pe{pe}" + (f"e{epoch}" if epoch else ""),
            daemon=True,
        )
        proc.start()
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
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
        # Fresh ledger on both sides: the incarnation starts at
        # net_recv == 0, so the hub's count restarts with it.
        self._forwarded[pe] = 0
        self._down.discard(pe)
        self._respawn_owed.discard(pe)
        if self._held is not None and not self._unborn:
            self._boot()
        return pe

    def _boot(self) -> None:
        """Every first incarnation has said hello: probe clocks, arm the
        crash schedule, then route what the workers sent meanwhile."""
        held, self._held = self._held, None
        if self._trace_mode in ("memory", "jsonl"):
            # Startup clock probes: sample each worker's monotonic offset
            # while the sockets are quiet (the mains are still booting).
            self._send_clock_probes()
        # spec.at counts wall-clock seconds from here (= run start).
        for spec in self._crash_schedule:
            self._timers.schedule(max(0.0, spec.at), self._crash_worker, spec)
        for pe, frame in held:
            self._on_frame(pe, frame)

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    def _on_conn(self, conn: _HubConn, mask: int) -> None:
        """One wakeup on one connection: flush what waits to go out, then
        one ``recv``, decoded into every whole frame it completed."""
        if mask & selectors.EVENT_WRITE:
            self._flush(conn, True)
        if not mask & selectors.EVENT_READ:
            return
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            self._on_eof(conn)
            return
        buf = conn.inbuf
        buf += data
        frames: List[Any] = []
        try:
            _decode(buf, frames)
            bad = None
        except Exception:
            # The frame arrived whole (a torn one reads as EOF) and would
            # not decode: a payload whose unpickling raises, or a class
            # this process cannot import.  The frames before it (a hello
            # among them) still count.
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
        if self._held is not None:
            # No frame is routed before its destination has said hello.
            self._held += [(pe, frame) for frame in frames]
            return
        on_frame = self._on_frame
        for frame in frames:
            on_frame(pe, frame)

    def _on_frame(self, pe: int, frame: tuple) -> None:
        """Dispatch one frame from PE ``pe``."""
        kind = frame[0]
        if kind == "send":
            _, dst, payload, immediate = frame
            self._route(pe, dst, payload, immediate)
        elif kind == "idle":
            self._idle[pe] = (frame[1], frame[2])
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
            # What the PE has not read yet still waits in its socket.
            snap["inbox"] += self._forwarded[wpe] - snap["delivered"]
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
        if conn.pe is None:
            return
        if self._held is not None:
            # Its frames wait for the other PEs' hellos (a main that
            # failed at once sent its result before it exited): the EOF
            # queues behind them, so the result is read first.
            self._held.append((conn.pe, ("eof",)))
        else:
            self._on_frame(conn.pe, ("eof",))

    def _drop(self, conn: _HubConn) -> None:
        """Forget a connection, its out-queue with it (once: a wakeup
        already selected may still name it)."""
        if conn not in self._links:
            return
        self._links.discard(conn)
        self._sel.unregister(conn.sock)
        conn.sock.close()
        if self._conns.get(conn.pe) is conn:
            del self._conns[conn.pe]

    def _start(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context(self._resolve_start_method())
        self._sel = selectors.DefaultSelector()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener = listener
        listener.bind(("127.0.0.1", 0))
        listener.listen(self.num_pes)
        listener.setblocking(False)
        self._sel.register(listener, selectors.EVENT_READ, self._on_accept)
        self._port = listener.getsockname()[1]
        cfg = self.config
        if self._trace_mode in ("memory", "jsonl"):
            if self._trace_base is None:
                # memory mode: spool to a temp dir the hub reads back and
                # removes at shutdown.
                import tempfile

                self._spool_dir = tempfile.mkdtemp(prefix="repro-mp-trace-")
                self._trace_base = os.path.join(self._spool_dir, "trace.jsonl")
            # Workers spool to per-PE siblings of the base; the hub merges.
            cfg = replace(cfg, trace="jsonl:" + self._trace_base)
        if cfg.faults is not None:
            # Workers get the crash half of the plan only (it feeds their
            # coordinator replicas).  Link faults are applied here, and
            # the live plan — RNG, counters — is the hub's, so a respawn
            # must never pickle it.
            cfg = replace(cfg, faults=FaultPlan(
                cfg.faults.seed, crashes=self._crash_schedule))
        self._worker_cfg = cfg
        for pe in range(self.num_pes):
            self._procs.append(self._spawn(ctx, pe))

    def _send_clock_probes(self) -> None:
        """One echo probe per worker (replies land in ``_on_frame``).
        Probes ride the ordinary frame sockets but bypass the forwarded
        counters, so quiescence accounting never sees them."""
        for conn in self._conns.values():
            self._send(conn, _encode(("clock_probe", self._next_probe,
                                      time.monotonic())))
            self._next_probe += 1

    def _loop(self, done: Callable[[], bool], seconds: float) -> None:
        """The hub: one thread, one selector over the listener, every
        worker connection and every running worker's process sentinel,
        and one deadline heap.  Each wakeup runs the ready handlers, then the
        due deadlines, then sends every queue that gained a chunk — until
        ``done()`` or ``seconds`` pass.  Nothing else writes hub state."""
        select, timers, dirty = self._sel.select, self._timers, self._dirty
        deadline = time.monotonic() + seconds
        while True:
            for conn in dirty:
                self._flush(conn, False)
            dirty.clear()
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
        health snapshot (delivered/inbox/idle/timers/handlers/sent/cpu)
        plus the hub's own forwarded counter — the two sides of the
        quiescence ledger.  ``inbox`` is the PE's backlog: its inbox plus
        the frames the hub forwarded that it has not read.  It reads what
        the loop wrote as of its last wakeup (the loop runs inside run()
        and shutdown())."""
        out: Dict[int, Dict[str, Any]] = {}
        for pe in range(self.num_pes):
            snap = dict(self._health.get(pe, ()))
            snap["forwarded"] = self._forwarded[pe]
            idle = self._idle.get(pe)
            if idle is not None and "delivered" not in snap:
                snap["delivered"] = idle[0]
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
        import sys

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
        # Killed-and-replaced incarnations are reaped too.
        for proc in self._dead_procs + self._procs:
            proc.join(timeout=max(1.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=1.0)
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
            import shutil

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
