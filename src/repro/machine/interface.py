"""The machine interface, downward half: what the stack asks of a layer.

``ConverseRuntime``, the CMI, Cld, ft, Cth and the language runtimes
read nothing off a machine that is not declared here.  A layer derives
five classes — :class:`PEHost` (what the stack holds as
``runtime.machine``), :class:`PENode`, :class:`Engine`,
:class:`Interconnect` and :class:`ConsoleLog` — which carry everything
layers share and leave the concurrency to the layer.  A capability a
layer lacks is not stubbed per layer: the base default refuses it with
:func:`unsupported`.  Tasklets, console input and one-sided access to
another PE's memory refuse by default; the simulator provides all three.
"""

from __future__ import annotations

import math
import random
import sys
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.errors import SimulationError

__all__ = [
    "unsupported",
    "MachineModel",
    "GENERIC",
    "NodeStats",
    "PENode",
    "Engine",
    "NetworkStats",
    "SendHandle",
    "Interconnect",
    "ConsoleRecord",
    "ConsoleLog",
    "PEHost",
]

#: one microsecond, in the engine's seconds
US = 1e-6


def unsupported(layer: str, what: str, why: str = "") -> SimulationError:
    """The refusal for something a machine layer cannot do — one phrase
    for base-class defaults, restricted options and layer code alike."""
    return SimulationError(
        f"{what} is not supported on the {layer!r} machine layer"
        + (f": {why}" if why else "")
    )


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MachineModel:
    """Per-machine communication cost decomposition (all times in
    seconds; the terms are explained in :mod:`repro.sim.models`, which
    holds the paper's machines).  A layer whose costs are real runs
    under an all-zero model."""

    name: str
    #: human-readable description used in benchmark report headers.
    description: str

    # --- native layer, per message -----------------------------------
    send_overhead: float
    recv_overhead: float
    latency_per_hop: float
    per_byte: float

    # --- packetization ------------------------------------------------
    packet_size: int = 1 << 30
    per_packet: float = 0.0

    # --- extra-copy threshold (T3D) ------------------------------------
    copy_threshold: Optional[int] = None
    copy_per_byte: float = 0.0

    # --- Converse additions --------------------------------------------
    cvs_send_extra: float = 3.0 * US
    cvs_dispatch_extra: float = 3.0 * US

    # --- Csd queueing additions ----------------------------------------
    enqueue_cost: float = 5.0 * US
    dequeue_cost: float = 6.0 * US

    # --- misc -----------------------------------------------------------
    topology: str = "flat"
    #: incremental sender cost per extra destination in an MMI broadcast,
    #: as a fraction of ``send_overhead`` (the first destination pays full).
    broadcast_factor: float = 0.5

    # ------------------------------------------------------------------
    # cost computations
    # ------------------------------------------------------------------
    def packets(self, nbytes: int) -> int:
        """Number of packets a message of ``nbytes`` is split into."""
        return max(1, math.ceil(max(0, nbytes) / self.packet_size))

    def wire_time(self, nbytes: int, hops: int = 1) -> float:
        """Time on the wire: latency + serialization + packetization +
        the extra-copy penalty where applicable."""
        t = (
            self.latency_per_hop * max(1, hops)
            + nbytes * self.per_byte
            + (self.packets(nbytes) - 1) * self.per_packet
        )
        if self.copy_threshold is not None and nbytes >= self.copy_threshold:
            t += nbytes * self.copy_per_byte
        return t

    def one_way(self, nbytes: int, hops: int = 1, converse: bool = True,
                queued: bool = False) -> float:
        """Analytic end-to-end one-way time for one message.

        Matches what the round-trip benchmark measures; used by tests to
        validate the simulator against the closed form.
        """
        t = self.send_overhead + self.wire_time(nbytes, hops) + self.recv_overhead
        if converse:
            t += self.cvs_send_extra + self.cvs_dispatch_extra
        if queued:
            t += self.enqueue_cost + self.dequeue_cost
        return t

    def variant(self, **changes) -> "MachineModel":
        """Return a copy with some fields replaced (for ablations)."""
        return replace(self, **changes)


#: A round-numbers model for unit tests: costs are easy to compute by hand.
GENERIC = MachineModel(
    name="generic",
    description="Round-number model for tests (1 us overheads, 1 ns/byte)",
    send_overhead=1.0 * US,
    recv_overhead=1.0 * US,
    latency_per_hop=1.0 * US,
    per_byte=0.001 * US,
    packet_size=4096,
    per_packet=1.0 * US,
    cvs_send_extra=0.5 * US,
    cvs_dispatch_extra=0.5 * US,
    enqueue_cost=1.0 * US,
    dequeue_cost=1.0 * US,
    topology="flat",
)


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
class Engine:
    """The clock (``now``, seconds) and delayed callbacks — all the
    stack may assume of a layer's engine.  Tasklets are a capability:
    without them every tasklet operation refuses."""

    layer_name = "?"
    now: float

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` ``delay`` seconds from now, unless the
        returned handle's ``cancel()`` is called first."""
        raise NotImplementedError

    def _no_tasklets(self, *_args: Any, **_kwargs: Any) -> Any:
        raise unsupported(
            self.layer_name, "a tasklet (Cth threads, blocking console reads)")

    spawn = sleep = suspend = transfer = make_ready = yield_now = _no_tasklets
    current_tasklet = property(_no_tasklets)


# ----------------------------------------------------------------------
# node
# ----------------------------------------------------------------------
@dataclass
class NodeStats:
    """Per-PE counters (time / message accounting)."""

    msgs_sent: int = 0
    bytes_sent: int = 0
    msgs_received: int = 0
    bytes_received: int = 0
    busy_time: float = 0.0
    handlers_run: int = 0


class PENode:
    """The *hardware* view of one PE: an inbox fed by the network,
    counters, arrival interceptors and observers, and a private memory
    region for EMI global pointers.  The *software* view — the Converse
    runtime — is attached as ``node.runtime``.  The layer supplies the
    concurrency: how an arrival lands (:meth:`deliver`) and how the PE's
    code parks and is woken (:meth:`wait_until`, :meth:`kick`).
    """

    def __init__(self, machine: Any, pe: int) -> None:
        self.machine = machine
        self.pe = pe
        self.engine = machine.engine
        self.inbox: Deque[Any] = deque()
        #: private memory region addressed by EMI global pointers.
        self.memory: Dict[int, bytearray] = {}
        self._next_mem_key = 1
        self.stats = NodeStats()
        #: the Converse runtime living on this PE (set by the machine).
        self.runtime: Any = None
        #: incarnation number, bumped by every restart after a crash.
        self.epoch = 0
        #: engine time of the most recent crash (recovery latency base).
        self.crashed_at: Optional[float] = None
        #: observers called on every delivery, e.g. tracing.
        self._delivery_hooks: list[Callable[[Any], None]] = []
        #: arrival interceptors (reliable delivery, fault tolerance): run
        #: *before* the inbox, at "interrupt level", and may consume
        #: protocol packets entirely.  ``None`` until the first install so
        #: the common case stays a single attribute test.
        self._interceptors: Optional[tuple] = None
        #: receive-side metric handles; ``None`` without a registry, so
        #: the guard on the delivery path is a single attribute test
        #: when metrics are off.
        self._mx_recvs: Any = None
        self._mx_recv_bytes: Any = None
        if machine.tracer is not None:
            self.attach_tracer(machine.tracer)
        if machine.metrics is not None:
            self.attach_metrics(machine.metrics)

    def attach_metrics(self, metrics: Any) -> None:
        """Cache receive-side metric handles from the machine's registry
        (at construction when metrics are enabled)."""
        self._mx_recvs = metrics.counter(
            "cmi.receives", help="messages delivered to this PE's inbox"
        )
        self._mx_recv_bytes = metrics.counter(
            "cmi.recv_bytes", help="modelled payload bytes received"
        )

    def attach_tracer(self, tracer: Any) -> None:
        """Record a ``receive`` event on ``tracer`` for every arrival at
        this PE (at construction when tracing is on).  The one
        definition of the event's shape, on every machine layer."""
        pe, engine, record = self.pe, self.engine, tracer.record

        def hook(payload: Any) -> None:
            record(pe, engine.now, "receive", {
                "handler": getattr(payload, "handler", None),
                "size": getattr(payload, "size", 0),
                "src": getattr(payload, "src_pe", None),
                "msg": getattr(payload, "msg_id", None),
            })

        self.add_delivery_hook(hook)

    def add_delivery_hook(self, hook: Callable[[Any], None]) -> None:
        """Register an observer invoked on every arrival (tracing)."""
        self._delivery_hooks.append(hook)

    def set_interceptor(self, fn: Callable[[Any], bool],
                        front: bool = False) -> None:
        """Install an arrival interceptor.  ``fn(payload)`` runs on every
        network delivery before any inbox/stats processing; returning True
        consumes the payload (it never reaches the inbox).  Interceptors
        are machine-layer drivers, not observers (observers use
        :meth:`add_delivery_hook`); they run in install order, or ahead of
        the existing chain with ``front=True`` (how the fault-tolerance
        layer sees every arrival — for liveness evidence — before the
        reliable-delivery layer consumes its protocol packets)."""
        chain = self._interceptors or ()
        self._interceptors = (fn,) + chain if front else chain + (fn,)

    # ------------------------------------------------------------------
    # arrivals
    # ------------------------------------------------------------------
    def _arrived(self, payload: Any) -> None:
        """Account for one accepted arrival (counters, receive metrics,
        observers) — called by every delivery path of every layer."""
        size = getattr(payload, "size", 0) or 0
        stats = self.stats
        stats.msgs_received += 1
        stats.bytes_received += size
        if self._mx_recvs is not None:
            self._mx_recvs.inc(self.pe)
            self._mx_recv_bytes.inc(self.pe, size)
        for hook in self._delivery_hooks:
            hook(payload)

    def deliver(self, payload: Any) -> None:
        """Network-facing: run the interceptors, append the arrival to
        the inbox, wake whatever waits on it."""
        raise NotImplementedError

    def deliver_immediate(self, payload: Any) -> None:
        """Interrupt-style delivery (the paper's section-6 "preemptive
        messages"): the handler runs right here, in the delivering
        context, bypassing the inbox and the Csd queue.  When that is
        relative to the PE's own code is the layer's: the simulator
        delivers at arrival time, even mid-computation; an mp worker at
        its main thread's next runtime entry."""
        self._arrived(payload)
        rt = self.runtime
        if rt is None:
            raise SimulationError(
                f"immediate message on PE {self.pe} with no runtime"
            )
        rt.deliver_from_network(payload)

    def poll(self) -> Optional[Any]:
        """Non-blocking inbox pop (the guts of ``CmiGetMsg``)."""
        if self.inbox:
            return self.inbox.popleft()
        return None

    def inbox_snapshot(self) -> Any:
        """The inbox contents, for walking without consuming
        (checkpointing).  No layer delivers concurrently with the code
        that walks it, so this is the inbox itself, not a copy."""
        return self.inbox

    def wait_until(self, predicate: Callable[[], bool]) -> None:
        """Block the PE's running code until ``predicate()`` holds; it
        is re-evaluated after every delivery and every :meth:`kick`."""
        raise NotImplementedError

    def wait_for_message(self) -> Any:
        """Block until a message is available, then pop and return it."""
        self.wait_until(lambda: bool(self.inbox))
        return self.poll()

    def kick(self) -> None:
        """Wake everything blocked on this node to recheck its wait
        condition (same-PE state changes: ``CsdEnqueue`` from another
        tasklet, Cth awakenings).  A layer with one thread of control
        per PE has nothing to wake."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # CPU time
    # ------------------------------------------------------------------
    def charge(self, dt: float) -> None:
        """Account ``dt`` seconds of modelled CPU work on this PE (a
        layer with virtual time also advances its clock)."""
        if dt < 0:
            raise SimulationError(f"cannot charge negative time ({dt})")
        self.stats.busy_time += dt

    @property
    def now(self) -> float:
        """The PE's clock (``CmiTimer``)."""
        return self.engine.now

    def spawn(self, fn: Callable[[], Any], name: str = "task", start: bool = True):
        """Create a tasklet bound to this PE."""
        return self.engine.spawn(fn, name=f"pe{self.pe}-{name}", node=self, start=start)

    # ------------------------------------------------------------------
    # memory (EMI global pointers)
    # ------------------------------------------------------------------
    def alloc(self, size: int) -> int:
        """Reserve ``size`` bytes of node memory; returns the local key."""
        if size < 0:
            raise SimulationError(f"cannot allocate negative size {size}")
        key = self._next_mem_key
        self._next_mem_key += 1
        self.memory[key] = bytearray(size)
        return key

    def mem_read(self, key: int, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset`` from a memory region."""
        region = self.memory[key]
        if offset < 0 or offset + size > len(region):
            raise SimulationError(
                f"out-of-range read [{offset}, {offset + size}) of region "
                f"{key} (len {len(region)}) on PE {self.pe}"
            )
        return bytes(region[offset:offset + size])

    def mem_write(self, key: int, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset`` into a memory region."""
        region = self.memory[key]
        if offset < 0 or offset + len(data) > len(region):
            raise SimulationError(
                f"out-of-range write [{offset}, {offset + len(data)}) of "
                f"region {key} (len {len(region)}) on PE {self.pe}"
            )
        region[offset:offset + len(data)] = data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} pe={self.pe} inbox={len(self.inbox)}>"


# ----------------------------------------------------------------------
# network
# ----------------------------------------------------------------------
@dataclass
class NetworkStats:
    """Aggregate traffic counters, exposed on every :class:`Interconnect`."""

    messages: int = 0
    bytes: int = 0
    broadcasts: int = 0
    per_channel: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def record(self, src: int, dst: int, nbytes: int) -> None:
        """Count one packet put on the wire (hot path: every send)."""
        self.messages += 1
        self.bytes += nbytes
        key = (src, dst)
        self.per_channel[key] = self.per_channel.get(key, 0) + 1


class SendHandle:
    """Completion handle for asynchronous operations (``CommHandle``).

    ``done`` flips to True once the local send engine has finished with
    the user's buffer — on a real machine when the DMA completes, not
    when the message arrives remotely.  A handle built with no
    completion time is complete from birth, which is the truth on a
    layer whose send call returns only once the bytes left the buffer.
    """

    __slots__ = ("engine", "complete_at", "released")

    def __init__(self, engine: Optional[Engine] = None,
                 complete_at: float = 0.0) -> None:
        self.engine = engine
        self.complete_at = complete_at
        self.released = False

    @property
    def done(self) -> bool:
        """True once the operation has completed (engine-time check)."""
        return self.engine is None or self.engine.now >= self.complete_at

    def release(self) -> None:
        """Mark the handle reusable (``CmiReleaseCommHandle``)."""
        self.released = True


class Interconnect:
    """What the CMI and the protocol layers ask of a layer's network:
    :meth:`sync_send` and :meth:`inject`, plus asynchronous and
    broadcast forms that default to point-to-point sends completing at
    once.  ``nbytes`` is the modelled size, ``payload`` opaque."""

    def __init__(self) -> None:
        self.stats = NetworkStats()

    def sync_send(self, src_node: PENode, dst: int, nbytes: int, payload: Any,
                  extra_send_cost: float = 0.0, immediate: bool = False) -> None:
        """Blocking send: charge the sender, hand the payload to the
        wire; on return the caller may reuse its buffer (``CmiSyncSend``).
        ``immediate`` asks for interrupt-style delivery."""
        raise NotImplementedError

    def inject(self, src_pe: int, dst: int, nbytes: int, payload: Any) -> None:
        """NIC-level transmit with no CPU charge — the protocol layers'
        path for retransmissions, acks, heartbeats and control traffic,
        from timer and arrival context.  Faults apply."""
        raise NotImplementedError

    def async_send(self, src_node: PENode, dst: int, nbytes: int, payload: Any,
                   extra_send_cost: float = 0.0) -> SendHandle:
        """Non-blocking send; the buffer is busy until the returned
        handle reports ``done``."""
        self.sync_send(src_node, dst, nbytes, payload, extra_send_cost)
        return SendHandle()

    def broadcast(self, src_node: PENode, nbytes: int, payload_factory: Any,
                  include_self: bool = False, extra_send_cost: float = 0.0,
                  asynchronous: bool = False) -> Optional[SendHandle]:
        """Send ``payload_factory(dst)`` — one message object per
        destination — to every PE, optionally the caller too.  Sender-
        initiated, *not* a barrier (paper section 3.1.3)."""
        self.stats.broadcasts += 1
        src_node.charge(extra_send_cost)
        for dst in range(src_node.machine.num_pes):
            if include_self or dst != src_node.pe:
                self.sync_send(src_node, dst, nbytes, payload_factory(dst))
        return SendHandle() if asynchronous else None


# ----------------------------------------------------------------------
# console
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConsoleRecord:
    """One atomic write: when, who, which stream, what."""

    time: float
    pe: int
    stream: str  # "out" or "err"
    text: str


class ConsoleLog:
    """A machine's console output (``CmiPrintf`` / ``CmiError``): every
    write is one atomic :class:`ConsoleRecord` stamped with its PE and
    engine time, optionally echoed to the real stdout/stderr.  Console
    *input* is a capability: without it the input calls refuse.
    """

    layer_name = "?"

    def __init__(self, engine: Optional[Engine] = None, echo: bool = False) -> None:
        self.engine = engine
        self.echo = echo
        self.records: List[ConsoleRecord] = []

    def write(self, pe: int, text: str, stream: str = "out",
              t: Optional[float] = None) -> None:
        """Append one atomic record, stamped ``t`` (default: now)."""
        rec = ConsoleRecord(self.engine.now if t is None else t, pe, stream, text)
        self.records.append(rec)
        if self.echo:
            target = sys.stderr if stream == "err" else sys.stdout
            target.write(f"[{rec.time * 1e6:12.2f}us pe{pe}] {text}")
            if not text.endswith("\n"):
                target.write("\n")

    def printf(self, pe: int, fmt: str, *args: Any) -> None:
        """C-style formatted atomic write (``%``-formatting)."""
        self.write(pe, (fmt % args) if args else fmt, "out")

    def error(self, pe: int, fmt: str, *args: Any) -> None:
        """Atomic formatted write to the job's stderr stream."""
        self.write(pe, (fmt % args) if args else fmt, "err")

    # -- inspection helpers (tests use these heavily) --------------------
    def lines(self, stream: Optional[str] = None, pe: Optional[int] = None) -> List[str]:
        """Recorded output texts, optionally filtered by stream/PE."""
        return [
            r.text
            for r in self.records
            if (stream is None or r.stream == stream)
            and (pe is None or r.pe == pe)
        ]

    def output(self) -> str:
        """All stdout text concatenated."""
        return "".join(self.lines("out"))

    @property
    def ordered(self) -> List[Tuple[float, int, str]]:
        """(time, pe, text) triples in emission order — handy for asserting
        that output is atomic and ordered."""
        return [(r.time, r.pe, r.text) for r in self.records]

    # -- input ------------------------------------------------------------
    def _no_input(self, *_args: Any) -> Any:
        raise unsupported(self.layer_name, "console input (CmiScanf)")

    scanf = read_line = feed = _no_input


# ----------------------------------------------------------------------
# host
# ----------------------------------------------------------------------
class PEHost:
    """Every attribute the Converse stack reads off ``runtime.machine``,
    with the default a layer gets by not setting it; those without one
    must be set before :func:`~repro.machine.base.build_pe_stack`.  One
    host may serve every PE (the simulator's ``Machine``) or just its
    own (an mp worker)."""

    layer_name = "?"
    num_pes: int
    engine: Engine
    network: Interconnect
    console: ConsoleLog
    #: ``pe -> PENode`` for the PEs that live in this process.
    nodes: Any
    #: deterministic per-machine RNG (randomized balancers, workloads).
    rng: random.Random
    model: MachineModel = GENERIC
    tracer: Any = None
    metrics: Any = None
    #: hop metric between PEs, where the layer models one.
    topology: Any = None
    #: pooled wire copies / inline (delegated) dispatch, read by each
    #: ``ConverseRuntime`` at construction.
    msg_pooling = False
    inline_dispatch = False
    #: Cld load-gossip period in engine seconds: an order of magnitude
    #: above typical seed grains, so gossip stays a fraction of traffic.
    cld_gossip_interval = 1e-4
    #: trace correlation ids are minted ``seq += stride``: ``(0, 1)``
    #: is dense ids for a host that owns every PE, ``(pe, num_pes)``
    #: gives each process a disjoint residue class.
    _msg_id_seq = 0
    _msg_id_stride = 1
    #: EMI processor groups: the ``gid -> Pgrp`` registry (one dict per
    #: host), the cached all-PEs group and the next group id.
    pgrp_registry: Dict[int, Any]
    world_pgrp: Any = None
    pgrp_next_gid = 1

    def rma_node(self, pe: int) -> PENode:
        """The node whose memory a one-sided get/put addressed to ``pe``
        touches directly — a capability of layers whose PEs share an
        address space."""
        raise unsupported(
            self.layer_name, "one-sided get/put on node memory (CmiGet/CmiPut)")

    def user_pgrp_registry(self) -> Dict[int, Any]:
        """The registry a user-built group (``CmiPgrpCreate``) joins so
        that every member resolves its gid — a capability of layers whose
        PEs share one registry.  The world group needs none: every PE
        derives it locally."""
        raise unsupported(
            self.layer_name, "a user-built processor group (CmiPgrpCreate)",
            "group descriptors are registered per process")
