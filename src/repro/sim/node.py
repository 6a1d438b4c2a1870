"""A simulated processing element (PE).

A node is the *hardware* view of one processor: an inbox fed by the
network, a virtual-time ``charge`` primitive that models CPU cost, a small
private memory region used by the EMI global-pointer calls, and counters.
The *software* view — the Converse runtime with its handler table,
scheduler queue and thread pools — is attached as ``node.runtime`` by the
machine (see :mod:`repro.core.runtime`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional

from repro.core.errors import SimulationError

__all__ = ["NodeStats", "Node"]


@dataclass
class NodeStats:
    """Per-PE counters (virtual time / message accounting)."""

    msgs_sent: int = 0
    bytes_sent: int = 0
    msgs_received: int = 0
    bytes_received: int = 0
    busy_time: float = 0.0
    handlers_run: int = 0


class Node:
    """One simulated PE.

    The inbox holds payloads delivered by the network in arrival order.
    Tasklets belonging to this node block on the inbox via
    :meth:`wait_for_message`; the network wakes them through
    :meth:`deliver`.
    """

    def __init__(self, machine: Any, pe: int) -> None:
        self.machine = machine
        self.pe = pe
        self.engine = machine.engine
        self.inbox: Deque[Any] = deque()
        self._waiters: Deque[Any] = deque()
        #: private memory region addressed by EMI global pointers.
        self.memory: Dict[int, bytearray] = {}
        self._next_mem_key = 1
        self.stats = NodeStats()
        #: the Converse runtime living on this PE (set by the machine).
        self.runtime: Any = None
        #: hardware power state: ``False`` while crashed (fault injection).
        #: Deliveries to a down PE are dropped on the floor, like packets
        #: arriving at a dead NIC.
        self.up = True
        #: incarnation number, bumped by every :meth:`restart`.
        self.epoch = 0
        #: virtual time of the most recent crash (recovery latency base).
        self.crashed_at: Optional[float] = None
        #: deliveries dropped because the PE was down.
        self.dropped_while_down = 0
        #: observers called on every delivery, e.g. tracing.
        self._delivery_hooks: list[Callable[[Any], None]] = []
        #: arrival interceptors (reliable delivery, fault tolerance): run
        #: *before* the inbox, at "interrupt level", and may consume
        #: protocol packets entirely.  ``None`` until the first install so
        #: the common case stays a single attribute test.
        self._interceptors: Optional[tuple] = None
        #: receive-side metric handles; ``None`` until the machine calls
        #: :meth:`attach_metrics`, so the guard on the delivery path is a
        #: single attribute test when metrics are off.
        self._mx_recvs: Any = None
        self._mx_recv_bytes: Any = None

    def attach_metrics(self, metrics: Any) -> None:
        """Cache receive-side metric handles from the machine's registry
        (called once at machine construction when metrics are enabled)."""
        self._mx_recvs = metrics.counter(
            "cmi.receives", help="messages delivered to this PE's inbox"
        )
        self._mx_recv_bytes = metrics.counter(
            "cmi.recv_bytes", help="modelled payload bytes received"
        )

    def attach_tracer(self, tracer: Any) -> None:
        """Record a ``receive`` event on ``tracer`` for every arrival at
        this PE (called once at machine construction when tracing is
        on).  The one definition of the event's shape, on every machine
        layer."""
        pe, engine, record = self.pe, self.engine, tracer.record

        def hook(payload: Any) -> None:
            record(pe, engine.now, "receive", {
                "handler": getattr(payload, "handler", None),
                "size": getattr(payload, "size", 0),
                "src": getattr(payload, "src_pe", None),
                "msg": getattr(payload, "msg_id", None),
            })

        self.add_delivery_hook(hook)

    # ------------------------------------------------------------------
    # CPU time
    # ------------------------------------------------------------------
    def charge(self, dt: float) -> None:
        """Advance virtual time by ``dt`` to model CPU work on this PE.

        Must be called from a tasklet that belongs to this node; the
        tasklet sleeps, so other PEs (and the network) progress meanwhile.
        Zero-cost charges return immediately without a context switch, and
        when nothing else can interleave (no ready tasklet, no earlier
        event) the clock advances in place without parking at all.
        """
        if dt < 0:
            raise SimulationError(f"cannot charge negative time ({dt})")
        self.stats.busy_time += dt
        if dt > 0.0:
            engine = self.engine
            cur = engine._current
            if cur is None:
                if engine._inline_node is self:
                    # Inline (delegated) dispatch: the handler runs in an
                    # engine event callback, so there is no tasklet to
                    # park — CPU cost advances the clock in place, and
                    # the drain settles any events owed in the skipped
                    # span at the next handler boundary
                    # (:meth:`SimEngine.inline_resolve`).
                    engine.now += dt
                    return
                raise SimulationError(
                    f"charge() on PE {self.pe} from a tasklet not on this PE"
                )
            if cur.node is not self:
                raise SimulationError(
                    f"charge() on PE {self.pe} from a tasklet not on this PE"
                )
            engine.sleep_current(cur, dt)

    @property
    def now(self) -> float:
        """The PE's clock (``CmiTimer``); all PEs share the virtual clock."""
        return self.engine.now

    # ------------------------------------------------------------------
    # inbox
    # ------------------------------------------------------------------
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

    def deliver(self, payload: Any) -> None:
        """Network-facing: append an arrival and wake blocked tasklets.

        Runs inside an engine event callback (never in a tasklet).
        """
        if not self.up:
            # A dead PE's NIC: in-flight packets addressed to it vanish.
            self.dropped_while_down += 1
            return
        interceptors = self._interceptors
        if interceptors is not None:
            for fn in interceptors:
                if fn(payload):
                    return
        self.inbox.append(payload)
        stats = self.stats
        stats.msgs_received += 1
        stats.bytes_received += getattr(payload, "size", 0) or 0
        if self._mx_recvs is not None:
            self._mx_recvs.inc(self.pe)
            self._mx_recv_bytes.inc(self.pe, getattr(payload, "size", 0) or 0)
        if self._delivery_hooks:
            for hook in self._delivery_hooks:
                hook(payload)
        waiters = self._waiters
        if waiters:
            # An idle scheduler loop may have delegated its drain to the
            # delivery path (inline dispatch): run its handlers right
            # here in engine context — zero context switches — instead
            # of waking the parked tasklet.
            rt = self.runtime
            if rt is not None and rt._delegate is not None:
                rt._delegate._dg_deliver()
                return
            make_ready = self.engine.make_ready
            while waiters:
                make_ready(waiters.popleft())

    def add_delivery_hook(self, hook: Callable[[Any], None]) -> None:
        """Register an observer invoked on every arrival (tracing)."""
        self._delivery_hooks.append(hook)

    def deliver_immediate(self, payload: Any) -> None:
        """Interrupt-style delivery (the paper's section-6 "preemptive
        messages" future work): instead of queueing into the inbox, the
        message's handler runs *at arrival time* in its own context —
        even while the PE's regular code is mid-computation.  (Modelling
        note: the interrupted computation's remaining time is not
        extended by the service routine's — the two overlap in virtual
        time, a simplification over a real interrupt.)"""
        if not self.up:
            self.dropped_while_down += 1
            return
        self.stats.msgs_received += 1
        self.stats.bytes_received += getattr(payload, "size", 0) or 0
        if self._mx_recvs is not None:
            self._mx_recvs.inc(self.pe)
            self._mx_recv_bytes.inc(self.pe, getattr(payload, "size", 0) or 0)
        for hook in self._delivery_hooks:
            hook(payload)

        def service() -> None:
            rt = self.runtime
            if rt is None:
                raise SimulationError(
                    f"immediate message on PE {self.pe} with no runtime"
                )
            rt.deliver_from_network(payload)

        self.spawn(service, name="isr")

    def poll(self) -> Optional[Any]:
        """Non-blocking inbox pop (the guts of ``CmiGetMsg``)."""
        if self.inbox:
            return self.inbox.popleft()
        return None

    def inbox_snapshot(self) -> Any:
        """The inbox contents as an iterable safe to walk while deliveries
        may be happening.  On the single-threaded simulator that is the
        inbox itself; machine layers with a concurrent receive path (mp)
        override this to copy under their delivery lock.  Checkpointing
        iterates this instead of touching :attr:`inbox` directly."""
        return self.inbox

    def wait_for_message(self) -> Any:
        """Block the calling tasklet until a message is available, then
        pop and return it."""
        cur = self.engine.require_tasklet()
        if cur.node is not self:
            raise SimulationError(
                f"wait_for_message() on PE {self.pe} from a tasklet on "
                f"PE {getattr(cur.node, 'pe', None)}"
            )
        while not self.inbox:
            self._waiters.append(cur)
            self.engine.suspend()
        return self.inbox.popleft()

    def wait_until(self, predicate: Callable[[], bool]) -> None:
        """Block the calling tasklet until ``predicate()`` is true.

        The predicate is re-evaluated after every delivery to this node
        and after every explicit :meth:`kick`.
        """
        cur = self.engine.require_tasklet()
        while not predicate():
            self._waiters.append(cur)
            self.engine.suspend()

    def kick(self) -> None:
        """Wake every tasklet blocked on this node so it rechecks its wait
        condition.  Used by same-PE state changes (e.g. ``CsdEnqueue`` from
        another tasklet, Cth awakenings)."""
        while self._waiters:
            self.engine.make_ready(self._waiters.popleft())

    # ------------------------------------------------------------------
    # crash injection (whole-PE failure model)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash this PE: kill every tasklet bound to it, discard its
        inbox, memory and software wiring.  Runs from an engine event
        callback (the machine's crash injector), never from a tasklet.
        Cumulative counters survive — a crash does not rewrite history."""
        if not self.up:
            raise SimulationError(f"PE {self.pe} is already down")
        self.up = False
        self.crashed_at = self.engine.now
        # Waiters are about to be killed; drop them first so nothing can
        # make_ready a finished tasklet afterwards.
        self._waiters.clear()
        self.engine.kill_node_tasklets(self)
        self.inbox.clear()
        self.memory.clear()
        self._next_mem_key = 1
        self._interceptors = None
        self.runtime = None

    def restart(self) -> None:
        """Power the PE back on with amnesia: a fresh incarnation with an
        empty inbox and memory.  The machine re-attaches a fresh runtime
        (and protocol layers) afterwards."""
        if self.up:
            raise SimulationError(f"PE {self.pe} is not down")
        self.up = True
        self.epoch += 1

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

    # ------------------------------------------------------------------
    # tasklets
    # ------------------------------------------------------------------
    def spawn(self, fn: Callable[[], Any], name: str = "task", start: bool = True):
        """Create a tasklet bound to this PE."""
        return self.engine.spawn(fn, name=f"pe{self.pe}-{name}", node=self, start=start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node pe={self.pe} inbox={len(self.inbox)}>"
