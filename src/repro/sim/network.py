"""Simulated interconnect: FIFO channels with per-machine cost models.

The network moves opaque payloads between nodes.  It charges the *sender*
tasklet the software send overhead (by advancing virtual time) and
schedules a delivery event after the model's wire time.  Per-(src, dst)
channel FIFO order is enforced: a later send never arrives before an
earlier one, matching the in-order delivery of every machine the paper
ports to (and which the generalized-message layer implicitly relies on).

Receive-side software overhead is *not* charged here — it is charged by
whoever picks the message up (the CMI, or a raw receiver in the native
baseline benchmarks), because that is where the cost is paid on a real
machine.

**Deterministic fault injection.**  A
:class:`~repro.machine.faults.FaultPlan` makes this network hostile on
purpose: :meth:`_launch` hands each packet to
:meth:`~repro.machine.faults.FaultPlan.apply` as it leaves its sender.
The engine is deterministic, so packets reach the plan's RNG in the same
order on every run with a given plan seed — a failing fuzz seed is a
deterministic test case.  With no plan installed (the default) the
delivery path is byte-for-byte the pre-fault code: need-based cost.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, Optional, Tuple

from repro.core.errors import SimulationError
from repro.machine.faults import FaultPlan
from repro.machine.interface import Interconnect, MachineModel, SendHandle
from repro.sim.engine import ScheduledEvent
from repro.sim.topology import Topology

__all__ = ["Network"]


class Network(Interconnect):
    """The simulated machine's interconnect.

    Parameters
    ----------
    engine:
        The simulation engine used for time charging and delivery events.
    model:
        Cost decomposition (see :mod:`repro.sim.models`).
    topology:
        Hop metric between PEs.
    nodes:
        ``pe -> Node`` mapping, filled in by the machine after
        construction (the network and nodes reference each other).
    """

    #: minimum spacing between two arrivals on one channel, used purely to
    #: keep FIFO ordering strict under equal computed arrival times.
    FIFO_EPSILON = 1e-12

    def __init__(self, engine: Any, model: MachineModel, topology: Topology) -> None:
        super().__init__()
        self.engine = engine
        self.model = model
        self.topology = topology
        self.nodes: Dict[int, Any] = {}
        self._last_arrival: Dict[Tuple[int, int], float] = {}
        #: memoized ``model.wire_time`` keyed by (src, dst, nbytes) — the
        #: model is immutable and the topology fixed, so the wire time of
        #: a given channel/size pair never changes.  Bounded so a workload
        #: with unbounded distinct sizes cannot leak.
        self._wire_cache: Dict[Tuple[int, int, int], float] = {}
        self._seq = itertools.count()
        #: optional :class:`FaultPlan`; ``None`` (the default) keeps the
        #: delivery path identical to the fault-free implementation.
        self.fault_plan: Optional[FaultPlan] = None
        #: optional tracer (installed by the machine) for fault events.
        self.tracer: Any = None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _wire(self, src: int, dst: int, nbytes: int) -> float:
        """Memoized wire time for one (channel, size) pair."""
        cache = self._wire_cache
        ck = (src, dst, nbytes)
        wire = cache.get(ck)
        if wire is None:
            if len(cache) >= 4096:
                cache.clear()
            wire = cache[ck] = self.model.wire_time(
                nbytes, self.topology.hops(src, dst))
        return wire

    def _arrival_time(self, src: int, dst: int, nbytes: int,
                      extra: float = 0.0) -> float:
        t = self.engine.now + self._wire(src, dst, nbytes) + extra
        key = (src, dst)
        last = self._last_arrival.get(key)
        if last is not None and t <= last:
            t = last + self.FIFO_EPSILON
        self._last_arrival[key] = t
        return t

    def _schedule_delivery(self, src: int, dst: int, nbytes: int, payload: Any,
                           depart_delay: float = 0.0,
                           immediate: bool = False) -> None:
        node = self.nodes.get(dst)
        if node is None:
            raise SimulationError(f"no node with PE number {dst}")
        self.stats.record(src, dst, nbytes)
        deliver = node.deliver_immediate if immediate else node.deliver
        if depart_delay > 0.0:
            # Async send: the wire transfer starts once the local engine
            # finishes with the buffer.
            self.engine.schedule(
                depart_delay, self._launch, src, dst, nbytes, payload, deliver
            )
        else:
            self._launch(src, dst, nbytes, payload, deliver)

    def _launch(self, src: int, dst: int, nbytes: int, payload: Any,
                deliver: Any) -> None:
        """Put one packet on the wire, applying the fault plan if any."""
        plan = self.fault_plan
        if plan is None:
            t = self._arrival_time(src, dst, nbytes)
            self.engine.schedule_at(t, deliver, payload)
            return

        def emit(extra: float, keep_fifo: bool) -> None:
            # Reordered/duplicate copies leave the channel's FIFO
            # bookkeeping: later sends may overtake them.
            t = (self._arrival_time(src, dst, nbytes, extra) if keep_fifo
                 else self.engine.now + self._wire(src, dst, nbytes) + extra)
            self.engine.schedule_at(t, deliver, payload)

        plan.apply(src, dst, nbytes, payload, emit, self.tracer, self.engine.now)

    # ------------------------------------------------------------------
    # protocol injection (reliable-delivery layer)
    # ------------------------------------------------------------------
    def inject(self, src_pe: int, dst: int, nbytes: int, payload: Any) -> None:
        """Modelled as a NIC-driven transfer: wire time but no processor
        time (callers run in engine callbacks, outside any tasklet)."""
        self._schedule_delivery(src_pe, dst, nbytes, payload)

    # ------------------------------------------------------------------
    # synchronous send
    # ------------------------------------------------------------------
    def sync_send(self, src_node: Any, dst: int, nbytes: int, payload: Any,
                  extra_send_cost: float = 0.0, immediate: bool = False) -> None:
        """Charges the sender the model's full software overhead.

        The fault-free, non-immediate case — one wire event per
        ``CmiSyncSend``, the hottest line in the stack — is inlined here
        (FIFO stamp, heap push) instead of going through
        ``_schedule_delivery``/``_launch``/``engine.schedule``; the
        semantics are those methods' verbatim."""
        src_node.charge(self.model.send_overhead + extra_send_cost)
        if self.fault_plan is None and not immediate:
            src = src_node.pe
            node = self.nodes.get(dst)
            if node is None:
                raise SimulationError(f"no node with PE number {dst}")
            self.stats.record(src, dst, nbytes)
            t = self.engine.now + self._wire(src, dst, nbytes)
            la = self._last_arrival
            key = (src, dst)
            last = la.get(key)
            if last is not None and t <= last:
                t = last + self.FIFO_EPSILON
            la[key] = t
            engine = self.engine
            engine._seq += 1
            heapq.heappush(engine._heap, ScheduledEvent(
                t, engine._seq, node.deliver, (payload,), engine=engine))
            return
        self._schedule_delivery(src_node.pe, dst, nbytes, payload,
                                immediate=immediate)

    # ------------------------------------------------------------------
    # asynchronous send
    # ------------------------------------------------------------------
    #: fraction of the send overhead paid synchronously to *initiate* an
    #: async send; the rest overlaps with computation.
    ASYNC_INIT_FRACTION = 0.25

    def async_send(self, src_node: Any, dst: int, nbytes: int, payload: Any,
                   extra_send_cost: float = 0.0) -> SendHandle:
        """Non-blocking send: charges only the initiation cost now; the
        buffer is busy until the returned handle reports ``done``."""
        total = self.model.send_overhead + extra_send_cost
        init = total * self.ASYNC_INIT_FRACTION
        rest = total - init
        src_node.charge(init)
        handle = SendHandle(self.engine, self.engine.now + rest)
        self._schedule_delivery(src_node.pe, dst, nbytes, payload, depart_delay=rest)
        return handle

    # ------------------------------------------------------------------
    # broadcast
    # ------------------------------------------------------------------
    def broadcast(self, src_node: Any, nbytes: int, payload_factory: Any,
                  include_self: bool = False, extra_send_cost: float = 0.0,
                  asynchronous: bool = False) -> Optional[SendHandle]:
        """Send to every PE (optionally including the caller).

        ``payload_factory(dst_pe)`` builds the per-destination payload so
        that each node receives its own message object (mirroring the
        per-destination buffer copies of a real broadcast).  The sender
        pays the full overhead for the first destination and
        ``broadcast_factor`` of it for each additional one — broadcasts
        are sender-initiated and are *not* barriers (paper section 3.1.3).
        """
        dests = [pe for pe in sorted(self.nodes) if include_self or pe != src_node.pe]
        if not dests:
            return None
        m = self.model
        total = (
            m.send_overhead
            + (len(dests) - 1) * m.send_overhead * m.broadcast_factor
            + extra_send_cost
        )
        self.stats.broadcasts += 1
        handle: Optional[SendHandle] = None
        if asynchronous:
            init = total * self.ASYNC_INIT_FRACTION
            rest = total - init
            src_node.charge(init)
            handle = SendHandle(self.engine, self.engine.now + rest)
            for dst in dests:
                self._schedule_delivery(
                    src_node.pe, dst, nbytes, payload_factory(dst), depart_delay=rest
                )
        else:
            src_node.charge(total)
            for dst in dests:
                self._schedule_delivery(src_node.pe, dst, nbytes, payload_factory(dst))
        return handle

    # ------------------------------------------------------------------
    # raw injection (native baseline, tools)
    # ------------------------------------------------------------------
    def raw_send(self, src_node: Any, dst: int, nbytes: int, payload: Any) -> None:
        """The native-layer send used by the baseline benchmarks: identical
        costs to :meth:`sync_send` but without any Converse involvement
        (callers pass raw payloads, not generalized messages)."""
        self.sync_send(src_node, dst, nbytes, payload)
