"""TRAM-style streaming message aggregation (coalescing) for fine-grained
traffic.

Generalized messages make fine-grained messaging cheap to *express*, but
every tiny message still pays the full per-message send/receive software
overhead — the dominant cost for workloads that exchange millions of
small payloads (the comparative AM++/Charm++ study and the Charm++
TRAM library both identify coalescing as the key lever).  This module
batches small messages headed for the same destination into one wire
message:

* **Submission** is a buffer append — no CPU charge, no engine event.
  The per-message send overhead is paid *once per batch* when the buffer
  flushes, amortizing it across ``max_batch_msgs`` messages.
* **Routing** is either ``"direct"`` (one buffer per destination PE) or
  ``"mesh2d"`` (a virtual 2-D mesh: messages travel column-first through
  one intermediate PE, so each PE keeps O(2*sqrt(P)) active buffers and
  traffic to many destinations coalesces onto few links — the TRAM
  topology for all-to-all patterns).
* **Flush policies** compose: a full buffer (message count or byte
  budget) flushes immediately; a virtual-time timer bounds how long a
  trickle can sit buffered; the Csd scheduler flushes everything before
  parking idle; the machine drains all buffers if the engine ever goes
  quiescent with messages still buffered, so no message is lost.

Strict need-based cost: a machine built without ``aggregation=`` has no
:class:`Aggregator` objects at all, and the CMI send path pays one
``is not None`` test.  Enable it machine-wide
(``Machine(aggregation=True)`` or ``Machine(aggregation=
AggregationConfig(...))``) so the batch-decoding handler occupies the
same handler index on every PE.

Accounting: a batch counts as *one* machine-layer message in the node
send/receive counters (that is the point — fewer wire messages), so
message-conservation invariants and quiescence detection stay exact.
Logical (pre-coalescing) sends are still visible in the ``cmi.sends``
metric and per-handler trace events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import SimulationError
from repro.core.message import Message

__all__ = ["AggregationConfig", "AggStats", "Aggregator"]


@dataclass(frozen=True)
class AggregationConfig:
    """Tuning knobs of the aggregation layer.

    The defaults suit the paper's machine models (tens of microseconds
    of per-message software overhead): 16-message batches amortize the
    send overhead ~16x, and the 200 us flush timer keeps the worst-case
    latency a buffered message can gain well under one millisecond.
    The modelled wire sizes of a batch's header and of each message's
    envelope are constants of this module, not options.
    """

    #: flush a buffer when it holds this many messages.
    max_batch_msgs: int = 16
    #: flush a buffer when its payload bytes reach this budget.
    max_batch_bytes: int = 4096
    #: only messages of at most this size are coalesced; larger sends
    #: take the ordinary per-message path (they amortize their own
    #: overhead already).
    max_msg_bytes: int = 512
    #: virtual-time bound on how long a non-empty buffer may sit before
    #: a timer flush (``None`` disables the timer; the scheduler-idle
    #: flush and the machine's quiescent drain still apply).
    flush_period: Optional[float] = 200e-6
    #: flush all buffers when the Csd scheduler is about to park idle.
    flush_on_idle: bool = True
    #: ``"direct"`` — one buffer per destination; ``"mesh2d"`` — route
    #: through a virtual 2-D mesh (column phase then row phase), the
    #: all-to-all topology.
    route: str = "direct"

    def validate(self) -> None:
        if self.max_batch_msgs < 1:
            raise SimulationError(
                f"max_batch_msgs must be >= 1, got {self.max_batch_msgs}")
        if self.max_batch_bytes < 1:
            raise SimulationError(
                f"max_batch_bytes must be >= 1, got {self.max_batch_bytes}")
        if self.flush_period is not None and self.flush_period <= 0:
            raise SimulationError(
                f"flush_period must be > 0 or None, got {self.flush_period}")
        if self.route not in ("direct", "mesh2d"):
            raise SimulationError(
                f"route must be 'direct' or 'mesh2d', got {self.route!r}")


@dataclass
class AggStats:
    """Per-PE counters of the aggregation layer (also metered)."""

    #: logical messages accepted into buffers on this PE.
    submitted: int = 0
    #: batch wire messages sent from this PE.
    batches_sent: int = 0
    #: logical messages carried by those batches.
    msgs_batched: int = 0
    #: logical messages delivered to local handlers from batches.
    delivered: int = 0
    #: logical messages re-buffered toward their next mesh hop.
    forwarded: int = 0
    #: flush causes.
    flush_full: int = 0
    flush_bytes: int = 0
    flush_timer: int = 0
    flush_idle: int = 0
    flush_drain: int = 0
    flush_explicit: int = 0


#: index layout of one buffered record: (final destination PE, handler,
#: payload, modelled size, source PE, trace msg_id, submit time).
_DEST, _HANDLER, _PAYLOAD, _SIZE, _SRC, _MSGID, _T0 = range(7)

#: modelled wire sizes (bytes): a batch's header, and each message's
#: envelope (destination + handler) inside a batch.
_BATCH_HEADER_BYTES = 16
_ENVELOPE_BYTES = 8


class Aggregator:
    """Per-PE streaming aggregation engine.

    One instance per PE, built by the machine when ``aggregation=`` is
    given (the batch handler must occupy the same handler-table index on
    every PE, which only holds when every PE registers it at the same
    point).  The CMI feeds eligible point-to-point sends into
    :meth:`submit`; buffers flush by policy (see the module docstring)
    and travel as ordinary generalized messages, so they compose with
    fault injection and the reliable-delivery layer unchanged.
    """

    def __init__(self, runtime: Any, config: Optional[AggregationConfig] = None) -> None:
        self.runtime = runtime
        self.node = runtime.node
        self.network = runtime.machine.network
        self.engine = runtime.machine.engine
        self.model = runtime.model
        self.config = config or AggregationConfig()
        self.config.validate()
        self.stats = AggStats()
        self.handler_id = runtime.register_handler(self._on_batch, "agg.batch")
        #: next-hop PE -> list of buffered records.
        self._buffers: Dict[int, List[Tuple]] = {}
        #: next-hop PE -> buffered payload bytes (envelopes included).
        self._bytes: Dict[int, int] = {}
        self._timer: Any = None
        # Virtual-mesh geometry (row-major over num_pes, like
        # :class:`repro.sim.topology.Mesh2D`); computed once.
        n = runtime.machine.num_pes
        self._mesh_cols = max(1, math.isqrt(n))
        self._num_pes = n
        # Metric handles, cached once (need-based cost as everywhere).
        if runtime.metering:
            from repro.metrics.registry import (
                DEPTH_BUCKETS, SIZE_BUCKETS, TIME_BUCKETS,
            )

            metrics = runtime.metrics
            self._mx_submitted = metrics.counter(
                "agg.submitted", help="logical messages accepted for coalescing"
            )
            self._mx_batches = metrics.counter(
                "agg.batches", help="batch wire messages sent"
            )
            self._mx_forwarded = metrics.counter(
                "agg.forwarded", help="messages re-buffered toward a mesh hop"
            )
            self._mx_batch_msgs = metrics.histogram(
                "agg.batch_msgs", DEPTH_BUCKETS,
                help="logical messages per flushed batch",
            )
            self._mx_batch_bytes = metrics.histogram(
                "agg.batch_bytes", SIZE_BUCKETS,
                help="wire bytes per flushed batch",
            )
            self._mx_hold_time = metrics.histogram(
                "agg.hold_time", TIME_BUCKETS,
                help="virtual time a message sat buffered, submit -> "
                     "flush of its (final) batch (s)",
            )
            self._mx_flush_cause = metrics.counter(
                "agg.flushes", help="buffer flushes (all causes)"
            )
        else:
            self._mx_submitted = None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def next_hop(self, dest: int) -> int:
        """The PE the next wire message toward ``dest`` goes to.

        ``direct`` routing: the destination itself.  ``mesh2d``: correct
        the column first (hop to the PE in this row and the destination's
        column), then the row — dimension-ordered routing on the virtual
        grid.  Grid cells past ``num_pes`` (a ragged last row) fall back
        to the direct hop.
        """
        if self.config.route == "direct" or dest == self.node.pe:
            return dest
        cols = self._mesh_cols
        my_row, my_col = divmod(self.node.pe, cols)
        _, dest_col = divmod(dest, cols)
        if dest_col == my_col:
            return dest
        mid = my_row * cols + dest_col
        if mid >= self._num_pes or mid == dest:
            return dest
        return mid

    # ------------------------------------------------------------------
    # submission (the CMI's aggregated send path)
    # ------------------------------------------------------------------
    def submit(self, dest: int, msg: Message) -> None:
        """Buffer one small message for ``dest``.  ``msg`` must already
        be the wire copy (the aggregator owns it until delivery)."""
        self.submit_fields(dest, msg.handler, msg.payload, msg.size,
                           msg.src_pe, msg.msg_id)

    def submit_fields(self, dest: int, handler: int, payload: Any,
                      size: int, src_pe: Optional[int],
                      msg_id: Optional[int]) -> None:
        """Buffer one small message given its fields directly.  The CMI
        send path uses this form so the aggregated fast path never
        materializes a wire-copy :class:`Message` at all — the record
        tuple is the only per-message allocation, and the receive side
        builds the delivered message fresh from it."""
        self._put((dest, handler, payload, size, src_pe, msg_id,
                   self.node.now))

    def _put(self, record: Tuple) -> None:
        """Append one record to its next-hop buffer and apply the
        buffer-full flush policies."""
        cfg = self.config
        hop = self.next_hop(record[_DEST])
        buf = self._buffers.get(hop)
        if buf is None:
            buf = self._buffers[hop] = []
            self._bytes[hop] = 0
        buf.append(record)
        self._bytes[hop] += record[_SIZE] + _ENVELOPE_BYTES
        self.stats.submitted += 1
        if self.runtime.metering:
            self._mx_submitted.inc(self.node.pe)
        if len(buf) >= cfg.max_batch_msgs:
            self._flush_hop(hop, "full")
        elif self._bytes[hop] >= cfg.max_batch_bytes:
            self._flush_hop(hop, "bytes")
        elif cfg.flush_period is not None and self._timer is None:
            self._timer = self.engine.schedule(cfg.flush_period, self._on_timer)

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of messages currently buffered on this PE."""
        return sum(len(b) for b in self._buffers.values())

    def _flush_hop(self, hop: int, cause: str) -> None:
        """Close one buffer and put its batch on the wire."""
        records = self._buffers.pop(hop, None)
        if not records:
            self._bytes.pop(hop, None)
            return
        nbytes = _BATCH_HEADER_BYTES + self._bytes.pop(hop)
        setattr(self.stats, "flush_" + cause,
                getattr(self.stats, "flush_" + cause) + 1)
        self.stats.batches_sent += 1
        self.stats.msgs_batched += len(records)
        rt = self.runtime
        now = self.node.now
        if rt.metering:
            pe = self.node.pe
            self._mx_batches.inc(pe)
            self._mx_flush_cause.inc(pe)
            self._mx_batch_msgs.observe(pe, len(records))
            self._mx_batch_bytes.observe(pe, nbytes)
            for r in records:
                self._mx_hold_time.observe(pe, now - r[_T0])
        if rt.tracing:
            rt.trace_event("agg_flush", dest=hop, nmsgs=len(records),
                           size=nbytes, cause=cause)
        wire = Message(self.handler_id, tuple(records), size=nbytes,
                       src_pe=self.node.pe)
        # One batch = one machine-layer message: counted sent here, once,
        # and received once at the destination's inbox — conservation
        # invariants (and quiescence detection) see balanced totals.
        self.node.stats.msgs_sent += 1
        self.node.stats.bytes_sent += nbytes
        self._send_batch(hop, nbytes, wire)

    def _send_batch(self, hop: int, nbytes: int, wire: Message) -> None:
        """Transmit one batch, composing with the reliable layer when
        present.  From tasklet context the sender is charged the normal
        per-message send overhead (amortized over the whole batch); from
        engine-callback context (timer flush, quiescent drain) the batch
        is injected NIC-style without CPU charge, exactly like the
        reliable layer's retransmissions."""
        reliable = getattr(self.runtime.cmi, "_reliable", None)
        cur = self.engine.current_tasklet
        in_tasklet = cur is not None and cur.node is self.node
        if reliable is not None:
            if in_tasklet:
                reliable.send(hop, wire,
                              extra_send_cost=self.model.cvs_send_extra)
            else:
                # Give the protocol its tasklet context for charging.
                self.node.spawn(lambda: reliable.send(hop, wire),
                                name="agg-flush")
            return
        if in_tasklet:
            self.network.sync_send(self.node, hop, nbytes, wire,
                                   extra_send_cost=self.model.cvs_send_extra)
        else:
            self.network.inject(self.node.pe, hop, nbytes, wire)

    def flush_all(self, cause: str = "explicit") -> int:
        """Flush every non-empty buffer; returns the number of batches
        sent.  Used by the explicit API, the scheduler-idle hook and the
        machine's quiescent drain."""
        if not self._buffers:
            return 0
        n = 0
        for hop in sorted(self._buffers):
            if self._buffers.get(hop):
                self._flush_hop(hop, cause)
                n += 1
        if self._timer is not None:
            # Nothing left to guard: cancelling the armed timer spares a
            # no-op wakeup that would otherwise hold the engine (and any
            # quiescence judgement) until the period elapses.
            self._timer.cancel()
            self._timer = None
        return n

    def flush_idle(self) -> int:
        """The Csd scheduler's pre-idle hook (policy-gated)."""
        if not self.config.flush_on_idle:
            return 0
        return self.flush_all("idle")

    def _on_timer(self) -> None:
        self._timer = None
        self.flush_all("timer")
        # Re-arm only while data remains (a flush may have been raced by
        # fresh submissions from an interleaved handler); an empty layer
        # schedules nothing, so it cannot hold off quiescence.
        if self._buffers and self.config.flush_period is not None:
            self._timer = self.engine.schedule(
                self.config.flush_period, self._on_timer)

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------
    def _on_batch(self, wrapper: Message) -> None:
        """The batch handler (scheduler context): open the batch, then
        run each local message's handler in order."""
        invoke = self.runtime.invoke_handler
        for inner in self.unpack(wrapper):
            invoke(inner, from_queue=False)

    def unpack(self, wrapper: Message) -> List[Message]:
        """Open one batch: re-buffer mesh transits and return the local
        messages, in order, rebuilt as ordinary messages.  The batch
        already paid one receive overhead + dispatch; each additional
        local message is charged only the Converse dispatch cost, in a
        single combined charge.  An SPM receive opens batches with this
        too (:meth:`~repro.core.runtime.ConverseRuntime.next_msg_for`)."""
        records = wrapper.payload
        me = self.node.pe
        rt = self.runtime
        locals_: List[Tuple] = []
        transit: List[Tuple] = []
        for r in records:
            (locals_ if r[_DEST] == me else transit).append(r)
        if rt.tracing:
            rt.trace_event("agg_batch", nmsgs=len(records),
                           local=len(locals_), transit=len(transit),
                           src=wrapper.src_pe)
        if len(locals_) > 1:
            self.node.charge(self.model.cvs_dispatch_extra * (len(locals_) - 1))
        for r in transit:
            self.stats.forwarded += 1
            if rt.metering:
                self._mx_forwarded.inc(me)
            self._put(r)
        self.stats.delivered += len(locals_)
        out = []
        for r in locals_:
            inner = Message(r[_HANDLER], r[_PAYLOAD], size=r[_SIZE],
                            src_pe=r[_SRC])
            inner.msg_id = r[_MSGID]
            out.append(inner)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return (
            f"<Aggregator pe={self.node.pe} route={self.config.route} "
            f"pending={self.pending} batches={s.batches_sent} "
            f"submitted={s.submitted}>"
        )
