"""The per-PE Converse runtime (``ConverseInit`` .. ``ConverseExit``).

A :class:`ConverseRuntime` is the software stack living on one simulated
PE: the handler table, the unified Csd scheduler, the CMI machine
interface, the Cth thread module and the Cld seed balancer.  The machine
layer builds one per node (:func:`~repro.machine.base.build_pe_stack`);
user code reaches the *current* runtime either through an explicit
reference or the C-flavoured functions in :mod:`repro.core.api`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.core.errors import ConverseError
from repro.core.handlers import HandlerTable
from repro.core.message import Message
from repro.core.pool import MessagePool
from repro.core.scheduler import CsdScheduler

__all__ = ["ConverseRuntime"]


class ConverseRuntime:
    """Everything Converse keeps per processor.

    Parameters
    ----------
    node:
        The simulated PE this runtime runs on.
    machine:
        The owning :class:`~repro.machine.interface.PEHost` (for the
        network, console, tracer).
    queue:
        Scheduler queueing strategy (name or instance), default FIFO.
    """

    def __init__(self, node: Any, machine: Any, queue: Any = "fifo") -> None:
        self.node = node
        self.machine = machine
        self.model = machine.model
        #: receive-side cost per delivered message, precomputed — the
        #: model is immutable and this sum is charged on every dispatch.
        self._recv_cost = self.model.recv_overhead + self.model.cvs_dispatch_extra
        #: cached tracer presence.  Hot paths check this flag *before*
        #: calling :meth:`trace_event`, so that with tracing off not even
        #: the keyword-argument dict is built — need-based cost for
        #: instrumentation.  The machine's tracer is fixed at
        #: construction, so the flag never goes stale.
        self.tracing = machine.tracer is not None
        #: the machine's metrics registry (``None`` when disabled) and
        #: the cached flag hot paths guard metric updates with — the same
        #: discipline as ``self.tracing``.  Fixed at construction.
        self.metrics = machine.metrics
        self.metering = self.metrics is not None
        if self.metering:
            from repro.metrics.registry import TIME_BUCKETS

            self._mx_handler_time = self.metrics.histogram(
                "csd.handler_time", TIME_BUCKETS,
                help="virtual time spent inside one handler invocation (s)",
            )
            self._mx_handlers = self.metrics.counter(
                "csd.handlers_run", help="handler invocations dispatched"
            )
        else:
            self._mx_handler_time = None
            self._mx_handlers = None
        #: per-PE free list for wire-copy messages (``None`` when pooling
        #: is off).  Populated from recycled-not-grabbed CMI buffers; see
        #: :mod:`repro.core.pool` for the ownership invariants.
        self.pool = MessagePool() if machine.msg_pooling else None
        #: inline dispatch (``Machine(inline=True)``): an idle Csd loop
        #: delegates its drain to the delivery path, so handlers run in
        #: engine context with *zero* context switches per message.
        #: Only valid for handlers that never suspend (no Cth, no
        #: blocking receives — such calls raise ``NotInTaskletError``);
        #: instrumented runtimes keep the tasklet path so idle spans
        #: trace/meter exactly as before.
        self.inline_dispatch = (
            machine.inline_dispatch
            and not (self.tracing or self.metering)
        )
        #: the scheduler currently idling with a delegated (inline)
        #: drain, or ``None``; consulted by ``Node.deliver``.
        self._delegate: Any = None
        self.handlers = HandlerTable()
        #: flat index → function dispatch table, rebuilt lazily after
        #: every registration (the table invalidates it via a listener).
        #: Lets ``invoke_handler`` dispatch with one list index instead
        #: of the checked registry lookup.
        self._dispatch: Optional[list] = None
        self.handlers.add_listener(self._invalidate_dispatch)
        self.scheduler = CsdScheduler(self, queue)
        #: messages an SPM receive (:meth:`next_msg_for`) set aside while
        #: it waited for a different handler, opened aggregation batches
        #: included; drained ahead of the inbox by the scheduler.
        self._buffered: Deque[Message] = deque()
        #: intake filters (e.g. EMI scatter advance-receives): each gets a
        #: chance to consume an incoming message before normal delivery.
        self._intake_filters: list = []
        self.exited = False
        #: per-language runtime instances ("each language runtime can be
        #: part of an object by itself, with encapsulated data of its
        #: own" — section 3.3), keyed by language name.
        self.lang_instances: dict = {}
        node.runtime = self
        #: built-in handler: a broadcastable scheduler-exit request, so
        #: message-driven programs can stop every PE's Csd loop.
        self._h_exit_sched = self.handlers.register(
            lambda _msg: self.scheduler.exit(), "csd.exit"
        )
        #: built-in handler backing Ccd timed callbacks.
        self._h_ccd = self.handlers.register(self._on_ccd, "ccd.timer")
        # The machine interface and thread module are built lazily to keep
        # import edges one-directional; see the properties below.
        self._cmi: Any = None
        self._cth: Any = None
        #: the Cld seed balancer; installed by the machine once all
        #: runtimes exist (strategies need the full PE set).
        self.cld: Any = None
        #: pre-idle hook installed by the aggregation layer (``None``
        #: when disabled): the Csd scheduler calls it before parking so
        #: buffered batches flush instead of stalling behind an idle PE.
        self.idle_flush: Any = None
        #: idle hook installed by a work-stealing Cld strategy (``None``
        #: otherwise): the Csd scheduler calls it when it is about to
        #: park with an empty queue, so an idle PE can ask a random
        #: victim for work.  Need-based cost: without stealing this is a
        #: single ``is None`` test per idle transition, zero per message.
        self.idle_steal: Any = None
        #: the fault-tolerance agent (``None`` unless ``Machine(ft=...)``).
        self.ft: Any = None
        # Need-based cost, hoisted to construction time: with tracing or
        # metering on, dispatch binds the instrumented variant onto the
        # instance; otherwise the class-level fast path runs with zero
        # per-message instrumentation tests.  The machine's tracer and
        # metrics registry are fixed at construction, so the choice never
        # goes stale.
        if self.tracing or self.metering:
            self.invoke_handler = self._invoke_handler_instrumented  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # subsystem access
    # ------------------------------------------------------------------
    @property
    def cmi(self) -> Any:
        """The machine interface (MMI + EMI entry points) for this PE."""
        if self._cmi is None:
            from repro.machine.cmi import CMI

            self._cmi = CMI(self)
        return self._cmi

    def enable_reliability(self, config: Any = None, timing: Any = None) -> Any:
        """Switch this PE's sends to the CMI reliable-delivery protocol
        (sequence numbers, acks, retransmission, receiver-side dedup and
        in-order release).  Off by default — need-based cost; normally
        enabled machine-wide via ``Machine(reliable=True)`` so every PE
        can decode the protocol packets."""
        return self.cmi.enable_reliability(config, timing)

    @property
    def reliable(self) -> Any:
        """This PE's reliable-delivery layer (``None`` unless enabled)."""
        return None if self._cmi is None else self._cmi.reliable

    def enable_ft(self, config: Any, coordinator: Any, timing: Any,
                  restarting: bool = False) -> Any:
        """Attach this PE's fault-tolerance agent (failure detection +
        buddy checkpoint/recovery; see :mod:`repro.ft`).  Off by default
        — need-based cost; enabled machine-wide via ``Machine(ft=...)``
        on top of ``reliable=True``.  ``restarting=True`` marks a
        post-crash incarnation: its receive side stays paused until
        ``CftRecover`` restores state."""
        if self.ft is None:
            from repro.ft.manager import FTAgent

            self.ft = FTAgent(self, config, coordinator, timing,
                              restarting=restarting)
        return self.ft

    def enable_aggregation(self, config: Any = None) -> Any:
        """Switch this PE's small sends to the streaming-aggregation
        layer (see :mod:`repro.comms.aggregation`).  Off by default —
        need-based cost; normally enabled machine-wide via
        ``Machine(aggregation=...)`` so the batch handler occupies the
        same handler index on every PE."""
        return self.cmi.enable_aggregation(config)

    @property
    def aggregation(self) -> Any:
        """This PE's aggregation layer (``None`` unless enabled)."""
        return None if self._cmi is None else self._cmi.aggregation

    @property
    def cth(self) -> Any:
        """The thread-object module (``Cth*``) for this PE."""
        if self._cth is None:
            from repro.threads.thread_object import CthModule

            self._cth = CthModule(self)
        return self._cth

    @property
    def my_pe(self) -> int:
        """This PE's logical processor number."""
        return self.node.pe

    @property
    def num_pes(self) -> int:
        """Total number of PEs in the machine."""
        return self.machine.num_pes

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def register_handler(self, fn: Callable[[Message], None],
                         name: Optional[str] = None) -> int:
        """``CmiRegisterHandler``: register and return the handler index."""
        return self.handlers.register(fn, name)

    # ------------------------------------------------------------------
    # message intake
    # ------------------------------------------------------------------
    def add_intake_filter(self, fn: Callable[[Message], bool]) -> None:
        """Register a filter that may consume incoming messages (returns
        True when it swallowed the message)."""
        self._intake_filters.append(fn)

    def next_network_msg(self) -> Optional[Message]:
        """The next undelivered network message: side-buffered messages
        (from ``CmiGetSpecificMsg`` waits) first, then the inbox.  Intake
        filters (scatter advance-receives) may consume fresh arrivals."""
        if self._buffered:
            return self._buffered.popleft()
        return self.poll_network_filtered()

    def poll_network_filtered(self) -> Optional[Message]:
        """Pop the next *fresh* arrival (never the side buffer), applying
        intake filters.  Selective-receive loops use this so that
        messages they just side-buffered are not handed straight back to
        them (which would spin forever)."""
        while True:
            msg = self.node.poll()
            if msg is None:
                return None
            if self._intake_filters and any(f(msg) for f in self._intake_filters):
                continue
            return msg

    def take_buffered(self, handler_id: int) -> Optional[Message]:
        """Remove and return the oldest side-buffered message for
        ``handler_id``, if any."""
        for i, msg in enumerate(self._buffered):
            if msg.handler == handler_id:
                del self._buffered[i]
                return msg
        return None

    def next_msg_for(self, handler_id: int) -> Optional[Message]:
        """The oldest undelivered message for ``handler_id`` — side-
        buffered first, then fresh arrivals — or ``None`` once the inbox
        is empty.  Fresh arrivals for other handlers are side-buffered on
        the way; an aggregation batch (whose own handler is never the one
        waited for) is opened into the side buffer, in order, and claimed
        from there."""
        msg = self.take_buffered(handler_id)
        if msg is not None:
            return msg
        agg = self.aggregation
        while True:
            msg = self.poll_network_filtered()
            if msg is None or msg.handler == handler_id:
                return msg
            if agg is not None and msg.handler == agg.handler_id:
                self._buffered.extend(agg.unpack(msg))
                msg = self.take_buffered(handler_id)
                if msg is not None:
                    return msg
            else:
                self._buffered.append(msg)

    def drain_for(self, handler_id: int, file: Callable[[Message], Any],
                  until: Optional[Callable[[], bool]] = None) -> None:
        """The SPM receive loop (``CmiGetSpecificMsg``, the languages'
        probes and blocking waits): charge ``recv_overhead`` for each
        message :meth:`next_msg_for` yields and ``file`` it.  Returns once
        the inbox is empty, or with ``until``, once ``until()`` holds,
        parking meanwhile — after an aggregation flush, since a partner
        may be waiting on a batch buffered here."""
        node = self.node
        while until is None or not until():
            msg = self.next_msg_for(handler_id)
            if msg is None:
                if until is None:
                    return
                self.cmi.flush_aggregation("idle")
                node.wait_until(lambda: bool(node.inbox))
                continue
            node.charge(self.model.recv_overhead)
            file(msg)

    @property
    def has_pending_network(self) -> bool:
        """True when undelivered network input exists."""
        return bool(self._buffered) or bool(self.node.inbox)

    def deliver_from_network(self, msg: Message) -> None:
        """Charge receive-side costs and run the message's handler — the
        path taken by ``CmiDeliverMsgs`` and the scheduler's network
        drain."""
        self.node.charge(self._recv_cost)
        self.invoke_handler(msg, from_queue=False)

    def _invalidate_dispatch(self) -> None:
        """Handler-table listener: drop the flat dispatch table so the
        next dispatch rebuilds it with the new registration."""
        self._dispatch = None

    def _lookup_fast(self, handler: int) -> Callable[[Message], None]:
        """Resolve a handler index through the flat dispatch table,
        falling back to the checked registry lookup (which raises the
        proper :class:`~repro.core.errors.UnknownHandlerError`) for
        out-of-range or unregistered indices."""
        table = self._dispatch
        if table is None:
            table = self._dispatch = self.handlers.flat()
        if 0 <= handler < len(table):
            fn = table[handler]
            if fn is not None:
                return fn
        return self.handlers.lookup(handler)

    def invoke_handler(self, msg: Message, from_queue: bool) -> None:
        """Call the message's handler, enforcing the CMI buffer
        ownership protocol: the buffer is recycled unless the handler
        grabbed it (and pooled buffers return to the free list).

        This is the uninstrumented fast path — the ownership steps are
        inlined (``mark_cmi_owned`` / ``recycle`` semantics, verbatim)
        and there are no tracing/metering flag tests at all: runtimes
        with instrumentation enabled bind
        :meth:`_invoke_handler_instrumented` over this method at
        construction."""
        # _lookup_fast, inlined: the flat-table hit is the overwhelmingly
        # common case; misses fall back to the checked helper.
        handler = msg.handler
        table = self._dispatch
        if table is None:
            table = self._dispatch = self.handlers.flat()
        fn = table[handler] if 0 <= handler < len(table) else None
        if fn is None:
            fn = self.handlers.lookup(handler)
        self.node.stats.handlers_run += 1
        msg._cmi_owned = True
        try:
            fn(msg)
        finally:
            if msg._cmi_owned:
                msg._valid = False
                msg._payload = None
                if msg._pooled:
                    # pool.release, inlined: the poison check above just
                    # ran, so only the park-or-drop step remains.
                    pool = self.pool
                    if pool is not None:
                        msg._pooled = False
                        free = pool._free
                        if len(free) < pool.max_free:
                            free.append(msg)
                            pool.released += 1
                        else:
                            pool.dropped += 1

    def _invoke_handler_instrumented(self, msg: Message, from_queue: bool) -> None:
        """The traced/metered variant of :meth:`invoke_handler` (bound
        onto the instance at construction when instrumentation is on)."""
        fn = self._lookup_fast(msg.handler)
        self.node.stats.handlers_run += 1
        if self.tracing:
            self.trace_event(
                "handler_begin",
                handler=msg.handler,
                name=self.handlers.name_of(msg.handler),
                from_queue=from_queue,
                src=msg.src_pe,
                size=msg.size,
                msg=msg.msg_id,
            )
        if self.metering:
            self._mx_handlers.inc(self.node.pe)
            t0 = self.node.now
        msg.mark_cmi_owned()
        try:
            fn(msg)
        finally:
            msg.recycle()
            if not msg._valid and msg._pooled:
                pool = self.pool
                if pool is not None:
                    pool.release(msg)
            if self.metering:
                self._mx_handler_time.observe(self.node.pe, self.node.now - t0)
            if self.tracing:
                self.trace_event("handler_end", handler=msg.handler)

    # ------------------------------------------------------------------
    # Ccd: timed callbacks (Converse's conditional/periodic callback
    # module — ``CcdCallFnAfter``)
    # ------------------------------------------------------------------
    def ccd_call_fn_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` on this PE, in scheduler (handler) context, after
        ``delay`` seconds of virtual time — the timer-interrupt service
        every Converse port provides.  The callback arrives as a local
        generalized message, so a PE idling in ``CsdScheduler`` wakes for
        it."""
        if delay < 0:
            raise ConverseError(f"Ccd delay must be >= 0, got {delay}")
        msg = Message(self._h_ccd, fn, size=0)
        self.node.engine.schedule(delay, self.node.deliver, msg)

    def _on_ccd(self, msg: Message) -> None:
        # A Ccd tick is a timer interrupt, not a message: undo the
        # delivery count so message-conservation invariants (used by
        # quiescence detection) stay exact.
        self.node.stats.msgs_received -= 1
        msg.payload()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def exit_all_schedulers(self) -> None:
        """Stop the Csd scheduler on every PE: exits the local one and
        broadcasts an exit request to all others (``CsdExitAll``)."""
        self.cmi.sync_broadcast(Message(self._h_exit_sched, None, size=0))
        self.scheduler.exit()

    def converse_exit(self) -> None:
        """``ConverseExit``: mark this PE's runtime finished.  No Converse
        call may follow on this PE (enforced loosely: the flag is checked
        by the C-style API layer)."""
        self.exited = True
        if self.tracing:
            self.trace_event("converse_exit")

    def check_active(self) -> None:
        """Raise if ConverseExit already ran on this PE."""
        if self.exited:
            raise ConverseError(
                f"Converse call on PE {self.node.pe} after ConverseExit"
            )

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def trace_event(self, kind: str, **fields: Any) -> None:
        """Forward an event to the machine's tracer (no-op when tracing is
        disabled — need-based cost applies to instrumentation too).

        Hot paths guard the call with ``if self.tracing:`` so that a
        disabled tracer costs not even the kwargs dict; calling unguarded
        remains correct, just a few nanoseconds dearer."""
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.record(self.node.pe, self.node.now, kind, fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConverseRuntime pe={self.node.pe} handlers={len(self.handlers)}>"
