"""The unified Csd scheduler (paper sections 3.1.2 and the API appendix).

One scheduler serves every concurrent entity on a PE — messages from the
network, ready threads, and delayed local work — because all of them are
generalized messages.  The loop matches the paper's Figure 3 pseudo-code:

.. code-block:: c

    while (not done) {
        DeliverMsgs();                       // drain the network first
        message = Dequeue(SchedulerQueue);   // then one local message
        (HandlerOf(message))(message);
    }

Crucially the scheduler is *exposed to the user program*: an SPM module
calls :meth:`CsdScheduler.run` (``CsdScheduler(n)`` / ``-1`` /
``run_until_idle``) to donate its idle time to concurrent modules, which
is the mechanism that lets explicit and implicit control regimes coexist.

Cost accounting (used by the Figure 6 experiment): draining a network
message charges the model's receive overhead plus the Converse dispatch
cost; a queue round-trip additionally charges ``enqueue_cost`` at
``CsdEnqueue`` and ``dequeue_cost`` at dequeue.  Languages that do not
queue never pay the queueing costs — need-based cost.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core import context
from repro.core.message import Message, Priority
from repro.core.queueing import SchedulingQueue, make_queue

__all__ = ["CsdScheduler", "CSD_BATCH"]

#: dispatch batch size: how many queued messages one scheduler-loop
#: iteration may drain before looking at the network and the stop flag
#: again.  Batching amortizes those per-iteration checks over a burst of
#: local work; exit requests are still honored between messages *within*
#: a batch, and at 1 the loop is the paper's Figure 3 loop exactly (the
#: golden-trace test pins that by patching this constant).
CSD_BATCH = 8


class CsdScheduler:
    """Per-PE scheduler instance.

    Parameters
    ----------
    runtime:
        The owning :class:`~repro.core.runtime.ConverseRuntime`; supplies
        the node (for time charging and inbox access), the handler table
        and the cost model.
    queue:
        A :class:`SchedulingQueue` or a strategy name.
    """

    def __init__(self, runtime: Any, queue: Any = "fifo") -> None:
        self.runtime = runtime
        self.queue: SchedulingQueue = (
            queue if isinstance(queue, SchedulingQueue) else make_queue(queue)
        )
        #: pending CsdExitScheduler requests; each one terminates the
        #: innermost running scheduler invocation (CsdStopFlag semantics).
        self._stop_requests = 0
        #: dispatch batch size (see :data:`CSD_BATCH`).
        self._batch = CSD_BATCH
        #: nesting depth of scheduler invocations (SPM code may call the
        #: scheduler from inside a handler).
        self._depth = 0
        #: total messages delivered to handlers via this scheduler.
        self.delivered = 0
        #: the idle-wait predicate, hoisted: one bound method per
        #: scheduler instead of a fresh closure allocated on every idle
        #: cycle of the run() loop.
        self._idle_wake = self._idle_wake_predicate
        #: how many scheduler loops on this PE are currently parked idle.
        #: ``idle_begin``/``idle_end`` are emitted only on the 0<->1
        #: transitions, so per-PE idle events alternate strictly even
        #: when several loops (nested or sibling tasklets) idle at once.
        self._idle_depth = 0
        # Inline (delegated) dispatch state — see :meth:`_drain_delegated`.
        #: message budget of the delegating run() (None = unbounded).
        self._dg_budget: Optional[int] = None
        #: messages dispatched by delegated drains since delegation began.
        self._dg_count = 0
        #: set when a drain wants the parked run() loop back (budget met);
        #: part of the idle-wake predicate.
        self._dg_wake = False
        #: a delegated drain is on the stack right now (same-PE deliveries
        #: must only append to the inbox; the running drain picks them up).
        self._dg_running = False
        #: the drain overshot pending events and parked behind an
        #: ``inline_resolve`` continuation; deliveries must only append.
        self._dg_paused = False
        # Metric handles, cached once (need-based cost: with metrics off
        # every hot-path update is a single flag test).
        if runtime.metering:
            from repro.metrics.registry import DEPTH_BUCKETS, TIME_BUCKETS

            metrics = runtime.metrics
            self._mx_depth = metrics.gauge(
                "csd.queue_depth", help="Csd scheduler queue depth (messages)"
            )
            self._mx_queue_wait = metrics.histogram(
                "csd.queue_wait", TIME_BUCKETS,
                help="virtual time a message waited in the Csd queue, "
                     "CsdEnqueue -> dequeue (s)",
            )
            self._mx_idle_time = metrics.counter(
                "csd.idle_time", help="virtual time the PE sat idle in the "
                                      "scheduler loop (s)",
            )
            self._mx_depth_dist = metrics.histogram(
                "csd.queue_depth_dist", DEPTH_BUCKETS,
                help="queue depth observed at every enqueue",
            )
        else:
            self._mx_depth = None

    def _idle_wake_predicate(self) -> bool:
        """True when an idling scheduler loop has a reason to wake up.

        A classic (non-delegated) loop wakes on network input, queued
        work, or an exit request.  A loop that *delegated* its drain
        (inline dispatch) stays parked through pending work — the
        delivery path and ``_dg_kick`` events run it in engine context —
        and wakes only when the drain hands control back (budget met,
        ``_dg_wake``) or an exit request lands."""
        if self._stop_requests > 0 or self._dg_wake:
            return True
        if self.runtime._delegate is self:
            return False
        return bool(self.runtime.has_pending_network or len(self.queue))

    # ------------------------------------------------------------------
    # queue side
    # ------------------------------------------------------------------
    def enqueue(self, msg: Message, prio: Priority = None) -> None:
        """``CsdEnqueue``: queue a generalized message for later dispatch.

        The message's own priority is used unless ``prio`` overrides it.
        The buffer is grabbed on the caller's behalf (a queued message
        outlives the current handler, so ownership must leave the CMI —
        on real machines this is the handler's explicit ``CmiGrabBuffer``;
        here the queue does it as a documented convenience).

        Charges ``enqueue_cost`` — this is the cost the Figure 6
        experiment isolates.
        """
        rt = self.runtime
        node = rt.node
        if msg.cmi_owned:
            msg.grab()
        self.queue.push(msg, msg.prio if prio is None else prio)
        node.charge(rt.model.enqueue_cost)
        if rt.tracing:
            rt.trace_event("enqueue", handler=msg.handler, depth=len(self.queue))
        if rt.metering:
            self._note_enqueued(msg)
        # Another tasklet on this PE may be idling inside the scheduler.
        self._work_posted()

    def enqueue_free(self, msg: Message, prio: Priority = None) -> None:
        """Queue without charging (used for bookkeeping messages created
        by the runtime itself, e.g. thread-awakening entries, so that the
        queueing-cost ablation isolates exactly the user-visible path)."""
        if msg.cmi_owned:
            msg.grab()
        self.queue.push(msg, msg.prio if prio is None else prio)
        if self.runtime.metering:
            self._note_enqueued(msg)
        self._work_posted()

    def _work_posted(self) -> None:
        """Wake whoever should dispatch freshly queued local work.

        Classic: kick the node so a parked scheduler loop rechecks its
        predicate.  Delegated: the parked loop must *stay* parked — a
        kick would cost a spurious park/resume round trip per enqueue —
        so notify the drain instead with a zero-delay engine event
        (skipped while a drain is on the stack or parked behind a
        time-settlement continuation: that drain re-reads the queue
        itself)."""
        rt = self.runtime
        if rt._delegate is not None:
            if not (self._dg_running or self._dg_paused):
                rt.node.engine.schedule(0.0, self._dg_kick)
            return
        rt.node.kick()

    def _note_enqueued(self, msg: Message) -> None:
        """Metrics bookkeeping for one enqueue (metering is on).

        The enqueue time is stamped *on the message* (``msg.enq_time``),
        not kept in a side table keyed by ``id(msg)``: an id-keyed entry
        for a message never dequeued (e.g. still pending at shutdown)
        would leak, and CPython reuses ids after free, so a stale entry
        could attribute an old timestamp to a brand-new message and emit
        a bogus ``csd.queue_wait`` sample.
        """
        depth = len(self.queue)
        pe = self.runtime.node.pe
        self._mx_depth.set(pe, depth)
        self._mx_depth_dist.observe(pe, depth)
        msg.enq_time = self.runtime.node.now

    def take_stealable(self, max_n: int) -> list:
        """Remove and return up to ``max_n`` queued seeds marked
        ``steal_ok``, oldest first, leaving everything else queued.

        This is the Cld migration/stealing entry point: only messages a
        migrating strategy explicitly marked at root time
        (``Message.steal_ok``) are candidates, so ordinary queued work —
        thread resumes, bookkeeping messages, seeds under non-migrating
        strategies — never moves between PEs.  The queue is drained and
        rebuilt through its own ``pop``/``push``, which preserves the
        kept messages' relative order under FIFO and priority queues
        (LIFO order inverts; migrating strategies assume no LIFO
        discipline).  Taking the *oldest* stealable seeds mirrors Cilk's
        steal-from-the-tail rule: in a tree spawn the oldest seeds sit
        closest to the root and carry the largest subtrees, which is
        what makes one steal pay for its network latency.
        """
        queue = self.queue
        if max_n <= 0 or not queue:
            return []
        stolen: list = []
        kept: list = []
        pop = queue.pop
        while True:
            msg = pop()
            if msg is None:
                break
            if msg.steal_ok and len(stolen) < max_n:
                stolen.append(msg)
            else:
                kept.append(msg)
        push = queue.push
        for msg in kept:
            push(msg, msg.prio)
        if self.runtime.metering:
            self._mx_depth.set(self.runtime.node.pe, len(queue))
        return stolen

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    def exit(self) -> None:
        """``CsdExitScheduler``: stop the (innermost) scheduler loop when
        control next returns to it."""
        self._stop_requests += 1
        self.runtime.node.kick()

    @property
    def running(self) -> bool:
        """True while a scheduler invocation is on this PE's stack."""
        return self._depth > 0

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def deliver_network_msgs(self, limit: Optional[int] = None) -> int:
        """``CmiDeliverMsgs``: drain the network inbox, invoking the
        handler of each message directly.  Returns the number delivered.

        Batch-aware: the lookups are hoisted out of the loop and the
        delivered counter is bumped once per drain, so a burst of n
        arrivals costs n dispatches plus one round of bookkeeping."""
        rt = self.runtime
        next_msg = rt.next_network_msg
        n = 0
        while limit is None or n < limit:
            msg = next_msg()
            if msg is None:
                break
            rt.deliver_from_network(msg)
            n += 1
        if n:
            self.delivered += n
        return n

    def _dispatch_queued(self) -> bool:
        """Dequeue one local message and run its handler.  Returns False
        when the queue is empty."""
        msg = self.queue.pop()
        if msg is None:
            return False
        rt = self.runtime
        rt.node.charge(rt.model.dequeue_cost)
        if rt.tracing:
            rt.trace_event("dequeue", handler=msg.handler, depth=len(self.queue))
        if rt.metering:
            pe = rt.node.pe
            self._mx_depth.set(pe, len(self.queue))
            t0 = msg.enq_time
            if t0 is not None:
                msg.enq_time = None
                self._mx_queue_wait.observe(pe, rt.node.now - t0)
        rt.invoke_handler(msg, from_queue=True)
        self.delivered += 1
        return True

    def _dispatch_batch(self, limit: int) -> int:
        """Dequeue and run up to ``limit`` local messages back-to-back
        (one scheduler-loop iteration's batch).  Stops early when the
        queue empties or an exit request lands, so ``CsdExitScheduler``
        takes effect between messages exactly as in the unbatched loop.
        Returns the number dispatched."""
        n = 0
        while n < limit:
            if not self._dispatch_queued():
                break
            n += 1
            if self._stop_requests > 0:
                break
        return n

    def _idle_wait(self, node: Any) -> None:
        """Park until the idle-wake predicate fires, bracketing the span
        with ``idle_begin``/``idle_end`` events and idle-time metering.

        Only the loop that took the PE from 0 to 1 idlers emits the
        events (and only when it wakes does ``idle_end`` follow), so the
        per-PE idle trace alternates strictly even with nested or
        sibling scheduler loops.  With tracing and metering both off
        this is a plain ``wait_until`` — need-based cost.
        """
        rt = self.runtime
        if not (rt.tracing or rt.metering):
            node.wait_until(self._idle_wake)
            return
        outermost = self._idle_depth == 0
        self._idle_depth += 1
        t0 = node.now
        if outermost and rt.tracing:
            rt.trace_event("idle_begin")
        try:
            node.wait_until(self._idle_wake)
        finally:
            self._idle_depth -= 1
            if outermost:
                if rt.tracing:
                    rt.trace_event("idle_end")
                if rt.metering:
                    self._mx_idle_time.inc(node.pe, node.now - t0)

    # ------------------------------------------------------------------
    # inline (delegated) dispatch
    #
    # When the machine enables inline dispatch (``Machine(inline=True)``)
    # an outermost run() loop with nothing else waiting on the node
    # *delegates* up front: it registers itself on the runtime
    # and parks.  Deliveries then drain the scheduler right inside the
    # engine's delivery callback — handler dispatch costs zero context
    # switches per message instead of two (park + resume of the
    # scheduler tasklet).  Handlers run atomically in engine context:
    # CPU charges advance the clock in place and any events owed inside
    # a charged span fire between handlers (SimEngine.inline_resolve),
    # so for handlers that never suspend the observable schedule —
    # handler order, virtual times, counters — is identical to the
    # tasklet path.  Handlers that do suspend (Cth operations, blocking
    # receives, nested blocking schedulers) raise NotInTaskletError;
    # inline dispatch is therefore opt-in.
    # ------------------------------------------------------------------
    def _dg_deliver(self) -> None:
        """Entry from ``Node.deliver``: a message landed while this
        scheduler idles delegated.  Drain in place — unless a drain is
        already on the stack (a same-PE send from inside a handler) or
        parked behind a time-settlement continuation, in which case the
        message just waits in the inbox for that drain."""
        if not (self._dg_running or self._dg_paused):
            self._drain_delegated()

    def _dg_kick(self) -> None:
        """Zero-delay engine event seeding a delegated drain: covers
        work that was already pending when run() delegated, plus local
        enqueues posted by sibling tasklets mid-delegation (deliveries
        drive the drain directly and never need this)."""
        if (self.runtime._delegate is self
                and not (self._dg_running or self._dg_paused)):
            self._drain_delegated()

    def _drain_resume(self) -> None:
        """Continuation scheduled by ``inline_resolve``: the events owed
        inside a charged span have fired; pick the drain back up."""
        self._dg_paused = False
        if self.runtime._delegate is self:
            self._drain_delegated()

    def _drain_delegated(self) -> None:
        """Dispatch pending work in engine context on behalf of the
        parked run() loop — the same network-then-queue cadence, the
        same batch bound, the same pre-idle aggregation flush."""
        rt = self.runtime
        node = rt.node
        engine = node.engine
        entry_now = engine.now
        engine._inline_node = node
        context.bind_node(node)
        self._dg_running = True
        try:
            while True:
                if self._stop_requests > 0:
                    # exit() already kicked the parked loop; it wakes,
                    # consumes the request and returns (leftover
                    # messages stay pending, exactly as in the tasklet
                    # loop).
                    return
                budget = self._dg_budget
                if budget is not None and self._dg_count >= budget:
                    # Count satisfied: hand control back to run().
                    rt._delegate = None
                    self._dg_wake = True
                    node.kick()
                    return
                limit = None if budget is None else budget - self._dg_count
                # Direct inbox drain when no side-buffer / intake filters
                # are in play (deliver_network_msgs semantics, minus the
                # per-message indirection).  Both conditions are re-read
                # every iteration: a handler may install a filter
                # mid-drain.  No new arrivals land while this runs — we
                # *are* the engine callback — so the pop loop sees a
                # stable inbox.
                inbox = node.inbox
                if not (inbox or rt._buffered):
                    n = 0
                elif inbox and not (rt._buffered or rt._intake_filters):
                    dfn = rt.deliver_from_network
                    n = 0
                    while inbox and not (rt._buffered or rt._intake_filters):
                        if limit is not None and n >= limit:
                            break
                        dfn(inbox.popleft())
                        n += 1
                    self.delivered += n
                else:
                    n = self.deliver_network_msgs(limit=limit)
                if n:
                    self._dg_count += n
                    if not engine.inline_resolve(entry_now, self._drain_resume):
                        self._dg_paused = True
                        return
                    continue
                if self.queue:
                    k = self._dispatch_batch(
                        self._batch if budget is None
                        else min(self._batch, budget - self._dg_count))
                    if k:
                        self._dg_count += k
                        if not engine.inline_resolve(entry_now, self._drain_resume):
                            self._dg_paused = True
                            return
                        continue
                if rt._buffered or node.inbox:
                    continue
                flush = rt.idle_flush
                if flush is not None and flush() > 0:
                    continue
                # Same pre-park steal shot as run(): the reply delivery
                # re-enters this drain through _dg_deliver.
                steal = rt.idle_steal
                if steal is not None:
                    steal()
                # Idle again: stay delegated, tasklet stays parked.  Any
                # *other* waiter that blocked mid-delegation (a receive
                # primitive on a sibling tasklet) gets a courtesy kick —
                # the classic delivery path would have woken it.
                if len(node._waiters) > 1:
                    node.kick()
                return
        finally:
            self._dg_running = False
            engine._inline_node = None
            context.bind_node(None)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self, nmsgs: int = -1) -> int:
        """``CsdScheduler(n)``.

        ``nmsgs == -1``: loop (blocking when idle) until :meth:`exit` is
        called from a handler or another tasklet.
        ``nmsgs >= 0``: process exactly that many messages, blocking while
        idle — the ``ScheduleFor(n)`` variant SPM modules use "to allow a
        certain amount of concurrent execution while they wait for data".
        An :meth:`exit` request ends either variant early.

        For donation of idle time *without* blocking, use
        :meth:`run_until_idle` or :meth:`poll`.

        Returns the number of messages delivered to handlers.
        """
        return self._loop(nmsgs, True)

    def run_until_idle(self) -> int:
        """``ScheduleUntilIdle()``: loop until both the network inbox and
        the scheduler queue are empty, then return (never blocks) — the
        same loop as :meth:`run`, leaving where that one would park.

        That includes the pre-idle aggregation flush: a PE that goes
        idle — even without blocking — must not sit on buffered outgoing
        batches, or a program driving the scheduler purely through
        ``CsdScheduleUntilIdle`` polling would never get its small
        messages onto the wire."""
        return self._loop(-1, False)

    def _loop(self, nmsgs: int, blocking: bool) -> int:
        """The one Csd loop body behind :meth:`run` (``blocking``) and
        :meth:`run_until_idle` (not)."""
        rt = self.runtime
        node = rt.node
        self._depth += 1
        count = 0
        try:
            while True:
                if self._stop_requests > 0:
                    self._stop_requests -= 1
                    break
                if nmsgs >= 0 and count >= nmsgs:
                    break
                # An outermost blocking loop on an inline-dispatch
                # machine delegates its entire drain to the delivery
                # path up front (sole idler only: other waiters —
                # blocking receives, sibling loops — keep the classic
                # wake-the-tasklet path).  Delegating immediately,
                # rather than at first idle, matters for pipelined
                # traffic: a loop whose handlers charge CPU time never
                # *looks* idle — arrivals slip in during every charge —
                # yet every one of those charges pays a park/resume
                # context-switch pair that the engine-context drain
                # avoids.  A zero-delay kick seeds the drain with
                # whatever is already pending (and gives the aggregation
                # layer its pre-idle flush when nothing is).
                if (blocking and rt.inline_dispatch and self._depth == 1
                        and rt._delegate is None and not node._waiters):
                    self._dg_budget = None if nmsgs < 0 else nmsgs - count
                    self._dg_count = 0
                    self._dg_wake = False
                    rt._delegate = self
                    node.engine.schedule(0.0, self._dg_kick)
                    try:
                        self._idle_wait(node)
                    finally:
                        rt._delegate = None
                        self._dg_wake = False
                        count += self._dg_count
                        self._dg_count = 0
                    continue
                budget = None if nmsgs < 0 else nmsgs - count
                count += self.deliver_network_msgs(limit=budget)
                if self._stop_requests > 0:
                    self._stop_requests -= 1
                    break
                if nmsgs >= 0 and count >= nmsgs:
                    break
                batch = self._batch if nmsgs < 0 else min(self._batch, nmsgs - count)
                n = self._dispatch_batch(batch)
                if n:
                    count += n
                    continue
                if rt.has_pending_network:
                    continue
                # About to go idle: give the aggregation layer (when
                # present) its scheduler-idle flush — an idle PE must not
                # sit on buffered outgoing batches.  One attribute test
                # when the layer is absent.
                flush = rt.idle_flush
                if flush is not None and flush() > 0:
                    continue
                if not blocking:
                    break
                # Still idle: a work-stealing Cld strategy (when
                # installed) gets one shot at requesting work from a
                # victim before this loop parks — the victim's reply
                # arrives as network input and wakes the wait below.
                # Only the blocking loop steals: a non-blocking donor
                # could return before the reply lands and strand the
                # stolen seeds in the inbox.
                steal = rt.idle_steal
                if steal is not None:
                    steal()
                # Idle: block until something arrives, is enqueued, or an
                # exit request lands (one hoisted predicate — no closure
                # allocation per idle cycle).  Inline-dispatch loops
                # never reach here — they delegated at the top of the
                # loop — so this is always the classic parked wait.
                self._idle_wait(node)
        finally:
            self._depth -= 1
        return count

    def poll(self) -> int:
        """Process everything currently available exactly once (a single
        DeliverMsgs + queue drain pass), never blocking.  Handy for SPM
        code that wants to stay responsive inside a compute loop.

        Like :meth:`run` and :meth:`run_until_idle`, a poll that leaves
        the PE with nothing pending gives the aggregation layer its
        pre-idle flush instead of exiting with batches still buffered."""
        count = self.deliver_network_msgs()
        while self._dispatch_queued():
            count += 1
        if not self.runtime.has_pending_network:
            flush = self.runtime.idle_flush
            if flush is not None:
                flush()
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CsdScheduler pe={self.runtime.node.pe} queued={len(self.queue)} "
            f"delivered={self.delivered}>"
        )
