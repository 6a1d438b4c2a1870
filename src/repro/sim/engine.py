"""Deterministic discrete-event simulation engine.

The engine owns a virtual clock and an event heap.  Events are ordered by
``(time, sequence-number)`` which makes every run exactly reproducible: two
events scheduled for the same instant fire in the order they were scheduled.

User code does not run inside engine callbacks; it runs in
:class:`~repro.sim.tasklet.Tasklet` objects (real threads of which exactly
one is ever runnable).  The engine and the tasklets pass a *baton* back and
forth: the engine resumes a tasklet, the tasklet runs until it parks
(sleeps, suspends, or finishes) and hands the baton back.  This mirrors the
structure of the original Converse runtime, where the machine layer and the
user program share a single processor per PE.

The engine is deliberately unaware of nodes, networks or Converse; those
live in sibling modules and are built on the three primitives here:

* :meth:`SimEngine.schedule` — run a callback at a later virtual time,
* :meth:`SimEngine.sleep` — park the current tasklet for a virtual duration,
* :meth:`SimEngine.suspend` / :meth:`SimEngine.make_ready` — park the
  current tasklet indefinitely / mark a parked tasklet runnable.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.core.context import _set_current
from repro.core.errors import NotInTaskletError, SimulationError
from repro.machine.interface import Engine
from repro.sim.tasklet import BaseTasklet as Tasklet

__all__ = ["ScheduledEvent", "SimEngine", "detect_tasklet_class"]


def detect_tasklet_class() -> type:
    """The tasklet switch this interpreter can run: greenlet stack
    switching (~100 ns a hand-off) where ``import greenlet`` succeeds
    (the ``repro[fast]`` extra), else the portable OS-thread baton
    (~10 us).  The two are observationally identical — same schedules,
    byte-identical traces — so the runtime picks, not the program."""
    try:
        import greenlet  # noqa: F401
    except ImportError:
        from repro.sim.tasklet import Tasklet as thread_tasklet

        return thread_tasklet
    from repro.sim._greenlet_backend import GreenletTasklet

    return GreenletTasklet


#: the tasklet class every engine builds, decided once per process at
#: import: a failed ``import greenlet`` searches the whole ``sys.path``,
#: which would be a sizeable share of building a small machine.
TASKLET_CLASS = detect_tasklet_class()


class ScheduledEvent:
    """A cancellable entry in the engine's event heap.

    Instances are returned by :meth:`SimEngine.schedule`; calling
    :meth:`cancel` before the event fires prevents the callback from
    running.  Cancellation is O(1): the heap entry is left in place and
    skipped when popped — but the owning engine tracks the number of
    cancelled entries and compacts the heap when they dominate, so
    schedule/cancel-heavy protocols (retransmission timers) do not leak.

    Cancelling also drops the ``callback``/``args`` references at once:
    a cancelled retransmission timer must not keep its message buffer
    alive until heap compaction gets around to evicting the entry.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "engine")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any],
                 args: tuple, engine: Optional["SimEngine"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.engine = engine

    def cancel(self) -> None:
        """Prevent the callback from firing and release the callback and
        argument references immediately.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None
        self.args = ()
        engine, self.engine = self.engine, None
        if engine is not None:
            engine._note_cancelled()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.9f} seq={self.seq} {state}>"


class SimEngine(Engine):
    """Virtual-clock event loop with deterministic tasklet scheduling —
    the :class:`~repro.machine.interface.Engine` with tasklets.

    The engine must be driven from a single *driver* thread (normally the
    thread that constructed it) via :meth:`run`.  Tasklets are created with
    :meth:`spawn` and interact with the engine only through the parking
    primitives; they never touch the heap directly.
    """

    #: heaps smaller than this are never compacted (compaction overhead
    #: would exceed the memory it reclaims).
    COMPACT_MIN_HEAP = 64

    def __init__(self) -> None:
        #: the tasklet class this engine spawns (:data:`TASKLET_CLASS`
        #: when the engine was built).
        self.tasklet_class: type = TASKLET_CLASS
        self.now: float = 0.0
        self._heap: List[ScheduledEvent] = []
        self._cancelled: int = 0
        self._seq: int = 0
        #: tasklets runnable at the current instant, in FIFO order.
        self._ready: Deque[Tasklet] = deque()
        self._current: Optional[Tasklet] = None
        self._tasklets: List[Tasklet] = []
        self._running = False
        #: active `until` bound of the current run() — the sleep fast
        #: path must not advance the clock beyond it.
        self._run_until: Optional[float] = None
        self._failure: Optional[BaseException] = None
        #: total number of events fired; exposed for tests/diagnostics.
        self.events_fired: int = 0
        #: the node whose *inline* (delegated) scheduler drain is running
        #: inside the current event callback, or ``None``.  While set,
        #: ``Node.charge`` on that node advances the clock in place
        #: instead of parking (there is no tasklet to park); the drain
        #: settles any events owed in the skipped span at the next
        #: handler boundary via :meth:`inline_resolve`.
        self._inline_node: Any = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def current_tasklet(self) -> Optional[Tasklet]:
        """The tasklet currently holding the baton (``None`` when the
        engine itself is running)."""
        return self._current

    def require_tasklet(self) -> Tasklet:
        """Return the current tasklet or raise :class:`NotInTaskletError`."""
        t = self._current
        if t is None:
            raise NotInTaskletError(
                "this primitive must be called from inside simulated user "
                "code (a tasklet), not from the driver thread"
            )
        return t

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still in the heap."""
        return len(self._heap) - self._cancelled

    @property
    def heap_size(self) -> int:
        """Physical heap length, cancelled entries included (the quantity
        the compaction regression test bounds)."""
        return len(self._heap)

    @property
    def live_tasklets(self) -> List[Tasklet]:
        """Tasklets that have been spawned and have not yet finished."""
        return [t for t in self._tasklets if not t.finished]

    # ------------------------------------------------------------------
    # event scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        ``delay`` may be zero (fires after already-ready work at the same
        instant) but not negative.  Returns a cancellable handle.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        self._seq += 1
        ev = ScheduledEvent(self.now + delay, self._seq, callback, args, engine=self)
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        return self.schedule(max(0.0, time - self.now), callback, *args)

    def _note_cancelled(self) -> None:
        """Bookkeeping callback from :meth:`ScheduledEvent.cancel`: when
        cancelled entries exceed half the heap, rebuild it without them.
        Compaction is deterministic (a pure function of the heap's
        contents), so it never perturbs event order."""
        self._cancelled += 1
        if (len(self._heap) >= self.COMPACT_MIN_HEAP
                and self._cancelled * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        self._heap = [ev for ev in self._heap if not ev.cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # tasklet lifecycle
    # ------------------------------------------------------------------
    def spawn(self, fn: Callable[[], Any], name: str = "tasklet",
              node: Any = None, start: bool = True) -> Tasklet:
        """Create a tasklet running ``fn``.

        When ``start`` is true the tasklet becomes ready immediately (it
        will first run when the engine next looks at the ready queue);
        otherwise it stays parked until :meth:`make_ready` or a direct
        transfer resumes it — this is how ``CthCreate`` builds threads that
        are not yet awakened.
        """
        t = self.tasklet_class(self, fn, name=name, node=node)
        self._tasklets.append(t)
        if start:
            self.make_ready(t)
        return t

    def make_ready(self, tasklet: Tasklet, front: bool = False) -> None:
        """Mark a parked tasklet runnable at the current instant.

        ``front=True`` puts it at the head of the ready queue, which is how
        ``CthResume`` achieves an (almost) immediate context switch.
        """
        if tasklet.finished:
            raise SimulationError(f"cannot ready finished tasklet {tasklet.name!r}")
        if tasklet.ready:
            return
        tasklet.ready = True
        if front:
            self._ready.appendleft(tasklet)
        else:
            self._ready.append(tasklet)

    # ------------------------------------------------------------------
    # parking primitives (called from inside tasklets)
    # ------------------------------------------------------------------
    def sleep(self, duration: float) -> None:
        """Park the current tasklet for ``duration`` of virtual time.

        Fast path: when no other tasklet is ready and no event is due
        before the wake-up time, the clock simply advances in place — the
        outcome is observationally identical (nothing else could have run
        in between) and it avoids two context switches.
        """
        if duration < 0:
            raise SimulationError(f"cannot sleep a negative duration ({duration})")
        self.sleep_current(self.require_tasklet(), duration)

    def sleep_current(self, t: Tasklet, duration: float) -> None:
        """:meth:`sleep` minus the validation — for hot callers
        (``Node.charge``) that already hold the current tasklet and have
        validated ``duration``."""
        wake = self.now + duration
        if not self._ready and (self._run_until is None or wake <= self._run_until):
            # Cancelled entries at the head of the heap are dead weight:
            # prune them now so they cannot veto the in-place advance.
            heap = self._heap
            while heap and heap[0].cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
            if not heap or heap[0].time >= wake:
                self.now = wake
                return
        t.wake_event = self.schedule(duration, self.make_ready, t)
        t.park()
        t.wake_event = None

    def suspend(self) -> None:
        """Park the current tasklet until somebody calls
        :meth:`make_ready` on it (or transfers to it)."""
        t = self.require_tasklet()
        t.park()

    def transfer(self, target: Tasklet) -> None:
        """Park the current tasklet and run ``target`` next.

        This is the primitive beneath ``CthResume``: control moves to
        ``target`` at the same virtual instant, ahead of anything else that
        is ready.
        """
        t = self.require_tasklet()
        if target is t:
            return
        if target.finished:
            raise SimulationError(f"cannot transfer to finished tasklet {target.name!r}")
        self.make_ready(target, front=True)
        t.park()

    def yield_now(self) -> None:
        """Park the current tasklet and re-ready it behind everything else
        currently ready (a cooperative yield at the same instant)."""
        t = self.require_tasklet()
        self.make_ready(t)
        # make_ready marked it ready; park() will hand the baton back and
        # the engine will resume it after the rest of the ready queue.
        t.park()

    # ------------------------------------------------------------------
    # inline (delegated) dispatch support
    # ------------------------------------------------------------------
    def inline_resolve(self, entry_now: float, resume: Callable[[], None]) -> bool:
        """Settle the clock at an inline-dispatch handler boundary.

        An inline drain advances ``now`` in place for every CPU charge
        (handlers are atomic: nothing can preempt mid-handler).  Between
        handlers the drain calls this to check whether any event was
        *owed* inside the span just consumed — an event whose time is
        now in the past, or an active ``run(until=...)`` bound that was
        overshot.  If so, ``resume`` is scheduled at the logical current
        time, the clock rewinds to ``entry_now`` (the drain's entry
        instant, necessarily <= every pending event) so the owed events
        fire at their own times first, and False is returned: the drain
        must stop and wait for ``resume``.  Observationally this matches
        the tasklet path, where the same charge parks the scheduler
        tasklet and wakes it after the intervening events.

        Returns True when the drain may keep going at the current time.
        """
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        now = self.now
        until = self._run_until
        if (heap and heap[0].time < now) or (until is not None and now > until):
            self.schedule(0.0, resume)
            self.now = entry_now
            return False
        return True

    # ------------------------------------------------------------------
    # crash injection
    # ------------------------------------------------------------------
    def kill_node_tasklets(self, node: Any) -> int:
        """Kill every live tasklet bound to ``node`` (whole-PE crash
        injection).  Must be called from the driver (engine-callback
        context), like :meth:`shutdown`.  Pending sleep wake-ups are
        cancelled first so no event later tries to ready a dead tasklet.
        Returns the number of tasklets killed."""
        if self._current is not None and self._current.node is node:
            raise SimulationError(
                "kill_node_tasklets() must not run from a tasklet on the "
                "crashing node"
            )
        killed = 0
        for t in self._tasklets:
            if t.node is node and not t.finished:
                if t.wake_event is not None:
                    t.wake_event.cancel()
                    t.wake_event = None
                t.kill()
                killed += 1
        return killed

    # ------------------------------------------------------------------
    # failure propagation
    # ------------------------------------------------------------------
    def report_failure(self, exc: BaseException) -> None:
        """Record the first exception escaping a tasklet; :meth:`run`
        re-raises it once control returns to the driver."""
        if self._failure is None:
            self._failure = exc

    # ------------------------------------------------------------------
    # the driver loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> str:
        """Drive the simulation.

        Runs ready tasklets and fires events in deterministic order until
        one of the stop conditions holds.  Returns the reason:

        * ``"quiescent"`` — no events pending and no tasklets ready,
        * ``"until"`` — the clock reached ``until``,
        * ``"max_events"`` — ``max_events`` events fired.

        Any exception that escaped a tasklet is re-raised here.
        """
        if self._running:
            raise SimulationError("SimEngine.run() is not reentrant")
        if self._current is not None:
            raise SimulationError("SimEngine.run() must not be called from a tasklet")
        self._running = True
        self._run_until = until
        # The ready deque object is stable for the lifetime of a run()
        # (only shutdown() replaces engine state), so hoist it; the heap
        # must be re-read each pass because compaction rebinds it.
        ready = self._ready
        try:
            fired = 0
            while True:
                # Drain tasklets that are runnable at this instant first;
                # events only fire when the instant's work is finished.
                while ready:
                    if self._failure is not None:
                        raise self._failure
                    t = ready.popleft()
                    if t.finished:
                        continue
                    t.ready = False
                    self._run_tasklet(t)
                if self._failure is not None:
                    raise self._failure
                # Find the next real event.
                ev: Optional[ScheduledEvent] = None
                while self._heap:
                    candidate = heapq.heappop(self._heap)
                    if not candidate.cancelled:
                        ev = candidate
                        break
                    self._cancelled -= 1
                if ev is None:
                    return "quiescent"
                if until is not None and ev.time > until:
                    # Put it back; the caller may resume later.
                    heapq.heappush(self._heap, ev)
                    self.now = until
                    return "until"
                if ev.time < self.now:
                    raise SimulationError(
                        f"event heap corrupted: event at {ev.time} < now {self.now}"
                    )
                self.now = ev.time
                self.events_fired += 1
                fired += 1
                ev.callback(*ev.args)
                if max_events is not None and fired >= max_events:
                    return "max_events"
        finally:
            self._running = False
            self._run_until = None

    def _run_tasklet(self, t: Tasklet) -> None:
        """Hand the baton to ``t`` and wait for it to come back."""
        self._current = t
        _set_current(t)
        try:
            t.resume_from_engine()
        finally:
            self._current = None
            _set_current(None)

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Kill every live tasklet and join its backing thread.

        Used by :class:`~repro.sim.machine.Machine` teardown so that test
        suites do not leak parked OS threads.  Safe to call repeatedly.
        """
        if self._current is not None:
            raise SimulationError("shutdown() must not be called from a tasklet")
        for t in list(self._tasklets):
            if not t.finished:
                t.kill()
        for t in self._tasklets:
            t.join()
        self._tasklets.clear()
        self._ready.clear()
        self._heap.clear()
        self._cancelled = 0
