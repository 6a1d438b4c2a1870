"""Tasklets: suspendable user-code contexts.

The original Converse implements thread objects with ``setjmp``/``longjmp``
over per-thread stacks.  Python offers no portable stack switching, so the
*portable* backend backs each tasklet with an OS thread — but enforces that
**exactly one** tasklet (or the engine) runs at any moment by passing a
baton built from a pair of ``threading.Lock`` objects (a lock hand-off is
roughly half the cost of the ``threading.Event`` pair it replaced).  The
GIL therefore never introduces nondeterminism: execution is fully
serialized and scheduled by the engine.

Where the optional ``greenlet`` package is installed, the engine uses
:class:`~repro.sim._greenlet_backend.GreenletTasklet` instead, which
performs the same baton discipline as an in-thread stack switch (~100 ns
instead of ~10 µs).  Both implementations share :class:`BaseTasklet`, and
:func:`repro.sim.engine.detect_tasklet_class` picks one per process; they
are observationally identical — same park/resume/kill semantics, same
trace bytes.

A tasklet runs until it *parks* (via the engine's sleep/suspend/transfer
primitives) or finishes.  Parking hands the baton back to the engine's
driver.

Shutdown injects :class:`~repro.core.errors.TaskletKilled` (a
``BaseException``) at the park point so that ``finally`` blocks in user
code still run but ordinary ``except Exception`` clauses do not swallow
the unwind.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from repro.core.errors import SimulationError, TaskletKilled

__all__ = ["BaseTasklet", "Tasklet"]

#: Join timeout used during shutdown.  A healthy tasklet unwinds in
#: microseconds; the timeout only guards against pathological user code.
_JOIN_TIMEOUT = 5.0


class BaseTasklet:
    """State and bookkeeping shared by every switch backend.

    Attributes of interest to the rest of the library:

    * ``node`` — the simulated PE this tasklet belongs to (or ``None``);
      used to answer "which processor am I on?" from C-style API calls.
    * ``finished`` — the function returned, raised, or was killed.
    * ``result`` / ``error`` — outcome of the function, for joiners.
    * ``data`` — a free slot for higher layers (Cth stores its thread
      object here).

    Subclasses implement the four switch operations:
    :meth:`resume_from_engine`, :meth:`park`, :meth:`kill`, :meth:`join`.
    """

    #: global id counter, shared across backends so tasklet ids (and any
    #: trace field derived from them) do not depend on the backend choice.
    _ids = 0

    def __init__(self, engine: Any, fn: Callable[[], Any], name: str = "tasklet",
                 node: Any = None) -> None:
        BaseTasklet._ids += 1
        self.tid = BaseTasklet._ids
        self.engine = engine
        self.fn = fn
        self.name = name
        self.node = node
        self.finished = False
        self.started = False
        self.ready = False
        self.killed = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.data: Any = None
        #: the ScheduledEvent that will wake this tasklet from a sleep
        #: (``None`` while not sleeping).  Tracked so crash injection can
        #: cancel the wake-up before killing the tasklet — a make_ready
        #: firing on a finished tasklet is an engine error.
        self.wake_event: Any = None

    # -- switch operations (backend-specific) ---------------------------
    def resume_from_engine(self) -> None:
        """Run this tasklet until it parks or finishes (driver side)."""
        raise NotImplementedError

    def park(self) -> None:
        """Give the baton back to the engine and block until resumed
        (tasklet side)."""
        raise NotImplementedError

    def kill(self) -> None:
        """Ask this tasklet to unwind at its current park point (driver
        side)."""
        raise NotImplementedError

    def join(self) -> None:
        """Reclaim backend resources after :meth:`kill` (driver side)."""
        raise NotImplementedError

    def _run_user_fn(self) -> None:
        """The shared tasklet body: run user code, capture the outcome,
        report failures, and mark the tasklet finished."""
        try:
            if not self.killed:
                self.result = self.fn()
        except TaskletKilled:
            pass
        except BaseException as exc:  # noqa: BLE001 - report and unwind
            self.error = exc
            self.engine.report_failure(exc)
        finally:
            self.finished = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "finished" if self.finished
            else "ready" if self.ready
            else "running/parked" if self.started
            else "new"
        )
        return f"<{type(self).__name__} {self.name!r} #{self.tid} {state}>"


class Tasklet(BaseTasklet):
    """The portable OS-thread tasklet (the ``"thread"`` switch).

    The baton is a pair of ``threading.Lock`` objects, both created held:
    releasing the peer's lock wakes it, acquiring one's own lock blocks
    until woken.  Exactly one side ever runs, so each lock is released at
    most once before its next acquire — strict alternation, no lost or
    duplicated wake-ups.
    """

    #: the switch's name (what ``Machine.backend_name`` reports).
    switch = "thread"

    def __init__(self, engine: Any, fn: Callable[[], Any], name: str = "tasklet",
                 node: Any = None) -> None:
        super().__init__(engine, fn, name=name, node=node)
        self._go = threading.Lock()
        self._back = threading.Lock()
        self._go.acquire()
        self._back.acquire()
        self._thread = threading.Thread(
            target=self._bootstrap, name=f"sim-{name}-{self.tid}", daemon=True
        )

    # ------------------------------------------------------------------
    # thread body
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        # Wait for the first baton hand-off before touching user code.
        self._go.acquire()
        try:
            self._run_user_fn()
        finally:
            # Hand the baton back for the last time.
            self._back.release()

    # ------------------------------------------------------------------
    # baton passing (engine side)
    # ------------------------------------------------------------------
    def resume_from_engine(self) -> None:
        """Run this tasklet until it parks or finishes.

        Called only by the engine's driver thread.
        """
        if self.finished:
            raise SimulationError(f"resuming finished tasklet {self.name!r}")
        if not self.started:
            self.started = True
            self._thread.start()
        self._go.release()
        self._back.acquire()

    # ------------------------------------------------------------------
    # baton passing (tasklet side)
    # ------------------------------------------------------------------
    def park(self) -> None:
        """Give the baton back to the engine and block until resumed.

        Must be called from this tasklet's own thread (the engine's parking
        primitives guarantee that).  Raises :class:`TaskletKilled` if the
        machine is shutting down.
        """
        if threading.current_thread() is not self._thread:
            raise SimulationError(
                f"park() called from foreign thread for tasklet {self.name!r}"
            )
        self._back.release()
        self._go.acquire()
        if self.killed:
            raise TaskletKilled()

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Ask this tasklet to unwind; it dies at its current park point.

        Called only from the driver thread.  A tasklet that never started
        is finished immediately without running user code.
        """
        if self.finished:
            return
        self.killed = True
        if not self.started:
            # Never ran: mark it done without spinning up the thread.
            self.finished = True
            return
        # Wake it so the park point raises TaskletKilled.
        self._go.release()
        self._back.acquire(timeout=_JOIN_TIMEOUT)

    def join(self) -> None:
        """Wait for the backing OS thread to exit (after :meth:`kill`)."""
        if self.started:
            self._thread.join(_JOIN_TIMEOUT)
