"""Greenlet-backed tasklets: baton passing as in-process stack switches.

This module imports ``greenlet`` at module import time; it is only loaded
by :func:`repro.sim.engine.detect_tasklet_class`, after ``import
greenlet`` succeeded.

The baton discipline is exactly the thread backend's — the engine resumes
a tasklet, the tasklet runs until it parks or finishes, control returns
to the engine — but a hand-off is a ``greenlet.switch()`` (~100 ns)
instead of two OS scheduler round-trips (~10 µs).  Because exactly one
context runs at any moment in either backend and both run the same engine
code in the same order, the two produce byte-identical traces.

Mapping of the four switch operations:

* ``resume_from_engine`` — ``switch()`` into the tasklet's greenlet
  (creating it on first resume, parented to the driver's greenlet).
* ``park`` — ``switch()`` back to the driver's greenlet.
* ``kill`` — ``throw(TaskletKilled)``: resumes the tasklet with the
  exception raised at its park point, runs ``finally`` blocks, and
  returns to the driver when the greenlet dies.
* ``join`` — nothing to reclaim: a dead greenlet's stack is freed by the
  garbage collector.
"""

from __future__ import annotations

from typing import Any, Callable

import greenlet

from repro.core.errors import SimulationError, TaskletKilled
from repro.sim.tasklet import BaseTasklet

__all__ = ["GreenletTasklet"]


class GreenletTasklet(BaseTasklet):
    """A tasklet whose context is a greenlet of the driver's thread."""

    #: the switch's name (what ``Machine.backend_name`` reports).
    switch = "greenlet"

    def __init__(self, engine: Any, fn: Callable[[], Any], name: str = "tasklet",
                 node: Any = None) -> None:
        super().__init__(engine, fn, name=name, node=node)
        self._glet: Any = None
        self._driver: Any = None

    # ------------------------------------------------------------------
    # baton passing (engine side)
    # ------------------------------------------------------------------
    def resume_from_engine(self) -> None:
        """Run this tasklet until it parks or finishes.

        Called only by the engine's driver (the greenlet that owns the
        event loop — normally the thread's main greenlet).
        """
        if self.finished:
            raise SimulationError(f"resuming finished tasklet {self.name!r}")
        if not self.started:
            self.started = True
            # Parent = the driver's greenlet, so that falling off the end
            # of the tasklet body returns control to the engine.
            self._driver = greenlet.getcurrent()
            self._glet = greenlet.greenlet(self._run_user_fn, parent=self._driver)
        self._glet.switch()

    # ------------------------------------------------------------------
    # baton passing (tasklet side)
    # ------------------------------------------------------------------
    def park(self) -> None:
        """Switch back to the driver; block (as a parked stack) until
        resumed.  Raises :class:`TaskletKilled` if the machine is
        shutting down."""
        if greenlet.getcurrent() is not self._glet:
            raise SimulationError(
                f"park() called from foreign context for tasklet {self.name!r}"
            )
        self._driver.switch()
        # A kill() arrives as TaskletKilled thrown at the switch point
        # above, so this check is usually redundant — it only catches the
        # corner where user code swallowed the unwind and parked again.
        if self.killed:
            raise TaskletKilled()

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Unwind this tasklet at its current park point.

        Called only from the driver.  A tasklet that never started is
        finished immediately without running user code.
        """
        if self.finished:
            return
        self.killed = True
        if not self.started:
            self.finished = True
            return
        # Raise TaskletKilled at the park point; finally blocks run, the
        # greenlet dies, and control returns here (its parent).
        self._glet.throw(TaskletKilled)

    def join(self) -> None:
        """Nothing to wait for: greenlets die synchronously in kill()."""
