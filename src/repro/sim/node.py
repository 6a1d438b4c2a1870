"""A simulated processing element (PE).

The simulator's :class:`~repro.machine.interface.PENode`.  What it adds
to the shared inbox, counters, hooks and memory is what only a simulated
processor has: tasklets parked on the inbox, a ``charge`` primitive that
models CPU cost by advancing virtual time, and a power switch for crash
injection.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque

from repro.core.errors import SimulationError
from repro.machine.interface import PENode

__all__ = ["Node"]


class Node(PENode):
    """One simulated PE.

    The inbox holds payloads delivered by the network in arrival order.
    Tasklets belonging to this node block on the inbox via
    :meth:`wait_for_message`; the network wakes them through
    :meth:`deliver`.
    """

    def __init__(self, machine: Any, pe: int) -> None:
        super().__init__(machine, pe)
        self._waiters: Deque[Any] = deque()
        #: hardware power state: ``False`` while crashed (fault injection).
        #: Deliveries to a down PE are dropped on the floor, like packets
        #: arriving at a dead NIC.
        self.up = True
        #: deliveries dropped because the PE was down.
        self.dropped_while_down = 0

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

    # ------------------------------------------------------------------
    # inbox
    # ------------------------------------------------------------------
    def deliver(self, payload: Any) -> None:
        """Runs inside an engine event callback (never in a tasklet)."""
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
        self._arrived(payload)
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

    def deliver_immediate(self, payload: Any) -> None:
        """Interrupt-style delivery: the handler runs at arrival time in
        its own tasklet.  (Modelling note: the interrupted computation's
        remaining time is not extended by the service routine's — the
        two overlap in virtual time, a simplification over a real
        interrupt.)"""
        if not self.up:
            self.dropped_while_down += 1
            return
        self._arrived(payload)

        def service() -> None:
            rt = self.runtime
            if rt is None:
                raise SimulationError(
                    f"immediate message on PE {self.pe} with no runtime"
                )
            rt.deliver_from_network(payload)

        self.spawn(service, name="isr")

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
        """Park the calling tasklet until ``predicate()`` is true."""
        cur = self.engine.require_tasklet()
        while not predicate():
            self._waiters.append(cur)
            self.engine.suspend()

    def kick(self) -> None:
        """Ready every tasklet parked on this node."""
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
