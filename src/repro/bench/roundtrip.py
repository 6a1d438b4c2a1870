"""Round-trip message-passing latency driver (paper section 5.1).

"This was measured using a round trip program that sends a large number of
messages back and forth between two processors.  Using this, the average
time for one individual message send, transmission, receipt and handling
was computed ... On the receiving processor, for every message, the
message was delivered to a handler which responded by sending a return
message."

Three series, matching the paper's experiments:

* ``native``   — the lowest-level layer available on the machine: raw
  sends with no Converse header or dispatch (what FM/SUNMOS/MPL deliver).
* ``converse`` — generalized messages delivered straight to their handler
  (no queueing): the paper's first experiment (Figures 4, 5, 7, 8 and the
  lower Converse curve of Figure 6).
* ``queued``   — "each handler upon receiving a message enqueues it in the
  scheduler's queue.  The scheduler then picks a message from its queue
  and schedules it for execution" — the second experiment (Figure 6),
  whose cost "is paid only by languages such as Charm which use the queue
  for scheduling objects."

All times are *virtual* microseconds for one one-way message
(round-trip / 2), averaged over ``reps`` round trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core import context
from repro.core.message import Message
from repro.sim.machine import Machine
from repro.sim.models import MachineModel

__all__ = ["DEFAULT_SIZES", "RoundTripResult", "roundtrip", "figure_series"]

#: message sizes (bytes) swept by the figures: 16 B .. 64 KB by octaves.
DEFAULT_SIZES: List[int] = [16 << i for i in range(13)]  # 16 .. 65536


@dataclass
class RoundTripResult:
    """One series of a latency-vs-size sweep."""

    model: str
    mode: str
    sizes: List[int]
    #: one-way latency per size, in microseconds.
    us: List[float]

    def as_dict(self) -> Dict[int, float]:
        """A plain-dict rendering (JSON-friendly)."""
        return dict(zip(self.sizes, self.us))


class _RawPayload:
    """What the native baseline puts on the wire: sized, but no header."""

    __slots__ = ("size",)

    def __init__(self, size: int) -> None:
        self.size = size


def _run_native(model: MachineModel, sizes: Sequence[int], reps: int) -> List[float]:
    """Raw machine-layer ping-pong: echo loop on PE 1, driver on PE 0."""
    results: List[float] = []

    def echo() -> None:
        node = context.current_runtime().node
        net = node.machine.network
        total = len(sizes) * reps
        for _ in range(total):
            payload = node.wait_for_message()
            node.charge(model.recv_overhead)
            net.raw_send(node, 0, payload.size, _RawPayload(payload.size))

    def driver() -> None:
        node = context.current_runtime().node
        net = node.machine.network
        for size in sizes:
            t0 = node.now
            for _ in range(reps):
                net.raw_send(node, 1, size, _RawPayload(size))
                node.wait_for_message()
                node.charge(model.recv_overhead)
            results.append((node.now - t0) / (2 * reps) * 1e6)

    with Machine(2, model=model) as m:
        m.launch_on(0, driver)
        m.launch_on(1, echo)
        m.run()
    return results


def _run_converse(model: MachineModel, sizes: Sequence[int], reps: int,
                  queued: bool) -> List[float]:
    """Generalized-message ping-pong through registered handlers."""
    results: List[float] = []

    def main() -> None:
        from repro.core import api

        me = api.CmiMyPe()
        state: dict = {}

        def respond(msg: Message) -> None:
            # Echo from PE 1 back to PE 0.
            api.CmiSyncSend(0, api.CmiNew(state["h_back"], None, size=msg.size))

        def respond_via_queue(msg: Message) -> None:
            # The second-handler trick: re-target to the from-queue
            # handler, pay the enqueue, let the scheduler dispatch it.
            api.CmiSetHandler(msg, state["h_echo_q"])
            api.CsdEnqueue(msg)

        def respond_from_queue(msg: Message) -> None:
            api.CmiSyncSend(0, api.CmiNew(state["h_back"], None, size=msg.size))

        def arrived_back(msg: Message) -> None:
            state["got"] += 1
            api.CsdExitScheduler()

        def arrived_back_via_queue(msg: Message) -> None:
            # Queued mode queues on *both* PEs: "each handler upon
            # receiving a message enqueues it" (section 5.1).
            api.CmiSetHandler(msg, state["h_back_q"])
            api.CsdEnqueue(msg)

        # Registration order must match on both PEs.
        state["h_echo"] = api.CmiRegisterHandler(
            respond_via_queue if queued else respond, "rt.echo"
        )
        state["h_echo_q"] = api.CmiRegisterHandler(respond_from_queue, "rt.echo.q")
        state["h_back"] = api.CmiRegisterHandler(
            arrived_back_via_queue if queued else arrived_back, "rt.back"
        )
        state["h_back_q"] = api.CmiRegisterHandler(arrived_back, "rt.back.q")

        if me == 1:
            # Serve echoes until the driver broadcasts the stop.
            api.CsdScheduler(-1)
            return

        state["got"] = 0
        for size in sizes:
            t0 = api.CmiTimer()
            for _ in range(reps):
                api.CmiSyncSend(1, api.CmiNew(state["h_echo"], None, size=size))
                api.CsdScheduler(-1)  # until arrived_back exits it
            results.append((api.CmiTimer() - t0) / (2 * reps) * 1e6)
        api.CsdExitAll()

    with Machine(2, model=model) as m:
        m.launch(main)
        m.run()
    return results


def roundtrip(model: MachineModel, mode: str,
              sizes: Sequence[int] = DEFAULT_SIZES,
              reps: int = 5) -> RoundTripResult:
    """Run one series.  ``mode`` is ``native`` / ``converse`` / ``queued``."""
    sizes = list(sizes)
    if mode == "native":
        us = _run_native(model, sizes, reps)
    elif mode == "converse":
        us = _run_converse(model, sizes, reps, queued=False)
    elif mode == "queued":
        us = _run_converse(model, sizes, reps, queued=True)
    else:
        raise ValueError(f"unknown round-trip mode {mode!r}")
    return RoundTripResult(model.name, mode, sizes, us)


def figure_series(model: MachineModel, sizes: Sequence[int] = DEFAULT_SIZES,
                  reps: int = 5, include_queued: bool = False
                  ) -> Dict[str, RoundTripResult]:
    """The series one paper figure plots: native + converse, plus the
    queued series for the Figure 6 scheduling-overhead experiment."""
    out = {
        "native": roundtrip(model, "native", sizes, reps),
        "converse": roundtrip(model, "converse", sizes, reps),
    }
    if include_queued:
        out["queued"] = roundtrip(model, "queued", sizes, reps)
    return out
