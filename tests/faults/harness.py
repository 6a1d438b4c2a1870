"""Workload runners for the schedule-fuzzing harness.

Each runner builds a machine under a (possibly hostile) network, runs a
small well-understood workload, and returns everything a test needs to
assert *delivery exactness* (every message exactly once, per-sender
order), *quiescence correctness* and *trace determinism*.

The runners are deliberately plain functions so both the seed-sweep
tests (``tests/faults``) and the property-based tests
(``tests/props/test_props_faults.py``) can drive them.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro import CrashSpec, FaultPlan, FTConfig, Machine, api
from repro.core.quiescence import QD
from repro.sim.engine import detect_tasklet_class
from repro.sim.models import GENERIC
from repro.sim.tasklet import Tasklet
from repro.tracing.tracer import MemoryTracer

__all__ = [
    "SWITCHES",
    "HOSTILE_RATES",
    "hostile_plan",
    "crashy_plan",
    "trace_bytes",
    "run_pingpong",
    "run_broadcast",
    "run_quiescence",
    "run_quickstart_workload",
    "run_ft_pingpong",
    "run_ft_all2all",
]

#: every tasklet class that imports here, the thread baton first (plus
#: greenlet where the package is installed) — the switches a
#: cross-switch comparison runs, through ``repro.sim.engine.TASKLET_CLASS``.
SWITCHES = [Tasklet] + [
    cls for cls in (detect_tasklet_class(),) if cls is not Tasklet]

#: the default hostile mix: every fault class at once, drop rate 0.2 as
#: required by the acceptance experiment.
HOSTILE_RATES: Dict[str, float] = {
    "drop": 0.2,
    "duplicate": 0.15,
    "delay": 0.2,
    "reorder": 0.25,
    "corrupt": 0.1,
}


def hostile_plan(seed: int, **overrides: float) -> FaultPlan:
    """A :class:`FaultPlan` with the default hostile mix, overridable."""
    rates = {**HOSTILE_RATES, **overrides}
    return FaultPlan(seed, **rates)


def crashy_plan(seed: int, crash_pe: int, crash_at: float,
                restart_after: float = 250e-6,
                **overrides: float) -> FaultPlan:
    """A plan that crashes one PE mid-run on top of a (default mild)
    hostile mix — drop/duplicate only, so crash-fuzz failures implicate
    the recovery protocol rather than extreme reordering."""
    rates = {"drop": 0.1, "duplicate": 0.1, **overrides}
    return FaultPlan(
        seed, crashes=[CrashSpec(crash_pe, crash_at, restart_after)], **rates
    )


def trace_bytes(tracer: MemoryTracer) -> bytes:
    """Canonical byte serialization of a memory trace — two runs are
    *the same run* iff these byte strings are equal."""
    return json.dumps(
        [e.as_dict() for e in tracer.events], sort_keys=True
    ).encode("utf-8")


# ----------------------------------------------------------------------
# workload 1: ping-pong
# ----------------------------------------------------------------------
def run_pingpong(rounds: int = 10, *, faults: Optional[FaultPlan] = None,
                 reliable: Any = True, trace: Any = False,
                 model: Any = GENERIC) -> Dict[str, Any]:
    """PE 0 and PE 1 bounce one numbered ball ``2 * rounds`` hops.

    Ball ``n`` travels to PE ``1`` when ``n`` is even, PE ``0`` when odd;
    each PE must therefore observe exactly the even (resp. odd) numbers,
    in increasing order — any loss, duplication or reordering that leaks
    through the reliability layer breaks the sequence.
    """
    with Machine(2, model=model, faults=faults, reliable=reliable,
                 trace=trace) as m:
        recv: Dict[int, List[int]] = {0: [], 1: []}

        def main() -> None:
            me = api.CmiMyPe()
            other = 1 - me

            def on_ball(msg) -> None:
                n = msg.payload
                recv[me].append(n)
                if n + 1 < 2 * rounds:
                    api.CmiSyncSend(other, api.CmiNew(h_ball, n + 1))
                if len(recv[me]) == rounds:
                    api.CsdExitScheduler()

            h_ball = api.CmiRegisterHandler(on_ball, "fuzz.ball")
            if me == 0:
                api.CmiSyncSend(1, api.CmiNew(h_ball, 0))
            api.CsdScheduler(-1)

        m.launch(main)
        reason = m.run()
        return {
            "recv": recv,
            "reason": reason,
            "expected": {0: list(range(1, 2 * rounds, 2)),
                         1: list(range(0, 2 * rounds, 2))},
            "rel_stats": [m.runtime(pe).reliable.stats if m.runtime(pe).reliable
                          else None for pe in range(2)],
            "fault_stats": m.fault_plan.stats if m.fault_plan else None,
            "tracer": m.tracer,
        }


# ----------------------------------------------------------------------
# workload 2: broadcast
# ----------------------------------------------------------------------
def run_broadcast(num_pes: int = 4, count: int = 8, *,
                  faults: Optional[FaultPlan] = None, reliable: Any = True,
                  trace: Any = False, model: Any = GENERIC) -> Dict[str, Any]:
    """PE 0 broadcasts ``count`` numbered messages; every other PE must
    receive exactly ``0 .. count-1`` in order (per-sender FIFO)."""
    with Machine(num_pes, model=model, faults=faults, reliable=reliable,
                 trace=trace) as m:
        recv: Dict[int, List[int]] = {pe: [] for pe in range(num_pes)}

        def main() -> None:
            me = api.CmiMyPe()

            def on_msg(msg) -> None:
                recv[me].append(msg.payload)
                if len(recv[me]) == count:
                    api.CsdExitScheduler()

            h = api.CmiRegisterHandler(on_msg, "fuzz.bcast")
            if me == 0:
                for i in range(count):
                    api.CmiSyncBroadcast(api.CmiNew(h, i))
            else:
                api.CsdScheduler(-1)

        m.launch(main)
        reason = m.run()
        return {
            "recv": recv,
            "reason": reason,
            "expected": list(range(count)),
            "tracer": m.tracer,
        }


# ----------------------------------------------------------------------
# workload 3: relay + distributed quiescence detection
# ----------------------------------------------------------------------
def run_quiescence(num_pes: int = 4, seeds_per_pe: int = 2, ttl: int = 5, *,
                   faults: Optional[FaultPlan] = None, reliable: Any = True,
                   trace: Any = False, model: Any = GENERIC) -> Dict[str, Any]:
    """Every PE injects ``seeds_per_pe`` relay messages that hop around
    the ring ``ttl`` further times; PE 0 runs the counter-wave quiescence
    detector, which fires ``CsdExitAll`` when the relays die out.

    Under exactly-once delivery the total number of handler deliveries is
    precisely ``num_pes * seeds_per_pe * (ttl + 1)``, and QD must declare
    quiescence exactly once — a dropped message (undetected loss) hangs
    the detector, a duplicate inflates the tally.
    """
    with Machine(num_pes, model=model, faults=faults, reliable=reliable,
                 trace=trace) as m:
        QD.attach(m)
        handled: Dict[int, int] = {pe: 0 for pe in range(num_pes)}
        declared: List[int] = []

        def main() -> None:
            me = api.CmiMyPe()

            def on_relay(msg) -> None:
                remaining = msg.payload
                handled[me] += 1
                if remaining > 0:
                    api.CmiSyncSend((me + 1) % num_pes,
                                    api.CmiNew(h_relay, remaining - 1))

            h_relay = api.CmiRegisterHandler(on_relay, "fuzz.relay")
            for _ in range(seeds_per_pe):
                api.CmiSyncSend((me + 1) % num_pes, api.CmiNew(h_relay, ttl))
            if me == 0:
                def on_quiet() -> None:
                    declared.append(1)
                    api.CsdExitAll()

                QD.get().start(on_quiet)
            api.CsdScheduler(-1)

        m.launch(main)
        reason = m.run()
        return {
            "handled": handled,
            "total_handled": sum(handled.values()),
            "expected_total": num_pes * seeds_per_pe * (ttl + 1),
            "declared": len(declared),
            "reason": reason,
            "tracer": m.tracer,
        }


# ----------------------------------------------------------------------
# the quickstart workload (determinism regression)
# ----------------------------------------------------------------------
def run_quickstart_workload(*, faults: Optional[FaultPlan] = None,
                            reliable: Any = False,
                            model: Any = GENERIC) -> Tuple[bytes, int]:
    """The greet/reply workload of ``examples/quickstart.py``, traced to
    memory.  Returns ``(trace_bytes, replies_seen)``."""
    tracer = MemoryTracer()
    with Machine(4, model=model, trace=tracer, faults=faults,
                 reliable=reliable) as m:
        state = {"replies": 0}

        def main() -> None:
            me, num = api.CmiMyPe(), api.CmiNumPes()

            def on_greeting(msg) -> None:
                sender, _text = msg.payload
                reply = api.CmiNew(h_reply, (api.CmiMyPe(), "ack"))
                api.CmiSyncSend(sender, reply)

            def on_reply(msg) -> None:
                state["replies"] += 1
                if state["replies"] == api.CmiNumPes() - 1:
                    api.CsdExitScheduler()

            h_greet = api.CmiRegisterHandler(on_greeting, "quickstart.greet")
            h_reply = api.CmiRegisterHandler(on_reply, "quickstart.reply")
            if me == 0:
                for pe in range(1, num):
                    api.CmiSyncSend(pe, api.CmiNew(h_greet, (0, f"hello {pe}")))
                api.CsdScheduler(-1)
            else:
                api.CsdScheduler(1)

        m.launch(main)
        m.run()
        return trace_bytes(tracer), state["replies"]


# ----------------------------------------------------------------------
# workload 5: crash-surviving ping-pong (fault tolerance)
# ----------------------------------------------------------------------
def run_ft_pingpong(rounds: int = 40, *, faults: Optional[FaultPlan] = None,
                    ft: Any = True, checkpoint_every: int = 8,
                    trace: Any = False, model: Any = GENERIC) -> Dict[str, Any]:
    """The ping-pong workload written against the ``Cft*`` API so it
    survives a whole-PE crash injected by the fault plan.

    The ball protocol is purely message-driven after PE 0's opening
    send; every ``checkpoint_every`` receptions a PE checkpoints at the
    end of the handler — a message boundary, after the causally implied
    send went out (and into the reliable layer's log).  A crash at any
    time must therefore finish with exactly the fault-free result.
    """
    ft_cfg = FTConfig() if ft is True else ft
    with Machine(2, model=model, faults=faults, reliable=True, ft=ft_cfg,
                 metrics=True, trace=trace) as m:
        recv: Dict[int, List[int]] = {0: [], 1: []}

        def main() -> None:
            me = api.CmiMyPe()
            other = 1 - me
            mine = recv[me]

            def on_ball(msg) -> None:
                n = msg.payload
                mine.append(n)
                if n + 1 < 2 * rounds:
                    api.CmiSyncSend(other, api.CmiNew(h_ball, n + 1))
                if checkpoint_every and len(mine) % checkpoint_every == 0:
                    api.CftCheckpoint()
                if len(mine) == rounds:
                    api.CsdExitScheduler()

            h_ball = api.CmiRegisterHandler(on_ball, "ft.ball")
            api.CftInit(lambda: list(mine),
                        lambda state: mine.__setitem__(slice(None), state))

            def init_sends() -> None:
                if me == 0:
                    api.CmiSyncSend(1, api.CmiNew(h_ball, 0))

            if api.CftRestarting():
                if not api.CftRecover():
                    # Cold start: no checkpoint existed.  Redo the
                    # fault-free initialization; replay + dedup
                    # reconcile anything peers already saw.
                    mine.clear()
                    init_sends()
            else:
                init_sends()
            api.CsdScheduler(-1)

        m.launch(main)
        reason = m.run()
        return {
            "recv": recv,
            "reason": reason,
            "expected": {0: list(range(1, 2 * rounds, 2)),
                         1: list(range(0, 2 * rounds, 2))},
            "metrics": m.metrics_snapshot(),
            "tracer": m.tracer,
        }


# ----------------------------------------------------------------------
# workload 6: crash-surviving all-to-all (fault tolerance)
# ----------------------------------------------------------------------
def run_ft_all2all(num_pes: int = 4, count: int = 6, *,
                   faults: Optional[FaultPlan] = None, ft: Any = True,
                   checkpoint_every: int = 6, trace: Any = False,
                   model: Any = GENERIC) -> Dict[str, Any]:
    """Every PE sends ``count`` numbered messages to every other PE and
    exits once it has received ``count * (num_pes - 1)``.

    Unlike the ping-pong, each PE performs *spontaneous* initialization
    sends; the explicit ``CftCheckpoint()`` right after them puts the
    logged sends under checkpoint cover, and the cold-start branch
    simply redoes them (same sequence numbers, dup-dropped by peers
    that already consumed them)."""
    ft_cfg = FTConfig() if ft is True else ft
    with Machine(num_pes, model=model, faults=faults, reliable=True,
                 ft=ft_cfg, metrics=True, trace=trace) as m:
        recv: Dict[int, Dict[int, List[int]]] = {
            pe: {src: [] for src in range(num_pes) if src != pe}
            for pe in range(num_pes)
        }

        def main() -> None:
            me, n = api.CmiMyPe(), api.CmiNumPes()
            mine = recv[me]
            state = {"seen": 0}
            total = count * (n - 1)

            def on_msg(msg) -> None:
                src, i = msg.payload
                mine[src].append(i)
                state["seen"] += 1
                if checkpoint_every and state["seen"] % checkpoint_every == 0:
                    api.CftCheckpoint()
                if state["seen"] == total:
                    api.CsdExitScheduler()

            h = api.CmiRegisterHandler(on_msg, "ft.a2a")

            def pack():
                return ({src: list(v) for src, v in mine.items()},
                        state["seen"])

            def unpack(snapshot) -> None:
                blobs, seen = snapshot
                for src, v in blobs.items():
                    mine[src][:] = v
                state["seen"] = seen

            def init_sends() -> None:
                for step in range(1, n):
                    dst = (me + step) % n
                    for i in range(count):
                        api.CmiSyncSend(dst, api.CmiNew(h, (me, i)))

            api.CftInit(pack, unpack)
            if api.CftRestarting():
                if not api.CftRecover():
                    for v in mine.values():
                        v.clear()
                    state["seen"] = 0
                    init_sends()
                    api.CftCheckpoint()
            else:
                init_sends()
                api.CftCheckpoint()
            api.CsdScheduler(-1)

        m.launch(main)
        reason = m.run()
        return {
            "recv": recv,
            "reason": reason,
            "expected": {pe: {src: list(range(count))
                              for src in range(num_pes) if src != pe}
                         for pe in range(num_pes)},
            "metrics": m.metrics_snapshot(),
            "tracer": m.tracer,
        }
