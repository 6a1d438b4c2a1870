"""Inline (delegated) dispatch — ``Machine(inline=True)``.

An outermost idle ``CsdScheduler(-1)`` on an inline-enabled machine
parks its tasklet and lets the delivery path run handlers directly in
engine-callback context (zero context switches per message).  The knob
must be observationally invisible: identical delivery, identical
virtual time and per-PE accounting, identical counted-run semantics —
and suspending primitives must still fail loudly inside handlers.
"""

from __future__ import annotations

from repro import Machine, api
from repro.core.errors import NotInTaskletError
from repro.sim.models import GENERIC


def _pingpong(n, charge=0.0, **machine_kwargs):
    """2-PE ping-pong; returns payload logs + accounting snapshot."""
    log = [[], []]
    with Machine(2, model=GENERIC, **machine_kwargs) as m:
        def main():
            me = api.CmiMyPe()

            def on_msg(msg):
                if charge:
                    api.CmiCharge(charge)
                log[me].append(msg.payload)
                if msg.payload < n:
                    api.CmiSyncSend(1 - me, api.CmiNew(h, msg.payload + 1))
                if msg.payload >= n - 1:
                    api.CsdExitScheduler()

            h = api.CmiRegisterHandler(on_msg, "pp")
            if me == 0:
                api.CmiSyncSend(1, api.CmiNew(h, 1))
            api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        snap = {
            "log": [list(x) for x in log],
            "vt": m.now,
            "recv": [node.stats.msgs_received for node in m.nodes],
            "sent": [node.stats.msgs_sent for node in m.nodes],
            "busy": [round(node.stats.busy_time, 12) for node in m.nodes],
            "wire": m.network.stats.messages,
        }
    return snap


def test_inline_matches_classic_pingpong():
    classic = _pingpong(60, inline=False)
    inline = _pingpong(60, inline=True)
    assert inline == classic


def test_inline_matches_classic_with_charging_handlers():
    """``CmiCharge`` inside a handler advances virtual time in place
    under inline dispatch; the total must equal the classic run's."""
    classic = _pingpong(40, charge=3e-6, inline=False)
    inline = _pingpong(40, charge=3e-6, inline=True)
    assert inline == classic
    assert inline["vt"] > _pingpong(40, inline=True)["vt"]


def test_counted_scheduler_budget_respected_under_inline():
    """``CsdScheduler(n)`` must process exactly ``n`` messages even when
    the drain is delegated to the delivery path."""
    counts = {}
    with Machine(2, model=GENERIC, inline=True) as m:
        def main():
            me = api.CmiMyPe()
            got = [0]

            def on_msg(msg):
                got[0] += 1

            h = api.CmiRegisterHandler(on_msg, "count")
            if me == 0:
                for i in range(5):
                    api.CmiSyncSend(1, api.CmiNew(h, i))
            else:
                counts["first"] = api.CsdScheduler(3)
                counts["after_first"] = got[0]
                counts["second"] = api.CsdScheduler(2)
                counts["after_second"] = got[0]

        m.launch(main)
        m.run()
    assert counts == {"first": 3, "after_first": 3,
                      "second": 2, "after_second": 5}


def test_exit_scheduler_from_inline_handler():
    """``CsdExitScheduler`` called from a handler running inline must
    wake and terminate the parked scheduler loop."""
    got = []
    with Machine(2, model=GENERIC, inline=True) as m:
        def main():
            me = api.CmiMyPe()

            def on_msg(msg):
                got.append(msg.payload)
                api.CsdExitScheduler()

            h = api.CmiRegisterHandler(on_msg, "exit")
            if me == 0:
                api.CmiSyncSend(1, api.CmiNew(h, "stop"))
            else:
                n = api.CsdScheduler(-1)
                got.append(("loop-returned", n))

        m.launch(main)
        m.run()
    assert got == ["stop", ("loop-returned", 1)]


def test_suspending_primitives_fail_loudly_in_inline_handlers():
    """Handlers run outside any tasklet under inline dispatch, so
    blocking thread ops must raise ``NotInTaskletError`` — not wedge
    the engine."""
    outcome = []
    with Machine(2, model=GENERIC, inline=True) as m:
        def main():
            me = api.CmiMyPe()

            def on_msg(msg):
                try:
                    api.CthSuspend()
                    outcome.append("suspended?!")
                except NotInTaskletError:
                    outcome.append("raised")
                api.CsdExitScheduler()

            h = api.CmiRegisterHandler(on_msg, "susp")
            if me == 0:
                api.CmiSyncSend(1, api.CmiNew(h, None))
            else:
                api.CsdScheduler(-1)

        m.launch(main)
        m.run()
    assert outcome == ["raised"]


def test_nonblocking_api_works_in_inline_handlers():
    """The non-suspending Cmi surface (PE identity, timers, sends) must
    resolve its PE context inside inline handlers."""
    seen = {}
    with Machine(3, model=GENERIC, inline=True) as m:
        def main():
            me = api.CmiMyPe()

            def on_msg(msg):
                seen["pe"] = api.CmiMyPe()
                seen["npes"] = api.CmiNumPes()
                seen["timer"] = api.CmiTimer()
                api.CsdExitAll()

            h = api.CmiRegisterHandler(on_msg, "ctx")
            if me == 0:
                api.CmiSyncSend(2, api.CmiNew(h, None))
            api.CsdScheduler(-1)

        m.launch(main)
        m.run()
    assert seen["pe"] == 2 and seen["npes"] == 3
    assert seen["timer"] >= 0.0


def test_inline_auto_disabled_under_tracing_and_metrics():
    """Tracing and metering hook the tasklet dispatch path, so the
    inline fast path must turn itself off rather than skew them."""
    with Machine(2, inline=True, trace="memory") as m:
        assert all(not rt.inline_dispatch for rt in m.runtimes)
    with Machine(2, inline=True, metrics=True) as m:
        assert all(not rt.inline_dispatch for rt in m.runtimes)
    with Machine(2, inline=True) as m:
        assert all(rt.inline_dispatch for rt in m.runtimes)
    with Machine(2) as m:                     # default: off
        assert all(not rt.inline_dispatch for rt in m.runtimes)
