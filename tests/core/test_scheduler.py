"""Unit tests for the unified Csd scheduler."""

from __future__ import annotations

import pytest

from tests.helpers import run_on

from repro.core import api
from repro.core.message import Message
from repro.sim.machine import Machine
from repro.sim.models import GENERIC


def test_enqueue_dequeue_dispatches_in_fifo_order():
    def main():
        log = []
        hid = api.CmiRegisterHandler(lambda m: log.append(m.payload), "h")
        for i in range(4):
            api.CsdEnqueue(Message(hid, i, size=0))
        assert api.CsdQueueLength() == 4
        n = api.CsdScheduleUntilIdle()
        return log, n

    log, n = run_on(1, main)
    assert log == [0, 1, 2, 3]
    assert n == 4


def test_priority_queue_orders_local_messages():
    def main():
        log = []
        hid = api.CmiRegisterHandler(lambda m: log.append(m.payload), "h")
        api.CsdEnqueue(Message(hid, "late", size=0, prio=5))
        api.CsdEnqueue(Message(hid, "early", size=0, prio=-5))
        api.CsdScheduleUntilIdle()
        return log

    assert run_on(1, main, queue="int") == ["early", "late"]


def test_csd_enqueue_charges_and_dequeue_charges():
    def main():
        hid = api.CmiRegisterHandler(lambda m: None, "h")
        t0 = api.CmiTimer()
        api.CsdEnqueue(Message(hid, None, size=0))
        t1 = api.CmiTimer()
        api.CsdScheduleUntilIdle()
        t2 = api.CmiTimer()
        return t1 - t0, t2 - t1

    enq, deq = run_on(1, main)
    assert enq == pytest.approx(GENERIC.enqueue_cost)
    assert deq == pytest.approx(GENERIC.dequeue_cost)


def test_enqueue_free_charges_nothing():
    def main():
        hid = api.CmiRegisterHandler(lambda m: None, "h")
        rt = __import__("repro.core.context", fromlist=["x"]).current_runtime()
        t0 = api.CmiTimer()
        rt.scheduler.enqueue_free(Message(hid, None, size=0))
        return api.CmiTimer() - t0

    assert run_on(1, main) == 0.0


def test_scheduler_counts_and_exit():
    """CsdScheduler(-1) runs until CsdExitScheduler; returns the count."""
    def main():
        state = {"seen": 0}
        hid = {}

        def h(msg):
            state["seen"] += 1
            if state["seen"] == 3:
                api.CsdExitScheduler()

        hid = api.CmiRegisterHandler(h, "h")
        for _ in range(3):
            api.CsdEnqueue(Message(hid, None, size=0))
        count = api.CsdScheduler(-1)
        return count, state["seen"]

    assert run_on(1, main) == (3, 3)


def test_bounded_scheduler_blocks_until_n():
    """CsdScheduler(n) waits for n messages even across network delay."""
    with Machine(2) as m:
        def receiver():
            hid = api.CmiRegisterHandler(lambda msg: None, "h")
            got = api.CsdScheduler(2)
            return got, api.CmiTimer()

        def sender():
            hid = api.CmiRegisterHandler(lambda msg: None, "h")
            api.CmiCharge(50e-6)
            api.CmiSyncSend(0, Message(hid, None, size=0))
            api.CmiCharge(50e-6)
            api.CmiSyncSend(0, Message(hid, None, size=0))

        t = m.launch_on(0, receiver)
        m.launch_on(1, sender)
        m.run()
        count, t_end = t.result
        assert count == 2
        assert t_end > 100e-6


def test_exit_request_from_another_tasklet_unblocks_idle_scheduler():
    with Machine(1) as m:
        def idle_sched():
            return api.CsdScheduler(-1)

        def stopper():
            api.CmiCharge(10e-6)
            api.CsdExitScheduler()

        t = m.launch_on(0, idle_sched)
        m.launch_on(0, stopper, name="stopper")
        m.run()
        assert t.result == 0


def test_nested_scheduler_invocations():
    """A handler may itself run the scheduler (SPM donation pattern)."""
    def main():
        log = []

        def inner(msg):
            log.append("inner")
            api.CsdExitScheduler()

        def outer(msg):
            log.append("outer")
            api.CsdEnqueue(Message(h_inner, None, size=0))
            api.CsdScheduler(-1)  # nested: consumes the inner message
            log.append("outer-done")
            api.CsdExitScheduler()

        h_inner = api.CmiRegisterHandler(inner, "inner")
        h_outer = api.CmiRegisterHandler(outer, "outer")
        api.CsdEnqueue(Message(h_outer, None, size=0))
        api.CsdScheduler(-1)
        return log

    assert run_on(1, main) == ["outer", "inner", "outer-done"]


def test_poll_processes_available_work_only():
    def main():
        log = []
        hid = api.CmiRegisterHandler(lambda m: log.append(1), "h")
        api.CsdEnqueue(Message(hid, None, size=0))
        n1 = api.CsdSchedulePoll()
        n2 = api.CsdSchedulePoll()
        return n1, n2, len(log)

    assert run_on(1, main) == (1, 0, 1)


def test_run_until_idle_drains_cascades():
    """Handlers that enqueue more work extend the until-idle run."""
    def main():
        log = []

        def h(msg):
            n = msg.payload
            log.append(n)
            if n < 4:
                api.CsdEnqueue(Message(hid, n + 1, size=0))

        hid = api.CmiRegisterHandler(h, "h")
        api.CsdEnqueue(Message(hid, 0, size=0))
        count = api.CsdScheduleUntilIdle()
        return count, log

    count, log = run_on(1, main)
    assert log == [0, 1, 2, 3, 4]
    assert count == 5


def test_queued_message_buffer_kept_valid():
    """CsdEnqueue grabs the buffer so a queued message survives its
    original handler's return (section 3.1.3 buffer protocol)."""
    with Machine(2) as m:
        def receiver():
            got = []

            def from_queue(msg):
                got.append(bytes(msg.payload))
                api.CsdExitScheduler()

            def from_net(msg):
                msg.handler = h_q
                api.CsdEnqueue(msg)

            h_net = api.CmiRegisterHandler(from_net, "net")
            h_q = api.CmiRegisterHandler(from_queue, "q")
            api.CsdScheduler(-1)
            return got

        def sender():
            # Identical registration order on both PEs makes the index
            # valid machine-wide (the SPMD handler-table contract).
            h_net = api.CmiRegisterHandler(lambda m: None, "net")
            api.CmiRegisterHandler(lambda m: None, "q")
            api.CmiSyncSend(0, Message(h_net, b"keepme", size=6))

        t = m.launch_on(0, receiver)
        m.launch_on(1, sender)
        m.run()
        assert t.result == [b"keepme"]


def test_scheduler_delivers_network_before_queue():
    """Paper's loop: DeliverMsgs() first, then one queued message."""
    with Machine(2) as m:
        def receiver():
            log = []
            h_net = api.CmiRegisterHandler(lambda m: log.append("net"), "n")
            h_loc = api.CmiRegisterHandler(lambda m: log.append("local"), "l")
            # Pre-queue local work, then wait for the network message to
            # be present before starting the scheduler.
            api.CsdEnqueue(Message(h_loc, None, size=0))
            rt = __import__("repro.core.context", fromlist=["x"]).current_runtime()
            rt.node.wait_until(lambda: rt.has_pending_network)
            api.CsdScheduler(2)
            return log

        def sender():
            h_net = api.CmiRegisterHandler(lambda m: None, "n")
            api.CmiRegisterHandler(lambda m: None, "l")
            api.CmiSyncSend(0, Message(h_net, None, size=0))

        t = m.launch_on(0, receiver)
        m.launch_on(1, sender)
        m.run()
        assert t.result == ["net", "local"]
