"""Unit tests for the per-PE Converse runtime: delivery, ownership
enforcement, exit semantics, intake filters."""

from __future__ import annotations

import pytest

from tests.helpers import run_on

from repro.core import api
from repro.core.errors import ConverseError, UnknownHandlerError
from repro.core.message import Message
from repro.sim.machine import Machine
from repro.sim.models import GENERIC


def test_deliver_charges_recv_plus_dispatch():
    with Machine(2) as m:
        times = {}

        def receiver():
            hid = api.CmiRegisterHandler(
                lambda msg: times.__setitem__("handled", api.CmiTimer()), "h"
            )
            rt = m.runtime(0)
            rt.node.wait_until(lambda: rt.has_pending_network)
            times["before"] = api.CmiTimer()
            api.CmiDeliverMsgs()

        def sender():
            hid = api.CmiRegisterHandler(lambda m_: None, "h")
            api.CmiSyncSend(0, Message(hid, None, size=0))

        m.launch_on(0, receiver)
        m.launch_on(1, sender)
        m.run()
        spent = times["handled"] - times["before"]
        assert spent == pytest.approx(
            GENERIC.recv_overhead + GENERIC.cvs_dispatch_extra
        )


def test_handler_buffer_recycled_unless_grabbed():
    with Machine(2) as m:
        kept = []

        def receiver():
            def no_grab(msg):
                kept.append(msg)

            def with_grab(msg):
                api.CmiGrabBuffer(msg)
                kept.append(msg)

            api.CmiRegisterHandler(no_grab, "no")
            api.CmiRegisterHandler(with_grab, "yes")
            api.CsdScheduler(2)

        def sender():
            h_no = api.CmiRegisterHandler(lambda m_: None, "no")
            h_yes = api.CmiRegisterHandler(lambda m_: None, "yes")
            api.CmiSyncSend(0, Message(h_no, b"gone", size=4))
            api.CmiSyncSend(0, Message(h_yes, b"kept", size=4))

        m.launch_on(0, receiver)
        m.launch_on(1, sender)
        m.run()
        assert not kept[0].valid
        assert kept[1].valid and kept[1].payload == b"kept"


def test_unknown_handler_raises_at_delivery():
    with Machine(2) as m:
        def receiver():
            api.CsdScheduler(1)

        def sender():
            api.CmiSyncSend(0, Message(777, None, size=0))

        m.launch_on(0, receiver)
        m.launch_on(1, sender)
        with pytest.raises(UnknownHandlerError):
            m.run()


#: every CMI send entry, called with a fresh message for handler 1.
SENDS = {
    "sync": lambda msg: api.CmiSyncSend(0, msg),
    "async": lambda msg: api.CmiAsyncSend(0, msg),
    "immediate": lambda msg: api.CmiImmediateSend(0, msg),
    "vector": lambda msg: api.CmiVectorSend(0, msg.handler, [b"a", b"b"]),
    "broadcast": api.CmiSyncBroadcast,
    "broadcast-all": api.CmiSyncBroadcastAll,
    "broadcast-all-and-free": api.CmiSyncBroadcastAllAndFree,
    "async-broadcast": api.CmiAsyncBroadcast,
    "async-broadcast-all": api.CmiAsyncBroadcastAll,
}


@pytest.mark.parametrize("send", list(SENDS.values()), ids=list(SENDS))
def test_converse_exit_blocks_further_calls(send):
    def main():
        api.ConverseInit()
        api.ConverseExit()
        try:
            send(Message(1, None, size=0))
        except ConverseError as e:
            return str(e)

    assert "after ConverseExit" in run_on(2, main)


def test_exit_all_schedulers_stops_every_pe():
    with Machine(3) as m:
        def main():
            if api.CmiMyPe() == 0:
                api.CmiCharge(5e-6)
                api.CsdExitAll()
                return 0
            return api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        # PEs 1 and 2 each delivered exactly one message: the broadcast
        # exit request itself.
        assert m.results() == [0, 1, 1]


def test_intake_filter_consumes_messages():
    with Machine(2) as m:
        def receiver():
            rt = m.runtime(0)
            eaten = []
            rt.add_intake_filter(
                lambda msg: msg.payload == "eat" and (eaten.append(1) or True)
            )
            log = []
            hid = api.CmiRegisterHandler(lambda msg: log.append(msg.payload), "h")
            api.CsdScheduler(1)
            return log, len(eaten)

        def sender():
            hid = api.CmiRegisterHandler(lambda m_: None, "h")
            api.CmiSyncSend(0, Message(hid, "eat", size=3))
            api.CmiSyncSend(0, Message(hid, "pass", size=4))

        t = m.launch_on(0, receiver)
        m.launch_on(1, sender)
        m.run()
        log, eaten = t.result
        assert log == ["pass"]
        assert eaten == 1


def test_lang_instances_registry():
    from repro.langs.sm import SM

    with Machine(2) as m:
        insts = SM.attach(m)
        assert len(insts) == 2
        again = SM.attach(m)
        assert again == insts  # idempotent

        def main():
            return SM.get() is insts[0]

        t = m.launch_on(0, main)
        m.run()
        assert t.result is True


def test_trace_event_noop_without_tracer():
    with Machine(1) as m:
        assert m.tracer is None
        m.runtime(0).trace_event("user", x=1)  # must not raise
