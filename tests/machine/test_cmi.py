"""Unit tests for the MMI core: sends, broadcasts, receives, buffers."""

from __future__ import annotations

import numpy as np
import pytest

from tests.helpers import run_on, run_spmd_collect

from repro.core import api
from repro.core.errors import MessageError, NotInTaskletError
from repro.core.message import HEADER_BYTES, Message
from repro.machine.base import MACHINE_LAYERS, machine_backend_unavailable_reason
from repro.sim.machine import Machine
from repro.sim.models import GENERIC


def test_identity_and_timer():
    def main():
        return api.CmiMyPe(), api.CmiNumPes(), api.CmiTimer()

    results = run_spmd_collect(3, main)
    assert [r[0] for r in results] == [0, 1, 2]
    assert all(r[1] == 3 for r in results)
    assert all(r[2] == 0.0 for r in results)


def test_api_outside_machine_raises():
    with pytest.raises(NotInTaskletError):
        api.CmiMyPe()


def test_msg_header_size():
    def main():
        return api.CmiMsgHeaderSizeBytes()

    assert run_on(1, main) == HEADER_BYTES


def test_set_handler_and_get_handler_function():
    def main():
        fn = lambda m: None  # noqa: E731
        hid = api.CmiRegisterHandler(fn, "x")
        msg = api.CmiNew(0)
        api.CmiSetHandler(msg, hid)
        assert msg.handler == hid
        return api.CmiGetHandlerFunction(msg) is fn

    assert run_on(1, main) is True


def test_set_handler_invalid_rejected():
    def main():
        msg = api.CmiNew(1)
        try:
            api.CmiSetHandler(msg, -2)
        except MessageError:
            return "rejected"

    assert run_on(1, main) == "rejected"


def test_sync_send_timing_includes_converse_extra():
    with Machine(2) as m:
        def sender():
            hid = api.CmiRegisterHandler(lambda msg: None, "h")
            t0 = api.CmiTimer()
            api.CmiSyncSend(1, Message(hid, None, size=64))
            return api.CmiTimer() - t0

        def receiver():
            api.CmiRegisterHandler(lambda msg: None, "h")
            api.CsdScheduler(1)

        t = m.launch_on(0, sender)
        m.launch_on(1, receiver)
        m.run()
        assert t.result == pytest.approx(
            GENERIC.send_overhead + GENERIC.cvs_send_extra
        )


def test_send_out_of_range_pe_rejected():
    def main():
        hid = api.CmiRegisterHandler(lambda m: None, "h")
        try:
            api.CmiSyncSend(9, Message(hid, None, size=0))
        except MessageError as e:
            return "out of range" in str(e)

    assert run_on(2, main) is True


def test_async_send_handle_lifecycle():
    with Machine(2) as m:
        def sender():
            hid = api.CmiRegisterHandler(lambda msg: None, "h")
            h = api.CmiAsyncSend(1, Message(hid, None, size=4096))
            first = api.CmiAsyncMsgSent(h)
            api.CmiCharge(GENERIC.send_overhead * 2)
            second = api.CmiAsyncMsgSent(h)
            api.CmiReleaseCommHandle(h)
            return first, second, h.released

        def receiver():
            api.CmiRegisterHandler(lambda msg: None, "h")
            api.CsdScheduler(1)

        t = m.launch_on(0, sender)
        m.launch_on(1, receiver)
        m.run()
        assert t.result == (False, True, True)


def test_sender_buffer_reusable_after_sync_send():
    """CmiSyncSend semantics: the caller's message object is untouched
    and may be reused immediately."""
    with Machine(2) as m:
        def sender():
            hid = api.CmiRegisterHandler(lambda msg: None, "h")
            msg = Message(hid, b"data", size=4)
            api.CmiSyncSend(1, msg)
            api.CmiSyncSend(1, msg)  # reuse
            return msg.valid

        def receiver():
            api.CmiRegisterHandler(lambda msg: None, "h")
            api.CsdScheduler(2)

        t = m.launch_on(0, sender)
        m.launch_on(1, receiver)
        m.run()
        assert t.result is True


def _vector_receiver():
    got = []

    def h(msg):
        api.CmiGrabBuffer(msg)
        got.append(msg.payload)

    api.CmiRegisterHandler(h, "h")
    api.CsdScheduler(1)
    return got


def _vector_sender():
    hid = api.CmiRegisterHandler(lambda m_: None, "h")
    strided = memoryview(np.arange(ord("g"), ord("g") + 6, dtype=np.uint8))[::2]
    api.CmiVectorSend(0, hid, [b"ab", b"", b"cd", bytearray(b"ef"), strided])


def test_vector_send_concatenates_pieces():
    for layer in MACHINE_LAYERS:
        if machine_backend_unavailable_reason(layer):
            continue
        with Machine(2, machine_backend=layer) as m:
            m.launch_on(0, _vector_receiver)
            m.launch_on(1, _vector_sender)
            m.run()
            assert m.results()[0] == [b"abcdefgik"], layer


def test_vector_send_rejects_non_bytes():
    def main():
        hid = api.CmiRegisterHandler(lambda m: None, "h")
        try:
            api.CmiVectorSend(0, hid, [b"ok", "nope"])
        except MessageError:
            return "rejected"

    assert run_on(2, main) == "rejected"


def test_get_msg_nonblocking_and_ownership():
    with Machine(2) as m:
        def receiver():
            rt = m.runtime(0)
            assert api.CmiGetMsg() is None
            rt.node.wait_until(lambda: rt.has_pending_network)
            msg = api.CmiGetMsg()
            return msg.cmi_owned, bytes(msg.payload)

        def sender():
            hid = api.CmiRegisterHandler(lambda m_: None, "h")
            api.CmiSyncSend(0, Message(hid, b"x", size=1))

        def rx_handler_reg():
            api.CmiRegisterHandler(lambda m_: None, "h")

        t = m.launch_on(0, lambda: (rx_handler_reg(), receiver())[1])
        m.launch_on(1, sender)
        m.run()
        assert t.result == (True, b"x")


def test_get_specific_msg_buffers_others():
    """CmiGetSpecificMsg waits for one handler, side-buffering the rest,
    which are then delivered by the scheduler in arrival order."""
    with Machine(2) as m:
        def receiver():
            log = []
            h_a = api.CmiRegisterHandler(lambda msg: log.append("a"), "a")
            h_b = api.CmiRegisterHandler(lambda msg: log.append("b"), "b")
            msg = api.CmiGetSpecificMsg(h_b)
            log.append(("specific", msg.handler == h_b))
            api.CsdScheduler(2)  # now the two buffered "a" messages
            return log

        def sender():
            h_a = api.CmiRegisterHandler(lambda m_: None, "a")
            h_b = api.CmiRegisterHandler(lambda m_: None, "b")
            api.CmiSyncSend(0, Message(h_a, None, size=0))
            api.CmiSyncSend(0, Message(h_a, None, size=0))
            api.CmiSyncSend(0, Message(h_b, None, size=0))

        t = m.launch_on(0, receiver)
        m.launch_on(1, sender)
        m.run()
        assert t.result == [("specific", True), "a", "a"]


@pytest.mark.parametrize("variant,self_gets,others_get", [
    ("sync_broadcast", 0, 1),
    ("sync_broadcast_all", 1, 1),
    ("async_broadcast", 0, 1),
    ("async_broadcast_all", 1, 1),
])
def test_broadcast_variants(variant, self_gets, others_get):
    with Machine(3) as m:
        counts = {pe: 0 for pe in range(3)}

        def main():
            me = api.CmiMyPe()

            def h(msg):
                counts[api.CmiMyPe()] += 1

            hid = api.CmiRegisterHandler(h, "h")
            if me == 0:
                rt = m.runtime(0)
                getattr(rt.cmi, variant)(Message(hid, None, size=8))
                api.CsdScheduler(self_gets)
            else:
                api.CsdScheduler(others_get)

        m.launch(main)
        m.run()
        assert counts[0] == self_gets
        assert counts[1] == counts[2] == others_get


def test_broadcast_all_and_free_poisons_buffer():
    with Machine(2) as m:
        def main():
            hid = api.CmiRegisterHandler(lambda msg: None, "h")
            if api.CmiMyPe() == 0:
                msg = Message(hid, b"bye", size=3)
                api.CmiSyncBroadcastAllAndFree(msg)
                api.CsdScheduler(1)
                return msg.valid
            api.CsdScheduler(1)

        t = m.launch_on(0, main)
        m.launch_on(1, main)
        m.run()
        assert t.result is False
