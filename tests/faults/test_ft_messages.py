"""Unit tests for the fault-tolerance agent's messages: what its
checkpoint rolls back, and why its control channel is its own rather
than the reliable-delivery layer's."""

from __future__ import annotations

from repro import CrashSpec, FaultPlan, FTConfig, Machine, api
from repro.core.message import Message


def test_checkpoint_rolls_back_only_sequenced_inbox_messages():
    """A checkpoint rolls ``expected[src]`` back once per message from
    ``src`` still waiting in the inbox, because the reliable layer
    counted it when it released it.  An unsequenced peer message
    (``seq == -1``) moved no sequence, so it must move nothing back.
    With reliable delivery on, none of today's senders leaves such a
    message in the inbox (immediate sends bypass it), so this test puts
    one there by hand."""
    with Machine(2, reliable=True, ft=FTConfig()) as m:
        def main():
            me = api.CmiMyPe()

            def on_data(_msg):
                stray = Message(h_stray, None, size=8, src_pe=0)
                assert stray.seq == -1
                m.node(1).inbox.append(stray)
                api.CftCheckpoint()

            h_data = api.CmiRegisterHandler(on_data, "t.data")
            h_stray = api.CmiRegisterHandler(
                lambda _msg: api.CsdExitScheduler(), "t.stray")
            api.CftInit(lambda: None, lambda _state: None)
            if me == 0:
                api.CmiSyncSend(1, api.CmiNew(h_data, "x"))
            else:
                api.CsdScheduler(-1)

        m.launch(main)
        assert m.run() == "quiescent"
        # PE 1's buddy (PE 0) holds the shipped checkpoint.
        _key, _app, rel = m.runtime(0).ft._store[1]
        assert rel["expected"] == {0: 1}


def test_a_paused_pe_drops_data_but_reads_its_ckpt_data():
    """Why the control channel is not ``ReliableDelivery``: a restarting
    PE's reliable layer is paused, and consumes every sequenced arrival
    with no ack.  A ``ckpt_data`` control message arriving at the same
    moment still reaches the agent, and completes ``recover()``.

    PE 1 crashes and restarts; its fresh main pulls its checkpoint
    (none was taken, so PE 0 answers "not found").  Just ahead of that
    answer, PE 0's network also carries a sequenced data message to
    PE 1."""
    plan = FaultPlan(0, crashes=[CrashSpec(1, 10e-6, restart_after=10e-6)])
    with Machine(2, reliable=True, ft=FTConfig(), faults=plan,
                 trace="memory") as m:
        got = {}

        def main():
            h_data = api.CmiRegisterHandler(got.setdefault("data", []).append,
                                            "t.data")
            got["h_data"] = h_data
            api.CftInit(lambda: None, lambda _state: None)
            if api.CftRestarting():
                assert m.runtime(1).reliable._paused
                got["recovered"] = api.CftRecover()

        net = m.network
        inject = net.inject

        def spy(src, dst, nbytes, payload):
            if payload.handler == m.runtime(0).ft._h_ckpt_data:
                data = Message(got["h_data"], "early", size=8, src_pe=src)
                data.seq = 0
                inject(src, dst, 8, data)
            inject(src, dst, nbytes, payload)

        net.inject = spy
        m.launch(main)
        assert m.run() == "quiescent"
        assert got["recovered"] is False  # a cold start, as answered
        assert got["data"] == []
        events = [e for e in m.tracer.events if e.pe == 1]
        kinds = [e.kind for e in events]
        drop = kinds.index("rel_paused_drop")
        assert dict(events[drop].fields) == {"src": 0, "seq": 0, "ack": False}
        assert drop < kinds.index("ft_recover")
        assert "rel_ack_out" not in kinds
