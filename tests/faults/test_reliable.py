"""Unit tests for the CMI reliable-delivery layer."""

from __future__ import annotations

import pytest

from repro import FaultPlan, FaultSpec, Machine, ReliableConfig, api
from repro.core.errors import RetryExhaustedError
from repro.sim.models import GENERIC

from tests.machine.conformance import workers as w


def _one_way(faults, reliable, payloads=("a", "b", "c")):
    """PE 0 sends ``payloads`` to PE 1; returns (received, machine stats)."""
    with Machine(2, model=GENERIC, faults=faults, reliable=reliable) as m:
        got = []

        def main():
            me = api.CmiMyPe()

            def on_msg(msg):
                got.append(msg.payload)
                if len(got) == len(payloads):
                    api.CsdExitScheduler()

            h = api.CmiRegisterHandler(on_msg, "t.msg")
            if me == 0:
                for p in payloads:
                    api.CmiSyncSend(1, api.CmiNew(h, p))
            else:
                api.CsdScheduler(-1)

        m.launch(main)
        reason = m.run()
        rel = [m.runtime(pe).reliable for pe in range(2)]
        return got, reason, rel


def test_clean_network_delivers_with_zero_retransmits():
    got, reason, rel = _one_way(None, True)
    assert got == ["a", "b", "c"]
    assert reason == "quiescent"
    assert rel[0].stats.retransmits == 0
    assert rel[0].stats.acks_received == 3
    assert rel[1].stats.delivered == 3
    assert rel[0].in_flight == 0


def test_dropped_data_is_retransmitted():
    plan = FaultPlan(11, links={(0, 1): FaultSpec(drop=0.5)})
    got, reason, rel = _one_way(plan, True)
    assert got == ["a", "b", "c"]
    assert rel[0].stats.retransmits > 0
    assert rel[1].stats.delivered == 3
    assert rel[0].in_flight == 0


def test_lost_acks_cause_dup_suppression():
    """Drops only on the 1->0 (ack) direction: every data packet arrives,
    but lost acks force retransmits whose copies the receiver must drop."""
    plan = FaultPlan(13, links={(1, 0): FaultSpec(drop=0.6)})
    got, reason, rel = _one_way(plan, True, payloads=tuple(range(8)))
    assert got == list(range(8))
    assert rel[0].stats.retransmits > 0
    assert rel[1].stats.dup_dropped > 0
    assert rel[1].stats.delivered == 8


def test_corrupt_data_detected_and_recovered():
    plan = FaultPlan(17, links={(0, 1): FaultSpec(corrupt=0.5)})
    got, reason, rel = _one_way(plan, True, payloads=tuple(range(6)))
    assert got == list(range(6))
    assert rel[1].stats.corrupt_dropped > 0
    assert rel[1].stats.delivered == 6


def test_dead_link_raises_retry_exhausted():
    plan = FaultPlan(5, links={(0, 1): FaultSpec(drop=1.0)})
    cfg = ReliableConfig(max_retries=4)
    with pytest.raises(RetryExhaustedError):
        with Machine(2, model=GENERIC, faults=plan, reliable=cfg) as m:
            def main():
                me = api.CmiMyPe()
                h = api.CmiRegisterHandler(lambda msg: None, "t.msg")
                if me == 0:
                    api.CmiSyncSend(1, api.CmiNew(h, "doomed"))
                api.CsdScheduler(-1)

            m.launch(main)
            m.run()


def test_retry_exhaustion_is_deterministic():
    """The giveup happens at the same virtual time with the same stats on
    every run of the same seed."""
    def run_once():
        plan = FaultPlan(5, links={(0, 1): FaultSpec(drop=1.0)})
        cfg = ReliableConfig(max_retries=3)
        m = Machine(2, model=GENERIC, faults=plan, reliable=cfg)
        try:
            def main():
                me = api.CmiMyPe()
                h = api.CmiRegisterHandler(lambda msg: None, "t.msg")
                if me == 0:
                    api.CmiSyncSend(1, api.CmiNew(h, "doomed"))
                api.CsdScheduler(-1)

            m.launch(main)
            with pytest.raises(RetryExhaustedError):
                m.run()
            return (m.now, m.runtime(0).reliable.stats.retransmits,
                    m.fault_plan.stats.drops)
        finally:
            m.shutdown()

    assert run_once() == run_once()


def test_reliability_preserves_per_sender_order_under_reorder():
    plan = FaultPlan(23, links={(0, 1): FaultSpec(reorder=0.6,
                                                  reorder_max=200e-6)})
    got, reason, rel = _one_way(plan, True, payloads=tuple(range(12)))
    assert got == list(range(12))
    assert rel[1].stats.held_out_of_order > 0


def test_enable_reliability_is_idempotent():
    with Machine(2, model=GENERIC, reliable=True) as m:
        rel = m.runtime(0).reliable
        assert m.runtime(0).enable_reliability() is rel


def _pingpong(rounds, **machine_kwargs):
    """A fault-free reliable ping-pong of ``rounds`` round trips on 2 PEs
    plus one stop message; returns the (still live) machine."""
    m = Machine(2, model=GENERIC, reliable=True, **machine_kwargs)
    m.launch(w.w_pingpong, rounds, 8)
    return m


def test_fault_free_pingpong_puts_no_ack_packet_per_data_packet():
    """Acks ride the reverse data: N round trips cost 2N + 2 packets on
    the wire (against 4N + 2 with one ack packet per data packet), with
    at most one retransmit and one delayed-ack timer armed per peer."""
    rounds = 200
    m = _pingpong(rounds)
    with m:
        rels = [m.runtime(pe).reliable for pe in range(2)]
        engine = m.engine
        schedule = engine.schedule
        most = [0]

        def counting_schedule(delay, callback, *args):
            ev = schedule(delay, callback, *args)
            per_peer = {}
            for armed in engine._heap:
                owner = getattr(armed.callback, "__self__", None)
                if not armed.cancelled and owner in rels:
                    key = (owner.node.pe, armed.args[0])
                    per_peer[key] = per_peer.get(key, 0) + 1
            most[0] = max([most[0], *per_peer.values()])
            return ev

        engine.schedule = counting_schedule
        assert m.run() == "quiescent"
        assert m.network.stats.messages <= 2 * rounds + 2
        assert 1 <= most[0] <= 2
        for rel in rels:
            assert rel.stats.retransmits == 0
            assert rel.stats.acks_received == rel.stats.data_sent
            assert rel.in_flight == 0
        assert sum(r.stats.delivered for r in rels) == 2 * rounds + 1


def test_piggybacked_acks_are_traced_and_counted():
    """A piggybacked ack is as visible as a standalone one: the giver
    emits ``rel_ack_out`` and the taker ``rel_ack``, both with
    ``piggyback=True``, and ``acks_sent + acks_piggybacked`` counts every
    ack a PE gave."""
    m = _pingpong(20, trace=True)
    with m:
        assert m.run() == "quiescent"
        events = m.tracer.events
        for pe in range(2):
            stats = m.runtime(pe).reliable.stats
            out = [e.fields for e in events
                   if e.pe == pe and e.kind == "rel_ack_out"]
            taken = [e.fields for e in events
                     if e.pe == 1 - pe and e.kind == "rel_ack"]
            assert stats.acks_piggybacked > 0
            assert sum(f["piggyback"] for f in out) == stats.acks_piggybacked
            assert sum(not f["piggyback"] for f in out) == stats.acks_sent
            assert len(out) == stats.acks_sent + stats.acks_piggybacked
            # Fault-free, every ack given is taken and settles something.
            assert ([f["piggyback"] for f in taken]
                    == [f["piggyback"] for f in out])
            assert not any(f["stale"] for f in taken)
        # Each PE's releases were all acknowledged, cumulatively.
        acked = {pe: max(f["ack"] for e in events
                         if e.pe == pe and e.kind == "rel_ack_out"
                         for f in [e.fields])
                 for pe in range(2)}
        assert acked == {pe: m.runtime(pe).reliable.stats.delivered
                         for pe in range(2)}
