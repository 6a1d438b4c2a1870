"""Unit tests for the whole-PE failure model beneath the ft layer: the
node down state, machine-driven crash/restart injection, the structured
:class:`RetryExhaustedError`, and timer hygiene on close/shutdown."""

from __future__ import annotations

import pytest

from repro import CrashSpec, FaultPlan, FaultSpec, FTConfig, Machine, api
from repro.core.errors import (
    RetryExhaustedError,
    SimulationError,
)
from repro.machine.cmi import ReliableConfig


def _drop_all_data():
    """A plan whose 0 -> 1 link black-holes everything: a pending packet
    from PE 0 is never acked, so its retransmission timer stays armed."""
    return FaultPlan(0, links={(0, 1): FaultSpec(drop=1.0)})


class TestNodeDownState:
    def test_deliveries_to_a_dead_pe_vanish(self):
        with Machine(2) as m:
            got = []

            def main():
                if api.CmiMyPe() == 0:
                    h = api.CmiRegisterHandler(got.append, "t.sink")
                    api.CmiSyncSend(1, api.CmiNew(h, "x"))
                    api.CmiSyncSend(1, api.CmiNew(h, "y"))

            node1 = m.node(1)
            node1.fail()
            m.launch_on(0, main)
            m.run()
            assert got == []
            assert node1.dropped_while_down == 2
            assert len(node1.inbox) == 0

    def test_fail_and_restart_guards_and_epoch(self):
        with Machine(2) as m:
            node = m.node(1)
            assert node.up and node.epoch == 0
            with pytest.raises(SimulationError):
                node.restart()  # not down
            node.fail()
            assert not node.up
            assert node.crashed_at == m.now
            with pytest.raises(SimulationError):
                node.fail()  # already down
            node.restart()
            assert node.up and node.epoch == 1

    def test_crash_clears_software_state(self):
        with Machine(2) as m:
            node = m.node(1)
            key = node.alloc(16)
            node.memory[key][0] = 7
            node.fail()
            assert node.memory == {}
            assert node.runtime is None
            assert node._interceptors is None


class TestCrashInjectionWithoutFt:
    def test_permanent_crash_kills_the_pe_mid_run(self):
        """No ft, no reliability: the victim's deliveries just stop."""
        plan = FaultPlan(0, crashes=[CrashSpec(1, 60e-6, None)])
        with Machine(2, faults=plan) as m:
            recv = []

            def main():
                me = api.CmiMyPe()

                def on_msg(msg):
                    recv.append(msg.payload)

                h = api.CmiRegisterHandler(on_msg, "t.tick")
                if me == 0:
                    for i in range(6):
                        api.CmiSyncSend(1, api.CmiNew(h, i))
                        api.CmiCharge(20e-6)
                else:
                    api.CsdScheduler(-1)

            m.launch(main)
            m.run()
            assert not m.node(1).up
            assert 0 < len(recv) < 6
            assert m.node(1).dropped_while_down > 0

    def test_restart_respawns_main_with_amnesia(self):
        plan = FaultPlan(0, crashes=[CrashSpec(1, 50e-6, 30e-6)])
        with Machine(2, faults=plan) as m:
            boots = []

            def main():
                boots.append((api.CmiMyPe(), api.CftRestarting()))

            m.launch(main)
            m.run()
            # PE 1's main ran twice: epoch 0, then the post-restart
            # incarnation which can tell it is a reboot.
            assert boots == [(0, False), (1, False), (1, True)]
            assert m.node(1).epoch == 1

    def test_reliable_sender_raises_structured_retry_exhausted(self):
        """Without a failure detector, a dead peer surfaces as a
        RetryExhaustedError carrying the full give-up context."""
        plan = FaultPlan(0, crashes=[CrashSpec(1, 30e-6, None)])
        rel = ReliableConfig(rto=40e-6, max_retries=3)
        with Machine(2, faults=plan, reliable=rel) as m:

            def main():
                me = api.CmiMyPe()
                h = api.CmiRegisterHandler(lambda msg: None, "t.noop")
                if me == 0:
                    api.CmiCharge(60e-6)  # outlive the victim
                    api.CmiSyncSend(1, api.CmiNew(h, "hello"))
                api.CsdScheduler(-1)

            m.launch(main)
            with pytest.raises(RetryExhaustedError) as exc:
                m.run()
            err = exc.value
            assert err.src == 0
            assert err.dst == 1
            assert err.seq == 0
            assert err.retries == 3
            assert err.elapsed > 0
            assert err.stats is not None and err.stats.retransmits == 3
            assert "PE 1" in str(err)


class TestCloseCancelsTimers:
    def test_rel_close_mid_retransmit_disarms_everything(self):
        """Closing the reliable layer while a retransmission is in flight
        must cancel its timer: the machine then reaches quiescence
        instead of retransmitting into a black hole forever."""
        with Machine(2, faults=_drop_all_data(), reliable=True) as m:

            def main():
                me = api.CmiMyPe()
                h = api.CmiRegisterHandler(lambda msg: None, "t.noop")
                if me == 0:
                    api.CmiSyncSend(1, api.CmiNew(h, "doomed"))

            m.launch(main)
            rel = m.runtime(0).reliable
            m.run(until=2e-3)
            assert rel.in_flight == 1
            assert rel.stats.retransmits > 0
            sent = rel.stats.retransmits
            timers = ([t for t, _due in rel._rtx.values()]
                      + list(rel._ack_timers.values()))
            rel.close()
            assert rel.in_flight == 0
            assert timers and all(t.cancelled for t in timers)
            # Nothing left to fire: the run drains instead of hanging.
            assert m.run() == "quiescent"
            assert rel.stats.retransmits == sent

    def test_machine_shutdown_closes_protocol_layers(self):
        plan = FaultPlan(0, links={(0, 1): FaultSpec(drop=1.0)},
                         crashes=[CrashSpec(1, 10.0)])  # keeps ft armed
        m = Machine(2, faults=plan, reliable=True, ft=FTConfig())
        try:

            def main():
                me = api.CmiMyPe()
                h = api.CmiRegisterHandler(lambda msg: None, "t.noop")
                if me == 0:
                    api.CmiSyncSend(1, api.CmiNew(h, "doomed"))

            m.launch(main)
            m.run(until=1e-3)
            rel = m.runtime(0).reliable
            agents = [m.runtime(pe).ft for pe in range(2)]
            assert rel.in_flight == 1  # genuinely mid-retransmit
            assert any(a._hb_timer is not None for a in agents)
        finally:
            m.shutdown()
        assert rel.in_flight == 0
        for a in agents:
            assert a._hb_timer is None
            assert a._monitor_timer is None
            assert a._ckpt_timer is None
            assert a._ctl_pending == {}
        assert m.engine.pending_events == 0
