"""The mp hub's quiescence rule, driven with crafted idle reports.

The hub declares a run quiescent when no promised respawn is pending and
every live PE's last ``("idle", recv, timers)`` report has read every
frame the hub forwarded to it and holds no armed timer.  These tests
build the hub without starting a worker and feed ``_on_frame`` directly,
so each case is exact rather than a race.
"""

from __future__ import annotations

import pytest

from repro.machine.base import (
    machine_backend_available,
    machine_backend_unavailable_reason,
)
from repro.sim.machine import Machine

pytestmark = pytest.mark.skipif(
    not machine_backend_available("mp"),
    reason=f"mp layer unavailable: {machine_backend_unavailable_reason('mp')}",
)


@pytest.fixture
def hub():
    m = Machine(2, machine_backend="mp")
    yield m
    m.shutdown()


def test_balanced_timer_free_reports_are_quiescent(hub):
    hub._forwarded[:] = [3, 5]
    hub._on_frame(0, ("idle", 3, 0))
    assert not hub._quiescent  # PE 1 has not reported
    hub._on_frame(1, ("idle", 5, 0))
    assert hub._quiescent


def test_unread_forwarded_frame_holds_quiescence(hub):
    hub._forwarded[:] = [3, 5]
    hub._on_frame(0, ("idle", 3, 0))
    hub._on_frame(1, ("idle", 4, 0))
    assert not hub._quiescent


def test_armed_retransmit_holds_quiescence(hub):
    """A reliable sender parks with its retransmit timer armed: every
    frame is read, but the timer may still put one on the wire."""
    hub._on_frame(1, ("idle", 0, 0))
    hub._on_frame(0, ("idle", 0, 1))
    assert not hub._quiescent
    hub._on_frame(0, ("idle", 0, 0))  # acked: the timer is cancelled
    assert hub._quiescent


def test_fault_delayed_copy_holds_quiescence(hub):
    """A sender holding a fault-delayed copy has it armed on its own
    timer heap.  The hub has not seen the frame, so its ledger balances;
    the sender's timer count is what holds quiescence."""
    hub._forwarded[:] = [0, 2]
    hub._on_frame(1, ("idle", 2, 0))
    hub._on_frame(0, ("idle", 0, 1))
    assert not hub._quiescent
    # The copy leaves: the hub forwards it before PE 0's next report.
    hub._forwarded[1] += 1
    hub._on_frame(0, ("idle", 0, 0))
    assert not hub._quiescent  # PE 1 has not read it yet
    hub._on_frame(1, ("idle", 3, 0))
    assert hub._quiescent


def test_owed_respawn_holds_quiescence(hub):
    """PE 1 was killed and is promised back: the survivor balancing its
    ledger during the crash window does not end the run."""
    hub._down.add(1)
    hub._respawn_owed.add(1)
    hub._on_frame(0, ("idle", 0, 0))
    assert not hub._quiescent
    # A permanent crash owes nothing: the survivors alone decide.
    hub._respawn_owed.clear()
    hub._on_frame(0, ("idle", 0, 0))
    assert hub._quiescent
