"""The mp quiescence rule, driven with crafted idle reports and frames.

Each worker counts, per peer, the data frames it sent there and the ones
it dispatched from there, and reports ``("idle", sent, recv, epochs,
timers)`` once parked.  The hub declares a run quiescent when no
promised respawn is pending and every live PE's last report is idle,
timer-free and of the hub's epochs, with ``sent_i[j] == recv_j[i]`` for
every ordered pair of live PEs.  These tests build the hub without
starting a worker and feed ``_on_frame`` directly, so each case is exact
rather than a race; the worker-side cases drive one ``_WorkerMachine``
over real sockets.
"""

from __future__ import annotations

import shutil
import socket

import pytest

from repro.machine import mp
from repro.machine.base import (
    MachineConfig,
    machine_backend_available,
    machine_backend_unavailable_reason,
)
from repro.core.message import Message
from repro.sim.machine import Machine

pytestmark = pytest.mark.skipif(
    not machine_backend_available("mp"),
    reason=f"mp layer unavailable: {machine_backend_unavailable_reason('mp')}",
)

FRESH = (0, 0)  # both PEs in their first incarnation


@pytest.fixture
def hub():
    m = Machine(2, machine_backend="mp")
    yield m
    m.shutdown()


def test_balanced_timer_free_reports_are_quiescent(hub):
    hub._on_frame(0, ("idle", (0, 5), (0, 3), FRESH, 0))
    assert not hub._quiescent  # PE 1 has not reported
    hub._on_frame(1, ("idle", (3, 0), (5, 0), FRESH, 0))
    assert hub._quiescent


def test_unread_forwarded_frame_holds_quiescence(hub):
    """PE 0 sent PE 1 five frames; PE 1 has dispatched four."""
    hub._on_frame(0, ("idle", (0, 5), (0, 3), FRESH, 0))
    hub._on_frame(1, ("idle", (3, 0), (4, 0), FRESH, 0))
    assert not hub._quiescent


def test_armed_retransmit_holds_quiescence(hub):
    """A reliable sender parks with its retransmit timer armed: every
    frame is read, but the timer may still put one on the wire."""
    hub._on_frame(1, ("idle", (0, 0), (1, 0), FRESH, 0))
    hub._on_frame(0, ("idle", (0, 1), (0, 0), FRESH, 1))
    assert not hub._quiescent
    hub._on_frame(0, ("idle", (0, 1), (0, 0), FRESH, 0))  # acked: cancelled
    assert hub._quiescent


def test_fault_delayed_copy_holds_quiescence(hub):
    """A sender holding a fault-delayed copy has it armed on its own
    timer heap and not counted yet, so the counts balance; the sender's
    timer count is what holds quiescence."""
    hub._on_frame(1, ("idle", (0, 0), (2, 0), FRESH, 0))
    hub._on_frame(0, ("idle", (0, 2), (0, 0), FRESH, 1))
    assert not hub._quiescent
    # The copy leaves, counted as sent before PE 0's next report.
    hub._on_frame(0, ("idle", (0, 3), (0, 0), FRESH, 0))
    assert not hub._quiescent  # PE 1 has not dispatched it yet
    hub._on_frame(1, ("idle", (0, 0), (3, 0), FRESH, 0))
    assert hub._quiescent


def test_owed_respawn_holds_quiescence(hub):
    """PE 1 was killed and is promised back: the survivor balancing its
    counts during the crash window does not end the run."""
    hub._down.add(1)
    hub._respawn_owed.add(1)
    hub._on_frame(0, ("idle", (0, 4), (0, 0), FRESH, 0))
    assert not hub._quiescent
    # A permanent crash owes nothing: the survivors alone decide, and
    # nothing sent to the dead PE is owed either.
    hub._respawn_owed.clear()
    hub._on_frame(0, ("idle", (0, 4), (0, 0), FRESH, 0))
    assert hub._quiescent


def test_an_epoch_view_older_than_the_hubs_holds_quiescence(hub):
    """PE 1's respawn said hello (epoch 1).  PE 0's last report counts
    against incarnation 0, so it cannot balance against PE 1's fresh
    counts until PE 0 reports again, the announcement applied."""
    hub._epochs[1] = 1
    hub._on_frame(0, ("idle", (0, 0), (0, 0), FRESH, 0))
    hub._on_frame(1, ("idle", (0, 0), (0, 0), (0, 1), 0))
    assert not hub._quiescent
    hub._on_frame(0, ("idle", (0, 0), (0, 0), (0, 1), 0))
    assert hub._quiescent


# ----------------------------------------------------------------------
# the worker side: what counts
# ----------------------------------------------------------------------
def _listen(link, pe, epoch):
    """The listener of incarnation ``epoch`` of PE ``pe``, as the hub names it."""
    return socket.create_server(mp._peer_name(link.base, pe, epoch),
                                family=socket.AF_UNIX)


@pytest.fixture
def pe1():
    """PE 1 of 2 as its worker process builds it; PE 0's incarnation 0
    is dead (nothing listens under its name).  Yields the node, the hub's
    end of its hub socket and a function that opens a link into it as a
    given incarnation of PE 0."""
    made = []
    hub_end, hub_far = socket.socketpair()
    base = mp._socket_dir()
    listener = socket.create_server(mp._peer_name(base, 1, 0), family=socket.AF_UNIX)
    made.append(hub_far)
    link = mp._WorkerLink(hub_end, 1, listener, base, [0, 0])
    node = mp._WorkerMachine(1, link, MachineConfig(2)).node_obj

    def link_from(epoch):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(mp._peer_name(base, 1, 0))
        made.append(sock)
        sock.sendall(mp._encode_link(0, epoch, 0))
        return sock

    yield node, hub_far, link_from
    link.close()
    for sock in made:
        sock.close()
    shutil.rmtree(base)


def _ball(payload, src=0, dst=1) -> bytes:
    return b"".join(mp._encode_data(src, dst, Message(7, payload, src_pe=src), False))


def _pump_until(node, cond):
    for _ in range(1000):
        node.pump()
        if cond():
            return
    raise AssertionError("the worker never got there")


def test_a_frame_from_an_older_sender_incarnation_is_dispatched_but_not_counted(pe1):
    node, hub_far, link_from = pe1
    link = node.machine.worker
    old = link_from(0)
    old.sendall(_ball("a"))
    _pump_until(node, lambda: len(node.inbox) == 1)
    assert link.recv == [1, 0]
    # PE 0's respawn said hello: the hub's announcement restarts the counts.
    hub_far.sendall(mp._encode(("peer", 0, 1)))  # nothing listens for it
    _pump_until(node, lambda: link.epochs == [1, 0])
    assert link.recv == [0, 0]
    old.sendall(_ball("b"))  # still in flight from the dead incarnation
    _pump_until(node, lambda: len(node.inbox) == 2)
    assert [m.payload for m in node.inbox] == ["a", "b"]
    assert link.recv == [0, 0]
    link_from(1).sendall(_ball("c"))
    _pump_until(node, lambda: len(node.inbox) == 3)
    assert link.recv == [1, 0]


def test_a_frame_to_a_dead_incarnation_is_dropped_and_the_respawn_clears_its_count(pe1):
    node, hub_far, _link_from = pe1
    link, machine = node.machine.worker, node.machine
    machine.network.sync_send(node, 0, 8, Message(7, "lost", src_pe=1))
    assert link.sent == [1, 0]  # counted, then dropped: nothing listens
    assert link.out[0].name is None and not link.out[0].out
    respawn = _listen(link, 0, 1)
    try:
        hub_far.sendall(mp._encode(("peer", 0, 1)))
        _pump_until(node, lambda: link.epochs == [1, 0])
        assert link.sent == [0, 0]
        machine.network.sync_send(node, 0, 8, Message(7, "kept", src_pe=1))
        assert link.sent == [1, 0]
        conn, _addr = respawn.accept()
        conn.settimeout(5.0)
        got = bytearray()
        while len(mp._decode(bytearray(got))) < 1:
            got += conn.recv(1 << 16)
        reader = mp._decode(bytearray(got))
        conn.close()
    finally:
        respawn.close()
    # The link names incarnation 1 of PE 0 as its target.
    [(kind, msg, _imm, (src, epoch, target))] = reader
    assert (kind, msg.payload, src, epoch, target) == ("msg", "kept", 1, 0, 1)
