"""Golden wire sizes: the modelled bytes the reliable and aggregation
layers put on the simulated wire, pinned per run.

The reliable layer adds a header to every data packet and sends acks of
a fixed size; the aggregation layer adds a header to every batch and an
envelope to every message inside one.  None of these sizes is visible to
the application, but each one feeds the network's byte counter and,
through the cost model's per-byte term, the virtual clock.  Two runs pin
them:

* a reliable ping-pong of varying payload sizes under a dropping and
  duplicating plan (seeds 0-4), so data packets, retransmissions and
  standalone acks all cross the wire;
* a 9-PE all-to-all over ``route="mesh2d"`` aggregation, so batches are
  built, forwarded through intermediate PEs and unpacked.

Each must reproduce, exactly, the final virtual time, the network's
packet and byte totals and every node's ``(msgs_sent, bytes_sent,
msgs_received, bytes_received)``.  A change to any modelled wire size
moves the byte totals; a change that alters them on purpose regenerates
these constants and says so in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro import FaultPlan, Machine, api
from repro.comms.aggregation import AggregationConfig
from repro.core.message import Message

#: per node: (msgs_sent, bytes_sent, msgs_received, bytes_received).
_REL_NODES = ((12, 176, 12, 192), (12, 192, 12, 176))

#: seed -> (repr of the final virtual time, wire packets, wire bytes).
REL_GOLDEN = {
    0: ("0.0008861559999999999", 30, 888),
    1: ("0.002890179999999999", 43, 1184),
    2: ("0.0016619799999999995", 31, 952),
    3: ("0.002494211999999999", 40, 1120),
    4: ("0.0032942120000000025", 44, 1232),
}

AGG_GOLDEN = ("0.000246565", 80, 19424, (
    (10, 1924, 8, 2108), (8, 1928, 8, 2090), (10, 1996, 8, 2072),
    (9, 2124, 10, 2194), (8, 2144, 8, 2144), (9, 2196, 10, 2158),
    (9, 2340, 10, 2248), (8, 2360, 8, 2198), (9, 2412, 10, 2212),
))


def _counters(m):
    return (repr(m.now), m.network.stats.messages, m.network.stats.bytes,
            tuple((n.stats.msgs_sent, n.stats.bytes_sent,
                   n.stats.msgs_received, n.stats.bytes_received)
                  for n in m.nodes))


def _reliable_pingpong(seed: int, rounds: int = 12):
    """PE 0 and PE 1 bounce a ball ``2 * rounds`` hops; ball ``n``
    carries ``8 * (n % 5)`` modelled bytes."""
    plan = FaultPlan(seed, drop=0.2, duplicate=0.15)
    with Machine(2, faults=plan, reliable=True) as m:
        def main():
            me = api.CmiMyPe()
            got = []

            def on_ball(msg):
                n = msg.payload
                got.append(n)
                if n + 1 < 2 * rounds:
                    api.CmiSyncSend(1 - me,
                                    Message(h, n + 1, size=8 * ((n + 1) % 5)))
                if len(got) == rounds:
                    api.CsdExitScheduler()

            h = api.CmiRegisterHandler(on_ball, "wire.ball")
            if me == 0:
                api.CmiSyncSend(1, Message(h, 0, size=0))
            api.CsdScheduler(-1)

        m.launch(main)
        assert m.run() == "quiescent"
        return _counters(m)


def _mesh2d_all2all(num_pes: int = 9, rounds: int = 6):
    """Every PE sends ``rounds`` messages of ``16 + pe`` bytes to every
    other PE through mesh-routed aggregation."""
    want = rounds * (num_pes - 1)
    recv = [0] * num_pes
    with Machine(num_pes,
                 aggregation=AggregationConfig(route="mesh2d")) as m:
        def main():
            me = api.CmiMyPe()

            def on_msg(msg):
                recv[me] += 1
                if recv[me] == want:
                    api.CsdExitScheduler()

            h = api.CmiRegisterHandler(on_msg, "wire.a2a")
            for r in range(rounds):
                for d in range(num_pes):
                    if d != me:
                        api.CmiSyncSend(d, Message(h, (me, r), size=16 + me))
            api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        assert recv == [want] * num_pes
        return _counters(m)


@pytest.mark.parametrize("seed", sorted(REL_GOLDEN))
def test_reliable_wire_bytes_match_golden(seed):
    assert _reliable_pingpong(seed) == (*REL_GOLDEN[seed], _REL_NODES)


def test_mesh2d_aggregation_wire_bytes_match_golden():
    assert _mesh2d_all2all() == AGG_GOLDEN
