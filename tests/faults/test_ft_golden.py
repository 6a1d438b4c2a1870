"""Golden fault-tolerance behaviour: the crash-surviving ping-pong's
event sequence and injected-fault counts, pinned per seed.

For seeds 0-24, :func:`~tests.faults.harness.run_ft_pingpong` (12
rounds, memory trace) runs on the simulator under the crash sweep's
plan — drop and duplication, plus one mid-run crash of PE 1 at
:func:`~tests.faults.test_ft_crash._crash_at` with a restart.  Each run
must reproduce two recorded constants exactly:

* a sha256 of the ``(repr(time), pe, kind)`` sequence of every trace
  event.  Event fields are left out on purpose: they name handler
  indices, which may shift when a layer registers a handler more or
  less, without the protocol's timing or message flow changing;
* the plan's :class:`~repro.machine.faults.FaultStats` — how many
  packets the network carried and which of them it dropped or
  duplicated on each link.

So a refactor of the fault-tolerance layer that leaves every message,
timer and retransmission where it was passes unchanged.  A change that
alters FT timing or traffic on purpose regenerates these digests and
says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.machine.faults import FaultStats
from tests.faults.harness import crashy_plan, run_ft_pingpong
from tests.faults.test_ft_crash import _crash_at

#: seed -> (event digest, event count,
#:          (packets, drops, duplicates, faults on link 0->1, on 1->0));
#: delays, reorders and corruptions are 0 under the crash sweep's plan.
GOLDEN = {
    0: ("e7248cbe78e0cfb6ac1fc9cfa147b98136958b59167909226b39290bd99a7626",
         276, (54, 2, 3, 1, 4)),
    1: ("cb152924d578020fe630a2a01f7886e82cf5b6b6869162e3c649f0e356465bfe",
         294, (60, 6, 6, 10, 2)),
    2: ("992db8f648a2b0127f572c4656f357c4061a6542437461ea455e517c2326715f",
         287, (64, 9, 4, 5, 8)),
    3: ("8c9f5352055284fb9c4ff107f12f4c5e1ec81d12e27b7dbe4c464ebf91625ee2",
         346, (89, 10, 7, 9, 8)),
    4: ("587154b9119eabfea72feb00d868fbc2141ce50c89d8bef28f3493cf52635d21",
         318, (81, 8, 9, 9, 8)),
    5: ("30cbdc1a4f7ebf5edcf71c3227da247d791f67a7c76a83dab2baebd010f5350e",
         303, (90, 12, 6, 12, 6)),
    6: ("745016df35afb514c9b05f5683910f78cd998339360f7577f120d03d01d6eda2",
         336, (95, 9, 10, 8, 11)),
    7: ("fa217137da0f95a8444913c1faee9d877f30e06be8c1f9832836a4b1f8d5e484",
         379, (106, 12, 12, 12, 12)),
    8: ("a632d94d4ee006353e2fd575636b7e3f5281202d8d84ab67fedd36b259bf6d00",
         354, (106, 6, 12, 10, 8)),
    9: ("e0e6b3103df0854f70be74c6613431c8d755d4fc35e436d509a9d2d6bb6698fe",
         324, (117, 19, 13, 19, 13)),
    10: ("b076a483ac5b8caf483cfceae6831cd6db56d72ed0b54acb523ff1ed0d4de465",
         320, (106, 12, 9, 10, 11)),
    11: ("64e18ae37b4107579bae193fe883b516028ee63be5644b387515fd816ca6c0f9",
         336, (117, 10, 15, 12, 13)),
    12: ("e72fe6e83616bcff5041de1c70132d50fc5bc966761cae018f1fccebeb183eee",
         357, (131, 13, 8, 12, 9)),
    13: ("1945458b874a4aee9ce03daf58a2401cc31f874100be8190cbecb7bf6d950fd7",
         317, (67, 6, 4, 9, 1)),
    14: ("5748ee08b1027820c43c00cf8a48dbeacd65f340040efb0171b192205c7c512b",
         283, (62, 6, 4, 7, 3)),
    15: ("c1240b7828571d723540a4ef1a2f0bc622cda1f1aabb0c92216501b5c4b0f860",
         298, (74, 4, 10, 9, 5)),
    16: ("d49c39cac2e1e5d33bbc9bbdfd4e7c239842f4cc67dbbb842953df3b5cae1d24",
         302, (78, 6, 11, 13, 4)),
    17: ("d03a338fa3480dbe588a000f213143eb680bfa714cfa495c77894f1faa0550d6",
         376, (101, 13, 7, 10, 10)),
    18: ("9fa14f9511d425457820b5e7054bca0fa5ea8aef9cf1fcea17031308eafbd2a8",
         318, (83, 6, 5, 8, 3)),
    19: ("aeb70653f102188dc7764893f7df0070438612aa9b35d82bef368f1ef2d31c48",
         321, (92, 6, 11, 12, 5)),
    20: ("1c72af8c6f103a8083dab09257567c2f954fca4f1e717483f368f039246bc297",
         348, (104, 11, 13, 14, 10)),
    21: ("80a81dedc5c5a2e5a8a96651b89c4b567b49f142d71686720ae5c16dc7ccaf09",
         326, (99, 11, 10, 10, 11)),
    22: ("b0db5be9f08cfbe07ce0dfbf161128f6d35813044b370dfd3235ea8662151916",
         336, (110, 15, 8, 14, 9)),
    23: ("789fbe06db69fd284e1e8c4b5c86b169447add5d4602baa842079e3cbaa9313d",
         352, (114, 9, 9, 10, 8)),
    24: ("4907bbb9e24aab98d00096ea140ac60804a185849448d63c5c1c38d61bdfa817",
         313, (115, 11, 6, 10, 7)),
}


def _digest(events) -> str:
    return hashlib.sha256(
        repr([(repr(e.time), e.pe, e.kind) for e in events]).encode()
    ).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_ft_pingpong_matches_golden(seed):
    digest, count, (packets, drops, dups, link01, link10) = GOLDEN[seed]
    plan = crashy_plan(seed, crash_pe=1, crash_at=_crash_at(seed))
    r = run_ft_pingpong(rounds=12, faults=plan, trace="memory")
    assert r["reason"] == "quiescent"
    assert r["recv"] == r["expected"]
    events = r["tracer"].events
    assert (len(events), _digest(events)) == (count, digest)
    assert plan.stats == FaultStats(
        packets=packets, drops=drops, duplicates=dups,
        per_link={(0, 1): link01, (1, 0): link10},
    )
