"""Regression tests for the collective-layer fixes: the root-side
reduction-result leak, group-lifecycle hygiene (root-only destroy, world
cache invalidation, per-machine gid determinism), and spanning-tree
multicast from a non-root member (no detour through the root).
"""

from __future__ import annotations

import pytest

from repro.core import api
from repro.core.errors import GroupError
from repro.core.message import Message
from repro.machine.emi_groups import world_group
from repro.sim.machine import Machine


# ----------------------------------------------------------------------
# satellite 1: reduction state must not accumulate
# ----------------------------------------------------------------------
def test_repeated_barriers_leave_no_state():
    """N barriers and reductions in a row: every PE's pending-state maps
    must be empty afterwards.  The root used to stash the final result of
    every reduction in ``_results`` without ever popping it."""
    rounds = 25
    with Machine(4) as m:
        def main():
            from repro.core.context import current_runtime

            g = world_group(current_runtime().machine)
            total = 0
            for i in range(rounds):
                api.CmiPgrpBarrier(g)
                total += api.CmiPgrpReduce(g, 1, lambda a, b: a + b)
            return total

        m.launch(main)
        m.run()
        assert m.results() == [4 * rounds] * 4
        for rt in m.runtimes:
            groups = rt.cmi.groups
            assert groups._results == {}, f"PE {rt.my_pe} leaked results"
            assert groups._contrib == {}, f"PE {rt.my_pe} leaked contribs"


# ----------------------------------------------------------------------
# satellite 2: lifecycle hygiene
# ----------------------------------------------------------------------
def test_destroy_is_root_only():
    with Machine(2) as m:
        def creator():
            g = api.CmiPgrpCreate()
            api.CmiAddChildren(g, 0, [1])
            api.CmiCharge(1e-6)
            return g

        t = m.launch_on(0, creator)
        m.run()
        g = t.result

        def non_root_destroy():
            try:
                api.CmiPgrpDestroy(g)
            except GroupError as e:
                return "only the root" in str(e)

        t2 = m.launch_on(1, non_root_destroy)
        m.run()
        assert t2.result is True
        assert not g.destroyed


def test_destroying_world_group_invalidates_cache():
    with Machine(4) as m:
        first = world_group(m)

        def main():
            api.CmiPgrpDestroy(first)

        m.launch_on(0, main)
        m.run()
        assert first.destroyed
        fresh = world_group(m)
        assert fresh is not first
        assert not fresh.destroyed
        assert fresh.members() == [0, 1, 2, 3]
        # The fresh tree is immediately usable for collectives.
        def barrier():
            api.CmiPgrpBarrier(fresh)
            return "ok"

        m.launch(barrier)
        m.run()
        assert m.results()[-4:] == ["ok"] * 4


def test_gids_are_deterministic_per_machine():
    """Two machines in one process must assign identical gids for the
    identical sequence of group creations (the old process-global counter
    made gids depend on what ran earlier in the process)."""
    def collect_gids():
        gids = []
        with Machine(4) as m:
            gids.append(world_group(m).gid)

            def main():
                g1 = api.CmiPgrpCreate()
                g2 = api.CmiPgrpCreate()
                return g1.gid, g2.gid

            t = m.launch_on(0, main)
            m.run()
            gids.extend(t.result)
        return gids

    first, second = collect_gids(), collect_gids()
    assert first == second
    assert len(set(first)) == len(first)  # distinct within one machine


def test_destroyed_gid_not_resolvable():
    with Machine(2) as m:
        def main():
            g = api.CmiPgrpCreate()
            gid = g.gid
            api.CmiPgrpDestroy(g)
            try:
                m.runtime(0).cmi.groups.lookup(gid)
            except GroupError:
                return "gone"

        t = m.launch_on(0, main)
        m.run()
        assert t.result == "gone"


# ----------------------------------------------------------------------
# satellite 2 of the tentpole wiring: member-origin multicast
# ----------------------------------------------------------------------
def test_multicast_from_non_root_member_skips_root_detour():
    """A non-root tree member multicasts from its own position: traffic
    flows along tree edges only, and no wrapper travels origin->root
    (the old code relayed every non-root multicast through the root)."""
    with Machine(4) as m:
        got = []
        shared = {}

        def main():
            me = api.CmiMyPe()

            def h(msg):
                got.append((api.CmiMyPe(), msg.src_pe))
                api.CsdExitScheduler()

            hid = api.CmiRegisterHandler(h, "mc")
            if me == 0:
                g = api.CmiPgrpCreate()
                api.CmiAddChildren(g, 0, [1, 2])
                api.CmiAddChildren(g, 1, [3])
                shared["g"] = g
            if me == 3:
                # PE 3 is a leaf member (child of 1): it floods from its
                # own tree position instead of detouring via the root.
                api.CmiCharge(5e-6)  # let PE 0 build the group first
                api.CmiAsyncMulticast(shared["g"], Message(hid, None, size=8))
                return  # the origin receives no copy
            api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        # Every member except the origin got exactly one copy, stamped
        # with the origin's PE.
        assert sorted(got) == [(0, 3), (1, 3), (2, 3)]
        # No wrapper travelled origin -> root: PE 3's only tree edge is
        # its parent, PE 1.
        chans = m.network.stats.per_channel
        assert (3, 0) not in chans
        assert chans.get((3, 1), 0) >= 1


def test_multicast_from_root_unchanged():
    with Machine(4) as m:
        got = []

        def main():
            me = api.CmiMyPe()

            def h(msg):
                got.append(api.CmiMyPe())
                api.CsdExitScheduler()

            hid = api.CmiRegisterHandler(h, "mc")
            if me == 0:
                g = api.CmiPgrpCreate()
                api.CmiAddChildren(g, 0, [1, 2])
                api.CmiAddChildren(g, 1, [3])
                api.CmiAsyncMulticast(g, Message(hid, None, size=8))
            else:
                api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        assert sorted(got) == [1, 2, 3]


def test_multicast_from_mid_tree_member():
    """Origin in the middle of the tree: copies flow both up (to the
    parent) and down (to children) without duplication."""
    with Machine(7) as m:
        got = []
        shared = {}

        def main():
            me = api.CmiMyPe()

            def h(msg):
                got.append(api.CmiMyPe())
                api.CsdExitScheduler()

            hid = api.CmiRegisterHandler(h, "mc")
            if me == 0:
                g = api.CmiPgrpCreate()
                api.CmiAddChildren(g, 0, [1, 2])
                api.CmiAddChildren(g, 1, [3, 4])
                api.CmiAddChildren(g, 2, [5, 6])
                shared["g"] = g
            if me == 1:
                api.CmiCharge(5e-6)
                api.CmiAsyncMulticast(shared["g"], Message(hid, None, size=8))
                return
            api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        assert sorted(got) == [0, 2, 3, 4, 5, 6]
        # Each tree edge carried at most one wrapper in each direction —
        # in particular the origin's children were reached directly, not
        # via the root.
        chans = m.network.stats.per_channel
        assert chans.get((1, 3), 0) >= 1
        assert chans.get((1, 4), 0) >= 1
