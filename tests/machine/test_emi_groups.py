"""Unit tests for EMI processor groups: structure, multicast, reductions."""

from __future__ import annotations

import pytest

from tests.helpers import run_on, run_spmd_collect

from repro.core import api
from repro.core.errors import GroupError
from repro.core.message import Message
from repro.machine.emi_groups import Pgrp, world_group
from repro.sim.machine import Machine


def test_group_structure_accessors():
    def main():
        g = api.CmiPgrpCreate()
        api.CmiAddChildren(g, 0, [1, 2])
        api.CmiAddChildren(g, 1, [3])
        assert api.CmiPgrpRoot(g) == 0
        assert api.CmiNumChildren(g, 0) == 2
        assert api.CmiChildren(g, 0) == [1, 2]
        assert api.CmiParent(g, 3) == 1
        assert api.CmiParent(g, 0) is None
        return g.members()

    assert run_on(4, main) == [0, 1, 2, 3]


def test_add_children_only_by_root():
    with Machine(3) as m:
        def creator():
            g = api.CmiPgrpCreate()
            api.CmiCharge(10e-6)
            return g

        def intruder():
            api.CmiCharge(5e-6)
            g = m.runtime(0).cmi.groups  # just to build interfaces uniformly
            return None

        t = m.launch_on(0, creator)
        m.run()
        g = t.result

        def not_root():
            try:
                api.CmiAddChildren(g, 0, [1])
            except GroupError as e:
                return "only the root" in str(e)

        t2 = m.launch_on(1, not_root)
        m.run()
        assert t2.result is True


def test_duplicate_member_rejected():
    def main():
        g = api.CmiPgrpCreate()
        api.CmiAddChildren(g, 0, [1])
        try:
            api.CmiAddChildren(g, 0, [1])
        except GroupError:
            return "dup"

    assert run_on(2, main) == "dup"


def test_destroyed_group_unusable():
    def main():
        g = api.CmiPgrpCreate()
        api.CmiPgrpDestroy(g)
        try:
            g.members()
        except GroupError:
            return "dead"

    assert run_on(1, main) == "dead"


def test_multicast_reaches_members_only():
    with Machine(4) as m:
        got = {pe: 0 for pe in range(4)}

        def main():
            me = api.CmiMyPe()

            def h(msg):
                got[api.CmiMyPe()] += 1
                api.CsdExitScheduler()

            hid = api.CmiRegisterHandler(h, "mc")
            if me == 0:
                g = api.CmiPgrpCreate()
                api.CmiAddChildren(g, 0, [1, 3])  # PE 2 not a member
                api.CmiAsyncMulticast(g, Message(hid, None, size=8))
            else:
                api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        # PE2's scheduler never got a message; machine went quiescent.
        assert got == {0: 0, 1: 1, 2: 0, 3: 1}


def test_multicast_from_non_member_caller():
    """'Caller need not belong to group.'"""
    with Machine(3) as m:
        got = []

        def main():
            me = api.CmiMyPe()

            def h(msg):
                got.append(api.CmiMyPe())
                api.CsdExitScheduler()

            hid = api.CmiRegisterHandler(h, "mc")
            if me == 0:
                g = api.CmiPgrpCreate()
                api.CmiAddChildren(g, 0, [1])
                api.CmiCharge(1e-6)
                return g, hid
            api.CsdScheduler(-1)

        ts = m.launch(main)
        m.run()
        g, hid = ts[0].result

        def outsider():
            # PE 2 multicasts into a group it does not belong to; the
            # root (PE 0) relays along the tree.
            api.CmiAsyncMulticast(g, Message(hid, None, size=8))

        m.launch_on(2, outsider)
        # PE0 is a member and not the origin: it processes the relayed
        # wrapper and then its own copy (whose handler exits the loop).
        def pe0_recv():
            api.CsdScheduler(-1)

        m.launch_on(0, pe0_recv)
        m.run()
        assert sorted(got) == [0, 1]


def test_reduce_combines_over_tree():
    def main():
        g = world_group(__import__("repro.core.context", fromlist=["x"])
                        .current_runtime().machine)
        return api.CmiPgrpReduce(g, api.CmiMyPe() + 1, lambda a, b: a + b)

    results = run_spmd_collect(5, main)
    assert results == [15] * 5


def test_reduce_with_noncommutative_merge():
    def main():
        g = world_group(__import__("repro.core.context", fromlist=["x"])
                        .current_runtime().machine)
        return api.CmiPgrpReduce(g, {api.CmiMyPe()}, lambda a, b: a | b)

    results = run_spmd_collect(4, main)
    assert all(r == {0, 1, 2, 3} for r in results)


def test_sequential_reductions_do_not_mix():
    def main():
        g = world_group(__import__("repro.core.context", fromlist=["x"])
                        .current_runtime().machine)
        first = api.CmiPgrpReduce(g, 1, lambda a, b: a + b)
        second = api.CmiPgrpReduce(g, api.CmiMyPe(), max)
        return first, second

    results = run_spmd_collect(4, main)
    assert all(r == (4, 3) for r in results)


def test_barrier_synchronizes():
    def main():
        g = world_group(__import__("repro.core.context", fromlist=["x"])
                        .current_runtime().machine)
        api.CmiCharge(api.CmiMyPe() * 10e-6)  # stagger arrival
        api.CmiPgrpBarrier(g)
        return api.CmiTimer()

    times = run_spmd_collect(4, main)
    # Nobody leaves before the slowest participant arrived.
    assert min(times) >= 30e-6


def test_world_group_binomial_tree_shape():
    with Machine(8) as m:
        g = world_group(m)
        assert g.members() == list(range(8))
        assert g.root == 0
        # Every non-root's parent is n - lowbit(n).
        for n in range(1, 8):
            assert g.parent(n) == n - (n & -n)
        assert world_group(m) is g  # cached
