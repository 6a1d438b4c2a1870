"""Property-based tests for EMI processor groups: arbitrary tree shapes,
multicast coverage, reduction correctness, console sscanf round-trips."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import api
from repro.core.message import Message
from repro.machine.emi_groups import Pgrp, world_group
from repro.sim.console import sscanf
from repro.sim.machine import Machine


# ----------------------------------------------------------------------
# arbitrary group trees
# ----------------------------------------------------------------------

@st.composite
def tree_shapes(draw):
    """A random parent assignment over n PEs, rooted at 0: node i>0 gets
    a parent drawn from [0, i) — always a valid tree."""
    n = draw(st.integers(2, 10))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    return n, parents


@given(tree_shapes())
def test_pgrp_structure_consistent(shape):
    n, parents = shape
    g = Pgrp(0)
    for child, parent in enumerate(parents, start=1):
        g.add_children(parent, [child])
    assert g.members() == list(range(n))
    for child, parent in enumerate(parents, start=1):
        assert g.parent(child) == parent
        assert child in g.children(parent)
    # Children counts sum to n - 1 (every non-root has one parent).
    assert sum(g.num_children(p) for p in g.members()) == n - 1


@settings(max_examples=15, deadline=None)
@given(tree_shapes())
def test_multicast_covers_exactly_the_members(shape):
    n, parents = shape
    with Machine(n) as m:
        got = []

        def main():
            me = api.CmiMyPe()

            def h(msg):
                got.append(api.CmiMyPe())
                api.CsdExitScheduler()

            hid = api.CmiRegisterHandler(h, "mc")
            if me == 0:
                g = api.CmiPgrpCreate()
                for child, parent in enumerate(parents, start=1):
                    api.CmiAddChildren(g, parent, [child])
                api.CmiAsyncMulticast(g, Message(hid, None, size=8))
            api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        # Everyone but the caller (PE 0, the origin) got exactly one copy.
        assert sorted(got) == list(range(1, n))


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 9), st.lists(st.integers(-100, 100), min_size=9, max_size=9))
def test_world_reduce_equals_fold(num_pes, values):
    def main():
        g = world_group(__import__("repro.core.context", fromlist=["x"])
                        .current_runtime().machine)
        return api.CmiPgrpReduce(g, values[api.CmiMyPe()], lambda a, b: a + b)

    with Machine(num_pes) as m:
        m.launch(main)
        m.run()
        results = m.results()
    assert all(r == sum(values[:num_pes]) for r in results)


# ----------------------------------------------------------------------
# sscanf round trips
# ----------------------------------------------------------------------

@given(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=5))
def test_sscanf_roundtrips_ints(xs):
    fmt = " ".join(["%d"] * len(xs))
    text = " ".join(str(x) for x in xs)
    assert sscanf(text, fmt) == xs


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12),
                min_size=1, max_size=4))
def test_sscanf_roundtrips_floats(xs):
    fmt = " ".join(["%f"] * len(xs))
    text = " ".join(repr(float(x)) for x in xs)
    got = sscanf(text, fmt)
    assert len(got) == len(xs)
    for a, b in zip(got, xs):
        assert a == float(repr(float(b)))


@given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
               min_size=1, max_size=10),
       st.integers(-999, 999))
def test_sscanf_mixed_string_int(word, number):
    assert sscanf(f"{word} {number}", "%s %d") == [word, number]
