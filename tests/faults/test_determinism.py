"""Determinism regression (satellite): the quickstart workload, traced.

Two runs with the same configuration — including the same fault seed —
must produce byte-identical traces; changing the seed must change the
trace.  This is the property that makes every fuzz failure reproducible
from its seed alone.

The tasklet switch must be invisible to this property: the same workload
and seed produce byte-identical traces on *every* switch that imports
(thread vs greenlet), because both run the same engine code in the same
order — only the baton hand-off mechanism differs.  The tests below run
each switch through the engine's ``TASKLET_CLASS`` seam.
"""

from __future__ import annotations

import pytest

from repro.sim import engine
from tests.faults.harness import (
    SWITCHES,
    hostile_plan,
    run_pingpong,
    run_quickstart_workload,
    trace_bytes,
)


def test_quickstart_trace_identical_without_faults():
    a, replies_a = run_quickstart_workload()
    b, replies_b = run_quickstart_workload()
    assert replies_a == replies_b == 3
    assert a == b


def test_quickstart_trace_identical_with_same_fault_seed():
    a, ra = run_quickstart_workload(faults=hostile_plan(6), reliable=True)
    b, rb = run_quickstart_workload(faults=hostile_plan(6), reliable=True)
    assert ra == rb == 3
    assert a == b


def test_quickstart_trace_differs_across_fault_seeds():
    """Different seeds inject different faults, which must be visible in
    the trace (retransmits, fault events, arrival times)."""
    traces = set()
    for seed in range(4):
        t, replies = run_quickstart_workload(faults=hostile_plan(seed),
                                             reliable=True)
        assert replies == 3  # delivery still exact for every seed
        traces.add(t)
    assert len(traces) > 1


# ----------------------------------------------------------------------
# cross-switch equivalence
# ----------------------------------------------------------------------
def _on_each_switch(monkeypatch, run):
    """``{switch name: run()}`` with the engine on each switch in turn."""
    out = {}
    for cls in SWITCHES:
        with monkeypatch.context() as patch:
            patch.setattr(engine, "TASKLET_CLASS", cls)
            out[cls.switch] = run()
    return out


@pytest.mark.parametrize("seed", range(3))
def test_quickstart_trace_identical_across_backends(seed, monkeypatch):
    """Same workload + same fault seed -> byte-identical trace on every
    switch that imports.  (With only the thread switch this degenerates
    to a same-switch rerun, which must still hold.)"""
    runs = _on_each_switch(monkeypatch, lambda: run_quickstart_workload(
        faults=hostile_plan(seed), reliable=True))
    assert all(replies == 3 for _t, replies in runs.values())
    assert len({t for t, _replies in runs.values()}) == 1, sorted(runs)


def test_pingpong_trace_identical_across_backends(monkeypatch):
    traces = _on_each_switch(monkeypatch, lambda: trace_bytes(
        run_pingpong(rounds=6, faults=hostile_plan(2), reliable=True,
                     trace=True)["tracer"]))
    assert len(set(traces.values())) == 1, sorted(traces)


def test_greenlet_backend_matches_thread_traces(monkeypatch):
    """The headline claim, run only where greenlet is installed: the
    fast switch is observationally identical to the portable one."""
    pytest.importorskip("greenlet")
    assert [cls.switch for cls in SWITCHES] == ["thread", "greenlet"]
    for seed in range(3):
        runs = _on_each_switch(monkeypatch, lambda: run_quickstart_workload(
            faults=hostile_plan(seed), reliable=True))
        assert runs["thread"] == runs["greenlet"], (
            f"seed {seed}: greenlet trace diverged from thread")
