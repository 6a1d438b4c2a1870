"""Cross-backend observability conformance.

The tool chain is part of the portability claim: the *same* workload,
traced and metered on the simulator and on the multiprocess layer, must
produce (a) metrics whose handler-invocation multisets agree and (b) a
merged mp trace that satisfies the same well-formedness and
critical-path invariants a simulator trace does — consumed by the
*unchanged* analysis pipelines.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.errors import SimulationError
from repro.machine.base import (
    MachineConfig,
    machine_backend_available,
    machine_backend_unavailable_reason,
)
from repro.sim.machine import Machine
from repro.tracing import critical_path, summarize
from repro.tracing.merge import load_spool, merge_spools, spool_path
from repro.tracing.tracer import CountingTracer, MemoryTracer

from tests.machine.conformance import workers as w

pytestmark = [
    pytest.mark.conformance,
    pytest.mark.skipif(
        not machine_backend_available("mp"),
        reason=f"mp layer unavailable: {machine_backend_unavailable_reason('mp')}",
    ),
]

PES = 4
LAPS = 3
MP_TIMEOUT = 60.0


def _run_obs_ring(machine_backend, **kwargs):
    if machine_backend == "mp":
        kwargs.setdefault("timeout", MP_TIMEOUT)
    m = Machine(PES, machine_backend=machine_backend, **kwargs)
    try:
        m.launch(w.w_obs_ring, LAPS)
        m.run()
        assert m.results() == [LAPS] * PES
        m.shutdown()  # mp finalizes trace/metrics at shutdown
        return m
    finally:
        m.shutdown()


# ----------------------------------------------------------------------
# metrics: sim and mp agree on the invocation multiset
# ----------------------------------------------------------------------
def test_handler_counts_match_across_backends():
    sim = _run_obs_ring("sim", metrics=True).metrics_snapshot()
    mp = _run_obs_ring("mp", metrics=True).metrics_snapshot()
    for name in ("csd.handlers_run", "cmi.receives", "cmi.sends"):
        assert name in sim and name in mp, f"{name} missing from a snapshot"
        assert mp[name]["per_pe"] == sim[name]["per_pe"], (
            f"{name} per-PE multiset diverged: sim={sim[name]['per_pe']} "
            f"mp={mp[name]['per_pe']}"
        )
        assert mp[name]["total"] == sim[name]["total"]
    # Every PE ran its laps plus the stop broadcast.
    per_pe = mp["csd.handlers_run"]["per_pe"]
    assert all(per_pe[str(pe)] == LAPS + 1 for pe in range(PES))


# ----------------------------------------------------------------------
# tracing: the merged mp trace is a first-class trace
# ----------------------------------------------------------------------
def _assert_wellformed(tracer):
    """The invariants the sim-trace suite enforces, on a merged trace:
    per-PE monotone timestamps, strictly paired handler begin/end with
    non-negative durations."""
    last = {}
    stacks = {}
    for ev in tracer.events:
        assert ev.time >= last.get(ev.pe, 0.0) - 1e-9, (
            f"pe{ev.pe} time went backwards: {ev.time} after {last[ev.pe]}"
        )
        last[ev.pe] = ev.time
        if ev.kind == "handler_begin":
            stacks.setdefault(ev.pe, []).append(ev.time)
        elif ev.kind == "handler_end":
            assert stacks.get(ev.pe), f"pe{ev.pe}: end without begin"
            begin = stacks[ev.pe].pop()
            assert ev.time >= begin - 1e-9
    assert not any(stacks.values()), f"unclosed handlers: {stacks}"


def test_mp_merged_trace_is_wellformed_and_walkable():
    m = _run_obs_ring("mp", trace=True)
    tracer = m.tracer
    assert isinstance(tracer, MemoryTracer)
    assert m.trace_merge_error is None
    _assert_wellformed(tracer)
    # Exact event accounting: every PE ran LAPS token handlers + 1 stop.
    begins = tracer.by_kind("handler_begin")
    assert len(begins) == PES * (LAPS + 1)
    # The unchanged analysis pipeline accepts it...
    s = summarize(tracer)
    assert s.total_events == len(tracer.events)
    assert sorted(s.profiles) == list(range(PES))
    # ...and so does the critical-path walker, whose span invariant
    # (exec + msg + wait == span, all non-negative) only holds on a
    # causally consistent timeline.
    cp = critical_path(tracer)
    assert cp.segments, "critical path found no executions"
    bd = cp.breakdown()
    assert all(v >= 0 for v in bd.values()), bd
    assert sum(bd.values()) == pytest.approx(cp.span, rel=1e-6, abs=1e-9)
    assert all(seg.duration >= -1e-9 for seg in cp.segments)


def test_mp_jsonl_spools_merge_and_cli_roundtrip(tmp_path):
    target = tmp_path / "run.jsonl"
    _run_obs_ring("mp", trace=f"jsonl:{target}")
    # The merged single-timeline file plus the distributed evidence.
    assert target.exists()
    spools = [spool_path(target, pe) for pe in range(PES)]
    assert all(os.path.exists(p) for p in spools)
    clock = tmp_path / "run.clock.json"
    assert clock.exists()
    offsets = json.loads(clock.read_text())
    assert sorted(offsets) == [str(pe) for pe in range(PES)]
    # Re-merging the spools through the CLI path reproduces the run.
    merged = merge_spools(spools, clock_file=clock)
    _assert_wellformed(merged)
    from repro.tracing.tracer import load_jsonl

    written = load_jsonl(target)
    assert len(merged.events) == len(written.events)
    # Spool loading alone (one PE, own clock) is already well-formed.
    one = load_spool(spools[0])
    assert all(e.pe == 0 for e in one.events)


def test_mp_count_mode_counts_all_pes():
    m = _run_obs_ring("mp", trace="count")
    assert isinstance(m.tracer, CountingTracer)
    assert m.tracer.total("handler_begin") == PES * (LAPS + 1)
    pes_seen = {pe for (pe, _k) in m.tracer.counts}
    assert pes_seen == set(range(PES))


# ----------------------------------------------------------------------
# off means off
# ----------------------------------------------------------------------
def test_off_machine_has_no_tracer_and_rejects_snapshot():
    m = _run_obs_ring("mp")
    assert m.tracer is None
    with pytest.raises(SimulationError, match="without metrics"):
        m.metrics_snapshot()


def test_worker_off_config_builds_no_instrumentation():
    """The guard-audit satellite, dynamic half: a worker machine built
    with observability off has no tracer, no registry, no receive-side
    metric handles — and its runtime binds the *fast* dispatch variant,
    so the hot path costs zero instrumentation (the static half is the
    source audit in tests/tracing/test_guard_audit.py, which covers
    machine/mp.py like every other src file)."""
    import socket

    from repro.core.runtime import ConverseRuntime
    from repro.machine import mp as mp_mod

    a, b = socket.socketpair()
    try:
        link = mp_mod._WorkerLink(a, 0)
        machine = mp_mod._WorkerMachine(0, link, MachineConfig(2))
        assert machine.tracer is None
        assert machine.metrics is None
        node = machine.node_obj
        assert node._mx_recvs is None and node._mx_recv_bytes is None
        assert not node._delivery_hooks
        rt = ConverseRuntime(node, machine, queue="fifo")
        assert not rt.tracing and not rt.metering
        # The bound method is the class default, not the instrumented one.
        assert rt.invoke_handler.__func__ is not \
            ConverseRuntime._invoke_handler_instrumented
    finally:
        a.close()
        b.close()


def test_worker_on_config_builds_instrumentation():
    import socket

    from repro.machine import mp as mp_mod
    from repro.tracing.tracer import CountingTracer

    a, b = socket.socketpair()
    try:
        link = mp_mod._WorkerLink(a, 0)
        machine = mp_mod._WorkerMachine(
            0, link, MachineConfig(4, trace="count", metrics=True)
        )
        assert isinstance(machine.tracer, CountingTracer)
        assert machine.metrics is not None
        assert machine.node_obj._mx_recvs is not None
        # Residue-class msg-id allocation: PE 0 of 4 mints 4, 8, 12, ...
        assert machine._msg_id_seq == 0 and machine._msg_id_stride == 4
    finally:
        a.close()
        b.close()


# ----------------------------------------------------------------------
# live health & the flight recorder
# ----------------------------------------------------------------------
def test_health_reports_every_pe():
    m = Machine(2, machine_backend="mp", timeout=MP_TIMEOUT,
                health_interval=0.05)
    try:
        m.launch(w.w_burn, 0.5)
        m.run()
        health = m.health()
        assert sorted(health) == [0, 1]
        # Health frames stream during the run; a 0.5 s burn at a 50 ms
        # cadence guarantees several arrived.
        assert any("handlers" in snap for snap in health.values())
        assert m.flight_recorder(), "flight recorder stayed empty"
    finally:
        m.shutdown()


def test_health_shows_arrivals_piling_up_behind_a_stuck_handler():
    """``inbox`` counts what was delivered to the process and not yet
    consumed — including arrivals the main thread has not dispatched —
    so a PE stuck in a compute-only handler reads busy with a backlog."""
    m = Machine(2, machine_backend="mp", timeout=MP_TIMEOUT,
                health_interval=0.05)
    try:
        m.launch(w.w_busy_handler, 0.5)
        m.run()
        assert m.results()[1] == ["a", "b", "c"]
        # b and c arrive while PE 1 is still inside its handler for a.
        stuck = [snap for _t, pe, snap in m.flight_recorder()
                 if pe == 1 and not snap["idle"] and snap["inbox"] == 2]
        assert stuck, m.flight_recorder()
        assert all(snap["timers"] == 0 for snap in stuck)
    finally:
        m.shutdown()


def test_timeout_error_carries_flight_recorder():
    m = Machine(2, machine_backend="mp", timeout=2.0, health_interval=0.05)
    try:
        m.launch(w.w_hang)
        with pytest.raises(SimulationError) as exc:
            m.run()
    finally:
        m.shutdown()
    msg = str(exc.value)
    assert "timed out" in msg
    assert "flight recorder" in msg
    assert "pe0" in msg and "pe1" in msg


def test_rejects_cross_process_instances():
    from repro.metrics.registry import MetricsRegistry
    from repro.tracing.tracer import MemoryTracer

    with pytest.raises(SimulationError, match="registry instances"):
        Machine(2, machine_backend="mp", metrics=MetricsRegistry())
    with pytest.raises(SimulationError, match="process boundaries"):
        Machine(2, machine_backend="mp", trace=MemoryTracer())
    with pytest.raises(SimulationError, match="tracer spec"):
        Machine(2, machine_backend="mp", trace="counting")
