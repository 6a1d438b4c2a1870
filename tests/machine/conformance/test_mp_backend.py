"""Multiprocess-layer specifics: things the contract battery cannot
express portably — real parallelism, wall-clock timeouts, worker-crash
propagation, and scope fencing of simulator-only calls."""

from __future__ import annotations

import os
import time

import pytest

from repro.core.errors import SimulationError, WorkerDied
from repro.machine.base import (
    machine_backend_available,
    machine_backend_unavailable_reason,
)
from repro.sim.machine import Machine

from tests.machine.conformance import workers as w

pytestmark = [
    pytest.mark.conformance,
    pytest.mark.skipif(
        not machine_backend_available("mp"),
        reason=f"mp layer unavailable: {machine_backend_unavailable_reason('mp')}",
    ),
]


def test_measured_parallelism():
    """ISSUE acceptance: pingpong-style programs on the mp layer must
    actually use more than one core.  CPU-burning mains on 2 PEs must
    accumulate measurably more CPU time than the wall clock — only
    possible with real (not time-sliced GIL) concurrency."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs >= 2 cores to demonstrate parallelism")
    burn = 0.4
    m = Machine(2, machine_backend="mp", timeout=60.0)
    try:
        m.launch(w.w_burn, burn)
        t0 = time.monotonic()
        m.run()
        wall = time.monotonic() - t0
        assert m.results() == [0, 1]
        m.shutdown()  # workers report CPU totals on shutdown
        cpu = sum(m.worker_cpu_seconds().values())
        # 2 PEs x burn seconds of pure CPU; utilization strictly above
        # one core proves >1 core ran simultaneously.
        assert cpu >= 2 * burn
        assert cpu / wall > 1.2, f"cpu={cpu:.2f}s wall={wall:.2f}s"
    finally:
        m.shutdown()


def test_hang_hits_timeout_and_cleans_up():
    m = Machine(2, machine_backend="mp", timeout=3.0)
    try:
        m.launch(w.w_hang)
        with pytest.raises(SimulationError, match="timed out"):
            m.run()
    finally:
        m.shutdown()
    # run() already shut the machine down; every worker process is gone.
    assert all(not p.is_alive() for p in m._procs)


def test_worker_exception_propagates():
    m = Machine(2, machine_backend="mp", timeout=30.0)
    try:
        m.launch(w.w_raise, 1)
        with pytest.raises(SimulationError, match="deliberate worker failure"):
            m.run()
    finally:
        m.shutdown()


def test_a_main_failing_at_once_is_reported_as_its_own_error():
    """A main that raises before the other PE has said hello sends its
    result and exits; the hub holds that result until every hello is in,
    and the worker's EOF must queue behind it instead of overtaking it
    as a ``WorkerDied``."""
    for _ in range(30):
        m = Machine(2, machine_backend="mp", timeout=30.0)
        try:
            m.launch(w.w_raise, 0)
            with pytest.raises(SimulationError) as exc:
                m.run()
        finally:
            m.shutdown()
        assert not isinstance(exc.value, WorkerDied), str(exc.value)
        assert "deliberate worker failure" in str(exc.value)


def test_single_run_per_machine():
    m = Machine(2, machine_backend="mp", timeout=30.0)
    try:
        m.launch(w.w_quiescence_idle, 0)
        m.run()
        with pytest.raises(SimulationError, match="single run"):
            m.run()
    finally:
        m.shutdown()


def test_late_launch_rejected():
    m = Machine(2, machine_backend="mp", timeout=30.0)
    try:
        m.launch(w.w_quiescence_idle, 0)
        m.run()
        with pytest.raises(SimulationError, match="launches before run"):
            m.launch(w.w_quiescence_idle, 0)
    finally:
        m.shutdown()


def test_virtual_time_horizons_rejected():
    m = Machine(2, machine_backend="mp", timeout=30.0)
    try:
        m.launch(w.w_quiescence_idle, 0)
        with pytest.raises(SimulationError, match="virtual-time"):
            m.run(until=1.0)
    finally:
        m.shutdown()


def test_unpicklable_launch_args_rejected_eagerly():
    m = Machine(2, machine_backend="mp", timeout=30.0)
    try:
        with pytest.raises(SimulationError, match="picklable"):
            m.launch(w.w_quiescence_idle, lambda: None)
    finally:
        m.shutdown()


def test_launch_schedulers_with_stop_broadcast():
    """The implicit control regime: every PE sits in a scheduler loop;
    a single launched main drives them all down via the ring worker."""
    m = Machine(2, machine_backend="mp", timeout=30.0)
    try:
        m.launch(w.w_quiescence_ring, 2)
        m.run()
        assert sum(m.results()) == 4
    finally:
        m.shutdown()


def test_results_before_run_raises():
    m = Machine(2, machine_backend="mp", timeout=30.0)
    try:
        m.launch(w.w_quiescence_idle, 0)
        with pytest.raises(SimulationError, match="has not finished"):
            m.results()
    finally:
        m.shutdown()


# ----------------------------------------------------------------------
# one thread owns a PE
# ----------------------------------------------------------------------
def _run_mp(worker, *args, **kwargs):
    kwargs.setdefault("timeout", 30.0)
    m = Machine(2, machine_backend="mp", **kwargs)
    try:
        m.launch(worker, *args)
        m.run()
        return m, m.results()
    finally:
        m.shutdown()


def test_everything_on_a_pe_runs_on_its_main_thread():
    """Handlers, immediate handlers, Ccd callbacks, arrival interceptors
    and delivery hooks all run on the PE's main thread — and arming
    timers starts no thread."""
    _m, (_, seen) = _run_mp(w.w_thread_affinity, 32, reliable=True)
    main = seen["main"]
    for kind in ("handler", "immediate", "ccd", "interceptor", "hook"):
        assert seen[kind] == [main], (kind, seen)
    before, after = seen["threads"]
    assert before == after


def test_a_worker_runs_two_threads():
    """The main thread reads its own socket: beside it runs only the
    health reporter."""
    _m, results = _run_mp(w.w_thread_count)
    assert results == [2, 2]


def test_arrival_order_holds_when_an_immediate_handler_polls():
    count = 20
    _m, (_, (got, inside)) = _run_mp(w.w_reentrant_immediate, count)
    assert got == list(range(count))
    assert len(inside) == 1 and inside[0] > 0, inside


def test_progress_rule_delayed_acks_are_retransmitted_and_deduplicated():
    """Protocol work happens when the PE is inside the runtime: a
    compute-only handler on the receiver delays its acks, the sender
    (parked after its main returned) retransmits, and every
    retransmission is dropped as a duplicate — nothing lost, nothing
    reordered, nobody gives up."""
    m, (_, got) = _run_mp(w.w_busy_handler, 0.4, reliable=True, metrics=True)
    assert got == ["a", "b", "c"]
    snap = m.metrics_snapshot()
    assert snap["rel.retransmits"]["total"] > 0
    assert snap["rel.dups_dropped"]["total"] == snap["rel.retransmits"]["total"]


def test_reliable_pingpong_forwards_no_ack_frame_per_data_frame():
    """Acks ride the reverse data: the hub forwards 2N + 2 frames for N
    reliable round trips (2N + 1 data frames and one final standalone
    ack), not one ack frame per data frame."""
    rounds = 100
    m, results = _run_mp(w.w_pingpong, rounds, 8, reliable=True)
    assert results == [rounds, rounds]
    assert sum(h["forwarded"] for h in m.health().values()) <= 2 * rounds + 2


def test_timer_armed_by_a_returned_main_fires_while_parked():
    delay = 0.2
    t0 = time.monotonic()
    _m, results = _run_mp(w.w_timer_then_return, delay, timeout=10.0)
    # Quiescence needs zero armed timers on every PE: reaching it means
    # the parked PEs fired theirs, and not before they were due.
    assert results == [0, 1]
    assert time.monotonic() - t0 >= delay


@pytest.mark.parametrize("worker, args, text", [
    (w.w_raise_in_ccd, (), "deliberate Ccd failure"),
    (w.w_raise_in_immediate, (False,), "deliberate immediate failure"),
    (w.w_raise_in_immediate, (True,), "deliberate immediate failure"),
], ids=["ccd", "immediate", "immediate-parked"])
def test_raising_callback_fails_the_run_with_pe_and_traceback(worker, args, text):
    m = Machine(2, machine_backend="mp", timeout=20.0)
    try:
        m.launch(worker, *args)
        t0 = time.monotonic()
        with pytest.raises(SimulationError) as exc:
            m.run()
        assert time.monotonic() - t0 < 10.0
    finally:
        m.shutdown()
    msg = str(exc.value)
    assert "PE 1" in msg and "Traceback" in msg and text in msg


def test_undecodable_frame_fails_the_run_with_evidence():
    """A payload that pickles but will not unpickle used to kill the
    reader thread silently and hang the run until ``timeout=``."""
    m = Machine(2, machine_backend="mp", timeout=20.0)
    try:
        m.launch(w.w_send_reduce_bomb)
        t0 = time.monotonic()
        with pytest.raises(SimulationError) as exc:
            m.run()
        assert time.monotonic() - t0 < 10.0
    finally:
        m.shutdown()
    msg = str(exc.value)
    assert "could not decode a frame from PE 0" in msg
    assert "payload refuses to unpickle" in msg


def test_worker_receiver_reports_an_undecodable_frame():
    import socket

    from repro.machine import mp as mp_mod
    from repro.machine.base import MachineConfig

    a, b = socket.socketpair()
    try:
        link = mp_mod._WorkerLink(a, 1)
        node = mp_mod._WorkerMachine(1, link, MachineConfig(2)).node_obj
        body = b"not a pickle"
        b.sendall(mp_mod._LEN.pack(len(body)) + body)
        b.settimeout(5.0)
        assert node.poll() is None
        assert link.stop.is_set()
        [(kind, why)] = mp_mod._decode(bytearray(b.recv(1 << 16)))
        assert kind == "fatal"
        assert "PE 1 could not decode a frame" in why and "Traceback" in why
        assert not node.inbox
    finally:
        a.close()
        b.close()


def test_decode_keeps_the_frames_before_an_undecodable_one():
    """A worker's hello and an undecodable frame can share one read; the
    hub must still greet the worker, or the failure names PE None."""
    from repro.machine import mp as mp_mod

    bomb = mp_mod._encode(w.ReduceBomb())
    buf = bytearray(mp_mod._encode(("hello", 0)) + bomb)
    frames = []
    with pytest.raises(RuntimeError, match="refuses to unpickle"):
        mp_mod._decode(buf, frames)
    assert frames == [("hello", 0)]
    assert buf == bomb
