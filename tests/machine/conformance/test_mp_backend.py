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


@pytest.mark.parametrize("where", ["handler", "main"])
def test_a_send_held_behind_arrivals_leaves_during_a_long_compute(where):
    """A send made while an arrival waits is held, but not for the
    computation that follows it: the frame leaves within a switch
    interval, not when the sender next enters the runtime."""
    busy = 0.5
    _m, (got, (waiting, sent, done)) = _run_mp(w.w_send_then_compute, busy, where)
    assert waiting == 1  # the send was made with ``b`` queued behind it
    assert done - sent >= busy
    assert got - sent < busy / 2, (got - sent, done - sent)


def test_peers_flooding_each_other_before_receiving_do_not_deadlock():
    """Each PE sends the other 32 x 1 MiB from its main before either
    receives: far more than a socket buffer holds.  A send never blocks
    on a peer — what the socket does not take waits in that peer's
    queue — so both mains get through and every payload arrives."""
    t0 = time.monotonic()
    _m, results = _run_mp(w.w_cross_flood, 32, 1 << 20, timeout=30.0)
    assert results == [True, True], time.monotonic() - t0


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
    """Acks ride the reverse data: for N reliable round trips the PEs send
    each other 2N + 1 data frames, their retransmits and standalone acks,
    and one raw frame that ends the run; every standalone ack is one the
    delayed-ack timer flushed or one answering a duplicate or
    out-of-order arrival, so none is sent per data frame.  A stalled
    worker may add retransmits and timer acks, never unexplained frames."""
    rounds = 100
    m, results = _run_mp(w.w_reliable_pingpong_stats, rounds, reliable=True)
    assert [count for count, _ in results] == [rounds, rounds]
    total = {k: sum(stats[k] for _, stats in results) for k in results[0][1]}
    assert total["data_sent"] == 2 * rounds + 1
    frames = sum(h["forwarded"] for h in m.health().values())
    assert frames == (total["data_sent"] + total["retransmits"]
                      + total["acks_sent"] + 1), (frames, total)
    assert total["acks_sent"] <= (total["acks_delayed"] + total["dup_dropped"]
                                  + total["held_out_of_order"]), total


def test_an_mp_runtime_has_no_pool():
    """A CMI send on mp is framed from the caller's message, so no PE
    has a pool of wire copies, plain, traced or reliable
    (``test_mp_pool_default_rule`` covers fault plans)."""
    for kwargs in ({}, {"trace": "count"}, {"reliable": True}):
        _m, results = _run_mp(w.w_pool, 20, **kwargs)
        assert results == [(20, None), (20, None)], kwargs


def test_two_machines_alive_at_once_name_their_sockets_apart():
    """A machine names its sockets in a private directory of its own: a
    second machine runs while the first one's workers still listen, and
    shutdown() removes each directory."""
    machines = [Machine(2, machine_backend="mp", timeout=30.0) for _ in range(2)]
    try:
        for m in machines:
            m.launch(w.w_pingpong, 20, 8)
            assert m.run() == "quiescent"
        assert [m.results() for m in machines] == [[20, 20], [20, 20]]
        assert machines[0]._base != machines[1]._base
        for m in machines:
            assert sorted(os.listdir(m._base)) == ["0.0", "1.0", "hub"]
    finally:
        for m in machines:
            m.shutdown()
    assert not any(os.path.exists(m._base) for m in machines)


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


def test_a_run_failing_before_every_hello_stops_promptly(monkeypatch):
    """PE 1 boots late, so PE 0's undecodable result fails the run in
    the hub before PE 1 ever connects: shutdown must stop the unconnected
    worker, not wait out its drain grace while it retries a closed
    listener.  (A data frame would not do: the hub relays it unread, and
    holds it for its destination's hello.)"""
    from repro.machine import mp

    if mp._first_boot_method() != "fork":
        pytest.skip("the late-boot patch reaches only a forked worker")
    boot = mp._worker_main

    def late_pe1(pe, *args):
        if pe == 1:
            time.sleep(0.5)
        return boot(pe, *args)

    monkeypatch.setattr(mp, "_worker_main", late_pe1)
    m = Machine(2, machine_backend="mp", timeout=20.0)
    try:
        m.launch(w.w_return_reduce_bomb)
        t0 = time.monotonic()
        with pytest.raises(SimulationError, match="could not decode"):
            m.run()
        assert time.monotonic() - t0 < 5.0
    finally:
        m.shutdown()


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
