"""The CMI contract battery, run identically against every machine layer.

Each test makes *portable* assertions only — nothing about virtual time,
delivery interleaving beyond what the MMI guarantees, or layer
internals.  A layer that passes this file "speaks CMI".
"""

from __future__ import annotations

import pytest

from repro import CrashSpec, FaultPlan, FTConfig
from repro.sim.machine import Machine

from tests.faults import workers_mp
from tests.machine.conformance import workers as w
from tests.machine.conformance.conftest import MP_TIMEOUT

pytestmark = pytest.mark.conformance


def test_handler_dispatch_by_index(spmd):
    results = spmd(2, w.w_handler_dispatch)
    assert results[0] is None
    assert sorted(results[1]["a"]) == [b"for-a", b"for-a-2"]
    assert results[1]["b"] == [b"for-b"]


def test_pingpong_round_trips(spmd):
    assert spmd(2, w.w_pingpong, 10, 64) == [10, 10]


def test_pingpong_large_payload(spmd):
    assert spmd(2, w.w_pingpong, 3, 256 * 1024) == [3, 3]


def test_multi_sender_delivery_multiset(spmd):
    # The MMI guarantees delivery of every message, not an order; the
    # received multiset must equal the union of the sent multisets.
    results = spmd(4, w.w_multi_sender, 5)
    sent = sorted(x for sender in results[1:] for x in sender)
    assert results[0] == sent
    assert len(sent) == 15


def test_broadcast_reaches_everyone_else(spmd):
    # CmiSyncBroadcast: N-1 copies, none at the root — and the root does
    # not block (it returns without ever entering the scheduler).
    assert spmd(4, w.w_broadcast, False) == [0, 1, 1, 1]


def test_broadcast_all_includes_root(spmd):
    assert spmd(4, w.w_broadcast, True) == [1, 1, 1, 1]


def test_self_send_loops_back(spmd):
    results = spmd(3, w.w_self_send)
    assert results == [(pe, b"to-myself") for pe in range(3)]


def test_send_out_of_range_is_refused(spmd):
    """Every send path (on mp, the by-value one too) checks the target
    before it counts or sends anything."""
    refused = ("destination PE 2 out of range [0, 2)", 0)
    assert spmd(2, w.w_send_out_of_range) == [refused, refused]


def test_async_send_handle_completion(spmd):
    results = spmd(2, w.w_async_send, 5)
    assert results[0] == {"count": 5, "done_at_reply": True}
    assert results[1] == 5


def test_quiescence_with_no_traffic(spmd):
    assert spmd(4, w.w_quiescence_idle, 100) == [100, 101, 102, 103]


def test_quiescence_after_ring_traffic(spmd):
    results = spmd(3, w.w_quiescence_ring, 4)
    assert sum(results) == 12  # every hop counted exactly once


def test_quiescence_waits_for_timers(spmd):
    # A pending Ccd callback is work; detecting quiescence before it
    # fires would be a protocol bug on any layer.
    assert spmd(2, w.w_ccd_timer) == [1, 0]


def test_immediate_messages_delivered(spmd):
    assert spmd(2, w.w_immediate, 5) == [None, 5]


def test_set_handler_retargets_dispatch(spmd):
    assert spmd(2, w.w_set_handler_retarget) == [None, ["b"]]


def test_printf_lines(machine_backend):
    kwargs = {"timeout": MP_TIMEOUT} if machine_backend == "mp" else {}
    machine = Machine(3, machine_backend=machine_backend, **kwargs)
    try:
        machine.launch(w.w_printf, "conform")
        machine.run()
        assert machine.results() == [0, 1, 2]
        assert sorted(machine.console.lines()) == [
            f"conform from pe {pe} of 3\n" for pe in range(3)
        ]
    finally:
        machine.shutdown()


def test_run_returns_quiescent(machine_backend):
    kwargs = {"timeout": MP_TIMEOUT} if machine_backend == "mp" else {}
    machine = Machine(2, machine_backend=machine_backend, **kwargs)
    try:
        machine.launch(w.w_quiescence_idle, 0)
        assert machine.run() == "quiescent"
    finally:
        machine.shutdown()


def test_shutdown_hygiene(machine_backend):
    # Shutdown is idempotent, safe before run(), and leaves no threads
    # behind (the autouse no_thread_leaks fixture enforces the latter).
    kwargs = {"timeout": MP_TIMEOUT} if machine_backend == "mp" else {}
    m = Machine(2, machine_backend=machine_backend, **kwargs)
    m.shutdown()
    m.shutdown()

    m2 = Machine(2, machine_backend=machine_backend, **kwargs)
    try:
        m2.launch(w.w_quiescence_idle, 0)
        m2.run()
    finally:
        m2.shutdown()
    m2.shutdown()


def test_context_manager(machine_backend):
    kwargs = {"timeout": MP_TIMEOUT} if machine_backend == "mp" else {}
    with Machine(2, machine_backend=machine_backend, **kwargs) as m:
        m.launch(w.w_quiescence_idle, 7)
        m.run()
        assert m.results() == [7, 8]


def test_results_keep_one_slot_per_main_across_crash_restart(machine_backend):
    # A restarted PE's main takes the dead incarnation's slot: results()
    # stays one entry per launched main, in launch order.  CrashSpec
    # times are virtual seconds on sim and wall-clock seconds on mp
    # (where a handler sleep keeps the run alive past the crash).
    crash, sleep_s, kwargs = {
        "sim": (CrashSpec(1, 400e-6, 250e-6), 0.0, {}),
        "mp": (CrashSpec(1, 0.1, 0.05), 0.002, {"timeout": MP_TIMEOUT}),
    }[machine_backend]
    rounds = 60
    with Machine(2, machine_backend=machine_backend, reliable=True,
                 ft=FTConfig(), faults=FaultPlan(0, crashes=[crash]),
                 metrics=True, **kwargs) as m:
        m.launch(workers_mp.w_ft_pingpong, rounds, 8, sleep_s)
        m.run()
        results = m.results()
    assert m.metrics_snapshot()["ft.recoveries"]["total"] == 1  # crash landed mid-run
    assert len(results) == m.num_pes
    assert results == [list(range(1, 2 * rounds, 2)), list(range(0, 2 * rounds, 2))]
