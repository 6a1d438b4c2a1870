"""Real faults for real processes: mp-layer-specific robustness tests.

The parametrized sweeps in ``test_fuzz_workloads.py`` and
``test_ft_crash.py`` run the shared invariants on every machine layer;
this file pins the behaviours only the multiprocess layer has — real
SIGKILLs, structured unscheduled-death reporting, the message-pool
default rule on the mp construction path, and epoch bookkeeping across
a respawn.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import types

import pytest

from repro.core.errors import SimulationError, WorkerDied
from repro.ft.config import FTConfig
from repro.machine.base import (
    machine_backend_available,
    machine_backend_unavailable_reason,
)
from repro.sim.machine import Machine
from repro.machine.faults import CrashSpec, FaultPlan

from tests.faults import workers_mp

pytestmark = [
    pytest.mark.skipif(
        not machine_backend_available("mp"),
        reason=f"mp layer unavailable: {machine_backend_unavailable_reason('mp')}",
    ),
]

MP_TIMEOUT = 120.0


def test_unscheduled_worker_death_is_structured():
    """A worker dying outside any crash schedule (torn socket / EOF)
    must degrade into a ``WorkerDied`` carrying the PE id and
    flight-recorder evidence — not an opaque ``SimulationError``."""
    m = Machine(3, machine_backend="mp", timeout=MP_TIMEOUT)
    m.launch(workers_mp.w_suicide, 1)
    with pytest.raises(WorkerDied) as exc_info:
        m.run()
    err = exc_info.value
    assert err.pe == 1
    assert isinstance(err, SimulationError)  # stays catchable as before
    msg = str(err)
    assert "died unexpectedly" in msg
    # The flight recorder names every PE's last health snapshot.
    assert "pe0:" in msg and "pe2:" in msg
    m.shutdown()


def test_sigkill_midrun_recovers_to_fault_free_results():
    """The acceptance crash: SIGKILL a real worker process mid-run; the
    heartbeat ring detects it, the hub respawns a fresh process, and
    buddy-checkpoint recovery finishes with application results
    identical to a fault-free run."""
    rounds = 40
    expected = [
        list(range(1, 2 * rounds, 2)),  # PE 0 sees the odd balls
        list(range(0, 2 * rounds, 2)),  # PE 1 the even ones
    ]

    # Fault-free baseline on the same layer.
    m = Machine(2, machine_backend="mp", reliable=True, ft=FTConfig(),
                metrics=True, timeout=MP_TIMEOUT)
    m.launch(workers_mp.w_ft_pingpong, rounds, 8, 0.002)
    m.run()
    baseline = m.results()
    m.shutdown()
    assert baseline == expected

    # Same workload, now with a real mid-run SIGKILL + respawn.
    plan = FaultPlan(seed=11, drop=0.05, duplicate=0.05,
                     crashes=[CrashSpec(pe=1, at=0.12, restart_after=0.05)])
    m = Machine(2, machine_backend="mp", faults=plan, reliable=True,
                ft=FTConfig(), metrics=True, timeout=MP_TIMEOUT)
    m.launch(workers_mp.w_ft_pingpong, rounds, 8, 0.002)
    assert m.run() == "quiescent"
    crashed = m.results()
    assert crashed == baseline == expected
    # Epoch bookkeeping: PE 1 really was respawned (restart-with-amnesia
    # bumps the incarnation number); PE 0 never died.
    assert m._epochs[1] >= 1
    assert m._epochs[0] == 0
    m.shutdown()
    met = m.metrics_snapshot()
    assert met["ft.recoveries"]["total"] >= 1


def test_permanent_crash_detected_and_drains():
    """A SIGKILL with no restart: survivors must fire the down verdict
    and the machine must still drain to quiescence instead of
    retransmitting into the dead PE forever."""
    plan = FaultPlan(seed=5,
                     crashes=[CrashSpec(pe=1, at=0.08, restart_after=None)])
    m = Machine(2, machine_backend="mp", faults=plan, reliable=True,
                ft=FTConfig(), metrics=True, timeout=MP_TIMEOUT)
    # Long enough that the crash lands mid-run (~0.48 s of sleeps).
    m.launch(workers_mp.w_ft_pingpong, 120, 8, 0.004)
    assert m.run() == "quiescent"
    m.shutdown()
    met = m.metrics_snapshot()
    assert met["ft.failures_detected"]["total"] >= 1
    assert met.get("ft.recoveries", {}).get("total", 0) == 0


def test_mp_pool_default_rule():
    """Satellite: the simulator's knob-resolution rule applies on the mp
    construction path too — pooling defaults *off* under an unreliable
    fault plan (fault-injected payloads outlive the handler via
    duplicates/delays), stays on otherwise, and an explicit pool=True
    always wins."""
    plan = FaultPlan(seed=1, drop=0.2, duplicate=0.15)

    m = Machine(2, machine_backend="mp")
    assert m.msg_pooling is True
    m.shutdown()

    m = Machine(2, machine_backend="mp", faults=plan)  # unreliable faults
    assert m.msg_pooling is False
    m.shutdown()

    m = Machine(2, machine_backend="mp", faults=plan, reliable=True)
    assert m.msg_pooling is True
    m.shutdown()

    m = Machine(2, machine_backend="mp", faults=plan, pool=True)
    assert m.msg_pooling is True
    m.shutdown()


def test_the_hub_adds_no_thread():
    """One thread owns the hub: under a plan that delays, duplicates and
    reorders (frames parked on the hub's deadline heap), the parent runs
    no thread beyond the caller's — during run() or after it."""
    plan = FaultPlan(seed=3, delay=0.3, duplicate=0.2, reorder=0.3,
                     delay_max=5e-3, reorder_max=5e-3)
    before = threading.active_count()
    peak = [0]
    stop = threading.Event()

    def sample():
        while not stop.is_set():
            peak[0] = max(peak[0], threading.active_count())
            time.sleep(0.0005)

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    m = Machine(4, machine_backend="mp", faults=plan, reliable=True,
                timeout=MP_TIMEOUT)
    try:
        m.launch(workers_mp.w_fuzz_pingpong, 8)
        assert m.run() == "quiescent"
        after = threading.active_count()
    finally:
        stop.set()
        sampler.join()
        m.shutdown()
    # The sampler is the one thread allowed beyond the count before.
    assert peak[0] <= before + 1
    assert after <= before + 1


def _ephemeral_main(monkeypatch):
    """A main whose module exists only in this process's ``sys.modules``:
    a forked worker inherits it, a spawned one cannot import it."""
    name = f"repro_ephemeral_{os.getpid()}"
    mod = types.ModuleType(name)
    exec("import time\n"
         "def main(seconds):\n"
         "    time.sleep(seconds)\n", mod.__dict__)
    monkeypatch.setitem(sys.modules, name, mod)
    return mod.main


def test_worker_dying_before_hello_fails_the_first_boot_at_once(monkeypatch):
    m = Machine(2, machine_backend="mp", timeout=60.0, start_method="spawn")
    try:
        m.launch(_ephemeral_main(monkeypatch), 0.0)
        t0 = time.monotonic()
        with pytest.raises(SimulationError) as exc:
            m.run()
        assert time.monotonic() - t0 < 5.0
    finally:
        m.shutdown()
    msg = str(exc.value)
    assert "epoch 0" in msg and "exited with code 1 before its hello" in msg
    assert "on PE 0" in msg or "on PE 1" in msg


def test_respawn_dying_before_hello_fails_the_run_at_once(monkeypatch):
    plan = FaultPlan(seed=2,
                     crashes=[CrashSpec(pe=1, at=0.1, restart_after=0.05)])
    m = Machine(2, machine_backend="mp", faults=plan, reliable=True,
                ft=FTConfig(), timeout=60.0)
    try:
        m.launch(_ephemeral_main(monkeypatch), 2.0)
        t0 = time.monotonic()
        with pytest.raises(SimulationError) as exc:
            m.run()
        assert time.monotonic() - t0 < 5.0
    finally:
        m.shutdown()
    msg = str(exc.value)
    assert "on PE 1" in msg
    assert "epoch 1" in msg and "exited with code 1 before its hello" in msg
