"""Seed-sweep plumbing for the schedule-fuzzing harness.

Any test in this package taking a ``fault_seed`` argument is parametrized
over ``range(--seeds)`` (default 25, see ``tests/conftest.py``).  Each
seed names one fully deterministic hostile schedule: to reproduce a CI
failure locally, run the failing test id — the seed in its parametrized
name is the entire repro.

Tests taking a ``sim_backend`` argument are additionally parametrized
over every tasklet switch that imports here (always ``thread``; also
``greenlet`` when the ``repro[fast]`` extra is present), set through the
engine's ``TASKLET_CLASS`` seam, so the whole hostile sweep doubles as a
cross-switch equivalence check.

Tests taking a ``machine_backend`` argument run once per *registered*
machine layer (unavailable layers appear as explicit skips, never as a
silently shrinking matrix).  The mp legs run a reduced seed sweep
(``MP_SWEEP_SEEDS`` — real processes per run) and assert delivery /
conservation / recovery *invariants* rather than the simulator's
byte-identical traces: real sockets and real SIGKILLs do not replay
deterministically.
"""

from __future__ import annotations

import pytest

from repro.machine.base import (
    MACHINE_LAYERS,
    machine_backend_unavailable_reason,
)
from repro.sim import engine
from tests.faults.harness import SWITCHES

#: how many of the sweep's seeds the mp legs run (each is a full
#: multi-process machine boot).
MP_SWEEP_SEEDS = 3

#: wall-clock ceiling per mp run — hitting it means a hang, not a slow
#: machine.
MP_TIMEOUT = 120.0


def mp_sweep_guard(machine_backend, fault_seed, sim_backend="thread"):
    """Skip the mp legs the reduced sweep does not cover: seeds past the
    cap, and all tasklet switches but the first (an mp worker runs no
    tasklets, so the legs would be repeats)."""
    if machine_backend != "mp":
        return
    if fault_seed >= MP_SWEEP_SEEDS:
        pytest.skip(f"mp legs run a reduced {MP_SWEEP_SEEDS}-seed sweep "
                    "(one real process per PE per run)")
    if sim_backend != "thread":
        pytest.skip("mp workers run no tasklets; the thread leg covers "
                    "the tasklet switches")


def _machine_backend_params():
    params = []
    for name in MACHINE_LAYERS:
        reason = machine_backend_unavailable_reason(name)
        marks = (
            [pytest.mark.skip(
                reason=f"machine layer {name!r} unavailable: {reason}")]
            if reason else []
        )
        params.append(pytest.param(name, marks=marks, id=name))
    return params


def pytest_generate_tests(metafunc):
    if "fault_seed" in metafunc.fixturenames:
        n = metafunc.config.getoption("--seeds")
        metafunc.parametrize("fault_seed", range(n))
    if "sim_backend" in metafunc.fixturenames:
        metafunc.parametrize("sim_backend", SWITCHES, indirect=True,
                             ids=[cls.switch for cls in SWITCHES])
    if "machine_backend" in metafunc.fixturenames:
        metafunc.parametrize("machine_backend", _machine_backend_params())


@pytest.fixture
def sim_backend(request, monkeypatch):
    """Build the test's simulator machines on the parametrized tasklet
    class; the value is the switch's name."""
    monkeypatch.setattr(engine, "TASKLET_CLASS", request.param)
    return request.param.switch


def pytest_collection_modifyitems(items):
    for item in items:
        if "/tests/faults/" in str(item.fspath).replace("\\", "/"):
            item.add_marker(pytest.mark.faults)
