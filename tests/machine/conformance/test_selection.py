"""Machine-layer registry and selection semantics.

These tests pin the selection contract itself: default, env override,
explicit argument, unknown-name and unavailable-layer errors, and the
``Machine(machine_backend=...)`` dispatch — mirroring the simulator's
``REPRO_SIM_BACKEND`` switching idiom.
"""

from __future__ import annotations

import pytest

from repro.core.errors import SimulationError, TraceSpecError
from repro.core.scheduler import CSD_BATCH
from repro.machine.base import (
    DEFAULT_MACHINE_BACKEND,
    MACHINE_BACKEND_ENV_VAR,
    MACHINE_LAYERS,
    MachineConfig,
    available_machine_backends,
    create_machine,
    machine_backend_available,
    machine_backend_unavailable_reason,
    machine_layer_class,
    resolve_machine_backend,
)
from repro.sim.machine import Machine
from repro.sim.network import FaultPlan

from tests.machine.conformance import workers as w

pytestmark = pytest.mark.conformance

mp_only = pytest.mark.skipif(
    not machine_backend_available("mp"),
    reason=f"mp layer unavailable: {machine_backend_unavailable_reason('mp')}",
)


def test_sim_is_registered_and_default():
    assert "sim" in MACHINE_LAYERS
    assert DEFAULT_MACHINE_BACKEND == "sim"
    assert machine_backend_available("sim")
    assert "sim" in available_machine_backends()


def test_mp_is_registered():
    assert "mp" in MACHINE_LAYERS


def test_resolve_default(monkeypatch):
    monkeypatch.delenv(MACHINE_BACKEND_ENV_VAR, raising=False)
    assert resolve_machine_backend(None) == "sim"


def test_resolve_env_override(monkeypatch):
    monkeypatch.setenv(MACHINE_BACKEND_ENV_VAR, "sim")
    assert resolve_machine_backend(None) == "sim"


@mp_only
def test_resolve_env_override_mp(monkeypatch):
    monkeypatch.setenv(MACHINE_BACKEND_ENV_VAR, "mp")
    assert resolve_machine_backend(None) == "mp"
    # An explicit argument beats the environment.
    assert resolve_machine_backend("sim") == "sim"


def test_resolve_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown machine backend"):
        resolve_machine_backend("vapor")


def test_resolve_env_unknown_name_raises(monkeypatch):
    monkeypatch.setenv(MACHINE_BACKEND_ENV_VAR, "vapor")
    with pytest.raises(ValueError, match="unknown machine backend"):
        resolve_machine_backend(None)


def test_resolve_rejects_non_string():
    with pytest.raises(ValueError):
        resolve_machine_backend(7)


def test_machine_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown machine backend"):
        Machine(2, machine_backend="vapor")


def test_machine_explicit_sim_is_sim():
    m = Machine(2, machine_backend="sim")
    try:
        assert type(m) is Machine
        assert m.machine_backend_name == "sim"
    finally:
        m.shutdown()


def test_machine_default_is_sim(monkeypatch):
    monkeypatch.delenv(MACHINE_BACKEND_ENV_VAR, raising=False)
    m = Machine(2)
    try:
        assert m.machine_backend_name == "sim"
    finally:
        m.shutdown()


def test_machine_layer_class_loads():
    assert machine_layer_class("sim") is Machine


def test_create_machine_builds_sim():
    m = create_machine(2, machine_backend="sim")
    try:
        assert m.machine_backend_name == "sim"
    finally:
        m.shutdown()


@mp_only
def test_machine_dispatches_to_mp():
    from repro.machine.mp import MpMachine

    # Construction is cheap — worker processes only start at run().
    m = Machine(2, machine_backend="mp")
    try:
        assert type(m) is MpMachine
        assert isinstance(m, Machine) is False
        assert m.machine_backend_name == "mp"
        assert m.num_pes == 2
    finally:
        m.shutdown()  # safe before run()


@mp_only
def test_machine_env_dispatches_to_mp(monkeypatch):
    from repro.machine.mp import MpMachine

    monkeypatch.setenv(MACHINE_BACKEND_ENV_VAR, "mp")
    m = Machine(2)
    try:
        assert type(m) is MpMachine
    finally:
        m.shutdown()


@mp_only
@pytest.mark.parametrize(
    "kwargs",
    [
        {"aggregation": True},
        {"backend": "greenlet"},
    ],
    ids=lambda kw: next(iter(kw)),
)
def test_mp_rejects_simulator_only_features(kwargs):
    # trace=/metrics= and faults=/reliable=/ft= are *not* in this list:
    # the mp layer supports them first-class (per-PE spools and
    # registries; hub-level fault injection, in-worker reliable/ft) —
    # see test_observability.py and tests/faults/.
    with pytest.raises(SimulationError, match="simulator-only"):
        Machine(2, machine_backend="mp", **kwargs)


@mp_only
def test_mp_accepts_simulator_only_features_at_off_defaults():
    m = Machine(
        2, machine_backend="mp",
        trace=False, metrics=False, faults=None, reliable=False,
        aggregation=False, ft=False, backend=None,
    )
    m.shutdown()


@mp_only
def test_mp_validates_fault_arguments():
    # faults= takes a FaultPlan (same message as the simulator layer);
    # ft= still requires the reliable-delivery layer underneath.
    with pytest.raises(SimulationError, match="FaultPlan"):
        Machine(2, machine_backend="mp", faults=object())
    with pytest.raises(SimulationError, match="reliable"):
        Machine(2, machine_backend="mp", ft=True)


@mp_only
def test_mp_constructs_with_faults_reliable_ft():
    from repro.ft.config import FTConfig
    from repro.sim.network import FaultPlan

    m = Machine(
        2, machine_backend="mp",
        faults=FaultPlan(seed=3, drop=0.05), reliable=True, ft=FTConfig(),
    )
    try:
        assert m.fault_plan is not None
        # Socket-scale floors applied to the shipped configs.
        assert m.config.reliable.rto >= 0.02
        assert m.config.ft.heartbeat_period >= 0.025
    finally:
        m.shutdown()


@mp_only
def test_mp_rejects_callable_queue():
    # The simulator accepts scheduler-queue factories; the mp layer only
    # takes the named strategies it can ship to a worker process.
    with pytest.raises(SimulationError):
        Machine(2, machine_backend="mp", queue=lambda: None)


# ----------------------------------------------------------------------
# construction contract: one MachineConfig validates for every layer, so
# a bad argument fails the same way whichever layer it was meant for
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs, exc, phrase",
    [
        ({"num_pes": 0}, SimulationError, "at least one PE"),
        ({"faults": object()}, SimulationError, "FaultPlan"),
        ({"ft": True}, SimulationError, "requires the reliable-delivery"),
        ({"trace": "counting"}, TraceSpecError, "unknown tracer spec"),
        ({"bogus": 1}, TypeError, "unexpected keyword argument 'bogus'"),
    ],
    ids=["num_pes", "faults", "ft", "trace", "unknown"],
)
def test_bad_arguments_fail_alike_on_every_layer(machine_backend, kwargs,
                                                 exc, phrase):
    kwargs = dict({"num_pes": 2}, **kwargs)
    with pytest.raises(exc, match=phrase) as info:
        Machine(machine_backend=machine_backend, **kwargs)
    # The same class exactly, not merely a common base.
    assert type(info.value) is exc


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"pool": False}, {"faults": FaultPlan(1, drop=0.0)}],
    ids=["default", "pool-off", "unreliable-faults"],
)
def test_workers_see_the_driver_resolved_speed_state(spmd, kwargs):
    """What the driver resolved is what every PE runs with — on mp that
    means the shipped MachineConfig, not a per-worker fallback."""
    want = (MachineConfig(2, **kwargs).pool, CSD_BATCH)
    assert spmd(2, w.w_speed_state, **kwargs) == [want, want]


def test_unavailable_reason_empty_for_sim():
    assert machine_backend_unavailable_reason("sim") == ""


def test_unavailable_reason_names_unknown():
    assert "unknown" in machine_backend_unavailable_reason("vapor")
