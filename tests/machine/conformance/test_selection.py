"""Machine-layer registry and selection semantics.

These tests pin the selection contract itself: default, env override,
explicit argument, unknown-name and unavailable-layer errors, and the
``Machine(machine_backend=...)`` dispatch.
"""

from __future__ import annotations

import pytest

from repro.core.errors import (
    LoadBalanceError,
    QueueingError,
    SimulationError,
    TraceSpecError,
)
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
    ],
    ids=lambda kw: next(iter(kw)),
)
def test_mp_rejects_simulator_only_features(kwargs):
    # trace=/metrics= and faults=/reliable=/ft= are *not* in this list:
    # the mp layer supports them first-class (per-PE spools and
    # registries; sender-side fault injection, in-worker reliable/ft) —
    # see test_observability.py and tests/faults/.
    with pytest.raises(SimulationError, match="simulator-only"):
        Machine(2, machine_backend="mp", **kwargs)


@mp_only
def test_mp_accepts_simulator_only_features_at_off_defaults():
    m = Machine(
        2, machine_backend="mp",
        trace=False, metrics=False, faults=None, reliable=False,
        aggregation=False, ft=False,
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


def _protocol_timing(machine_backend, **kwargs):
    """Per-PE :func:`w_protocol_timing` of a 2-PE machine under a
    lossy plan with ``kwargs``."""
    m = Machine(2, machine_backend=machine_backend,
                faults=FaultPlan(seed=3, drop=0.05), **kwargs)
    try:
        assert m.fault_plan is not None
        m.launch(w.w_protocol_timing)
        m.run()
        return m.results()
    finally:
        m.shutdown()


def test_sim_protocol_timing_is_the_default_table():
    from repro.ft.config import FTConfig

    want = (400e-6, 8e-3, 50e-6, 150e-6, 40, 0.01)
    assert _protocol_timing(
        "sim", reliable=True, ft=FTConfig(checkpoint_interval=0.01),
    ) == [want, want]


@mp_only
def test_mp_constructs_with_faults_reliable_ft():
    """What the workers run with: the mp layer's socket-scale protocol
    timing, with the two user-set timeouts raised to its floors."""
    from repro.ft.config import FTConfig
    from repro.machine.cmi import ReliableConfig

    want = (0.02, 0.25, 0.025, 0.05, 100, 0.05)
    assert _protocol_timing(
        "mp", reliable=True, ft=FTConfig(checkpoint_interval=0.01),
    ) == [want, want]
    # An rto above the floor is kept; explicit-only checkpoints stay so.
    want = (0.04, 0.25, 0.025, 0.05, 100, 0.0)
    assert _protocol_timing(
        "mp", reliable=ReliableConfig(rto=0.04), ft=FTConfig(),
    ) == [want, want]


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
        ({"ldb": "nope"}, LoadBalanceError, "unknown load-balancing"),
        ({"queue": "nope"}, QueueingError, "unknown queueing strategy"),
        ({"seed": "x"}, TypeError, "seed must be an int"),
        ({"num_pes": 2.5}, TypeError, "num_pes must be an int"),
    ],
    ids=["num_pes", "faults", "ft", "trace", "unknown", "ldb", "queue",
         "seed", "num_pes_type"],
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
    [{}, {"faults": FaultPlan(1, drop=0.0)},
     {"faults": FaultPlan(1, drop=0.0), "reliable": True}],
    ids=["default", "unreliable-faults", "reliable-faults"],
)
def test_workers_see_the_driver_resolved_speed_state(spmd, machine_backend, kwargs):
    """What the driver resolved is what every PE runs with — on mp that
    means the shipped MachineConfig, not a per-worker fallback.  Only
    the simulator pools wire copies: mp makes none."""
    want = (MachineConfig(2, **kwargs).pool and machine_backend == "sim", CSD_BATCH)
    assert spmd(2, w.w_speed_state, **kwargs) == [want, want]


def test_unavailable_reason_empty_for_sim():
    assert machine_backend_unavailable_reason("sim") == ""


def test_unavailable_reason_names_unknown():
    assert "unknown" in machine_backend_unavailable_reason("vapor")
