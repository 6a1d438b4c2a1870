"""The downward machine interface, held to account on every layer.

``repro.machine.interface`` declares what the Converse stack may ask of
a machine.  Three things keep the declaration honest: each layer's five
classes really derive from the declared bases; nothing above the seam
probes a machine object instead of reading a declared attribute; and
every *capability* — something a layer may lack — either works or is
refused through the one shared ``SimulationError``, never through
whatever exception the missing piece happens to raise.
"""

from __future__ import annotations

import re
import socket
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.errors import SimulationError
from repro.machine.base import MACHINE_LAYERS, MachineConfig
from repro.machine.interface import (
    ConsoleLog,
    Engine,
    Interconnect,
    PEHost,
    PENode,
    unsupported,
)
from repro.sim.machine import Machine

from tests.machine.conformance import workers as w
from tests.machine.conformance.conftest import MP_TIMEOUT

pytestmark = pytest.mark.conformance

SRC = Path(__file__).resolve().parents[3] / "src" / "repro"


# ----------------------------------------------------------------------
# the five classes
# ----------------------------------------------------------------------
@contextmanager
def _sim_host():
    with Machine(2, machine_backend="sim") as m:
        yield m, m.nodes[0]


@contextmanager
def _mp_host():
    from repro.machine import mp

    a, b = socket.socketpair()
    try:
        host = mp._WorkerMachine(0, mp._WorkerLink(a, 0), MachineConfig(2))
        yield host, host.node_obj
    finally:
        a.close()
        b.close()


#: how to get a PE host (and one of its nodes) on each registered layer
#: without running anything.
HOSTS = {"sim": _sim_host, "mp": _mp_host}


def test_every_registered_layer_is_listed():
    assert set(HOSTS) == set(MACHINE_LAYERS)


def test_layer_classes_derive_from_the_declared_bases(machine_backend):
    with HOSTS[machine_backend]() as (host, node):
        parts = {
            PEHost: host, PENode: node, Engine: host.engine,
            Interconnect: host.network, ConsoleLog: host.console,
        }
        for base, obj in parts.items():
            assert isinstance(obj, base), f"{type(obj).__name__} is no {base.__name__}"
        assert node.engine is host.engine
        if machine_backend != "sim":
            # The seam is a contract, not inheritance from the simulator.
            for obj in parts.values():
                assert not [c for c in type(obj).__mro__
                            if c.__module__.startswith("repro.sim")]


def test_hub_console_is_the_shared_console_log():
    with Machine(1, machine_backend="sim") as m:
        assert isinstance(m.console, ConsoleLog)
    if "mp" in MACHINE_LAYERS:
        from repro.machine.mp import MpMachine

        m = MpMachine(1)
        try:
            assert isinstance(m.console, ConsoleLog)
        finally:
            m.shutdown()


def test_nothing_above_the_seam_probes_a_machine():
    probe = re.compile(r"(getattr|hasattr)\([^()]*\bmachine\b")
    offenders = [
        f"{path.relative_to(SRC)}:{n}: {line.strip()}"
        for pkg in ("core", "machine", "loadbalance", "comms", "ft")
        for path in sorted((SRC / pkg).rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if probe.search(line)
    ]
    assert not offenders, (
        "read a declared PEHost attribute instead of probing:\n"
        + "\n".join(offenders)
    )


# ----------------------------------------------------------------------
# capabilities
# ----------------------------------------------------------------------
#: the layers that provide each capability; every other registered layer
#: must refuse it with interface.unsupported().
PROVIDED_BY = {
    "CthCreate": {"sim"},
    "CmiScanf": {"sim"},
    "CmiScanfAsync": {"sim"},
    "CmiSyncGet": {"sim"},
    "CmiSyncPut": {"sim"},
    "CmiPgrpCreate": {"sim"},
    "register_quiescence": {"sim"},
    "console.feed": {"sim"},
}

#: capability -> (worker, args, console input, per-PE results where it works)
IN_WORKER = {
    "CthCreate": (w.w_cap_cth, (), (), [["ran"], ["ran"]]),
    "CmiScanf": (w.w_cap_scanf, (), ("7", "7"), [[7], [7]]),
    "CmiScanfAsync": (w.w_cap_scanf_async, (), ("7", "7"), [["7"], ["7"]]),
    "CmiSyncGet": (w.w_cap_rma, ("get",), (), [b"abcd", b"abcd"]),
    "CmiSyncPut": (w.w_cap_rma, ("put",), (), [b"WXYZ", b"WXYZ"]),
    "CmiPgrpCreate": (w.w_cap_pgrp, (), (), [[], ["hi"]]),
}

#: capabilities of the machine object itself, called on the driver.
ON_DRIVER = {
    "register_quiescence": lambda m, log: m.register_quiescence(
        lambda: log.append("quiescent")),
    "console.feed": lambda m, log: m.console.feed("unread"),
}


def _machine(backend, num_pes=2):
    kwargs = {"timeout": MP_TIMEOUT} if backend == "mp" else {}
    return Machine(num_pes, machine_backend=backend, **kwargs)


def _refusal(backend):
    return re.escape(str(unsupported(backend, "")))


def test_capability_matrix_covers_every_capability():
    assert set(PROVIDED_BY) == set(IN_WORKER) | set(ON_DRIVER)


@pytest.mark.parametrize("cap", sorted(IN_WORKER))
def test_worker_capability_works_or_is_refused(machine_backend, cap):
    worker, args, lines, expected = IN_WORKER[cap]
    with _machine(machine_backend) as m:
        m.launch(worker, *args)
        if machine_backend in PROVIDED_BY[cap]:
            m.console.feed(*lines)
            m.run()
            assert m.results() == expected
        else:
            with pytest.raises(SimulationError, match=_refusal(machine_backend)):
                m.run()


@pytest.mark.parametrize("cap", sorted(ON_DRIVER))
def test_driver_capability_works_or_is_refused(machine_backend, cap):
    log = []
    with _machine(machine_backend) as m:
        if machine_backend in PROVIDED_BY[cap]:
            ON_DRIVER[cap](m, log)
            m.launch(w.w_quiescence_idle, 0)
            m.run()
            assert m.results() == [0, 1]
        else:
            with pytest.raises(SimulationError, match=_refusal(machine_backend)):
                ON_DRIVER[cap](m, log)
    if cap == "register_quiescence" and machine_backend in PROVIDED_BY[cap]:
        assert log == ["quiescent"]


# What README's machine-layer matrix says works everywhere.
def test_local_global_pointers_work_on_every_layer(spmd):
    assert spmd(2, w.w_gptr_local) == [b"abcd\0\0"] * 2


def test_world_group_collectives_work_on_every_layer(spmd):
    assert spmd(3, w.w_world_group_collectives) == [6, 6, 6]


def test_scatter_advance_receive_works_on_every_layer(spmd):
    assert spmd(2, w.w_scatter_advance_receive) == [(b"wxyz", [b"nomatch"]), None]


# ----------------------------------------------------------------------
# launch targets are validated before anything is recorded or started
# ----------------------------------------------------------------------
#: what "nothing was recorded or started" means inside each layer.
UNTOUCHED = {
    "sim": lambda m: not (m._launches or m._mains or m.engine.live_tasklets),
    "mp": lambda m: not (m._mains or m._specs),
}

BAD_LAUNCHES = {
    "launch": lambda m: m.launch(w.w_quiescence_idle, 0, pes=[0, 5]),
    "launch-negative": lambda m: m.launch(w.w_quiescence_idle, 0, pes=[-1]),
    "launch_on": lambda m: m.launch_on(5, w.w_quiescence_idle, 0),
    "launch_schedulers": lambda m: m.launch_schedulers(pes=[0, 5]),
}


@pytest.mark.parametrize("call", sorted(BAD_LAUNCHES))
def test_out_of_range_launch_target_is_refused_up_front(machine_backend, call):
    with _machine(machine_backend) as m:
        with pytest.raises(SimulationError, match=r"out of range \[0, 2\)"):
            BAD_LAUNCHES[call](m)
        assert UNTOUCHED[machine_backend](m)
        # ... so the machine is still good for the launch that was meant.
        m.launch(w.w_quiescence_idle, 10)
        m.run()
        assert m.results() == [10, 11]
