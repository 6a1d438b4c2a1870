"""Tasklet switch detection and cross-switch tasklet semantics.

The engine picks its tasklet class once per process
(:func:`repro.sim.engine.detect_tasklet_class`): greenlet stack switching
where ``import greenlet`` succeeds, else the portable thread baton.  Tests
reach either one through the ``repro.sim.engine.TASKLET_CLASS`` seam.
The GreenletTasklet tests run against the real ``greenlet`` package when
the ``repro[fast]`` extra is installed, and otherwise against
:mod:`tests.sim.fake_greenlet` — a thread-emulated stand-in with the same
control-transfer semantics — so the switch's baton logic is covered in
every environment.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.errors import SimulationError
from repro.sim import engine
from repro.sim.engine import SimEngine, detect_tasklet_class
from repro.sim.machine import Machine
from repro.sim.tasklet import Tasklet
from tests.sim.fake_greenlet import installed as fake_greenlet_installed


def _greenlet_imports() -> bool:
    try:
        import greenlet  # noqa: F401
    except ImportError:
        return False
    return True


# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------
def test_thread_backend_always_available(monkeypatch):
    """The portable switch needs nothing beyond the standard library and
    runs whatever the detection picked for this process."""
    monkeypatch.setattr(engine, "TASKLET_CLASS", Tasklet)
    eng = SimEngine()
    t = eng.spawn(lambda: 7, name="probe")
    eng.run()
    eng.shutdown()
    assert t.result == 7
    assert type(t) is Tasklet and Tasklet.switch == "thread"


def test_default_resolution_is_thread(monkeypatch):
    """Where ``import greenlet`` fails, detection falls back to the
    thread baton and a default machine runs on it."""
    monkeypatch.setitem(sys.modules, "greenlet", None)  # import fails
    assert detect_tasklet_class() is Tasklet
    monkeypatch.setattr(engine, "TASKLET_CLASS", detect_tasklet_class())
    with Machine(1) as m:
        assert m.backend_name == "thread"


def test_greenlet_is_detected_where_it_imports(monkeypatch):
    with fake_greenlet_installed():
        cls = detect_tasklet_class()
        assert cls.__name__ == "GreenletTasklet" and cls.switch == "greenlet"
        monkeypatch.setattr(engine, "TASKLET_CLASS", cls)
        with Machine(1) as m:
            assert m.backend_name == "greenlet"


def test_machine_exposes_backend_name():
    """A default machine runs the switch this process detected at
    import, and says which."""
    want = "greenlet" if _greenlet_imports() else "thread"
    assert engine.TASKLET_CLASS.switch == want
    with Machine(1) as m:
        assert m.backend_name == want


# ----------------------------------------------------------------------
# GreenletTasklet semantics (real greenlet, or the thread-emulated fake)
# ----------------------------------------------------------------------
@pytest.fixture
def greenlet_backend(monkeypatch):
    """Engines built in the test spawn GreenletTasklets: real greenlet
    where installed, otherwise the fake module is injected for the
    duration of the test."""
    with fake_greenlet_installed():
        cls = detect_tasklet_class()
        monkeypatch.setattr(engine, "TASKLET_CLASS", cls)
        yield cls


def test_greenlet_result_captured(greenlet_backend):
    eng = SimEngine()
    t = eng.spawn(lambda: 41 + 1)
    eng.run()
    eng.shutdown()
    assert t.finished
    assert t.result == 42
    assert t.error is None


def test_greenlet_error_captured_and_reported(greenlet_backend):
    eng = SimEngine()

    def boom():
        raise RuntimeError("x")

    t = eng.spawn(boom)
    with pytest.raises(RuntimeError):
        eng.run()
    eng.shutdown()
    assert t.finished
    assert isinstance(t.error, RuntimeError)


def test_greenlet_park_from_foreign_context_rejected(greenlet_backend):
    eng = SimEngine()
    t = eng.spawn(lambda: eng.suspend(), start=False)
    with pytest.raises(SimulationError, match="foreign context"):
        t.park()  # we are the driver, not the tasklet's greenlet
    eng.shutdown()


def test_greenlet_kill_before_start_never_runs_user_code(greenlet_backend):
    eng = SimEngine()
    ran = []
    t = eng.spawn(lambda: ran.append(1), start=False)
    t.kill()
    t.join()
    assert t.finished
    assert ran == []


def test_greenlet_finally_blocks_run_on_kill(greenlet_backend):
    eng = SimEngine()
    cleanup = []

    def body():
        try:
            eng.suspend()
        finally:
            cleanup.append("cleaned")

    eng.spawn(body)
    eng.run()
    eng.shutdown()
    assert cleanup == ["cleaned"]


def test_greenlet_kill_is_not_catchable_as_exception(greenlet_backend):
    eng = SimEngine()
    swallowed = []

    def body():
        try:
            eng.suspend()
        except Exception:  # noqa: BLE001 - the point of the test
            swallowed.append(True)

    t = eng.spawn(body)
    eng.run()
    eng.shutdown()
    assert swallowed == []
    assert t.finished


def test_greenlet_machine_workload_matches_thread(greenlet_backend,
                                                  monkeypatch):
    """One full message-driven workload per switch: identical results."""
    from repro import api
    from repro.sim.models import GENERIC

    def run(switch):
        recv = []
        with Machine(2, model=GENERIC) as m:
            assert m.backend_name == switch

            def main():
                me = api.CmiMyPe()

                def on_ball(msg):
                    recv.append((me, msg.payload))
                    if msg.payload < 9:
                        api.CmiSyncSend(1 - me, api.CmiNew(h, msg.payload + 1))
                    else:
                        api.CsdExitScheduler()

                h = api.CmiRegisterHandler(on_ball, "sw.ball")
                if me == 0:
                    api.CmiSyncSend(1, api.CmiNew(h, 0))
                api.CsdScheduler(-1)

            m.launch(main)
            m.run()
        return recv

    on_greenlet = run("greenlet")
    monkeypatch.setattr(engine, "TASKLET_CLASS", Tasklet)
    assert on_greenlet == run("thread")
