"""A thread-emulated stand-in for the ``greenlet`` module.

The container this repo grows in does not ship the real ``greenlet``
package (it is the optional ``repro[fast]`` extra), but the
:class:`~repro.sim._greenlet_backend.GreenletTasklet` code path still
needs coverage.  This module implements the minimal slice of the greenlet
API the backend uses — ``greenlet.greenlet(run, parent)``, ``switch()``,
``throw()``, ``getcurrent()`` — on top of OS threads with a lock baton,
preserving the semantics that matter:

* ``switch()`` transfers control; the caller blocks until switched back;
* falling off the end of ``run`` returns control to the parent;
* ``throw(exc)`` raises ``exc`` inside the target at its switch point and
  returns to the caller once the target dies.

Install it with :func:`installed` (a context manager) *before* anything
imports ``repro.sim._greenlet_backend``; on exit both the fake module and
the backend module are evicted from ``sys.modules`` so later tests (or a
real greenlet install) see a clean slate.

This is emulation, not acceleration — it exists so switch detection and
the GreenletTasklet baton logic run end-to-end in environments without
the extra.  Real-greenlet behaviour is covered by
the ``importorskip("greenlet")`` tests, which activate wherever the extra
is installed.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from typing import Any, Callable, List, Optional

_tls = threading.local()

#: every thread the fake ever started, so tests can join them before the
#: no-thread-leak fixture counts.
_threads: List[threading.Thread] = []


class greenlet:  # noqa: N801 - mirrors the real module's class name
    """One fake greenlet: a daemon thread parked on a lock baton."""

    def __init__(self, run: Optional[Callable[..., Any]] = None,
                 parent: Optional["greenlet"] = None) -> None:
        self.run = run
        self.parent = parent if parent is not None else getcurrent()
        self.dead = False
        self._started = False
        self._pending_exc: Optional[BaseException] = None
        self._baton = threading.Lock()
        self._baton.acquire()  # parked until someone switches to us
        self._thread: Optional[threading.Thread] = None

    # -- control transfer ------------------------------------------------
    def switch(self) -> None:
        caller = getcurrent()
        if self.dead:
            raise RuntimeError("switch() to a dead fake greenlet")
        self._unpark()
        caller._park()

    def throw(self, exc: Any = None) -> None:
        caller = getcurrent()
        if self.dead:
            return
        if exc is None:
            exc = GreenletExit()
        self._pending_exc = exc() if isinstance(exc, type) else exc
        self._unpark()
        caller._park()

    # -- plumbing --------------------------------------------------------
    def _unpark(self) -> None:
        if not self._started and self.run is not None:
            self._started = True
            self._thread = threading.Thread(
                target=self._bootstrap, name="fake-greenlet", daemon=True
            )
            _threads.append(self._thread)
            self._thread.start()
        else:
            self._baton.release()

    def _park(self) -> None:
        self._baton.acquire()
        exc, self._pending_exc = self._pending_exc, None
        if exc is not None:
            raise exc

    def _bootstrap(self) -> None:
        _tls.current = self
        try:
            exc, self._pending_exc = self._pending_exc, None
            if exc is not None:
                raise exc
            self.run()
        except GreenletExit:
            pass
        finally:
            self.dead = True
            # Death returns control to the parent, as in real greenlet.
            self.parent._unpark()


class _MainGreenlet(greenlet):
    """The implicit greenlet of a thread that never called switch()."""

    def __init__(self) -> None:
        super().__init__(run=None, parent=self)


class GreenletExit(BaseException):
    """Mirrors ``greenlet.GreenletExit`` (unused by the backend, present
    for API faithfulness)."""


def getcurrent() -> greenlet:
    cur = getattr(_tls, "current", None)
    if cur is None:
        cur = _MainGreenlet()
        _tls.current = cur
    return cur


def join_all(timeout: float = 5.0) -> None:
    """Wait for every fake-greenlet thread to exit (call after machine
    shutdown, before asserting on thread counts)."""
    while _threads:
        t = _threads.pop()
        t.join(timeout)


@contextmanager
def installed():
    """Masquerade as the real ``greenlet`` module for the duration.

    Skips (yields ``None``) when the real package is installed — these
    tests then run against the real thing via the normal import path.
    """
    try:
        import greenlet as _real  # noqa: F401
        have_real = _real is not sys.modules[__name__]
    except ImportError:
        have_real = False
    if have_real:
        yield False
        return
    sys.modules["greenlet"] = sys.modules[__name__]
    try:
        yield True
    finally:
        sys.modules.pop("greenlet", None)
        # The backend module captured the fake at import time; evict it so
        # nothing outside this context keeps running on the emulation.
        sys.modules.pop("repro.sim._greenlet_backend", None)
        join_all()
