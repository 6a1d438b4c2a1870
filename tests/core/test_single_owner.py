"""One thread owns a PE: nothing above a machine layer synchronises.

Everything that happens on a PE — an arrival, a timer expiry, a handler,
a protocol step — is dispatched by that PE's one thread of control, on
every layer.  So no module above the layers needs a lock, and the
plumbing that once handed them one (a per-host protocol lock with a
no-op stand-in, a locking tracer, a locking registry) must not come
back.  A module that really shares state between threads has to add
itself to the literal list below.
"""

from __future__ import annotations

import inspect
import re

from tests.core.test_import_direction import SRC, _imports

#: who may ``import threading``: the mp worker (a socket the PE's main
#: thread reads and shares for writing with a health reporter) and the
#: simulator's tasklet baton.  The mp hub is one loop on the caller's
#: thread, so the console log it appends to needs no lock.
MAY_IMPORT_THREADING = ("machine/mp.py", "sim/tasklet.py")

#: identifiers of the deleted lock plumbing.
GONE = re.compile(r"\b(protocol_lock|_NullLock|_NULL_LOCK|LockingTracer)\b")


def test_only_the_listed_modules_import_threading():
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() not in MAY_IMPORT_THREADING
        for lineno, name in _imports(path)
        if name == "threading" or name.startswith("threading.")
    ]
    assert not offenders, "\n".join(offenders)


def test_the_lock_plumbing_is_gone():
    offenders = [
        f"{path.relative_to(SRC).as_posix()}: {match.group(0)}"
        for path in sorted(SRC.rglob("*.py"))
        for match in [GONE.search(path.read_text())]
        if match
    ]
    assert not offenders, "\n".join(offenders)


def test_the_mp_hub_names_no_thread_primitive():
    """The hub is one selector loop and one deadline heap: no reader
    threads, no timer threads, no locks."""
    from repro.machine.mp import MpMachine

    src = inspect.getsource(MpMachine)
    named = re.findall(r"\b(threading|Lock|Condition|Timer|Thread)\b", src)
    assert not named, named


def test_an_mp_node_names_no_thread_primitive():
    """A worker's main thread reads its own socket: no receiver thread
    hands it arrivals, so the node has no condition or lock to share."""
    from repro.machine.mp import _MpNode

    src = inspect.getsource(_MpNode)
    named = re.findall(r"\b(Condition|Thread|Lock)\b", src)
    assert not named, named


def test_the_registry_takes_no_locking_parameter():
    from repro.metrics.registry import MetricsRegistry

    assert list(inspect.signature(MetricsRegistry.__init__).parameters) == ["self"]
