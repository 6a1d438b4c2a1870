"""Tracking of the currently-executing PE.

Exactly one piece of Converse code runs at any moment in a process — one
tasklet holds the simulator's baton, one user thread runs an mp worker —
so a module-level slot suffices to answer "which PE is executing right
now?", the question behind every C-flavoured API call (``CmiMyPe()``,
``CthSelf()``, ...).  A layer with tasklets updates the tasklet slot on
every baton hand-off; code that runs on a PE *without* a tasklet binds
the node itself (:func:`bind_node`).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.errors import NotInTaskletError

__all__ = ["bind_node", "require_tasklet", "current_runtime"]

_CURRENT: Optional[Any] = None

#: the PE whose code is running with no tasklet holding the baton (see
#: :func:`bind_node`).
_BOUND_NODE: Optional[Any] = None

_OUTSIDE = (
    "this call must run inside simulated user code (launch it on a "
    "Machine); it was invoked from the driver thread"
)


def _set_current(tasklet: Optional[Any]) -> None:
    """Engine-internal: record the tasklet now holding the baton."""
    global _CURRENT
    _CURRENT = tasklet


def bind_node(node: Optional[Any]) -> None:
    """Record (or, with ``None``, clear) the PE that is running without
    a tasklet: a delegated scheduler drain whose handlers run in engine
    context (:mod:`repro.core.scheduler`), or the one user thread of a
    layer that has no tasklets at all (an mp worker process).  Only
    node resolution falls back to it — ``require_tasklet`` still raises,
    so suspending primitives stay tasklet-only."""
    global _BOUND_NODE
    _BOUND_NODE = node


def require_tasklet() -> Any:
    """The running tasklet, or NotInTaskletError outside one."""
    t = _CURRENT
    if t is None:
        raise NotInTaskletError(_OUTSIDE)
    return t


def current_runtime() -> Any:
    """The Converse runtime of the running PE: that of the running
    tasklet's node, else of the bound node.  This sits under every
    C-flavoured API call, so it is one frame, with no helpers."""
    t = _CURRENT
    if t is not None:
        node = t.node
        if node is None:
            raise NotInTaskletError(
                f"tasklet {t.name!r} is not bound to a PE"
            )
    elif _BOUND_NODE is not None:
        node = _BOUND_NODE
    else:
        raise NotInTaskletError(_OUTSIDE)
    rt = node.runtime
    if rt is None:
        raise NotInTaskletError(
            f"PE {node.pe} has no Converse runtime attached"
        )
    return rt
