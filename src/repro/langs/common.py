"""Shared plumbing for language runtimes.

"When created, a language runtime registers one or more handlers with
Converse" (paper section 3.3).  Handler dispatch is by *index*, so every
PE must register the same handlers in the same order — language runtimes
are therefore attached machine-wide: ``Lang.attach(machine)`` builds one
per-PE instance on every PE, in PE order, before any traffic flows.
"""

from __future__ import annotations

from typing import Any, List, Type, TypeVar

from repro.core import context
from repro.core.errors import LanguageError

__all__ = ["LanguageRuntime"]

T = TypeVar("T", bound="LanguageRuntime")


class LanguageRuntime:
    """Base class for per-PE language runtime instances.

    Subclasses set :attr:`lang_name` and do their handler registration in
    ``__init__`` (which must be deterministic and identical across PEs).
    """

    #: unique key in ``runtime.lang_instances``; subclasses override.
    lang_name = "abstract"

    def __init__(self, runtime: Any) -> None:
        self.runtime = runtime
        self.cmi = runtime.cmi

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls: Type[T], machine: Any, **kwargs: Any) -> List[T]:
        """Create one instance per PE (idempotent).  Returns them all."""
        instances: List[T] = []
        for rt in machine.runtimes:
            inst = rt.lang_instances.get(cls.lang_name)
            if inst is None:
                inst = cls(rt, **kwargs)
                rt.lang_instances[cls.lang_name] = inst
            instances.append(inst)
        return instances

    @classmethod
    def get(cls: Type[T]) -> T:
        """The instance on the calling PE (requires prior attach)."""
        rt = context.current_runtime()
        inst = rt.lang_instances.get(cls.lang_name)
        if inst is None:
            raise LanguageError(
                f"language {cls.lang_name!r} is not attached to this "
                f"machine; call {cls.__name__}.attach(machine) before "
                "launching"
            )
        return inst

    @property
    def my_pe(self) -> int:
        """This PE's logical processor number."""
        return self.runtime.my_pe

    @property
    def num_pes(self) -> int:
        """Total number of PEs in the machine."""
        return self.runtime.num_pes
