"""Fault tolerance for whole-PE crash faults (``Machine(ft=...)``).

See :mod:`repro.ft.manager` for the protocol and
:mod:`repro.ft.config` for tuning.
"""

from repro.ft.config import FTConfig
from repro.ft.manager import FTAgent, FTCoordinator

__all__ = ["FTConfig", "FTAgent", "FTCoordinator"]
