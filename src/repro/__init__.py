"""repro — a Python reproduction of *Converse: An Interoperable Framework
for Parallel Programming* (Kale, Bhandarkar, Jagathesan, Krishnan, IPPS
1996).

The package implements the Converse runtime — generalized messages, the
unified Csd scheduler with pluggable queueing, the CMI/EMI machine
interface, Cth thread objects with pluggable scheduling strategies, Cts
synchronization, Cmm message managers, Cld seed load balancing, event
tracing — and the language runtimes the paper layers on top (SM, threaded
SM, a PVM subset, an NXLib subset, Charm-style message-driven objects, a
small data-parallel layer, and the section-4 "coordination language").

The hardware substrate is a deterministic discrete-event-simulated
multiprocessor with per-machine cost models calibrated to the paper's
evaluation (see ``DESIGN.md``).

Quick start::

    from repro import Machine, api

    def main():
        me, n = api.CmiMyPe(), api.CmiNumPes()
        api.CmiPrintf("hello from PE %d of %d\\n", me, n)

    with Machine(4) as m:
        m.launch(main)
        m.run()
        print(m.console.output())
"""

from repro._version import __version__
from repro.comms.aggregation import AggregationConfig
from repro.core import api
from repro.core.errors import ConverseError
from repro.core.message import BitVector, Message
from repro.ft.config import FTConfig
from repro.machine.base import (
    available_machine_backends,
    create_machine,
    machine_backend_available,
)
from repro.machine.cmi import ReliableConfig
from repro.machine.faults import CrashSpec, FaultPlan, FaultSpec
from repro.sim.machine import Machine, run_spmd
from repro.sim.models import (
    ALL_MODELS,
    ATM_HP,
    GENERIC,
    MYRINET_FM,
    PARAGON,
    SP1,
    T3D,
    MachineModel,
)

__all__ = [
    "__version__",
    "api",
    "Machine",
    "run_spmd",
    "Message",
    "BitVector",
    "FaultPlan",
    "FaultSpec",
    "CrashSpec",
    "FTConfig",
    "ReliableConfig",
    "AggregationConfig",
    "available_machine_backends",
    "machine_backend_available",
    "create_machine",
    "ConverseError",
    "MachineModel",
    "GENERIC",
    "ATM_HP",
    "T3D",
    "MYRINET_FM",
    "SP1",
    "PARAGON",
    "ALL_MODELS",
]
