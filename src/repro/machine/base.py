"""The machine-layer contract and backend registry.

The paper's portability claim is that everything above the CMI — the Csd
scheduler, the message manager, threads, EMI extensions and the language
runtimes — is machine-independent, and only the thin machine layer is
rewritten per platform.  This module is the upward half of that seam —
what a layer offers the program that drives it (the downward half, what
it offers the stack built on it, is :mod:`repro.machine.interface`):

* :class:`MachineLayer` — the abstract surface a machine layer must
  provide to host Converse programs (launch mains, drive to quiescence,
  collect results, tear down).  The messaging semantics are held to the
  conformance battery in ``tests/machine/conformance/``, which every
  registered backend must pass identically.
* :class:`MachineConfig` — the ``Machine(...)`` keywords, validated and
  defaulted once for every layer; a layer declares the options it
  restricts as data (:attr:`MachineLayer.restricted_options`) instead of
  re-checking them by hand.
* :func:`build_pe_stack` — the one place that knows the order in which
  a PE's Converse software stack is built on top of a layer's node.
* a **backend registry** mapping names to machine-layer classes:
  explicit argument, then the ``REPRO_MACHINE_BACKEND`` environment
  variable, then the portable default ``"sim"``.

Registered layers:

``sim``
    The deterministic discrete-event simulator
    (:class:`repro.sim.machine.Machine`).  Always available; virtual
    time, byte-identical traces, fault injection.
``mp``
    The multiprocess layer (:class:`repro.machine.mp.MpMachine`): one OS
    process per PE over local sockets, real wall-clock parallelism.
    Available on platforms with working ``multiprocessing``.

Selection errors are uniform: an *unknown* name raises ``ValueError``
listing the choices; a known name that is *unavailable* on this platform
raises :class:`~repro.core.errors.SimulationError` with the reason.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.errors import SimulationError
from repro.core.queueing import QUEUE_STRATEGIES, make_queue
from repro.loadbalance.strategies import BALANCERS, make_balancer
from repro.machine.faults import FaultPlan
from repro.machine.interface import GENERIC, unsupported

__all__ = [
    "MACHINE_BACKEND_ENV_VAR",
    "MachineConfig",
    "MachineLayer",
    "MachineLayerSpec",
    "MACHINE_LAYERS",
    "build_pe_stack",
    "register_machine_layer",
    "available_machine_backends",
    "machine_backend_available",
    "machine_backend_unavailable_reason",
    "resolve_machine_backend",
    "machine_layer_class",
    "create_machine",
]

#: environment variable consulted when no explicit backend is requested.
MACHINE_BACKEND_ENV_VAR = "REPRO_MACHINE_BACKEND"

#: the portable default backend — every environment can run it.
DEFAULT_MACHINE_BACKEND = "sim"


def _layer_config(value: Any, module: str, name: str) -> Any:
    """Normalise an optional-layer argument: falsy -> ``None`` (layer
    off, and its module is never imported — need-based cost), an
    instance of the layer's config class -> itself, anything else truthy
    -> default tuning."""
    if not value:
        return None
    cls = getattr(import_module(module), name)
    return value if isinstance(value, cls) else cls()


@dataclass(frozen=True)
class MachineConfig:
    """The ``Machine(...)`` keywords, validated and resolved once.

    The fields are exactly the keywords every machine layer shares
    (documented on :class:`repro.sim.machine.Machine`); construction
    owns every check and default, so a layer reads resolved values:
    ``reliable`` / ``ft`` / ``aggregation`` are their config objects or
    ``None``, ``inline`` is a plain bool, ``model`` is a cost model,
    ``faults`` is a ``FaultPlan`` or ``None``, ``queue`` and ``ldb``
    name registered strategies (or ``queue`` is a per-PE factory), and
    ``trace`` / ``metrics`` are specs
    :func:`~repro.tracing.tracer.make_tracer` /
    :func:`~repro.metrics.registry.make_registry` accept.
    Resolution is idempotent, so ``dataclasses.replace`` is safe.

    Frozen, and picklable whenever its values are — which a layer that
    ships it across a process boundary guarantees by restricting the
    live-object options (:attr:`MachineLayer.restricted_options`).
    """

    num_pes: int = 1
    model: Any = None
    queue: Any = "fifo"
    ldb: str = "direct"
    trace: Any = False
    echo: bool = False
    seed: int = 0
    faults: Any = None
    reliable: Any = False
    metrics: Any = False
    aggregation: Any = False
    ft: Any = False
    inline: Any = False
    machine_backend: Any = None

    def __post_init__(self) -> None:
        from repro.tracing.tracer import parse_trace_spec

        for name in ("num_pes", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise TypeError(
                    f"{name} must be an int, got {type(value).__name__}")
        if self.num_pes < 1:
            raise SimulationError(
                f"a machine needs at least one PE, got {self.num_pes}"
            )
        # Checked here, in the driver, so a bad name fails at construction
        # on every layer instead of inside each mp worker; the factories
        # raise the error that names the choices.
        if not callable(self.queue) and self.queue not in QUEUE_STRATEGIES:
            make_queue(self.queue)
        if self.ldb not in BALANCERS:
            make_balancer(self.ldb, None)
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise SimulationError(
                f"faults must be a FaultPlan or None, got "
                f"{type(self.faults).__name__}"
            )
        parse_trace_spec(self.trace)
        if self.metrics not in (None, False, True):
            from repro.metrics.registry import make_registry

            make_registry(self.metrics)  # a registry passes; junk raises
        aggregation = _layer_config(
            self.aggregation, "repro.comms.aggregation", "AggregationConfig")
        reliable = _layer_config(
            self.reliable, "repro.machine.cmi", "ReliableConfig")
        ft = _layer_config(self.ft, "repro.ft.config", "FTConfig")
        if aggregation is not None:
            aggregation.validate()
        if reliable is not None:
            reliable.validate()
        if ft is not None:
            if reliable is None:
                raise SimulationError(
                    "ft= requires the reliable-delivery layer; build the "
                    "machine with reliable=True as well"
                )
            ft.validate()
        put = object.__setattr__  # the frozen-dataclass idiom
        put(self, "aggregation", aggregation)
        put(self, "reliable", reliable)
        put(self, "ft", ft)
        put(self, "inline", bool(self.inline))
        if self.model is None:
            put(self, "model", GENERIC)

    @property
    def pool(self) -> bool:
        """Whether each ``sim`` PE pools its wire-copy messages
        (:mod:`repro.core.pool`): on, except under an unreliable faulty
        network, where duplicate faults re-deliver the *same* wire
        object.  That fails loudly today (the second delivery sees a
        poisoned buffer), and a pool must never turn it into a silent
        resurrection with some newer message's contents.  The reliable
        layer never pools what it sends and dedups by sequence number,
        so faults with ``reliable`` stay pool-safe.  The pool serves the
        simulator only: ``mp`` makes no wire copy to draw (its network
        frames the caller's message, :meth:`Interconnect.send_msg
        <repro.machine.interface.Interconnect.send_msg>`), so its PEs
        have none."""
        return self.faults is None or self.reliable is not None

    @property
    def crash_schedule(self) -> list:
        """The fault plan's ``CrashSpec`` entries for this machine size,
        sorted by time (empty without a plan)."""
        if self.faults is None:
            return []
        return self.faults.crash_schedule(self.num_pes)


def build_pe_stack(node: Any, machine: Any, cfg: MachineConfig, *,
                   coordinator: Any = None, restarting: bool = False) -> Any:
    """Build one PE's Converse software stack on ``node`` and return its
    :class:`~repro.core.runtime.ConverseRuntime`.

    Every layer calls this for every incarnation of every PE, because
    messages carry handler *indices*: the stack's internal handlers (the
    seed balancer's, the EMI group forwarders, the aggregation batch
    handler, the reliable and ft protocol messages) resolve identically
    everywhere only if every PE registers them in this one order, before
    any user handler.  ``coordinator`` is the layer's ``FTCoordinator``
    (needed only with ``cfg.ft``); ``restarting`` marks a post-crash
    incarnation, whose receive side stays paused until ``CftRecover``.
    """
    from repro.core.runtime import ConverseRuntime

    queue = cfg.queue
    if callable(queue) and not isinstance(queue, str):
        queue = queue(node.pe)
    rt = ConverseRuntime(node, machine, queue=queue)
    rt.cld = make_balancer(cfg.ldb, rt)
    rt.cmi.groups
    if cfg.aggregation is not None:
        rt.enable_aggregation(cfg.aggregation)
    if cfg.reliable is not None:
        rt.enable_reliability(cfg.reliable, node.timing)
    if cfg.ft is not None:
        # Above reliability: ft owns the send log the reliable layer
        # keeps and pulls checkpoints over CMI.
        rt.enable_ft(cfg.ft, coordinator, node.timing, restarting=restarting)
    return rt


class MachineLayer(abc.ABC):
    """What a Converse machine layer owes the layers above it.

    A machine layer is the job launcher plus ``ConverseInit``: it builds
    one PE-worth of runtime state per processor, routes CMI traffic
    between them, detects quiescence, and tears everything down.  The
    precise messaging semantics (handler dispatch, buffer ownership,
    broadcast fanout, the no-per-pair-ordering guarantee) are specified
    by the cross-backend conformance suite, not repeated here.
    """

    #: number of processing elements (set by the concrete layer).
    num_pes: int

    #: the registry name this layer is selected by.
    layer_name: str

    #: the shared options this layer cannot take in full, declared as
    #: data: ``{option: (accepted types of the resolved value, why)}``.
    #: An option whose subsystem the layer lacks accepts only ``None``.
    restricted_options: Mapping[str, Tuple[tuple, str]] = {}

    @classmethod
    def make_config(cls, num_pes: int, *args: Any, **kwargs: Any) -> MachineConfig:
        """Build this layer's :class:`MachineConfig` from ``Machine(...)``
        arguments, enforcing :attr:`restricted_options`."""
        cfg = MachineConfig(num_pes, *args, **kwargs)
        if cfg.machine_backend is not None and \
                resolve_machine_backend(cfg.machine_backend) != cls.layer_name:
            raise SimulationError(
                f"this is the {cls.layer_name!r} machine layer; machine_backend="
                f"{cfg.machine_backend!r} selects a different layer — build it "
                "via repro.Machine or repro.machine.base.create_machine"
            )
        for name, (accepted, why) in cls.restricted_options.items():
            if not isinstance(getattr(cfg, name), accepted):
                raise unsupported(
                    cls.layer_name, f"{name}={getattr(cfg, name)!r}", why)
        return cfg

    def _targets(self, pes: Optional[Any]) -> Any:
        """The PEs a launch call names (every PE for ``None``), checked
        here, once, before the layer records or starts anything."""
        targets = range(self.num_pes) if pes is None else tuple(pes)
        for pe in targets:
            if not 0 <= pe < self.num_pes:
                raise SimulationError(
                    f"PE {pe} out of range [0, {self.num_pes})")
        return targets

    @property
    def machine_backend_name(self) -> str:
        """The registry name this layer was selected by."""
        return self.layer_name

    # -- launching ------------------------------------------------------
    @abc.abstractmethod
    def launch(self, fn: Callable[..., Any], *args: Any,
               pes: Optional[Any] = None, name: str = "main") -> List[Any]:
        """SPMD launch: run ``fn(*args)`` as the main program on every PE
        (or a subset); the function discovers its rank via ``CmiMyPe``."""

    def launch_on(self, pe: int, fn: Callable[..., Any], *args: Any,
                  name: str = "main") -> Any:
        """Run ``fn(*args)`` as a main program on a single PE."""
        return self.launch(fn, *args, pes=(pe,), name=name)[0]

    @abc.abstractmethod
    def launch_schedulers(self, pes: Optional[Any] = None) -> List[Any]:
        """Start a blocking ``CsdScheduler(-1)`` loop on each PE — the
        main program of a purely message-driven application."""

    def register_quiescence(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` on the driver when the machine next goes
        quiescent — a capability of layers whose driver can resume a
        quiescent machine; elsewhere ``run()`` returning *is* quiescence."""
        raise unsupported(self.layer_name, "a register_quiescence callback")

    # -- driving --------------------------------------------------------
    @abc.abstractmethod
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> str:
        """Drive the machine until quiescent (or another stop condition);
        returns the stop reason (``"quiescent"`` at minimum)."""

    @abc.abstractmethod
    def results(self) -> List[Any]:
        """Return values of the launched mains, in launch order; raises
        when a main has not finished."""

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Release every resource (processes, threads, tasklets, files).
        Idempotent; after it the machine cannot run again."""

    # -- observability --------------------------------------------------
    def health(self) -> Dict[int, Dict[str, Any]]:
        """Per-PE progress/liveness snapshot, keyed by PE number.

        Layers with live workers (the mp layer) return their most recent
        health reports — delivered counters, queue depth, idle state, CPU
        time — so a hung run can be diagnosed while it hangs.  The base
        implementation returns an empty mapping: on a single-process
        deterministic layer the whole machine state is already inspectable
        in place.
        """
        return {}

    # -- conveniences shared by all layers ------------------------------
    def __enter__(self) -> "MachineLayer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


@dataclass(frozen=True)
class MachineLayerSpec:
    """One registered machine layer: where to import it from and whether
    the current platform can run it.  Import is lazy so registering a
    backend costs nothing until it is selected (and so the registry has
    no import edge into the heavyweight layers)."""

    name: str
    module: str
    qualname: str
    available: Callable[[], bool]
    unavailable_reason: Callable[[], str]

    def load(self) -> type:
        mod = import_module(self.module)
        return getattr(mod, self.qualname)


def _mp_available() -> bool:
    """Whether the multiprocess layer can run here: a platform where
    ``multiprocessing`` can actually start processes and Unix-domain
    sockets exist (rules out WASM/emscripten-style environments)."""
    import sys

    if sys.platform in ("emscripten", "wasi"):
        return False
    try:
        import multiprocessing
        import socket

        return (hasattr(socket, "AF_UNIX")
                and bool(multiprocessing.get_all_start_methods()))
    except (ImportError, NotImplementedError):  # pragma: no cover
        return False


def _mp_unavailable_reason() -> str:
    return (
        "the mp machine layer needs a platform where multiprocessing can "
        "start OS processes and open Unix-domain sockets"
    )


#: registry of selectable machine layers.
MACHINE_LAYERS: Dict[str, MachineLayerSpec] = {}


def register_machine_layer(
    name: str, module: str, qualname: str,
    available: Callable[[], bool] = lambda: True,
    unavailable_reason: Callable[[], str] = lambda: "unavailable",
) -> None:
    """Register (or replace) a machine layer under ``name``."""
    MACHINE_LAYERS[name] = MachineLayerSpec(
        name, module, qualname, available, unavailable_reason
    )


register_machine_layer("sim", "repro.sim.machine", "Machine")
register_machine_layer(
    "mp", "repro.machine.mp", "MpMachine",
    available=_mp_available, unavailable_reason=_mp_unavailable_reason,
)


def available_machine_backends() -> List[str]:
    """Names of the machine layers usable on this platform (always
    includes ``"sim"``)."""
    return [n for n, spec in MACHINE_LAYERS.items() if spec.available()]


def machine_backend_available(name: str) -> bool:
    """Whether machine layer ``name`` is registered and usable here."""
    spec = MACHINE_LAYERS.get(name)
    return spec is not None and spec.available()


def machine_backend_unavailable_reason(name: str) -> str:
    """Human-readable reason ``name`` cannot run here (for skip
    messages); empty string when it can."""
    spec = MACHINE_LAYERS.get(name)
    if spec is None:
        return f"unknown machine backend {name!r}"
    if spec.available():
        return ""
    return spec.unavailable_reason()


def resolve_machine_backend(spec: Optional[str] = None) -> str:
    """Turn a machine-backend specification into a registered name.

    ``spec`` may be ``None`` (consult :data:`MACHINE_BACKEND_ENV_VAR`,
    default ``"sim"``) or a backend name.  Unknown names raise
    ``ValueError``; known-but-unavailable names raise
    :class:`SimulationError` with the platform reason.
    """
    if spec is None:
        spec = os.environ.get(MACHINE_BACKEND_ENV_VAR) or DEFAULT_MACHINE_BACKEND
    if not isinstance(spec, str):
        raise ValueError(
            f"machine_backend must be a backend name, got {type(spec).__name__}"
        )
    key = spec.strip().lower()
    layer = MACHINE_LAYERS.get(key)
    if layer is None:
        raise ValueError(
            f"unknown machine backend {spec!r}; choose from "
            f"{', '.join(sorted(MACHINE_LAYERS))}"
        )
    if not layer.available():
        raise SimulationError(
            f"machine backend {key!r} is not available in this environment: "
            f"{layer.unavailable_reason()}"
        )
    return key


def machine_layer_class(name: Optional[str]) -> type:
    """The machine-layer class registered under ``name`` (resolving and
    validating it first)."""
    return MACHINE_LAYERS[resolve_machine_backend(name)].load()


def create_machine(num_pes: int, *args: Any, **kwargs: Any) -> MachineLayer:
    """Build a machine on the selected layer — the functional spelling of
    ``Machine(num_pes, machine_backend=...)``."""
    layer = machine_layer_class(kwargs.get("machine_backend"))
    return layer(num_pes, *args, **kwargs)
