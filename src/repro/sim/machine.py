"""The simulated parallel machine: N PEs + network + Converse runtimes.

This is the user's entry point.  A :class:`Machine` plays the role of the
job launcher plus ``ConverseInit``: it builds the engine, the topology and
network from a :class:`~repro.sim.models.MachineModel`, one
:class:`~repro.sim.node.Node` and one
:class:`~repro.core.runtime.ConverseRuntime` per PE, the shared console,
an optional tracer, and the seed load balancer.

Typical SPMD use::

    from repro import Machine, api
    from repro.sim.models import MYRINET_FM

    def main():
        if api.CmiMyPe() == 0:
            ...

    with Machine(4, model=MYRINET_FM) as m:
        m.launch(main)
        m.run()

Message-driven use starts scheduler loops instead of (or in addition to)
SPMD mains with :meth:`Machine.launch_schedulers`.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.errors import SimulationError
from repro.core.runtime import ConverseRuntime
from repro.machine.base import (
    MachineLayer,
    build_pe_stack,
    machine_layer_class,
    resolve_machine_backend,
)
from repro.machine.interface import PEHost
from repro.sim.console import Console
from repro.sim.engine import SimEngine
from repro.sim.models import GENERIC, MachineModel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.topology import make_topology
from repro.metrics.registry import make_registry
from repro.tracing.tracer import make_tracer

__all__ = ["Machine", "run_spmd"]


class Machine(MachineLayer, PEHost):
    """An N-PE simulated parallel computer running Converse: the ``sim``
    machine layer, and the one :class:`~repro.machine.interface.PEHost`
    all of its PEs share.

    The parameters below are the keywords every machine layer shares
    (the fields of :class:`~repro.machine.base.MachineConfig`, which
    validates and defaults them once); a layer that cannot take one in
    full declares so in ``restricted_options`` and documents only its
    own extras.

    Parameters
    ----------
    num_pes:
        Number of processing elements.
    model:
        Communication cost model (default: the round-numbers test model).
    queue:
        Csd queueing strategy for every PE (name or factory-made
        instance per PE via a callable).
    ldb:
        Seed load-balancing strategy name (default ``"direct"``).
    trace:
        ``False`` (default), ``True``/``"memory"``, ``"count"``,
        ``"jsonl:<path>"``, or a path/file for JSONL (see
        :func:`repro.tracing.tracer.make_tracer`).
    metrics:
        ``False`` (default) — no metrics, zero hot-path cost beyond a
        flag test; ``True`` — build a fresh
        :class:`~repro.metrics.registry.MetricsRegistry`; an existing
        registry — use it (so callers can hold the handle before the
        run).  The registry is wired through the CMI, the Csd scheduler,
        Cth threads, the reliable-delivery layer and the Cld balancers;
        read it back via ``machine.metrics`` /
        :meth:`metrics_snapshot`.
    echo:
        Echo ``CmiPrintf`` output to the real stdout.
    seed:
        Seed for the machine's deterministic RNG (used by randomized load
        balancers and workloads).
    faults:
        Optional :class:`~repro.machine.faults.FaultPlan` making the network
        hostile (seeded drop/duplicate/delay/reorder/corrupt).  ``None``
        (default) leaves the delivery path untouched.
    reliable:
        ``False`` (default) — raw machine-layer delivery; ``True`` — wrap
        every PE's sends in the CMI reliable-delivery protocol with
        default tuning; a :class:`~repro.machine.cmi.ReliableConfig` —
        the same with explicit tuning.
    aggregation:
        ``False`` (default) — every send pays per-message costs, zero
        added overhead; ``True`` — coalesce small point-to-point sends
        into batched wire messages with default tuning; an
        :class:`~repro.comms.aggregation.AggregationConfig` — the same
        with explicit tuning (batch sizes, flush timer, direct vs
        virtual-2D-mesh routing).  Machine-wide, so the batch handler
        occupies the same handler index on every PE.
    ft:
        ``False`` (default) — no fault-tolerance layer, zero added cost
        anywhere; ``True`` — survive the crash faults in the fault plan
        with default tuning; an :class:`~repro.ft.FTConfig` — the same
        with explicit tuning (heartbeat period, detection thresholds,
        checkpoint interval, control-channel retries).  Requires
        ``reliable=True`` (recovery replays the reliable layer's send
        log).  Crash *injection* needs only a fault plan with crashes;
        ``ft=`` is what makes the machine live through them.
    inline:
        ``False`` (default); ``True`` enables inline dispatch: an
        outermost ``CsdScheduler`` loop delegates its drain to the
        delivery path, so handlers run in engine context with zero
        tasklet switches per message (the raw-speed mode for purely
        message-driven programs).  Requires handlers that never suspend
        — Cth operations, blocking receives and nested blocking
        schedulers raise ``NotInTaskletError`` from a delegated handler.
        Tracing or metering machines keep the tasklet path regardless,
        so idle spans trace exactly as before.
    machine_backend:
        Machine *layer* (see :mod:`repro.machine.base`): ``None``
        (default — the ``REPRO_MACHINE_BACKEND`` env var, else
        ``"sim"``), ``"sim"`` for this deterministic simulator, or
        ``"mp"`` for the multiprocess layer (one OS process per PE,
        real parallelism).  Selecting another layer returns an instance
        of that layer's machine class.

    What the machine decides itself: per-PE message pooling (of wire
    copies, which only this layer makes) is on except under ``faults``
    without ``reliable``
    (:attr:`MachineConfig.pool <repro.machine.base.MachineConfig.pool>`),
    and the tasklet switch is greenlet where ``import greenlet``
    succeeds, else the portable thread baton
    (:func:`repro.sim.engine.detect_tasklet_class`; read it back as
    :attr:`backend_name`).
    """

    layer_name = "sim"

    def __new__(cls, num_pes: int = 1, *args: Any, **kwargs: Any) -> "Machine":
        # Machine-layer dispatch: `Machine(..., machine_backend="mp")`
        # (or the env var) builds the selected layer's machine instead.
        # Only the base class dispatches, so layer classes stay directly
        # constructible and subclassable.
        if cls is Machine:
            name = resolve_machine_backend(kwargs.get("machine_backend"))
            if name != "sim":
                layer = machine_layer_class(name)
                obj = layer.__new__(layer)
                # The returned object is not a Machine instance, so
                # Python will not call __init__ for us.
                obj.__init__(num_pes, *args, **kwargs)
                return obj
        return super().__new__(cls)

    def __init__(self, num_pes: int = 1, *args: Any, **kwargs: Any) -> None:
        cfg = self.config = self.make_config(num_pes, *args, **kwargs)
        self.num_pes = num_pes
        self.model = cfg.model
        self.engine = SimEngine()
        self.topology = make_topology(cfg.model.topology, num_pes)
        self.network = Network(self.engine, cfg.model, self.topology)
        self.console = Console(self.engine, echo=cfg.echo)
        self.tracer = make_tracer(cfg.trace)
        self.network.tracer = self.tracer
        self.metrics = make_registry(cfg.metrics)
        self.pgrp_registry = {}
        self.fault_plan = self.network.fault_plan = cfg.faults
        # The raw-speed settings each ConverseRuntime reads at
        # construction.
        self.msg_pooling = cfg.pool
        self.inline_dispatch = cfg.inline
        self.rng = random.Random(cfg.seed)
        self.nodes: List[Node] = [Node(self, pe) for pe in range(num_pes)]
        self.network.nodes = {n.pe: n for n in self.nodes}
        crash_schedule = cfg.crash_schedule
        self.ft_coordinator = None
        if cfg.ft is not None:
            from repro.ft import FTCoordinator

            self.ft_coordinator = FTCoordinator(num_pes, crash_schedule)
        self.runtimes: List[ConverseRuntime] = [
            build_pe_stack(node, self, cfg, coordinator=self.ft_coordinator)
            for node in self.nodes
        ]
        # Crash injection works with or without the ft layer: a bare
        # crash is just a PE that dies (and maybe restarts with
        # amnesia); surviving it is the ft layer's job.
        for spec in crash_schedule:
            self.engine.schedule_at(spec.at, self._crash_pe, spec)
        self._quiescence_callbacks: List[Callable[[], None]] = []
        self._mains: List[Any] = []
        #: every launch so far as ``(pes, fn, args, name)``, replayed on
        #: the PEs of a crashed machine when they restart.
        self._launches: List[tuple] = []
        self._shut_down = False

    # ------------------------------------------------------------------
    # crash injection & restart
    # ------------------------------------------------------------------
    def _crash_pe(self, spec: Any) -> None:
        """Fire one scheduled :class:`~repro.machine.faults.CrashSpec`:
        power-fail the PE (kill its tasklets, drop its state) and, if
        the spec restarts it, schedule the new incarnation."""
        node = self.nodes[spec.pe]
        if not node.up:
            return  # already down (overlapping schedule entries)
        if self.tracer is not None:
            self.tracer.record(
                spec.pe, self.engine.now, "ft_failure",
                {"phase": "crash", "target": spec.pe,
                 "restart": spec.restart_after is not None},
            )
        rt = node.runtime
        if rt is not None:
            # A dead PE must not retransmit or heartbeat: cancel every
            # timer its protocol layers own before tearing it down.
            rel = rt.reliable
            if rel is not None:
                rel.close()
            if rt.ft is not None:
                rt.ft.close()
        node.fail()
        if spec.restart_after is not None:
            self.engine.schedule(spec.restart_after, self._restart_pe, spec.pe)

    def _restart_pe(self, pe: int) -> None:
        """Power a crashed PE back on: a fresh software stack, then
        respawn its recorded main(s).  With ft enabled the new
        incarnation's receive side stays paused until its main pulls the
        checkpoint back via ``CftRecover``."""
        node = self.nodes[pe]
        node.restart()
        self.runtimes[pe] = build_pe_stack(
            node, self, self.config,
            coordinator=self.ft_coordinator, restarting=True,
        )
        # Delivery hooks and metric handles live on the Node and survive
        # the crash; only the software stack needed rebuilding.
        # Each launch added ``len(pes)`` mains, in order; the respawned
        # main takes the dead incarnation's slot, so ``results()`` stays
        # one entry per launched main, in launch order.
        slot = 0
        for pes, fn, args, name in self._launches:
            if pe in pes:
                self._mains[slot + pes.index(pe)] = node.spawn(
                    lambda fn=fn, args=args: fn(*args), name=name)
            slot += len(pes)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def node(self, pe: int) -> Node:
        """The Node object for PE ``pe``."""
        try:
            return self.nodes[pe]
        except IndexError:
            raise SimulationError(f"PE {pe} out of range [0, {self.num_pes})") from None

    def runtime(self, pe: int) -> ConverseRuntime:
        """The ConverseRuntime on PE ``pe``."""
        return self.node(pe).runtime

    def rma_node(self, pe: int) -> Node:
        """Every PE lives in this process, so one-sided get/put reaches
        its node's memory directly."""
        return self.nodes[pe]

    def user_pgrp_registry(self) -> Dict[int, Any]:
        """Every PE lives in this process, so one registry serves all."""
        return self.pgrp_registry

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.engine.now

    @property
    def backend_name(self) -> str:
        """Name of the tasklet switch this machine runs on (``"thread"``
        or ``"greenlet"``)."""
        return self.engine.tasklet_class.switch

    def metrics_snapshot(self) -> dict:
        """Plain-data snapshot of the metrics registry (raises when the
        machine was built without ``metrics=``)."""
        if self.metrics is None:
            raise SimulationError(
                "machine was built without metrics; pass metrics=True"
            )
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # launching user code
    # ------------------------------------------------------------------
    def launch(self, fn: Callable[..., Any], *args: Any,
               pes: Optional[Iterable[int]] = None, name: str = "main") -> List[Any]:
        """SPMD launch: start ``fn(*args)`` as the main tasklet on every
        PE (or the given subset).  The function discovers its rank via
        ``api.CmiMyPe()``.  Returns the tasklets (their ``.result`` holds
        the per-PE return value after the run)."""
        targets = self._targets(pes)
        self._launches.append((targets, fn, args, name))
        tasklets = [
            self.nodes[pe].spawn(lambda fn=fn, args=args: fn(*args), name=name)
            for pe in targets
        ]
        self._mains.extend(tasklets)
        return tasklets

    def launch_schedulers(self, pes: Optional[Iterable[int]] = None) -> List[Any]:
        """Start a blocking ``CsdScheduler(-1)`` loop on each PE — the
        main program of a purely message-driven (implicit control regime)
        application.  Stop them with ``CsdExitScheduler`` from handlers,
        or let :meth:`shutdown` clean them up after quiescence."""
        return [
            self.nodes[pe].spawn(self.runtime(pe).scheduler.run, name="csd")
            for pe in self._targets(pes)
        ]

    # ------------------------------------------------------------------
    # quiescence
    # ------------------------------------------------------------------
    def register_quiescence(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` (on the driver, not in a tasklet) when the
        machine next goes quiescent — no events in flight, every tasklet
        blocked.  The callback may inject new work; the run then
        continues.  This is the primitive beneath Charm-style quiescence
        detection."""
        self._quiescence_callbacks.append(callback)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> str:
        """Drive the machine; returns the engine's stop reason
        (``"quiescent"`` / ``"until"`` / ``"max_events"``).

        On quiescence, pending quiescence callbacks fire (oldest first)
        and, if they created work, the run resumes."""
        if self._shut_down:
            raise SimulationError("machine has been shut down")
        while True:
            reason = self.engine.run(until=until, max_events=max_events)
            if reason == "quiescent" and self._drain_aggregation():
                # Buffered batches are not engine events; drain them so
                # the run cannot end with messages stranded in the
                # aggregation layer, then let their deliveries play out.
                continue
            if reason == "quiescent" and self._quiescence_callbacks:
                callbacks, self._quiescence_callbacks = self._quiescence_callbacks, []
                for cb in callbacks:
                    cb()
                continue
            return reason

    def _drain_aggregation(self) -> bool:
        """Flush every PE's aggregation buffers (quiescent-drain safety
        net); True when anything was flushed.  No-op on machines built
        without ``aggregation=``."""
        if self.config.aggregation is None:
            return False
        flushed = 0
        for rt in self.runtimes:
            flushed += rt.cmi.flush_aggregation("drain")
        return flushed > 0

    # ------------------------------------------------------------------
    # results & teardown
    # ------------------------------------------------------------------
    def results(self) -> List[Any]:
        """Return values of the main tasklets, in launch order.  Raises if
        a main has not finished."""
        out = []
        for t in self._mains:
            if not t.finished:
                raise SimulationError(
                    f"main tasklet {t.name!r} has not finished; run() the "
                    "machine to completion first"
                )
            out.append(t.result)
        return out

    def shutdown(self) -> None:
        """Kill every tasklet and release resources.  Idempotent."""
        if self._shut_down:
            return
        self._shut_down = True
        # Cancel protocol timers (retransmissions, heartbeats) before
        # tearing the engine down — a machine closed mid-retransmit must
        # not leave armed timers behind.
        for rt in self.runtimes:
            if rt is None:
                continue
            rel = rt.reliable
            if rel is not None:
                rel.close()
            if rt.ft is not None:
                rt.ft.close()
        self.engine.shutdown()
        if self.tracer is not None:
            self.tracer.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Machine pes={self.num_pes} model={self.model.name!r} "
            f"t={self.engine.now * 1e6:.1f}us>"
        )


def run_spmd(num_pes: int, fn: Callable[..., Any], *args: Any,
             model: MachineModel = GENERIC, **machine_kwargs: Any) -> Sequence[Any]:
    """One-shot convenience: build a machine, launch ``fn`` SPMD-style,
    run to quiescence, return the per-PE results, and tear down."""
    with Machine(num_pes, model=model, **machine_kwargs) as m:
        m.launch(fn, *args)
        m.run()
        return m.results()
