"""Whole-PE fault tolerance: detection, buddy checkpointing, recovery.

This module gives the simulated machine the ability to *survive* the
crash faults injected by :class:`~repro.machine.faults.CrashSpec`: a
mid-run power loss on one PE, followed (optionally) by an amnesiac
restart.  Three cooperating mechanisms, all riding ordinary CMI
deliveries so the fault plan applies to them too:

**Failure detection** — while the layer is *active* (some scheduled
crash is still unresolved) every PE heartbeats its ring successor and
monitors its ring predecessor.  Any arrival from a peer — application
traffic, protocol acks, heartbeats — counts as liveness evidence (the
agent's interceptor runs in front of the reliable-delivery layer's, so
it sees everything).  Silence beyond ``_SUSPECT_AFTER`` (3) heartbeat
periods marks the predecessor *suspect*; beyond ``_DOWN_AFTER`` (6) it
is declared *down*: failure callbacks fire, the verdict is gossiped
best-effort to the other PEs, and the membership view updates.  A
reliable-delivery retry exhaustion is a second, traffic-driven
detection path: the structured :class:`~repro.core.errors.
RetryExhaustedError` is routed here instead of crashing the run.

**Buddy checkpointing** — ``CftCheckpoint()`` (or a periodic timer)
packs the application state via user callbacks, snapshots the
reliable-delivery protocol state (send log included — this is
sender-based message logging), and ships both to the buddy PE over the
layer's own stop-and-wait reliable control channel.  Once the buddy
acknowledges custody, peers are told to prune their send logs below
the sequences the checkpoint already covers.

**Recovery** — recovery is *pulled* by the restarted PE (so a false
detection can never corrupt a healthy node).  Its freshly re-created
main calls ``CftRecover()``: the agent asks the buddy for the
checkpoint, restores application + protocol state (or cold-starts when
no checkpoint exists), re-opens the paused receive side, and asks
every peer to replay logged traffic from the restored ``expected``
sequences.  Re-executed post-checkpoint sends reuse the same sequence
numbers, so peers that already consumed them dup-drop — provided the
application is piecewise deterministic (its behaviour after the
checkpoint is a function of checkpointed state plus received
messages), the run completes with the same application-level result as
a fault-free one.

**Wire format** — every protocol message is a generalized message
(paper section 3.1.1): its handler index names its kind (``ft.hb``,
``ft.down``, ``ft.prune``, ``ft.ckpt``, ``ft.recover``,
``ft.ckpt_data``, ``ft.replay``, ``ft.ack``), registered by every
incarnation of every PE in the same order, and the agent's interceptor
consumes every message addressed to one of them.  Heartbeats, down
gossip and prune hints are best-effort and self-healing; the rest ride
the control channel, a fixed-RTO stop-and-wait whose sequence travels
in ``Message.seq`` and whose ``ft.ack`` names it in ``Message.ack``.
The channel cannot be :class:`~repro.machine.cmi.ReliableDelivery`:
a restarting PE's reliable layer is paused and silently consumes every
sequenced arrival, so the ``ckpt_data`` answer to its recovery pull
could never reach it; and a fresh incarnation restarts its reliable
sequences at 0, so peers would dup-drop its ``recover`` and ``replay``
requests.

Need-based cost: none of this exists unless ``Machine(ft=...)`` is
given, and even then all periodic timers only run during the *active
window* — from construction until every scheduled crash has been
detected (permanent crashes) or recovered from (restarting crashes).
Outside that window the layer is pure state, so a quiescent run can
actually terminate.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import FaultToleranceError
from repro.core.message import Message, estimate_size
from repro.ft.config import FTConfig
from repro.machine.interface import ProtocolTiming

__all__ = ["FTAgent", "FTCoordinator"]

#: per-incarnation stride for control sequence numbers, so acks from a
#: previous life of this PE can never match a post-restart request.
_EPOCH_SEQ_STRIDE = 1_000_000

#: modelled wire sizes of a heartbeat and of a checkpoint's header.
_HB_BYTES = 8
_CKPT_HEADER_BYTES = 32

#: silent heartbeat periods before a monitor marks its predecessor
#: *suspect* / declares it *down* (a false positive only mis-colors the
#: membership view: recovery is pulled by the restarted PE itself).
_SUSPECT_AFTER = 3
_DOWN_AFTER = 6

#: PE *p*'s checkpoint buddy, and monitor, is ``(p + _BUDDY_OFFSET) % n``.
_BUDDY_OFFSET = 1


class _CtlPending:
    """One unacknowledged message on the agent's control channel
    (fixed-RTO stop-and-wait; a fresh wire message per attempt so a
    corruption flag never sticks to the retransmission)."""

    __slots__ = ("handler", "dst", "data", "size", "retries", "timer", "on_acked")

    def __init__(self, handler: int, dst: int, data: Any, size: int,
                 on_acked: Optional[Callable[[], None]]) -> None:
        self.handler = handler
        self.dst = dst
        self.data = data
        self.size = size
        self.retries = 0
        self.timer: Any = None
        self.on_acked = on_acked


class FTCoordinator:
    """Machine-level bookkeeping shared by every PE's agent.

    Tracks the *active window*: the scheduled crashes that have not yet
    been resolved — by a completed recovery (crashes with a restart) or
    by a down verdict (permanent crashes).  Agents arm their periodic
    timers only while the window is open; when the last crash resolves,
    every agent's timers are cancelled so the machine can go quiescent.
    (A real machine would heartbeat forever; a simulation that must
    terminate cannot.  Explicit ``CftCheckpoint()`` calls work at any
    time regardless.)

    ``distributed=True`` marks a *replica* of the coordinator: on the
    mp machine layer every worker process builds its own instance from
    the shipped crash schedule, and window resolutions reach the
    replicas through the protocol itself (a survivor resolves a
    recovery window when the restarted owner's reliable ``replay``
    request arrives).  Replicas skip the ``crash_at <= now`` sanity
    guard — worker clocks are per-process and not comparable to the
    schedule's timeline — and rely on the protocol ordering instead.
    """

    def __init__(self, num_pes: int, schedule: List[Any],
                 distributed: bool = False) -> None:
        self.num_pes = num_pes
        #: True when this instance is a per-process replica (mp layer)
        #: rather than the single machine-wide authority (simulator).
        self.distributed = distributed
        #: live agent per PE; a restarted PE re-registers, replacing its
        #: dead incarnation's entry.
        self.agents: Dict[int, FTAgent] = {}
        #: per-PE, earliest-first ``(crash_at, mode)`` entries still
        #: awaiting resolution.
        self._outstanding: Dict[int, List[Tuple[float, str]]] = {}
        for spec in schedule:
            mode = "detection" if spec.restart_after is None else "recovery"
            self._outstanding.setdefault(spec.pe, []).append((spec.at, mode))
        for entries in self._outstanding.values():
            entries.sort()

    @property
    def active(self) -> bool:
        """True while any scheduled crash is still unresolved."""
        return any(self._outstanding.values())

    def register(self, agent: "FTAgent") -> None:
        self.agents[agent.node.pe] = agent
        if self.active:
            agent.activate()

    def _resolve(self, pe: int, mode: str, now: float) -> None:
        entries = self._outstanding.get(pe)
        if not entries or entries[0][1] != mode:
            return
        if entries[0][0] > now and not self.distributed:
            return
        entries.pop(0)
        if not self.active:
            for a in self.agents.values():
                a.deactivate()

    def on_detected(self, pe: int, now: float) -> None:
        """A monitor declared ``pe`` down.  Resolves a *permanent* crash
        of ``pe`` that has already happened; verdicts about a crash that
        will be recovered from (or premature false positives) leave the
        window open."""
        self._resolve(pe, "detection", now)

    def on_recovered(self, pe: int, now: float) -> None:
        """``pe`` completed recovery after a restarting crash."""
        self._resolve(pe, "recovery", now)


class FTAgent:
    """The per-PE fault-tolerance driver (one per runtime incarnation).

    Created by :meth:`repro.core.runtime.ConverseRuntime.enable_ft`;
    requires the reliable-delivery layer (it owns the send log that
    makes replay possible).
    """

    def __init__(self, runtime: Any, config: FTConfig,
                 coordinator: FTCoordinator, timing: ProtocolTiming,
                 restarting: bool = False) -> None:
        self.runtime = runtime
        self.node = runtime.node
        self.engine = self.node.engine
        self.machine = runtime.machine
        self.network = self.machine.network
        #: the machine layer's heartbeat period and control-channel timing.
        self.timing = timing
        #: seconds between interval checkpoints (0: explicit only).
        self.checkpoint_interval = (
            max(config.checkpoint_interval, timing.checkpoint_floor)
            if config.checkpoint_interval > 0 else 0.0
        )
        self.coordinator = coordinator
        self.num_pes = self.machine.num_pes
        rel = runtime.reliable
        if rel is None:
            raise FaultToleranceError(
                "fault tolerance requires the reliable-delivery layer "
                "(build the machine with reliable=True as well as ft=)"
            )
        self.rel = rel
        # Arm sender-based message logging and take over retry give-ups
        # as failure evidence.
        if rel._ft_log is None:
            rel._ft_log = {}
        rel._ft_giveup = self._on_giveup
        #: True once application + protocol state are usable — from
        #: birth on a healthy PE, only after :meth:`recover` on a
        #: restarted one.  While False the receive side stays paused.
        self.restarting = restarting
        self.recovered = not restarting
        self._restored = False
        if restarting:
            rel.pause()
        pe = self.node.pe
        self.buddy = (pe + _BUDDY_OFFSET) % self.num_pes
        self.pred = (pe - _BUDDY_OFFSET) % self.num_pes
        #: local membership view: pe -> "up" | "suspect" | "down".
        self.membership: Dict[int, str] = {p: "up" for p in range(self.num_pes)}
        self._last_heard: Dict[int, float] = {}
        self._on_failure: List[Callable[[int], None]] = []
        self._pack: Optional[Callable[[], Any]] = None
        self._unpack: Optional[Callable[[Any], None]] = None
        self._ckpt_epoch = 0
        #: buddy store: owner pe -> ((node_epoch, ckpt_epoch), app, rel).
        self._store: Dict[int, Tuple[Tuple[int, int], Any, Dict[str, Any]]] = {}
        self._ctl_seq = self.node.epoch * _EPOCH_SEQ_STRIDE
        self._ctl_pending: Dict[int, _CtlPending] = {}
        #: True when buddy custody of our latest state was lost (the
        #: buddy died with our checkpoint, or a checkpoint was deferred
        #: while it was down) and must be re-established when it returns.
        self._ckpt_owed = False
        self.active = False
        self._hb_timer: Any = None
        self._monitor_timer: Any = None
        self._ckpt_timer: Any = None
        if runtime.metering:
            mx = runtime.metrics
            self._mx_ckpts = mx.counter(
                "ft.checkpoints", help="checkpoints taken (explicit + interval)"
            )
            self._mx_ckpt_bytes = mx.counter(
                "ft.checkpoint_bytes", help="modelled checkpoint bytes shipped"
            )
            self._mx_hbs = mx.counter("ft.heartbeats", help="heartbeats sent")
            self._mx_failures = mx.counter(
                "ft.failures_detected", help="down verdicts issued by this PE"
            )
            self._mx_recoveries = mx.counter(
                "ft.recoveries", help="completed crash recoveries"
            )
            self._mx_latency = mx.histogram(
                "ft.recovery_latency",
                help="crash-to-recovery virtual latency (s)",
            )
        else:
            self._mx_ckpts = None
            self._mx_ckpt_bytes = None
            self._mx_hbs = None
            self._mx_failures = None
            self._mx_recoveries = None
            self._mx_latency = None
        # Interval checkpoints ride a self-addressed control message so
        # the snapshot is taken at a *message boundary* (between handler
        # executions), never mid-handler where app state and the send
        # log can disagree.
        self._h_tick = runtime.cmi.register_handler(
            self._on_ckpt_msg, "ft.ckpt_tick"
        )
        self._ckpt_msg_out = False
        #: handler index -> handler of each protocol message kind; the
        #: arrival interceptor consumes every message addressed to one.
        self._handlers: Dict[int, Callable[[Message], None]] = {}
        self._h_ack = self._register(self._on_ack, "ft.ack")
        # A heartbeat's evidence is its arrival itself.
        self._h_hb = self._register(lambda _msg: None, "ft.hb")
        self._h_down = self._register(self._on_down_notice, "ft.down")
        self._h_prune = self._register(self._on_prune, "ft.prune")
        self._h_ckpt = self._register(self._on_ckpt, "ft.ckpt")
        self._h_recover = self._register(self._on_recover, "ft.recover")
        self._h_ckpt_data = self._register(self._on_ckpt_data, "ft.ckpt_data")
        self._h_replay = self._register(self._on_replay, "ft.replay")
        # Front of the chain: liveness evidence must be gathered from
        # *every* arrival, including the acks and duplicates the
        # reliability interceptor consumes.
        self.node.set_interceptor(self._on_arrival, front=True)
        coordinator.register(self)

    # ------------------------------------------------------------------
    # active window (periodic timers)
    # ------------------------------------------------------------------
    def activate(self) -> None:
        """Arm heartbeat / monitor / interval-checkpoint timers."""
        if self.active:
            return
        self.active = True
        now = self.engine.now
        for p in range(self.num_pes):
            self._last_heard.setdefault(p, now)
        period = self.timing.heartbeat_period
        self._hb_timer = self.engine.schedule(period, self._hb_tick)
        self._monitor_timer = self.engine.schedule(
            period, self._monitor_tick
        )
        if self.checkpoint_interval > 0:
            self._ckpt_timer = self.engine.schedule(
                self.checkpoint_interval, self._ckpt_tick
            )

    def deactivate(self) -> None:
        """Cancel the periodic timers (window closed; outstanding
        control exchanges still finish on their own retry timers)."""
        if not self.active:
            return
        self.active = False
        for attr in ("_hb_timer", "_monitor_timer", "_ckpt_timer"):
            ev = getattr(self, attr)
            if ev is not None:
                ev.cancel()
                setattr(self, attr, None)

    def close(self) -> None:
        """Cancel every timer this agent owns — machine shutdown, or the
        owning PE crashing.  Idempotent."""
        self.deactivate()
        for entry in self._ctl_pending.values():
            if entry.timer is not None:
                entry.timer.cancel()
                entry.timer = None
        self._ctl_pending.clear()

    def _hb_tick(self) -> None:
        if not self.active:
            return
        if self.buddy != self.node.pe:
            self._send(self.buddy, self._h_hb, None, _HB_BYTES)
            if self._mx_hbs is not None:
                self._mx_hbs.inc(self.node.pe)
        self._hb_timer = self.engine.schedule(
            self.timing.heartbeat_period, self._hb_tick
        )

    def _monitor_tick(self) -> None:
        if not self.active:
            return
        period = self.timing.heartbeat_period
        pe = self.pred
        if pe != self.node.pe:
            now = self.engine.now
            silence = now - self._last_heard.get(pe, now)
            state = self.membership.get(pe, "up")
            if silence >= _DOWN_AFTER * period:
                if state != "down":
                    self._declare_down(pe, "silence")
            elif silence >= _SUSPECT_AFTER * period:
                if state == "up":
                    self.membership[pe] = "suspect"
                    if self.runtime.tracing:
                        self.runtime.trace_event(
                            "ft_failure", phase="suspect", target=pe
                        )
            elif state != "up":
                # Fresh evidence clears a suspicion (or a false down).
                self.membership[pe] = "up"
        self._monitor_timer = self.engine.schedule(
            period, self._monitor_tick
        )

    def _ckpt_tick(self) -> None:
        if not self.active:
            return
        if (self._pack is not None and self.recovered
                and not self._ckpt_msg_out):
            # Engine-callback context: a handler (or the main tasklet)
            # may be mid-execution right now, with its state mutations
            # and sends only partially applied — snapshotting here could
            # tear that atomic step.  Queue a marker message instead;
            # the scheduler dispatches it between handlers, where the
            # boundary invariant holds by construction.
            self._ckpt_msg_out = True
            self.node.deliver(Message(self._h_tick, None, size=0))
        self._ckpt_timer = self.engine.schedule(
            self.checkpoint_interval, self._ckpt_tick
        )

    def _on_ckpt_msg(self, _msg: Message) -> None:
        """Handler of the interval-checkpoint marker message."""
        self._ckpt_msg_out = False
        if self._pack is not None and self.recovered:
            self.checkpoint(
                reason="custody" if self._ckpt_owed else "interval"
            )

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------
    def _declare_down(self, pe: int, reason: str) -> None:
        self.membership[pe] = "down"
        # Abandon in-flight control exchanges addressed to the dead PE:
        # retransmitting into a corpse either blocks quiescence on the
        # retry timer or ends in a spurious "unacknowledged after N
        # retransmissions" error racing the verdict we just reached.  A
        # cancelled 'ckpt' loses buddy custody, so it is owed again the
        # moment the buddy's next incarnation announces itself (its
        # replay request).  A 'recover' pull is kept: a restarting buddy
        # can still answer it, and its retry budget bounds the wait.
        for seq, entry in list(self._ctl_pending.items()):
            if entry.dst != pe or entry.handler == self._h_recover:
                continue
            if entry.timer is not None:
                entry.timer.cancel()
                entry.timer = None
            del self._ctl_pending[seq]
            if entry.handler == self._h_ckpt:
                self._ckpt_owed = True
        if self._mx_failures is not None:
            self._mx_failures.inc(self.node.pe)
        if self.runtime.tracing:
            self.runtime.trace_event(
                "ft_failure", phase="down", target=pe, reason=reason
            )
        for fn in self._on_failure:
            fn(pe)
        # Gossip the verdict (best-effort: everyone also has their own
        # monitor and give-up evidence).
        for other in range(self.num_pes):
            if other != self.node.pe and other != pe:
                self._send(other, self._h_down, {"target": pe}, 16)
        self.coordinator.on_detected(pe, self.engine.now)

    def _on_giveup(self, err: Any) -> None:
        """Reliable delivery exhausted its retries to ``err.dst`` — the
        strongest traffic-driven failure signal there is.  The packet
        itself stays in the send log, so a later replay still covers
        it."""
        pe = err.dst
        if self.runtime.tracing:
            self.runtime.trace_event(
                "ft_failure", phase="giveup", target=pe, seq=err.seq
            )
        if self.membership.get(pe) != "down":
            self._declare_down(pe, "retry_exhausted")

    def add_failure_callback(self, fn: Callable[[int], None]) -> None:
        """Register ``fn(pe)`` to run when this PE declares (or learns
        of) a peer's failure — the ``CcdOnFailure`` hook."""
        self._on_failure.append(fn)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def register_app(self, pack: Callable[[], Any],
                     unpack: Callable[[Any], None]) -> None:
        """Install the application's state callbacks (``CftInit``):
        ``pack()`` returns a picklable-in-spirit snapshot, ``unpack(s)``
        restores it on a fresh incarnation."""
        if not callable(pack) or not callable(unpack):
            raise FaultToleranceError("CftInit requires callable pack/unpack")
        self._pack = pack
        self._unpack = unpack

    def checkpoint(self, reason: str = "explicit") -> int:
        """Snapshot application + protocol state and ship it to the
        buddy over the reliable control channel.  Returns the checkpoint
        epoch.  The application snapshot is deep-copied at call time, so
        later mutation cannot bleed into the stored checkpoint."""
        if self._pack is None:
            raise FaultToleranceError(
                "no pack/unpack registered on this PE (call CftInit first)"
            )
        if not self.recovered:
            raise FaultToleranceError(
                "cannot checkpoint before recovery completes"
            )
        if self.membership.get(self.buddy) == "down":
            # No custodian to ship to: defer.  The snapshot taken
            # when the buddy returns covers strictly more state
            # than this one would, so nothing is lost by waiting.
            self._ckpt_owed = True
            return self._ckpt_epoch
        self._ckpt_epoch += 1
        epoch = self._ckpt_epoch
        app_blob = copy.deepcopy(self._pack())
        rel_state = self.rel.export_state()
        me = self.node.pe
        # Messages the reliable layer already *released* into the inbox
        # but no handler has consumed yet are invisible to the app
        # snapshot — roll the expected map back over them so the
        # post-restore replay re-delivers exactly that gap.  Per-sender
        # FIFO (release order == processing order) makes the unprocessed
        # set the tail of the released run, so a per-source count of the
        # sequenced ones (an unsequenced message moved no ``expected``)
        # is an exact rollback.
        expected_map = rel_state["expected"]
        for msg in self.node.inbox_snapshot():
            if msg.seq >= 0 and msg.src_pe != me and msg.src_pe in expected_map:
                expected_map[msg.src_pe] -= 1
        nbytes = self._ckpt_size(app_blob, rel_state)
        expected = dict(expected_map)

        def custody_confirmed() -> None:
            # The buddy holds the snapshot: peers may discard log
            # entries this checkpoint already covers.
            for other in range(self.num_pes):
                if other != me:
                    self._send(other, self._h_prune,
                               {"owner": me, "below": expected.get(other, 0)}, 16)

        self._ckpt_owed = False
        self._ctl_send(
            self.buddy, self._h_ckpt,
            {
                "owner": me,
                "epoch": epoch,
                "node_epoch": self.node.epoch,
                "app": app_blob,
                "rel": rel_state,
            },
            nbytes, on_acked=custody_confirmed,
        )
        if self._mx_ckpts is not None:
            self._mx_ckpts.inc(me)
            self._mx_ckpt_bytes.inc(me, nbytes)
        if self.runtime.tracing:
            self.runtime.trace_event(
                "ft_checkpoint", epoch=epoch, bytes=nbytes, reason=reason
            )
        return epoch

    def _ckpt_size(self, app_blob: Any, rel_state: Dict[str, Any]) -> int:
        """Deterministic modelled size of a checkpoint on the wire."""
        n = _CKPT_HEADER_BYTES + estimate_size(app_blob)
        for entries in rel_state["log"].values():
            for _msg, size in entries.values():
                n += size + 16
        n += 8 * (len(rel_state["next_seq"]) + len(rel_state["expected"]))
        return n

    # ------------------------------------------------------------------
    # recovery (pulled by the restarted PE)
    # ------------------------------------------------------------------
    def recover(self) -> bool:
        """Blocking (main-tasklet context): pull the last checkpoint
        from the buddy, restore it, and ask peers to replay.  Returns
        True when a checkpoint was restored, False on a cold start (the
        caller should then redo its fault-free initialization)."""
        if self._pack is None:
            raise FaultToleranceError("call CftInit before CftRecover")
        if self.recovered:
            return self._restored
        self._ctl_send(self.buddy, self._h_recover, {"owner": self.node.pe}, 16)
        # The buddy's response arrives through the interceptor while this
        # waits (the wait is what runs it on a one-thread-per-PE layer).
        self.node.wait_until(lambda: self.recovered)
        return self._restored

    def _finish_recovery(self, found: bool) -> None:
        me = self.node.pe
        self.recovered = True
        self._restored = found
        self.restarting = False
        latency = 0.0
        if self.node.crashed_at is not None:
            latency = self.engine.now - self.node.crashed_at
        if self._mx_recoveries is not None:
            self._mx_recoveries.inc(me)
            self._mx_latency.observe(me, latency)
        if self.runtime.tracing:
            self.runtime.trace_event(
                "ft_recover", restored=found, latency=latency
            )
        self.coordinator.on_recovered(me, self.engine.now)
        self.node.kick()

    # ------------------------------------------------------------------
    # wire plumbing
    # ------------------------------------------------------------------
    def _register(self, fn: Callable[[Message], None], name: str) -> int:
        """Register one protocol message kind's handler; its index."""
        handler = self.runtime.cmi.register_handler(fn, name)
        self._handlers[handler] = fn
        return handler

    def _send(self, dst: int, handler: int, data: Any, nbytes: int,
              seq: int = -1, ack: int = 0) -> None:
        """Put one protocol message on the wire (best-effort unless
        :meth:`_ctl_send` retransmits it)."""
        msg = Message(handler, data, size=nbytes, src_pe=self.node.pe)
        msg.seq, msg.ack = seq, ack
        self.network.inject(self.node.pe, dst, nbytes, msg)

    def _ctl_send(self, dst: int, handler: int, data: Any, nbytes: int,
                  on_acked: Optional[Callable[[], None]] = None) -> None:
        self._ctl_seq += 1
        seq = self._ctl_seq
        entry = _CtlPending(handler, dst, data, nbytes, on_acked)
        self._ctl_pending[seq] = entry
        self._ctl_transmit(seq, entry)

    def _ctl_transmit(self, seq: int, entry: _CtlPending) -> None:
        self._send(entry.dst, entry.handler, entry.data, entry.size, seq)
        entry.timer = self.engine.schedule(
            self.timing.ctl_rto, self._ctl_timeout, seq
        )

    def _ctl_timeout(self, seq: int) -> None:
        entry = self._ctl_pending.get(seq)
        if entry is None:
            return
        entry.retries += 1
        if entry.retries > self.timing.ctl_retries:
            del self._ctl_pending[seq]
            name = self.runtime.handlers.name_of(entry.handler)
            raise FaultToleranceError(
                f"PE {self.node.pe}: ft control message {name!r} to "
                f"PE {entry.dst} unacknowledged after "
                f"{self.timing.ctl_retries} retransmissions"
            )
        self._ctl_transmit(seq, entry)

    # ------------------------------------------------------------------
    # arrivals
    # ------------------------------------------------------------------
    def _on_arrival(self, msg: Message) -> bool:
        """Front-of-chain interceptor: every delivery is liveness
        evidence; FT protocol messages are consumed here."""
        src = msg.src_pe
        if src is not None and src >= 0:
            self._last_heard[src] = self.engine.now
        handle = self._handlers.get(msg.handler)
        if handle is None:
            return False
        if msg.corrupted:
            return True  # checksum failure; the control channel retries
        if msg.seq >= 0:
            # A control message.  Ack first: the handlers are idempotent
            # and a duplicate must be re-acked or a lost ack wedges the
            # peer.
            self._send(src, self._h_ack, None, 8, ack=msg.seq)
        handle(msg)
        return True

    def _on_ack(self, msg: Message) -> None:
        entry = self._ctl_pending.pop(msg.ack, None)
        if entry is not None:
            if entry.timer is not None:
                entry.timer.cancel()
            if entry.on_acked is not None:
                entry.on_acked()

    def _on_prune(self, msg: Message) -> None:
        self.rel.prune_log(msg.payload["owner"], msg.payload["below"])

    def _on_ckpt(self, msg: Message) -> None:
        d = msg.payload
        key = (d["node_epoch"], d["epoch"])
        cur = self._store.get(d["owner"])
        # Lexicographic (incarnation, checkpoint) ordering: a restarted
        # owner's first checkpoint supersedes its previous life's last.
        if cur is None or key >= cur[0]:
            self._store[d["owner"]] = (key, d["app"], d["rel"])

    def _on_recover(self, msg: Message) -> None:
        owner = msg.payload["owner"]
        self.membership[owner] = "up"
        stored = self._store.get(owner)
        if stored is None:
            self._ctl_send(owner, self._h_ckpt_data,
                           {"owner": owner, "found": False,
                            "app": None, "rel": None}, 16)
        else:
            _key, app_blob, rel_state = stored
            self._ctl_send(owner, self._h_ckpt_data,
                           {"owner": owner, "found": True,
                            "app": app_blob, "rel": rel_state},
                           self._ckpt_size(app_blob, rel_state))

    def _on_ckpt_data(self, msg: Message) -> None:
        if self.recovered:
            return  # duplicate response to a retransmitted pull
        d = msg.payload
        found = d["found"]
        if found:
            # The buddy keeps its stored blob; this incarnation mutates
            # a private deep copy.
            self._unpack(copy.deepcopy(d["app"]))
            self.rel.import_state(d["rel"])
        else:
            # Cold start: empty protocol state.  Replay-from-0 below
            # still recovers everything peers ever logged for us, and
            # the caller of recover() redoes its initialization.
            self.rel.import_state(
                {"next_seq": {}, "expected": {}, "pending": [], "log": {}}
            )
        self.rel.resume()
        me = self.node.pe
        for other in range(self.num_pes):
            if other != me:
                self._ctl_send(
                    other, self._h_replay,
                    {"owner": me, "from_seq": self.rel.expected_seq(other)}, 16,
                )
        self._finish_recovery(found)

    def _on_replay(self, msg: Message) -> None:
        owner = msg.payload["owner"]
        # The requester is alive by definition; also reconcile the
        # retransmission state of anything still pending to it.
        self.membership[owner] = "up"
        self.rel.reset_peer(owner)
        self.rel.resend_logged(owner, msg.payload["from_seq"])
        if (owner == self.buddy and self._ckpt_owed
                and self._pack is not None and self.recovered
                and not self._ckpt_msg_out):
            # Our custodian is back — fresh, with amnesia, holding
            # nothing of ours.  Queue a checkpoint at the next message
            # boundary (the interval-marker mechanism) to re-establish
            # custody of our latest state.
            self._ckpt_msg_out = True
            self.node.deliver(Message(self._h_tick, None, size=0))
        if self.coordinator.distributed:
            # Per-process coordinator replicas (mp layer) learn of the
            # owner's completed recovery through this reliable, sent-to-
            # every-peer request; _resolve is duplicate-tolerant.
            self.coordinator.on_recovered(owner, self.engine.now)

    def _on_down_notice(self, msg: Message) -> None:
        target = msg.payload["target"]
        if target == self.node.pe:
            return  # gossip about us — evidently stale
        if self.membership.get(target) != "down":
            self.membership[target] = "down"
            for fn in self._on_failure:
                fn(target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FTAgent pe={self.node.pe} buddy={self.buddy} "
            f"active={self.active} recovered={self.recovered}>"
        )
