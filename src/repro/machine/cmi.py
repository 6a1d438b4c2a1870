"""The Converse Machine Interface — MMI core (paper section 3.1.3 + API
appendix).

"The MMI layer defines a minimal interface between the machine independent
part of the runtime such as the scheduler and the machine dependent part."
Portability layers such as PVM/MPI "represent an overkill for our
requirements": the MMI deliberately offers no tag-based retrieval and no
per-pair ordering bookkeeping beyond what the hardware gives — retrieval
is by *handler*, and anything richer (tags, sources, wildcards) is built
on top (see :mod:`repro.msgmgr.message_manager`).

One :class:`CMI` instance exists per PE, owned by its
:class:`~repro.core.runtime.ConverseRuntime`.  The EMI extensions (vector
sends, scatter, groups, global pointers) hang off it as lazily built
sub-objects, so programs that never touch them never construct them —
need-based cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import MessageError, RetryExhaustedError, SimulationError
from repro.core.message import HEADER_BYTES, Message, wire_copy
from repro.machine.interface import ProtocolTiming, SendHandle

__all__ = ["CMI", "ReliableConfig", "RelStats", "ReliableDelivery"]


# ----------------------------------------------------------------------
# reliable delivery (off by default — need-based cost)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReliableConfig:
    """Tuning knobs of the reliable-delivery protocol.

    The defaults suit the paper's machine models (tens of microseconds
    per round trip): the initial retransmission timeout comfortably
    exceeds one RTT, backs off exponentially on repeated loss, and gives
    up after ``max_retries`` unacknowledged attempts (raising
    :class:`~repro.core.errors.RetryExhaustedError`, deterministically
    reproducible from the fault-plan seed).
    """

    #: initial retransmission timeout (seconds of virtual time).
    rto: float = 400e-6
    #: retransmissions allowed per packet before declaring the link dead.
    max_retries: int = 24

    def validate(self) -> "ReliableConfig":
        if self.rto <= 0:
            raise SimulationError(f"rto must be positive, got {self.rto}")
        if self.max_retries < 0:
            raise SimulationError(
                f"max_retries must be >= 0, got {self.max_retries}")
        return self


#: modelled sizes (bytes) of a data packet's header and of a bare ack,
#: and the multiplicative backoff applied after every retransmission.
_REL_HEADER_BYTES = 16
_ACK_BYTES = 16
_BACKOFF = 2.0


@dataclass
class RelStats:
    """Per-PE counters of the reliability protocol (also traced).

    ``acks_sent`` counts standalone ack packets and ``acks_piggybacked``
    data packets that carried an owed cumulative ack, so their sum is
    every ack this PE gave; ``acks_delayed`` counts the standalone acks
    the delayed-ack timer flushed (the others answer an out-of-order or
    duplicate arrival); ``acks_received`` counts data packets an ack
    released from the pending set (each exactly once)."""

    data_sent: int = 0
    retransmits: int = 0
    acks_sent: int = 0
    acks_delayed: int = 0
    acks_piggybacked: int = 0
    acks_received: int = 0
    stale_acks: int = 0
    #: app messages released, in order, exactly once.
    delivered: int = 0
    dup_dropped: int = 0
    corrupt_dropped: int = 0
    held_out_of_order: int = 0


_NEVER = float("inf")


class _Pending:
    """Sender-side state of one unacknowledged data packet (keyed by its
    destination and sequence number in ``ReliableDelivery._pending``)."""

    __slots__ = ("msg", "nbytes", "retries", "rto", "due", "sent_at")

    def __init__(self, msg: Message, nbytes: int, rto: float,
                 sent_at: float = 0.0) -> None:
        #: what a retransmission clones (the first transmission itself).
        self.msg = msg
        self.nbytes = nbytes
        self.retries = 0
        self.rto = rto
        #: engine time at which this packet is retransmitted unless acked
        #: (never while its first transmission is still being charged).
        self.due = _NEVER
        #: virtual send time of the *first* transmission, for RTT metering.
        self.sent_at = sent_at


class ReliableDelivery:
    """Exactly-once, per-sender-FIFO delivery over a lossy network.

    One instance per PE, enabled explicitly (``Machine(reliable=True)``
    or ``runtime.enable_reliability()``) — programs that do not ask for
    reliability never construct it and pay nothing, per the paper's
    need-based-cost principle.

    Protocol: every outgoing message carries the reliable header in its
    own slots — ``seq``, a per-destination sequence number, and ``ack``,
    a piggybacked cumulative acknowledgement — and a bare ack is a
    payload-less :class:`~repro.core.message.Message` for a handler index
    this layer registers.  The receiver drops
    duplicates, holds out-of-order packets in a reassembly buffer, and
    releases messages to the normal delivery path strictly in sequence
    order.  Acks are cumulative: one number, the count of messages
    released in order from that peer.  An in-order arrival only records
    that an ack is owed; the next data packet to that peer carries it,
    and when no reverse data comes within ``rto / 4`` one lazy
    delayed-ack timer per peer sends it as a standalone ack packet.  So
    a fault-free exchange puts no ack packet on the wire beyond the
    last one per direction.  An out-of-order or duplicate arrival is
    acked at once by a standalone packet naming that one sequence (plus
    the cumulative number), so a lost ack is healed by the
    retransmission it provokes.  The sender keeps one ordered pending
    map and one retransmit timer per peer: the timer retransmits the
    packets whose deadline passed (exponential backoff, retry cap) and
    re-arms for the earliest remaining deadline; an ack never cancels
    it, a timer that finds nothing pending just stops.

    The receive side is the node's arrival interceptor, and the
    timers in engine callbacks, both in whatever context the layer
    delivers and fires timers in, and never two at once on a PE:
    outside any tasklet on the simulator, so acknowledgements flow even
    when the PE never polls; on the PE's main thread at its next runtime
    entry on ``mp``, where a PE whose mains have returned stays parked
    in the runtime and keeps acknowledging.  Acks and suppressed
    copies are invisible to the node's message counters: an application
    message is counted sent once (by the CMI) and received once (when
    released), which keeps message-conservation invariants — and hence
    quiescence detection — exact under loss, duplication and reordering.

    Ownership rules the header riding in the message depends on.  On
    the simulator a duplicate fault re-delivers *the same object*, so
    dedup reads only fields nobody writes after the send: the receive
    side never writes ``seq``/``ack``.  A message this layer sends is a
    copy it makes itself, never pooled: a receiver could otherwise
    recycle and reuse it before its duplicate lands.  Every
    retransmission is a fresh clone with ``corrupted`` clear (of the
    pristine log entry when crash recovery is armed).
    """

    def __init__(self, runtime: Any, config: Optional[ReliableConfig] = None,
                 timing: Optional[ProtocolTiming] = None) -> None:
        self.runtime = runtime
        self.node = runtime.node
        self.network = runtime.machine.network
        self.engine = runtime.machine.engine
        self.config = config or ReliableConfig()
        timing = timing or self.node.timing
        #: the first retransmission timeout and its backoff ceiling.
        self.rto = max(self.config.rto, timing.rto_floor)
        self.max_rto = timing.max_rto
        self.stats = RelStats()
        #: bare acks' handler index.  The arrival hook consumes every ack
        #: (and would handle one dispatched here just the same).
        self._h_ack = runtime.register_handler(self._on_arrival, "rel.ack")
        #: the message :meth:`_release` hands back to ``node.deliver``.
        self._releasing: Optional[Message] = None
        self._next_seq: Dict[int, int] = {}
        #: ``dst -> {seq: _Pending}``, in ascending seq order.
        self._pending: Dict[int, Dict[int, _Pending]] = {}
        #: ``dst -> (timer, deadline)``: the peer's one retransmit timer,
        #: armed no later than its earliest pending deadline.
        self._rtx: Dict[int, Tuple[Any, float]] = {}
        self._expected: Dict[int, int] = {}
        self._held: Dict[int, Dict[int, Message]] = {}
        #: ``src -> engine time`` since when an ack to ``src`` is owed.
        self._owed: Dict[int, float] = {}
        #: ``src -> timer``: the peer's one lazy delayed-ack timer.
        self._ack_timers: Dict[int, Any] = {}
        self._ack_delay = self.rto / 4
        if runtime.metering:
            from repro.metrics.registry import TIME_BUCKETS

            metrics = runtime.metrics
            self._mx_rtt = metrics.histogram(
                "rel.rtt", TIME_BUCKETS,
                help="data-packet round-trip time, first transmission -> "
                     "ack, non-retransmitted packets only (s)",
            )
            self._mx_retransmits = metrics.counter(
                "rel.retransmits", help="reliable-layer retransmissions"
            )
            self._mx_data_sent = metrics.counter(
                "rel.data_sent", help="reliable data packets first transmitted"
            )
            self._mx_dups = metrics.counter(
                "rel.dups_dropped", help="duplicate data packets suppressed"
            )
        else:
            self._mx_rtt = None
        #: sender-side message log for crash recovery, enabled by the
        #: fault-tolerance layer (``None`` by default: with FT off the
        #: send path pays one attribute test and no copies).  Maps
        #: ``dst -> {seq: (pristine message clone, payload bytes)}``.
        self._ft_log: Optional[Dict[int, Dict[int, Tuple[Message, int]]]] = None
        #: give-up sink installed by the fault-tolerance layer: when set,
        #: a retry-exhausted packet feeds the failure detector instead of
        #: crashing the run.
        self._ft_giveup: Optional[Callable[[Any], None]] = None
        #: True while this PE is mid-recovery: incoming data must not be
        #: released (or acked) before the checkpoint state is restored.
        self._paused = False
        self.node.set_interceptor(self._on_arrival)

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def send(self, dest_pe: int, msg: Message, msg_id: Optional[int] = None,
             extra_send_cost: float = 0.0,
             asynchronous: bool = False) -> Optional[SendHandle]:
        """Transmit the caller's ``msg`` reliably (trace id ``msg_id``):
        the packet that travels is a copy this layer makes, writes its
        header into and keeps for retransmission.  Returns a completion
        handle for asynchronous sends."""
        wire = wire_copy(msg, self.node.pe, msg_id)
        seq = self._next_seq.get(dest_pe, 0)
        self._next_seq[dest_pe] = seq + 1
        nbytes = wire.size + _REL_HEADER_BYTES
        pending = _Pending(wire, nbytes, self.rto, sent_at=self.node.now)
        pend = self._pending.get(dest_pe)
        if pend is None:
            pend = self._pending[dest_pe] = {}
        pend[seq] = pending
        if self._ft_log is not None:
            # Sender-based message logging: keep a pristine clone so the
            # destination can be replayed after a crash (the message
            # itself gets delivered and recycled at the receiver).
            self._ft_log.setdefault(dest_pe, {})[seq] = (
                self._clone(wire), wire.size
            )
        self.stats.data_sent += 1
        if self.runtime.tracing:
            self.runtime.trace_event("rel_data", dest=dest_pe, seq=seq, size=wire.size)
        if self.runtime.metering:
            self._mx_data_sent.inc(self.node.pe)
        wire.seq = seq
        wire.ack = self._piggyback(dest_pe)
        handle: Optional[SendHandle] = None
        if asynchronous:
            handle = self.network.async_send(
                self.node, dest_pe, nbytes, wire, extra_send_cost=extra_send_cost
            )
        else:
            self.network.sync_send(
                self.node, dest_pe, nbytes, wire, extra_send_cost=extra_send_cost
            )
        pending.due = self.engine.now + pending.rto
        self._arm_rtx(dest_pe, pending.due)
        return handle

    def _piggyback(self, dst: int) -> int:
        """The cumulative ack a data packet to ``dst`` carries: the owed
        one (which it then settles), else 0 (acknowledges nothing)."""
        if self._owed.pop(dst, None) is None:
            return 0
        ack = self._expected.get(dst, 0)
        self.stats.acks_piggybacked += 1
        if self.runtime.tracing:
            self.runtime.trace_event("rel_ack_out", dest=dst, seq=-1,
                                     ack=ack, piggyback=True)
        return ack

    def _arm_rtx(self, dst: int, due: float) -> None:
        """Arm ``dst``'s retransmit timer for ``due`` unless it is already
        armed no later."""
        armed = self._rtx.get(dst)
        if armed is not None:
            if armed[1] <= due:
                return
            armed[0].cancel()
        engine = self.engine
        self._rtx[dst] = (
            engine.schedule(max(0.0, due - engine.now), self._on_rtx_timer,
                            dst, due),
            due,
        )

    def _on_rtx_timer(self, dst: int, due: float) -> None:
        """Retransmit every packet to ``dst`` whose deadline is ``due`` or
        earlier, then re-arm for the earliest remaining one (or stop:
        nothing pending)."""
        del self._rtx[dst]
        pend = self._pending.get(dst)
        if not pend:
            return
        for seq, p in [(s, p) for s, p in pend.items() if p.due <= due]:
            self._retransmit(dst, seq, p, pend)
        pend = self._pending.get(dst)
        if pend:
            due = min(p.due for p in pend.values())
            if due != _NEVER:  # else the send being charged arms it
                self._arm_rtx(dst, due)

    def _retransmit(self, dst: int, seq: int, pending: _Pending,
                    pend: Dict[int, _Pending]) -> None:
        if pending.retries >= self.config.max_retries:
            del pend[seq]
            if self.runtime.tracing:
                self.runtime.trace_event("rel_giveup", dest=dst, seq=seq,
                                         retries=pending.retries)
            err = RetryExhaustedError(
                self.node.pe, dst, seq, pending.retries,
                self.node.now - pending.sent_at, stats=replace(self.stats),
            )
            if self._ft_giveup is not None:
                # With a failure detector attached, a dead link is
                # evidence of a dead peer, not a fatal error.
                self._ft_giveup(err)
                return
            raise err
        pending.retries += 1
        self.stats.retransmits += 1
        if self.runtime.tracing:
            self.runtime.trace_event("rel_retransmit", dest=dst, seq=seq,
                                     attempt=pending.retries)
        if self.runtime.metering:
            self._mx_retransmits.inc(self.node.pe)
        # A fresh clone per transmission: fault corruption flags one copy
        # without poisoning the message for later attempts.
        msg = pending.msg
        if self._ft_log is not None:
            # With crash recovery armed, a peer's expected sequences can
            # roll back to its checkpoint — a retransmission may then be
            # *released* a second time, so clone the pristine log entry,
            # not the first transmission (whose payload its delivery
            # nulled when the handler returned).
            entries = self._ft_log.get(dst)
            logged = None if entries is None else entries.get(seq)
            if logged is not None:
                msg = logged[0]
        wire = self._clone(msg, seq, self._piggyback(dst))
        self.network.inject(self.node.pe, dst, pending.nbytes, wire)
        pending.rto = min(pending.rto * _BACKOFF, self.max_rto)
        pending.due = self.engine.now + pending.rto

    # ------------------------------------------------------------------
    # receiver side (arrival interceptor: engine-callback context)
    # ------------------------------------------------------------------
    def _on_arrival(self, msg: Message) -> bool:
        """The node's arrival hook: True consumes ``msg`` (an ack, a
        suppressed or held copy), False lets it on to the inbox."""
        if msg is self._releasing:
            self._releasing = None
            return False
        is_ack = msg.handler == self._h_ack
        if msg.seq < 0 and not is_ack:
            return False  # unsequenced: immediate sends, Ccd ticks, ...
        if self._paused:
            # Mid-recovery: consume silently with no acks and no state
            # changes — senders keep retransmitting, and the post-restore
            # replay covers anything that arrived too early.
            if self.runtime.tracing:
                self.runtime.trace_event("rel_paused_drop", src=msg.src_pe,
                                         seq=msg.seq, ack=is_ack)
            return True
        if msg.corrupted:
            # A failed checksum: no ack, the sender will retransmit.
            self.stats.corrupt_dropped += 1
            if self.runtime.tracing:
                self.runtime.trace_event("rel_corrupt", src=msg.src_pe,
                                         seq=msg.seq, ack=is_ack)
            return True
        if is_ack:
            self._on_ack(msg.src_pe, msg.ack, msg.seq, False)
            return True
        if msg.ack:
            self._on_ack(msg.src_pe, msg.ack, -1, True)
        return self._on_data(msg)

    def _on_ack(self, src: int, ack: int, seq: int, piggyback: bool) -> None:
        """Settle pending packets to ``src``: everything below the
        cumulative ``ack``, plus the one named ``seq`` (-1: none)."""
        pend = self._pending.get(src)
        acked = 0
        while pend:
            first = next(iter(pend))
            if first >= ack:
                break
            self._acked(pend.pop(first))
            acked += 1
        if seq >= 0 and pend:
            p = pend.pop(seq, None)
            if p is not None:
                self._acked(p)
                acked += 1
        if self.runtime.tracing:
            self.runtime.trace_event("rel_ack", src=src, seq=seq, ack=ack,
                                     stale=acked == 0, piggyback=piggyback)
        if not acked:
            # An ack for packets already acked (the receiver re-acks
            # duplicates); harmless.
            self.stats.stale_acks += 1

    def _acked(self, pending: _Pending) -> None:
        self.stats.acks_received += 1
        if self.runtime.metering and pending.retries == 0:
            # Karn's rule: only unambiguous (never-retransmitted) samples
            # enter the RTT distribution.
            self._mx_rtt.observe(self.node.pe, self.node.now - pending.sent_at)

    def _on_data(self, msg: Message) -> bool:
        src, seq = msg.src_pe, msg.seq
        expected = self._expected.get(src, 0)
        if seq < expected:
            self._note_dup(src, seq)
            return True
        held = self._held.get(src)
        if held is not None and seq in held:
            self._note_dup(src, seq)
            return True
        if seq > expected:
            if held is None:
                held = self._held[src] = {}
            held[seq] = msg
            self.stats.held_out_of_order += 1
            if self.runtime.tracing:
                self.runtime.trace_event("rel_hold", src=src, seq=seq,
                                         expected=expected)
            self._send_ack(src, seq)
            return True
        # In sequence.  Each release is owed-acked first, so a reply its
        # handler sends at once already carries the ack.
        nxt = expected + 1
        self._expected[src] = nxt
        self._owe(src)
        if not held or nxt not in held:
            self._release(src, seq)
            return False  # on to the inbox in this same delivery
        # A gap filled: release it and the consecutive run it unblocks,
        # in order, each through ``node.deliver``.
        self._release(src, seq, msg)
        while nxt in held:
            self._expected[src] = nxt + 1
            self._owe(src)
            self._release(src, nxt, held.pop(nxt))
            nxt += 1
        return True

    def _owe(self, src: int) -> None:
        """Record that ``src`` is owed a cumulative ack; the first owed
        ack arms the peer's delayed-ack timer unless it already runs."""
        if src not in self._owed:
            now = self.engine.now
            self._owed[src] = now
            if src not in self._ack_timers:
                self._ack_timers[src] = self.engine.schedule(
                    self._ack_delay, self._on_ack_timer, src,
                    now + self._ack_delay)

    def _on_ack_timer(self, src: int, due: float) -> None:
        """Flush the ack owed to ``src`` once it has waited ``rto / 4``
        (``due`` is this timer's deadline); re-arm while a younger one is
        owed, stop when none is."""
        del self._ack_timers[src]
        since = self._owed.get(src)
        if since is None:
            return  # reverse data carried it
        later = since + self._ack_delay
        if later <= due:
            self.stats.acks_delayed += 1
            self._send_ack(src, -1)
        else:
            self._ack_timers[src] = self.engine.schedule(
                max(0.0, later - self.engine.now), self._on_ack_timer, src,
                later)

    def _note_dup(self, src: int, seq: int) -> None:
        """Record one suppressed duplicate (stats, trace, metrics) and
        ack it at once."""
        self.stats.dup_dropped += 1
        if self.runtime.tracing:
            self.runtime.trace_event("rel_dup", src=src, seq=seq)
        if self.runtime.metering:
            self._mx_dups.inc(self.node.pe)
        self._send_ack(src, seq)

    def _send_ack(self, dest: int, seq: int) -> None:
        """A standalone ack packet: the cumulative number (settling any
        owed ack) plus, for an out-of-order or duplicate arrival, its
        ``seq``."""
        self._owed.pop(dest, None)
        ack = self._expected.get(dest, 0)
        self.stats.acks_sent += 1
        if self.runtime.tracing:
            self.runtime.trace_event("rel_ack_out", dest=dest, seq=seq,
                                     ack=ack, piggyback=False)
        msg = Message(self._h_ack, None, size=_ACK_BYTES, src_pe=self.node.pe)
        msg.seq, msg.ack = seq, ack
        self.network.inject(self.node.pe, dest, _ACK_BYTES, msg)

    def _release(self, src: int, seq: int,
                 msg: Optional[Message] = None) -> None:
        """Release one message in order, exactly once; a held ``msg``
        goes back through ``node.deliver``, which the hook lets it
        pass."""
        self.stats.delivered += 1
        if self.runtime.tracing:
            self.runtime.trace_event("rel_release", src=src, seq=seq)
        if msg is not None:
            self._releasing = msg
            self.node.deliver(msg)
            self._releasing = None

    # ------------------------------------------------------------------
    # crash recovery (driven by the fault-tolerance layer)
    # ------------------------------------------------------------------
    @staticmethod
    def _clone(msg: Message, seq: int = -1, ack: int = 0) -> Message:
        """A pristine copy of a wire message: same header but for the
        reliable one (``seq``/``ack``), the same (shared,
        by-convention-immutable) payload, fresh ownership state — so the
        log, checkpoints and each retransmission survive the original
        being delivered and recycled at the receiver."""
        c = Message(msg.handler, msg._payload, size=msg.size, prio=msg.prio,
                    src_pe=msg.src_pe)
        c.msg_id, c.seq, c.ack = msg.msg_id, seq, ack
        return c

    def pause(self) -> None:
        """Stop releasing (and acking) incoming data until :meth:`resume`
        — armed on a restarted PE so nothing reaches the application
        before its checkpoint state is back.  Owed acks are forgotten:
        the post-restore replay re-provokes them."""
        self._paused = True
        self._owed.clear()

    def resume(self) -> None:
        """Re-open the receive side after recovery."""
        self._paused = False

    def export_state(self) -> Dict[str, Any]:
        """Snapshot the protocol state for a checkpoint: per-destination
        send sequences, per-source expected sequences, the identities of
        still-unacknowledged packets, and the recovery message log.  The
        snapshot shares (pristine, never-delivered) message clones with
        the live log; both sides only ever copy them, never mutate.
        Deadlines and owed acks are not carried: a restore resends the
        pending packets on fresh timers and acks what the replay brings."""
        log: Dict[int, Dict[int, Tuple[Message, int]]] = {}
        ft_log = self._ft_log
        if ft_log is not None:
            log = {dst: dict(entries) for dst, entries in ft_log.items()}
        pend = sorted(
            (dst, seq) for dst, entries in self._pending.items()
            for seq in entries if seq in log.get(dst, {})
        )
        return {
            "next_seq": dict(self._next_seq),
            "expected": dict(self._expected),
            "pending": pend,
            "log": log,
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        """Restore a checkpoint snapshot onto this (freshly restarted)
        PE's protocol instance and put every packet that was pending at
        checkpoint time back on the wire.  Out-of-order holdings and
        owed acks gathered before the restore are discarded — the peers'
        replay resends them, and the restored ``expected`` map dedups."""
        self._next_seq = dict(state["next_seq"])
        self._expected = dict(state["expected"])
        self._held.clear()
        self._owed.clear()
        if self._ft_log is not None:
            self._ft_log = {
                dst: dict(entries) for dst, entries in state["log"].items()
            }
        for dst, seq in state["pending"]:
            entry = state["log"].get(dst, {}).get(seq)
            if entry is not None:
                self._resend(dst, seq, entry[0], entry[1])

    def _resend(self, dst: int, seq: int, msg: Message, size: int) -> None:
        """(Re)create sender state for a logged packet and transmit a
        fresh copy, NIC-level (no CPU charge — recovery runs at interrupt
        level).  No-op when the packet is already pending."""
        pend = self._pending.get(dst)
        if pend is None:
            pend = self._pending[dst] = {}
        elif seq in pend:
            return
        nbytes = size + _REL_HEADER_BYTES
        pending = _Pending(msg, nbytes, self.rto, sent_at=self.node.now)
        pending.retries = 1  # Karn's rule: never an RTT sample
        pending.due = due = self.engine.now + pending.rto
        if pend and seq < next(reversed(pend)):
            # A replay below still-pending sends: keep the map in seq
            # order, which cumulative acks rely on.
            pend[seq] = pending
            self._pending[dst] = dict(sorted(pend.items()))
        else:
            pend[seq] = pending
        self.stats.retransmits += 1
        if self.runtime.tracing:
            self.runtime.trace_event("rel_retransmit", dest=dst, seq=seq,
                                     attempt=1, recovery=True)
        wire = self._clone(msg, seq, self._piggyback(dst))
        self.network.inject(self.node.pe, dst, nbytes, wire)
        self._arm_rtx(dst, due)

    def resend_logged(self, dst: int, from_seq: int) -> int:
        """Replay this PE's logged sends to ``dst`` with their original
        sequence numbers, starting at ``from_seq`` (the restarted peer's
        restored ``expected`` value).  Already-delivered packets among
        them are dup-dropped and re-acked by the peer; genuinely lost
        ones fill the gap.  Returns the number of packets resent."""
        entries = None if self._ft_log is None else self._ft_log.get(dst)
        if not entries:
            return 0
        n = 0
        for seq in sorted(entries):
            if seq >= from_seq:
                msg, size = entries[seq]
                self._resend(dst, seq, msg, size)
                n += 1
        return n

    def prune_log(self, dst: int, below: int) -> int:
        """Drop log entries to ``dst`` below sequence ``below`` (the
        destination checkpointed them: replay will never need them).
        Still-pending packets are kept regardless, preserving the
        checkpoint invariant that every pending packet has a log entry."""
        entries = None if self._ft_log is None else self._ft_log.get(dst)
        if not entries:
            return 0
        pend = self._pending.get(dst, {})
        stale = [s for s in entries if s < below and s not in pend]
        for s in stale:
            del entries[s]
        return len(stale)

    def reset_peer(self, dst: int) -> None:
        """Reconcile retransmission state after ``dst`` recovered: give
        every packet still pending to it a fresh retry budget and timeout
        (the backed-off deadlines were measuring a dead PE)."""
        pend = self._pending.get(dst)
        if not pend:
            return
        rto = self.rto
        due = self.engine.now + rto
        for p in pend.values():
            p.retries = 1
            p.rto = rto
            p.due = due
        self._arm_rtx(dst, due)

    def close(self) -> None:
        """Cancel every retransmit and delayed-ack timer and forget the
        pending set and owed acks.  Called on machine shutdown and when
        this PE crashes — a dead (or torn-down) PE must not retransmit."""
        for timer, _due in self._rtx.values():
            timer.cancel()
        for timer in self._ack_timers.values():
            timer.cancel()
        self._rtx.clear()
        self._ack_timers.clear()
        self._pending.clear()
        self._owed.clear()

    def expected_seq(self, src: int) -> int:
        """The next sequence number expected from ``src`` (what a
        recovering peer asks senders to replay from)."""
        return self._expected.get(src, 0)

    @property
    def in_flight(self) -> int:
        """Number of locally-sent packets not yet acknowledged."""
        return sum(len(pend) for pend in self._pending.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return (
            f"<ReliableDelivery pe={self.node.pe} sent={s.data_sent} "
            f"retx={s.retransmits} delivered={s.delivered} dups={s.dup_dropped}>"
        )


class CMI:
    """Per-PE machine interface."""

    def __init__(self, runtime: Any) -> None:
        self.runtime = runtime
        self.node = runtime.node
        self.network = runtime.machine.network
        self.model = runtime.model
        self._emi_groups: Any = None
        self._emi_gptr: Any = None
        self._emi_scatter: Any = None
        #: optional reliable-delivery layer; ``None`` (the default) keeps
        #: every send on the raw machine path with zero added cost.
        self._reliable: Optional[ReliableDelivery] = None
        #: optional message-aggregation layer (``repro.comms.aggregation``);
        #: ``None`` (the default) costs the send path one identity test.
        self._aggregation: Any = None
        # Metric handles, cached once per PE (need-based cost: with
        # metrics off every send pays one flag test and nothing else).
        if runtime.metering:
            from repro.metrics.registry import SIZE_BUCKETS

            metrics = runtime.metrics
            self._mx_sends = metrics.counter(
                "cmi.sends", help="point-to-point messages sent (all flavours)"
            )
            self._mx_send_bytes = metrics.counter(
                "cmi.send_bytes", help="payload bytes sent point-to-point"
            )
            self._mx_broadcasts = metrics.counter(
                "cmi.broadcasts", help="broadcast operations initiated"
            )
            self._mx_msg_bytes = metrics.histogram(
                "cmi.msg_bytes", SIZE_BUCKETS,
                help="per-message payload size at send time (bytes)",
            )
        else:
            self._mx_sends = None

    # ------------------------------------------------------------------
    # reliability (opt-in)
    # ------------------------------------------------------------------
    def enable_reliability(self, config: Optional[ReliableConfig] = None,
                           timing: Optional[ProtocolTiming] = None) -> ReliableDelivery:
        """Build (idempotently) the reliable-delivery layer for this PE.
        All point-to-point and broadcast sends from this PE are sequenced
        from now on; ``immediate_send`` stays raw (an interrupt-style
        message that tolerated loss would not be worth preempting for)."""
        if self._reliable is None:
            self._reliable = ReliableDelivery(self.runtime, config, timing)
        return self._reliable

    @property
    def reliable(self) -> Optional[ReliableDelivery]:
        """The reliability layer, or ``None`` when disabled."""
        return self._reliable

    # ------------------------------------------------------------------
    # aggregation (opt-in)
    # ------------------------------------------------------------------
    def enable_aggregation(self, config: Any = None) -> Any:
        """Build (idempotently) the streaming-aggregation layer for this
        PE.  Eligible small point-to-point sends are coalesced from now
        on.  Normally enabled machine-wide via ``Machine(aggregation=...)``
        so the batch handler occupies the same index on every PE —
        enabling it on a subset of PEs by hand misroutes batches."""
        if self._aggregation is None:
            from repro.comms.aggregation import Aggregator

            self._aggregation = Aggregator(self.runtime, config)
            self.runtime.idle_flush = self._aggregation.flush_idle
        return self._aggregation

    @property
    def aggregation(self) -> Any:
        """The aggregation layer, or ``None`` when disabled."""
        return self._aggregation

    def flush_aggregation(self, cause: str = "explicit") -> int:
        """Flush every aggregation buffer on this PE (no-op without the
        layer); returns the number of batches sent.  Blocking primitives
        call this before parking so buffered traffic cannot deadlock a
        rendezvous."""
        agg = self._aggregation
        if agg is None:
            return 0
        return agg.flush_all(cause)

    # ------------------------------------------------------------------
    # identity & timers
    # ------------------------------------------------------------------
    def my_pe(self) -> int:
        """``CmiMyPe()``."""
        return self.node.pe

    def num_pes(self) -> int:
        """``CmiNumPe()``."""
        return self.runtime.machine.num_pes

    def timer(self) -> float:
        """``CmiTimer()``: seconds of virtual time since ConverseInit."""
        return self.node.now

    def wall_timer(self) -> float:
        """``CmiWallTimer()``: identical to :meth:`timer` here — on the
        simulated machine the highest-resolution timer *is* the virtual
        clock ("timers with different resolutions", section 3.1.3)."""
        return self.node.now

    def cpu_timer(self) -> float:
        """``CmiCpuTimer()``: CPU time consumed by this PE — charged
        compute, not wall time spent idle."""
        return self.node.stats.busy_time

    # ------------------------------------------------------------------
    # message header manipulation
    # ------------------------------------------------------------------
    @staticmethod
    def msg_header_size_bytes() -> int:
        """``CmiMsgHeaderSizeBytes()``."""
        return HEADER_BYTES

    @staticmethod
    def set_handler(msg: Message, handler_id: int) -> None:
        """``CmiSetHandler``."""
        if not isinstance(handler_id, int) or handler_id < 0:
            raise MessageError(f"invalid handler id {handler_id!r}")
        msg.handler = handler_id

    def get_handler_function(self, msg: Message) -> Callable[[Message], None]:
        """``CmiGetHandlerFunction``: resolve the message's handler index
        against this PE's table."""
        return self.runtime.handlers.lookup(msg.handler)

    def register_handler(self, fn: Callable[[Message], None],
                         name: Optional[str] = None) -> int:
        """``CmiRegisterHandler``."""
        return self.runtime.register_handler(fn, name)

    # ------------------------------------------------------------------
    # point-to-point sends
    # ------------------------------------------------------------------
    def _next_msg_id(self) -> int:
        """Allocate a machine-wide trace correlation id from the host's
        seed and stride (see :class:`~repro.machine.interface.PEHost`).
        Only called with tracing on, so untraced runs never pay for (or
        depend on) the counter."""
        m = self.runtime.machine
        m._msg_id_seq += m._msg_id_stride
        return m._msg_id_seq

    def _meter_send(self, size: int, n: int = 1) -> None:
        """Metrics bookkeeping for ``n`` point-to-point sends of ``size``
        bytes each (metering is on)."""
        pe = self.node.pe
        self._mx_sends.inc(pe, n)
        self._mx_send_bytes.inc(pe, size * n)
        self._mx_msg_bytes.observe(pe, size)

    def _check_dest(self, dest_pe: int) -> None:
        if not 0 <= dest_pe < self.num_pes():
            raise MessageError(
                f"destination PE {dest_pe} out of range [0, {self.num_pes()})"
            )

    def sync_send(self, dest_pe: int, msg: Message,
                  direct: bool = False) -> None:
        """``CmiSyncSend``: blocking send; the caller may reuse ``msg``
        (and its buffer) as soon as this returns.

        With the aggregation layer enabled, messages of at most its
        ``max_msg_bytes`` are coalesced into batches instead of paying
        per-message wire costs; ``direct=True`` opts a send out (used by
        latency-critical control protocols, e.g. quiescence detection,
        whose message accounting must not be deferred).
        """
        rt = self.runtime
        node = self.node
        # The bounds/liveness guards are inlined (one comparison each on
        # the fast path); the helpers are only entered to raise with the
        # canonical message.
        if not 0 <= dest_pe < rt.machine.num_pes:
            self._check_dest(dest_pe)
        if rt.exited:
            rt.check_active()
        agg = self._aggregation
        if (agg is not None and not direct
                and msg.size <= agg.config.max_msg_bytes):
            # Coalesced path: the batch (not each message) is the unit the
            # machine layer counts and charges for.  Logical sends remain
            # visible to metrics and tracing.  No wire copy is built at
            # all — the aggregator's record tuple carries the fields and
            # the receive side constructs the delivered message fresh.
            if self.runtime.tracing:
                mid = self._next_msg_id()
                self.runtime.trace_event(
                    "send", dest=dest_pe, size=msg.size, handler=msg.handler,
                    aggregated=True, msg=mid,
                )
            else:
                mid = None
            if self.runtime.metering:
                self._meter_send(msg.size)
            agg.submit_fields(dest_pe, msg.handler, msg.payload, msg.size,
                              self.node.pe, mid)
            return
        mid = self._count_send(dest_pe, msg)
        if self._reliable is not None:
            self._reliable.send(dest_pe, msg, mid,
                                extra_send_cost=self.model.cvs_send_extra)
            return
        self.network.send_msg(node, dest_pe, msg, mid, self.model.cvs_send_extra)

    def _count_send(self, dest_pe: int, msg: Message,
                    kind: Optional[str] = None) -> Optional[int]:
        """Stats and metrics of one point-to-point send of ``msg``; with
        tracing on, its ``send`` event (flagged ``kind``, e.g.
        ``"asynchronous"``), whose trace id it returns (else None)."""
        stats = self.node.stats
        stats.msgs_sent += 1
        stats.bytes_sent += msg.size
        rt = self.runtime
        if rt.metering:
            self._meter_send(msg.size)
        if rt.tracing:
            mid = self._next_msg_id()
            rt.trace_event("send", dest=dest_pe, size=msg.size, handler=msg.handler,
                           **({kind: True} if kind else {}), msg=mid)
            return mid
        return None

    def async_send(self, dest_pe: int, msg: Message) -> SendHandle:
        """``CmiAsyncSend``: returns a handle; ``msg`` must not be reused
        until :meth:`async_msg_sent` reports completion."""
        self._check_dest(dest_pe)
        self.runtime.check_active()
        mid = self._count_send(dest_pe, msg, "asynchronous")
        if self._reliable is not None:
            return self._reliable.send(dest_pe, msg, mid,
                                       extra_send_cost=self.model.cvs_send_extra,
                                       asynchronous=True)
        return self.network.send_msg(self.node, dest_pe, msg, mid,
                                     self.model.cvs_send_extra, asynchronous=True)

    def immediate_send(self, dest_pe: int, msg: Message) -> None:
        """Extension (paper section 6 future work: "preemptive messages
        (interrupt messages) will be investigated"): like
        :meth:`sync_send` but the destination runs the handler ahead of
        everything queued, bypassing the scheduler — even if the PE is
        blocked in an SPM receive.  The simulator runs it at arrival
        time, mid-computation included; an mp worker at its next runtime
        entry (:meth:`PENode.deliver_immediate`).  Handlers delivered
        this way should be short and must not assume scheduler
        context."""
        self._check_dest(dest_pe)
        self.runtime.check_active()
        mid = self._count_send(dest_pe, msg, "immediate")
        self.network.send_msg(self.node, dest_pe, msg, mid,
                              self.model.cvs_send_extra, immediate=True)

    @staticmethod
    def async_msg_sent(handle: SendHandle) -> bool:
        """``CmiAsyncMsgSent``."""
        return handle.done

    @staticmethod
    def release_comm_handle(handle: SendHandle) -> None:
        """``CmiReleaseCommHandle``: frees the handle, not the buffer."""
        handle.release()

    def vector_send(self, dest_pe: int, handler_id: int,
                    pieces: Sequence[bytes]) -> SendHandle:
        """``CmiVectorSend`` (EMI gather-send): logically concatenates the
        pieces into one message for ``handler_id`` on ``dest_pe``.  The
        pieces must stay untouched until the returned handle completes."""
        self._check_dest(dest_pe)
        self.runtime.check_active()
        for i, p in enumerate(pieces):
            if not isinstance(p, (bytes, bytearray, memoryview)):
                raise MessageError(
                    f"vector_send piece {i} must be bytes-like, got {type(p).__name__}"
                )
        # join copies each piece once; only a strided view, which it
        # refuses, is flattened first.
        payload = b"".join(
            p if not isinstance(p, memoryview) or p.c_contiguous else p.tobytes()
            for p in pieces)
        msg = Message(handler_id, payload, size=len(payload), src_pe=self.node.pe)
        self.node.stats.msgs_sent += 1
        self.node.stats.bytes_sent += msg.size
        if self.runtime.tracing:
            msg.msg_id = self._next_msg_id()
            self.runtime.trace_event(
                "send", dest=dest_pe, size=msg.size, handler=handler_id,
                vector=len(pieces), msg=msg.msg_id,
            )
        if self.runtime.metering:
            self._meter_send(msg.size)
        if self._reliable is not None:
            return self._reliable.send(dest_pe, msg, msg.msg_id,
                                       extra_send_cost=self.model.cvs_send_extra,
                                       asynchronous=True)
        return self.network.async_send(
            self.node, dest_pe, msg.size, msg,
            extra_send_cost=self.model.cvs_send_extra,
        )

    # ------------------------------------------------------------------
    # broadcasts ("our broadcast is not a barrier")
    # ------------------------------------------------------------------
    def _bcast(self, msg: Message, include_self: bool, asynchronous: bool) -> Optional[SendHandle]:
        self.runtime.check_active()
        dests = self.num_pes() - (0 if include_self else 1)
        self.node.stats.msgs_sent += dests
        self.node.stats.bytes_sent += msg.size * dests
        ids: Dict[int, int] = {}
        if self.runtime.tracing:
            # Pre-allocate one correlation id per destination copy so the
            # broadcast event can announce them: offline tools join each
            # copy's receive/handler_begin back to this single event.
            ids = {
                dst: self._next_msg_id()
                for dst in range(self.num_pes())
                if include_self or dst != self.node.pe
            }
            self.runtime.trace_event(
                "broadcast", size=msg.size, handler=msg.handler,
                include_self=include_self,
                msg_ids=sorted(ids.values()),
            )
        if self.runtime.metering:
            pe = self.node.pe
            self._mx_broadcasts.inc(pe)
            self._mx_sends.inc(pe, dests)
            self._mx_send_bytes.inc(pe, msg.size * dests)
            self._mx_msg_bytes.observe(pe, msg.size)
        if self._reliable is not None:
            # A reliable broadcast is per-destination reliable sends: every
            # copy needs its own sequence number, ack and retransmission
            # state.  (The sender therefore pays full per-destination send
            # overhead instead of the broadcast_factor discount — the cost
            # of reliability, charged only to those who asked for it.)
            self.network.stats.broadcasts += 1
            handle: Optional[SendHandle] = None
            for dst in range(self.num_pes()):
                if not include_self and dst == self.node.pe:
                    continue
                handle = self._reliable.send(
                    dst, msg, ids.get(dst),
                    extra_send_cost=self.model.cvs_send_extra,
                    asynchronous=asynchronous,
                ) or handle
            return handle
        return self.network.broadcast_msg(
            self.node, msg, ids, include_self=include_self,
            extra_send_cost=self.model.cvs_send_extra,
            asynchronous=asynchronous,
        )

    def sync_broadcast(self, msg: Message) -> None:
        """``CmiSyncBroadcast``: everyone but the caller."""
        self._bcast(msg, include_self=False, asynchronous=False)

    def sync_broadcast_all(self, msg: Message) -> None:
        """``CmiSyncBroadcastAll``: everyone including the caller."""
        self._bcast(msg, include_self=True, asynchronous=False)

    def sync_broadcast_all_and_free(self, msg: Message) -> None:
        """``CmiSyncBroadcastAllAndFree``: broadcast to all and release the
        caller's buffer (the message object is poisoned afterwards)."""
        self._bcast(msg, include_self=True, asynchronous=False)
        msg.mark_cmi_owned()
        msg.recycle()

    def async_broadcast(self, msg: Message) -> Optional[SendHandle]:
        """``CmiAsyncBroadcast``."""
        return self._bcast(msg, include_self=False, asynchronous=True)

    def async_broadcast_all(self, msg: Message) -> Optional[SendHandle]:
        """``CmiAsyncBroadcastAll``."""
        return self._bcast(msg, include_self=True, asynchronous=True)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def get_msg(self) -> Optional[Message]:
        """``CmiGetMsg``: non-blocking; returns the next received message
        (CMI retains buffer ownership — grab to keep) or ``None``."""
        msg = self.runtime.next_network_msg()
        if msg is None:
            return None
        self.node.charge(self.model.recv_overhead)
        msg.mark_cmi_owned()
        return msg

    def deliver_msgs(self, limit: Optional[int] = None) -> int:
        """``CmiDeliverMsgs``: invoke the handler of every message
        currently available from the machine layer."""
        return self.runtime.scheduler.deliver_network_msgs(limit=limit)

    def get_specific_msg(self, handler_id: int) -> Message:
        """``CmiGetSpecificMsg``: block until a message for ``handler_id``
        arrives, side-buffering messages meant for other handlers (the
        no-concurrency / SPM receive primitive)."""
        got: List[Message] = []
        self.runtime.drain_for(handler_id, got.append, until=lambda: got)
        msg = got[0]
        msg.mark_cmi_owned()
        return msg

    @staticmethod
    def grab_buffer(msg: Message) -> Message:
        """``CmiGrabBuffer``: take ownership of a delivered buffer."""
        return msg.grab()

    # ------------------------------------------------------------------
    # console I/O
    # ------------------------------------------------------------------
    def printf(self, fmt: str, *args: Any) -> None:
        """``CmiPrintf``: atomic formatted write to the job's stdout."""
        self.runtime.machine.console.printf(self.node.pe, fmt, *args)

    def error(self, fmt: str, *args: Any) -> None:
        """``CmiError``: atomic formatted write to the job's stderr."""
        self.runtime.machine.console.error(self.node.pe, fmt, *args)

    def scanf(self, fmt: str) -> List[Any]:
        """``CmiScanf``: blocking, serialized formatted read."""
        return self.runtime.machine.console.scanf(fmt)

    def scanf_async(self, fmt: str, handler_id: int) -> None:
        """Non-blocking scanf variant (paper section 3.1.3): when a line of
        input is available it is sent to ``handler_id`` on this PE as a
        formatted-string message, which the handler can re-scan (e.g. with
        :func:`repro.sim.console.sscanf`)."""
        console = self.runtime.machine.console
        node = self.node

        def waiter() -> None:
            line = console.read_line()
            reply = Message(handler_id, line, size=len(line), src_pe=node.pe)
            # Host-to-PE delivery: modelled as free local injection.
            node.engine.schedule(0.0, node.deliver, reply)

        node.spawn(waiter, name="scanf")

    # ------------------------------------------------------------------
    # EMI sub-interfaces (lazy)
    # ------------------------------------------------------------------
    @property
    def groups(self) -> Any:
        """Processor groups + spanning-tree operations (EMI)."""
        if self._emi_groups is None:
            from repro.machine.emi_groups import GroupInterface

            self._emi_groups = GroupInterface(self)
        return self._emi_groups

    @property
    def gptr(self) -> Any:
        """Global pointers and get/put (EMI)."""
        if self._emi_gptr is None:
            from repro.machine.emi_globalptr import GlobalPointerInterface

            self._emi_gptr = GlobalPointerInterface(self)
        return self._emi_gptr

    @property
    def scatter(self) -> Any:
        """Advance-receive scatter registrations (EMI)."""
        if self._emi_scatter is None:
            from repro.machine.emi_scatter import ScatterInterface

            self._emi_scatter = ScatterInterface(self)
        return self._emi_scatter
