"""Per-PE load gossip — the Cld telemetry signal path.

Strategies used to read a peer's live queue length straight out of the
peer's runtime object (the "zero-lag idealization" the old module doc
admitted to).  That reach-through is impossible on the multiprocess
machine layer, where peers are separate OS processes, and it hides the
telemetry-staleness dimension real load balancers must live with.

:class:`LoadGossip` replaces it with an honest signal path.  Each PE
keeps a local **load table** — its possibly-stale view of every peer's
load — fed by two mechanisms, both riding existing machinery:

* **piggybacking**: every seed-forwarding wrapper the balancer sends
  carries the sender's current load; the receiver folds it into its
  table for free (no extra messages).
* **periodic broadcast**: a low-rate Ccd timer (``CcdCallFnAfter``)
  broadcasts ``(pe, load)`` to all peers.  The timer is *lazily armed*
  on seed activity and re-arms only while this PE still has load, so
  the final tick of a draining PE advertises load 0 and then goes
  quiet — quiescence detection stays exact on both machine layers (a
  timer that re-armed forever would hold the mp hub's pending-timer
  count above zero and hang shutdown).

The table is the **only** remote-load telemetry a strategy may read
(:meth:`CldBalancer.load_of` routes through it), which is exactly what
makes every strategy backend-portable: nothing in the signal path
assumes shared memory.

Need-based cost: a balancer only constructs a :class:`LoadGossip` when
its strategy class sets ``needs_remote_load = True``.  ``direct`` /
``random`` / ``spray`` never pay for telemetry they do not read — no
handler, no timer, no per-seed load sampling.

The gossip interval is the machine's
:attr:`~repro.machine.interface.PEHost.cld_gossip_interval` (100 us of
virtual time by default) — the mp layer sets a coarser wall-clock
interval so real timers are not spammy.
"""

from __future__ import annotations

from typing import Any

from repro.core.message import Message

__all__ = ["LoadGossip"]


class LoadGossip:
    """One PE's load table plus the machinery that keeps it fresh-ish.

    Parameters
    ----------
    balancer:
        The owning :class:`~repro.loadbalance.base.CldBalancer`; supplies
        the runtime, the local-load metric and the per-tick strategy hook
        (:meth:`~repro.loadbalance.base.CldBalancer.on_gossip_tick`).
    """

    __slots__ = ("balancer", "runtime", "table", "interval", "_armed",
                 "handler_id", "broadcasts")

    def __init__(self, balancer: Any) -> None:
        rt = balancer.runtime
        self.balancer = balancer
        self.runtime = rt
        #: ``table[pe]`` — the last load value heard from ``pe`` (0 until
        #: first contact; possibly stale by design).  This PE's own slot
        #: is never read: :meth:`CldBalancer.load_of` answers the local
        #: question live.
        self.table = [0] * rt.num_pes
        self.interval = float(rt.machine.cld_gossip_interval)
        self._armed = False
        #: periodic broadcasts sent (tests assert gossip stays low-rate).
        self.broadcasts = 0
        # Registered here — immediately after the balancer's own seed
        # handler — so the index is identical on every PE (cross-PE
        # gossip messages name the handler by index).
        self.handler_id = rt.register_handler(self._on_gossip, "cld.gossip")

    # ------------------------------------------------------------------
    # table updates
    # ------------------------------------------------------------------
    def note(self, pe: Any, load: int) -> None:
        """Fold one heard load sample into the table (piggybacked or
        replied; ``pe`` may be ``None`` for an unstamped source)."""
        if pe is not None and pe != self.runtime.my_pe:
            self.table[pe] = load

    def _on_gossip(self, msg: Message) -> None:
        pe, load = msg.payload
        if pe != self.runtime.my_pe:
            self.table[pe] = load

    # ------------------------------------------------------------------
    # the periodic broadcast
    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Arm the periodic tick if it is not already pending.  Called
        from the balancer's seed-activity points (root/forward); cheap
        enough to call per seed (one bool test once armed)."""
        if not self._armed:
            self._armed = True
            self.runtime.ccd_call_fn_after(self.interval, self._tick)

    def _tick(self) -> None:
        self._armed = False
        load = self.balancer.advertised_load()
        self.broadcasts += 1
        rt = self.runtime
        rt.cmi.sync_broadcast(
            Message(self.handler_id, (rt.my_pe, load), size=16)
        )
        # Strategy hook: CldAdaptive runs its rebalance pass here, on the
        # same clock that refreshes everyone's view of this PE.
        self.balancer.on_gossip_tick(load)
        # Re-arm only while loaded: the last tick of a draining PE
        # advertises 0 and stops, so idle machines quiesce.
        if load > 0:
            self.kick()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LoadGossip pe={self.runtime.my_pe} table={self.table} "
                f"armed={self._armed}>")
