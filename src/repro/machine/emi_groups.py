"""EMI processor groups and spanning-tree operations (paper section 3.1.3,
API appendix section 3.8).

"Often entities in a subgroup of processors need to engage in group
communication.  The machine layer, which is knowledgeable about topology
and other communication aspects, is best able to optimize such group
operations."  The EMI therefore provides calls to build processor groups
as explicit spanning trees (the root adds children with
``CmiAddChildren``), to multicast along the tree, and to run reductions
and barriers over the tree.

Modelling note: group descriptors are registered machine-wide at creation
(``Pgrp`` objects are looked up by id on any PE; the registry, the cached
world group and the gid counter are the ``pgrp_*`` attributes every
:class:`~repro.machine.interface.PEHost` declares).  On a real machine the
descriptor is distributed once at group-build time; the registry is the
zero-cost idealization of that one-time distribution, so a layer whose
PEs do not share it refuses ``CmiPgrpCreate`` up front
(:meth:`~repro.machine.interface.PEHost.user_pgrp_registry`).  All
*per-operation* traffic — multicast forwarding, reduction contributions —
travels through the simulated network and pays full message costs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import GroupError
from repro.core.message import Message

__all__ = ["Pgrp", "GroupInterface", "world_group"]


def _alloc_gid(machine: Any) -> int:
    """Allocate the next group id *per machine*.  A process-global
    counter would make gid assignment depend on how many machines were
    built earlier in the same process — nondeterministic for tests and
    for any tool that persists gids across runs."""
    gid = machine.pgrp_next_gid
    machine.pgrp_next_gid = gid + 1
    return gid


def world_group(machine: Any) -> "Pgrp":
    """The all-PEs group (binomial spanning tree rooted at PE 0), built on
    first use and cached on the machine.  Language runtimes use it for
    their global barriers and reductions."""
    g = machine.world_pgrp
    if g is not None:
        return g
    g = Pgrp(0, gid=_alloc_gid(machine))
    # Binomial tree: node p's children are p + 2^k for every bit 2^k below
    # p's lowest set bit (all bits, for the root).  Every node n > 0 then
    # has parent n - lowbit(n), which is smaller than n, so adding
    # children in ascending p order keeps the tree well-formed.
    num = machine.num_pes
    for p in range(num):
        children = []
        bit = 1
        while bit < num and not (p & bit):
            c = p + bit
            if c < num:
                children.append(c)
            bit <<= 1
        if children:
            g.add_children(p, children)
    machine.pgrp_registry[g.gid] = g
    machine.world_pgrp = g
    return g


class Pgrp:
    """A processor group: a rooted spanning tree over a subset of PEs."""

    #: process-global fallback counter, used only when no machine-scoped
    #: gid is supplied (direct ``Pgrp(...)`` construction in tests); the
    #: machine layer always passes one (see :func:`_alloc_gid`).
    _next_gid = 1

    def __init__(self, root: int, gid: Optional[int] = None) -> None:
        if gid is None:
            gid = Pgrp._next_gid
            Pgrp._next_gid += 1
        self.gid = gid
        self.root = root
        self._parent: Dict[int, int] = {}
        self._children: Dict[int, List[int]] = {root: []}
        self.destroyed = False

    # -- structure ------------------------------------------------------
    def add_children(self, penum: int, procs: List[int]) -> None:
        """Attach ``procs`` as children of member ``penum``."""
        self._check_alive()
        if penum not in self._children:
            raise GroupError(f"PE {penum} is not a member of group {self.gid}")
        for p in procs:
            if p in self._children:
                raise GroupError(f"PE {p} is already a member of group {self.gid}")
            self._children[penum].append(p)
            self._children[p] = []
            self._parent[p] = penum

    def members(self) -> List[int]:
        """Sorted list of member PEs."""
        self._check_alive()
        return sorted(self._children)

    def children(self, penum: int) -> List[int]:
        """The member's children in the spanning tree."""
        self._check_member(penum)
        return list(self._children[penum])

    def num_children(self, penum: int) -> int:
        """``CmiNumChildren``."""
        return len(self.children(penum))

    def parent(self, penum: int) -> Optional[int]:
        """``CmiParent`` (``None`` for the root)."""
        self._check_member(penum)
        return self._parent.get(penum)

    def contains(self, pe: int) -> bool:
        """True when ``pe`` is a member of this group."""
        return pe in self._children

    def _check_member(self, pe: int) -> None:
        self._check_alive()
        if pe not in self._children:
            raise GroupError(f"PE {pe} is not a member of group {self.gid}")

    def _check_alive(self) -> None:
        if self.destroyed:
            raise GroupError(f"group {self.gid} has been destroyed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pgrp gid={self.gid} root={self.root} members={self.members()}>"


class GroupInterface:
    """Per-PE entry points for group operations.

    Constructed for every PE at machine build time so that the internal
    forwarding handlers occupy the same index on all PEs.
    """

    def __init__(self, cmi: Any) -> None:
        self.cmi = cmi
        self.runtime = cmi.runtime
        self._registry: Dict[int, Pgrp] = self.runtime.machine.pgrp_registry
        self._mcast_handler = self.runtime.register_handler(
            self._on_multicast, "emi.pgrp.mcast"
        )
        self._reduce_handler = self.runtime.register_handler(
            self._on_contribution, "emi.pgrp.reduce"
        )
        #: (gid, seq) -> list of pending child contributions on this PE.
        self._contrib: Dict[Tuple[int, int], List[Any]] = {}
        #: (gid, seq) -> final result, once known on this PE.
        self._results: Dict[Tuple[int, int], Any] = {}
        #: per-group reduction sequence numbers on this PE.
        self._seq: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # group lifecycle
    # ------------------------------------------------------------------
    def create(self) -> Pgrp:
        """``CmiPgrpCreate``: new group rooted at the calling PE (refused
        on a layer whose PEs cannot share the descriptor)."""
        machine = self.runtime.machine
        registry = machine.user_pgrp_registry()
        g = Pgrp(self.cmi.my_pe(), gid=_alloc_gid(machine))
        registry[g.gid] = g
        return g

    def destroy(self, group: Pgrp) -> None:
        """``CmiPgrpDestroy`` — root-only, like ``CmiAddChildren``: the
        root built the tree and owns its lifecycle; letting any member
        tear it down would race with in-flight collectives on the other
        members."""
        group._check_alive()
        if self.cmi.my_pe() != group.root:
            raise GroupError(
                f"only the root (PE {group.root}) may destroy group {group.gid}"
            )
        group.destroyed = True
        self._registry.pop(group.gid, None)
        # Drop the machine's world-group cache when that is the group
        # being destroyed; a later world_group() call then builds a fresh
        # tree instead of handing out a dead descriptor.
        machine = self.runtime.machine
        if machine.world_pgrp is group:
            machine.world_pgrp = None

    def add_children(self, group: Pgrp, penum: int, procs: List[int]) -> None:
        """``CmiAddChildren`` — root-only, per the paper."""
        if self.cmi.my_pe() != group.root:
            raise GroupError(
                f"only the root (PE {group.root}) may add children to "
                f"group {group.gid}"
            )
        for p in procs:
            if not 0 <= p < self.cmi.num_pes():
                raise GroupError(f"PE {p} out of range")
        group.add_children(penum, procs)

    def lookup(self, gid: int) -> Pgrp:
        """Resolve a group id to its descriptor (GroupError if unknown)."""
        try:
            return self._registry[gid]
        except KeyError:
            raise GroupError(f"no group with id {gid}") from None

    # ------------------------------------------------------------------
    # multicast
    # ------------------------------------------------------------------
    def async_multicast(self, group: Pgrp, msg: Message) -> None:
        """``CmiAsyncMulticast``: deliver ``msg`` to every member except
        the caller, forwarding along the spanning tree.  The caller need
        not belong to the group.

        A member origin (root or not) floods outward from its own tree
        position — to its parent and children — instead of detouring
        through the root; a non-member origin relays via the root, the
        only PE it knows how to reach in the tree.
        """
        group._check_alive()
        me = self.cmi.my_pe()
        payload = (group.gid, me, msg.handler, msg.payload, msg.size)
        if group.contains(me):
            self._propagate(group, payload, via=None)
        else:
            wrapper = Message(self._mcast_handler, payload, size=msg.size)
            self.cmi.sync_send(group.root, wrapper)

    def _propagate(self, group: Pgrp, payload: Tuple, via: Optional[int]) -> None:
        """Deliver locally (if a member and not the origin) and forward
        to every tree neighbour — parent and children — except ``via``,
        the neighbour the wrapper arrived from.  On a tree this floods
        each edge exactly once, so every member is reached exactly once
        from any member origin."""
        gid, origin, handler, inner_payload, size = payload
        me = self.cmi.my_pe()
        if not group.contains(me):
            # Only reachable at the root of a relay from a non-member
            # origin; a non-member root cannot exist, so membership here
            # is a structural invariant — but a stale wrapper after a
            # group rebuild should drop, not crash.
            return
        if me != origin:
            inner = Message(handler, inner_payload, size=size, src_pe=origin)
            # Local delivery: a self-loopback message (counted as a send
            # so message-conservation invariants hold).
            self.runtime.node.stats.msgs_sent += 1
            self.runtime.node.engine.schedule(0.0, self.runtime.node.deliver, inner)
        parent = group.parent(me)
        neighbours = group.children(me) if parent is None else [parent] + group.children(me)
        for hop in neighbours:
            if hop == via:
                continue
            wrapper = Message(self._mcast_handler, payload, size=size)
            self.cmi.sync_send(hop, wrapper)

    def _on_multicast(self, wrapper: Message) -> None:
        payload = wrapper.payload
        group = self.lookup(payload[0])
        # The wrapper's src_pe is the forwarding neighbour (or a
        # non-member origin relaying to the root); either way that PE has
        # already seen the payload, so never send back along that edge.
        self._propagate(group, payload, via=wrapper.src_pe)

    # ------------------------------------------------------------------
    # reductions / barriers (spanning-tree collectives)
    # ------------------------------------------------------------------
    def reduce(self, group: Pgrp, value: Any, op: Callable[[Any, Any], Any]) -> Any:
        """Collective reduction over the group's spanning tree.

        Every member must call this (with the same ``op``); the combined
        value is returned on every member.  Contributions climb the tree;
        the root multicasts the result back down.  While waiting, the
        caller drains incoming messages (like a real machine layer driving
        its communication engine), so reductions compose with other
        in-flight traffic.
        """
        me = self.cmi.my_pe()
        group._check_member(me)
        seq = self._seq.get(group.gid, 0) + 1
        self._seq[group.gid] = seq
        key = (group.gid, seq)
        nkids = group.num_children(me)
        # Wait for all child contributions (they arrive as messages).
        self._drain_until(lambda: len(self._contrib.get(key, [])) >= nkids)
        acc = value
        for v in self._contrib.pop(key, []):
            acc = op(acc, v)
        parent = group.parent(me)
        if parent is None:
            # Root: result is final; share it with the group.  Only the
            # non-root members stash it in ``_results`` (popped in their
            # wait below) — recording it here too would leak one entry
            # per reduction on the root, since nothing ever pops it.
            result_msg = Message(self._reduce_handler, ("result", key, acc))
            self.async_multicast(group, result_msg)
            return acc
        contrib = Message(self._reduce_handler, ("contrib", key, acc))
        self.cmi.sync_send(parent, contrib)
        self._drain_until(lambda: key in self._results)
        return self._results.pop(key)

    def barrier(self, group: Pgrp) -> None:
        """Spanning-tree barrier: a reduction that carries no data."""
        self.reduce(group, 0, lambda a, b: 0)

    def _on_contribution(self, msg: Message) -> None:
        kind, key, value = msg.payload
        if kind == "contrib":
            self._contrib.setdefault(key, []).append(value)
        else:  # "result"
            self._results[key] = value

    def _drain_until(self, predicate: Callable[[], bool]) -> None:
        """Process network messages until ``predicate`` holds (blocking
        when nothing is pending)."""
        rt = self.runtime
        cmi = self.cmi
        while not predicate():
            if rt.has_pending_network:
                rt.scheduler.deliver_network_msgs(limit=1)
            else:
                # About to block: push out any aggregation-buffered sends
                # (our own contribution may be sitting in a batch buffer,
                # and a blocked PE would deadlock the collective).  One
                # None test when aggregation is off.
                cmi.flush_aggregation("idle")
                rt.node.wait_until(lambda: rt.has_pending_network or predicate())
