"""Deterministic fault plans: what goes wrong, where and when.

The paper's CMI assumes a well-behaved machine layer; a production
message layer cannot.  A :class:`FaultPlan` makes a machine hostile on
purpose: per-link, seeded probabilities of dropping, duplicating,
delaying, reordering and corrupting in-flight packets, plus a schedule
of whole-PE crashes.  It is pure data and one ``random.Random(seed)``
consumed in a fixed per-packet order.  Every machine layer applies it
where a packet leaves its sender, through :meth:`FaultPlan.apply`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.errors import SimulationError

__all__ = ["FaultSpec", "CrashSpec", "FaultStats", "FaultPlan"]


@dataclass(frozen=True)
class FaultSpec:
    """Per-link fault probabilities and magnitudes.

    All rates are in ``[0, 1]``.  ``delay`` keeps per-channel FIFO order
    (it pushes later packets back too, like a congested switch);
    ``reorder`` exempts the packet from the FIFO bookkeeping so later
    sends may overtake it.  ``corrupt`` flags the payload in flight
    (``payload.corrupted = True`` where the payload supports it) — the
    simulator's stand-in for a bit flip caught by a checksum.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    reorder: float = 0.0
    corrupt: float = 0.0
    #: maximum extra latency (seconds) added by a delay fault.
    delay_max: float = 40e-6
    #: maximum deferral (seconds) applied to a reordered packet.
    reorder_max: float = 120e-6

    def validate(self) -> None:
        for name in ("drop", "duplicate", "delay", "reorder", "corrupt"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(
                    f"fault rate {name}={rate} outside [0, 1]"
                )
        if self.delay_max < 0 or self.reorder_max < 0:
            raise SimulationError("fault jitter bounds must be >= 0")


@dataclass(frozen=True)
class CrashSpec:
    """One scheduled whole-PE crash (and optional restart).

    ``at`` is the virtual time the PE dies: its tasklets are killed, its
    inbox/memory/software state discarded, and in-flight deliveries to it
    dropped.  ``restart_after`` is how long the PE stays down before the
    machine reboots it (``None`` — never: a permanent failure).
    """

    pe: int
    at: float
    restart_after: Optional[float] = 250e-6

    def validate(self, num_pes: Optional[int] = None) -> None:
        if self.pe < 0:
            raise SimulationError(f"crash PE must be >= 0, got {self.pe}")
        if num_pes is not None and self.pe >= num_pes:
            raise SimulationError(
                f"crash PE {self.pe} out of range [0, {num_pes})"
            )
        if self.at < 0:
            raise SimulationError(
                f"crash time must be >= 0, got crash_at={self.at}"
            )
        if self.restart_after is not None and self.restart_after < 0:
            raise SimulationError(
                f"restart_after must be >= 0 or None (never restart), "
                f"got {self.restart_after}"
            )


@dataclass
class FaultStats:
    """Counters of injected faults, exposed on :class:`FaultPlan`."""

    packets: int = 0
    drops: int = 0
    duplicates: int = 0
    delays: int = 0
    reorders: int = 0
    corruptions: int = 0
    per_link: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def record(self, src: int, dst: int, action: str) -> None:
        setattr(self, action, getattr(self, action) + 1)
        key = (src, dst)
        self.per_link[key] = self.per_link.get(key, 0) + 1

    def add(self, other: "FaultStats") -> None:
        """Fold one sender's counts into this sum."""
        for f in fields(self)[:-1]:  # every counter but per_link
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        for key, n in other.per_link.items():
            self.per_link[key] = self.per_link.get(key, 0) + n


class FaultPlan:
    """A seeded, per-link schedule of network faults.

    Parameters
    ----------
    seed:
        Seed of the plan's private RNG.  Two runs of the same workload
        with the same seed inject *identical* faults (the simulation
        engine is deterministic, so packets reach the plan in the same
        order); on mp each sender's verdicts repeat (:meth:`reseed`).
    drop, duplicate, delay, reorder, corrupt, delay_max, reorder_max:
        Default :class:`FaultSpec` rates applied to every link.
    links:
        Optional ``{(src_pe, dst_pe): FaultSpec}`` overrides for
        individual directed links (e.g. drop only the ack direction).
    crashes:
        Explicit whole-PE crash schedule: either ``{pe: crash_at_seconds}``
        or an iterable of :class:`CrashSpec` (for per-crash restart
        control).  Dict entries use the plan-wide ``restart_after``.
    mttf:
        Seeded mean time to failure (seconds).  When positive, every PE
        draws one exponentially distributed crash time from a *separate*
        derived RNG stream (so the per-packet link-fault stream — and
        hence existing traces — is untouched).  Combined with ``crashes``.
    restart_after:
        Default downtime before a crashed PE reboots, for dict-style
        ``crashes`` entries and all ``mttf`` draws.  ``None`` — never.
    """

    def __init__(self, seed: int = 0, *, drop: float = 0.0,
                 duplicate: float = 0.0, delay: float = 0.0,
                 reorder: float = 0.0, corrupt: float = 0.0,
                 delay_max: float = 40e-6, reorder_max: float = 120e-6,
                 links: Optional[Dict[Tuple[int, int], FaultSpec]] = None,
                 crashes: Any = None, mttf: float = 0.0,
                 restart_after: Optional[float] = 250e-6) -> None:
        self.seed = seed
        self.default = FaultSpec(
            drop=drop, duplicate=duplicate, delay=delay, reorder=reorder,
            corrupt=corrupt, delay_max=delay_max, reorder_max=reorder_max,
        )
        self.default.validate()
        self.links: Dict[Tuple[int, int], FaultSpec] = dict(links or {})
        for spec in self.links.values():
            spec.validate()
        if mttf < 0:
            raise SimulationError(f"mttf must be >= 0, got {mttf}")
        if restart_after is not None and restart_after < 0:
            raise SimulationError(
                f"restart_after must be >= 0 or None, got {restart_after}"
            )
        self.mttf = mttf
        self.restart_after = restart_after
        self.crashes: list = []
        if crashes is not None:
            if isinstance(crashes, dict):
                items = [CrashSpec(pe, at, restart_after)
                         for pe, at in sorted(crashes.items())]
            else:
                items = list(crashes)
            for spec in items:
                if not isinstance(spec, CrashSpec):
                    raise SimulationError(
                        f"crashes entries must be CrashSpec (or a "
                        f"{{pe: crash_at}} dict), got {type(spec).__name__}"
                    )
                spec.validate()
            self.crashes = items
        self.rng = random.Random(seed)
        self.stats = FaultStats()

    def reseed(self, pe: int, epoch: int = 0) -> None:
        """Make this copy the private plan of one sender: an RNG stream
        of its own from ``(seed, pe, epoch)`` and zeroed counters, so its
        verdicts depend on its own send order alone."""
        self.rng = random.Random(f"{self.seed}-{pe}-{epoch}")
        self.stats = FaultStats()

    def spec_for(self, src: int, dst: int) -> FaultSpec:
        """The effective spec for one directed link."""
        return self.links.get((src, dst), self.default)

    def crash_schedule(self, num_pes: int) -> list:
        """The combined crash schedule for an ``num_pes``-PE machine:
        explicit :class:`CrashSpec` entries plus, when ``mttf`` is
        positive, one seeded exponential draw per PE (in PE order, from a
        derived RNG stream independent of the per-packet link-fault
        stream).  Sorted by ``(at, pe)``; deterministic for a given seed.
        """
        schedule = list(self.crashes)
        for spec in schedule:
            spec.validate(num_pes)
        if self.mttf > 0.0:
            rng = random.Random(f"{self.seed}-crash")
            for pe in range(num_pes):
                schedule.append(
                    CrashSpec(pe, rng.expovariate(1.0 / self.mttf),
                              self.restart_after)
                )
        schedule.sort(key=lambda s: (s.at, s.pe))
        return schedule

    # ------------------------------------------------------------------
    # per-packet decisions
    # ------------------------------------------------------------------
    def decide(self, src: int, dst: int) -> Tuple[bool, bool, list]:
        """Decide the fate of one packet on link ``src -> dst``.

        Returns ``(dropped, corrupted, copies)`` where ``copies`` is a
        list of ``(extra_delay_seconds, keep_fifo, action)`` — one entry
        per delivered copy (two when duplicated; drops return early with
        none).  ``action`` names the timing fault (``"delay"``,
        ``"reorder"``, ``"duplicate"``) or is ``None``.  The RNG is
        consumed in a fixed order (drop, corrupt, duplicate, then
        per-copy timing) so traces are reproducible.
        """
        spec = self.spec_for(src, dst)
        r = self.rng
        self.stats.packets += 1
        if spec.drop and r.random() < spec.drop:
            self.stats.record(src, dst, "drops")
            return True, False, []
        corrupted = bool(spec.corrupt) and r.random() < spec.corrupt
        if corrupted:
            self.stats.record(src, dst, "corruptions")
        ncopies = 1
        if spec.duplicate and r.random() < spec.duplicate:
            self.stats.record(src, dst, "duplicates")
            ncopies = 2
        copies = []
        for i in range(ncopies):
            if spec.reorder and r.random() < spec.reorder:
                self.stats.record(src, dst, "reorders")
                copies.append((r.uniform(0.0, spec.reorder_max), False, "reorder"))
            elif spec.delay and r.random() < spec.delay:
                self.stats.record(src, dst, "delays")
                copies.append((r.uniform(0.0, spec.delay_max), i == 0, "delay"))
            elif i == 0:
                copies.append((0.0, True, None))
            else:
                # The duplicate copy trails the original slightly and is
                # never part of the channel's FIFO bookkeeping.
                copies.append((r.uniform(0.0, spec.delay_max), False, "duplicate"))
        return False, corrupted, copies

    def apply(self, src: int, dst: int, nbytes: int, payload: Any,
              emit: Callable[[float, bool], None], tracer: Any = None,
              now: float = 0.0) -> None:
        """Carry out one packet's fate on link ``src -> dst``: draw the
        verdict (:meth:`decide`), trace each fault on ``tracer`` at
        ``now``, flag a corrupted ``payload`` that has the slot (one
        without arrives undetectably damaged) and call the machine
        layer's ``emit(extra_delay, keep_fifo)`` per delivered copy."""
        dropped, corrupted, copies = self.decide(src, dst)
        if tracer is not None:
            actions = ["drop"] if dropped else (
                ["corrupt"] * corrupted
                + [action for _e, _k, action in copies if action])
            for action in actions:
                tracer.record(src, now, "fault",
                              {"action": action, "dst": dst, "size": nbytes})
        if corrupted and hasattr(payload, "corrupted"):
            payload.corrupted = True
        for extra, keep_fifo, _action in copies:
            emit(extra, keep_fifo)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return (
            f"<FaultPlan seed={self.seed} drops={s.drops} dups={s.duplicates}"
            f" delays={s.delays} reorders={s.reorders} corrupt={s.corruptions}>"
        )
