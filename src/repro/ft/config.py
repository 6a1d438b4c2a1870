"""Tuning knobs for the fault-tolerance layer (:mod:`repro.ft`).

All times are in simulated seconds.  The defaults suit the round-number
``GENERIC`` machine model; real-model runs (slower links) may want a
longer heartbeat period and control-message RTO.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import SimulationError

__all__ = ["FTConfig"]


@dataclass
class FTConfig:
    """Configuration for :class:`repro.ft.manager.FTAgent`.

    Attributes
    ----------
    heartbeat_period:
        How often each PE heartbeats its buddy while the layer is
        active (a crash is scheduled and unresolved).  Any arrival from
        a peer — application traffic included — counts as liveness
        evidence, so heartbeats only carry the idle-link case.
    suspect_after / down_after:
        Number of silent heartbeat periods before the monitor marks its
        predecessor *suspect* / declares it *down* (fires failure
        callbacks, broadcasts the verdict).  Because recovery is pulled
        by the restarted PE itself, a false positive only mis-colors
        the membership view until fresh evidence clears it.
    checkpoint_interval:
        ``0`` (default): checkpoints happen only when the application
        calls ``CftCheckpoint()``.  ``> 0``: additionally snapshot every
        interval while the layer is active.
    ctl_rto / ctl_retries:
        Retransmission timeout and budget for the layer's own reliable
        control messages (checkpoint transfer, recovery pull, replay
        requests).  The budget must cover a whole peer outage:
        ``ctl_rto * ctl_retries`` > restart delay + recovery time.
    buddy_offset:
        Checkpoint buddy of PE *p* is ``(p + offset) % n``; its monitor
        is the same PE, so detection and checkpoint custody ride the
        same ring.
    """

    heartbeat_period: float = 50e-6
    suspect_after: int = 3
    down_after: int = 6
    checkpoint_interval: float = 0.0
    ctl_rto: float = 150e-6
    ctl_retries: int = 40
    buddy_offset: int = 1

    def validate(self) -> "FTConfig":
        if self.heartbeat_period <= 0:
            raise SimulationError(
                f"heartbeat_period must be positive, got {self.heartbeat_period}"
            )
        if self.suspect_after < 1:
            raise SimulationError(
                f"suspect_after must be >= 1, got {self.suspect_after}"
            )
        if self.down_after < self.suspect_after:
            raise SimulationError(
                f"down_after ({self.down_after}) must be >= suspect_after "
                f"({self.suspect_after})"
            )
        if self.checkpoint_interval < 0:
            raise SimulationError(
                f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}"
            )
        if self.ctl_rto <= 0:
            raise SimulationError(f"ctl_rto must be positive, got {self.ctl_rto}")
        if self.ctl_retries < 1:
            raise SimulationError(
                f"ctl_retries must be >= 1, got {self.ctl_retries}"
            )
        if self.buddy_offset < 1:
            raise SimulationError(
                f"buddy_offset must be >= 1, got {self.buddy_offset}"
            )
        return self
