"""Tuning knobs for the fault-tolerance layer (:mod:`repro.ft`).

All times are in simulated seconds.  The protocol's own timescale
(heartbeat period, control-message timeout and retry budget) belongs to
the machine layer (:class:`~repro.machine.interface.ProtocolTiming`);
the detection thresholds and the buddy ring are constants of
:mod:`repro.ft.manager`.
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
    checkpoint_interval:
        ``0`` (default): checkpoints happen only when the application
        calls ``CftCheckpoint()``.  ``> 0``: additionally snapshot every
        interval while the layer is active (raised to the machine
        layer's floor, 50 ms on ``mp``).
    """

    checkpoint_interval: float = 0.0

    def validate(self) -> "FTConfig":
        if self.checkpoint_interval < 0:
            raise SimulationError(
                f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}"
            )
        return self
