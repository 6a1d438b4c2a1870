"""Exception hierarchy for the Converse reproduction.

All library-raised exceptions derive from :class:`ConverseError` so callers
can catch framework failures without masking ordinary Python errors.
"""

from __future__ import annotations


class ConverseError(Exception):
    """Base class for every error raised by this library."""


class SimulationError(ConverseError):
    """Raised for misuse of the discrete-event simulation kernel."""


class WorkerDied(SimulationError):
    """A machine-layer worker process died unexpectedly.

    Raised by the mp machine layer when a worker's hub socket tears
    (EOF / partial frame) outside any scheduled crash: a SIGKILL from
    the outside, an OOM kill, a segfaulting extension.  Subclasses
    :class:`SimulationError` so existing ``except SimulationError``
    handlers keep working; carries the structured evidence a post-mortem
    needs: ``pe`` names the dead worker and ``last_health`` is the hub's
    final health snapshot for it (``None`` when it never reported).
    """

    def __init__(self, pe: int = -1, last_health: object = None,
                 evidence: str = "") -> None:
        self.pe = pe
        self.last_health = last_health
        super().__init__(
            f"mp machine worker on PE {pe} died unexpectedly "
            f"(socket EOF / torn frame); last health snapshot: "
            f"{last_health!r}" + evidence
        )


class TraceSpecError(SimulationError, ValueError):
    """A ``trace=`` machine argument that names no tracer.  Raised by
    :func:`repro.tracing.tracer.parse_trace_spec`, the single parser
    every machine layer uses, so a typo fails the same way everywhere;
    also a ``ValueError`` because that is what a bad argument value is."""


class TaskletKilled(BaseException):
    """Injected into a parked tasklet to unwind it during shutdown.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so that
    user code which catches ``Exception`` does not accidentally swallow the
    shutdown signal.
    """


class NotInTaskletError(SimulationError):
    """A blocking primitive was called from outside any tasklet."""


class DeadlockError(SimulationError):
    """The machine ran out of events while tasklets were still blocked and
    the caller asked for that situation to be treated as an error."""


class ReliabilityError(ConverseError):
    """Errors raised by the optional reliable-delivery layer of the CMI."""


class RetryExhaustedError(ReliabilityError):
    """A reliable send exhausted its retransmission budget without ever
    being acknowledged — the link (or the peer) is considered dead.  The
    failure is deterministic: the same fault-plan seed reproduces it
    exactly.

    Carries the full context of the give-up so it can feed a failure
    detector instead of only crashing the caller: ``src``/``dst`` name the
    directed link, ``seq`` the unacknowledged packet, ``retries`` how many
    retransmissions were spent, ``elapsed`` the virtual time between the
    first transmission and the give-up, and ``stats`` a
    :class:`~repro.machine.cmi.RelStats` snapshot taken at give-up time.
    """

    def __init__(self, src: int = -1, dst: int = -1, seq: int = -1,
                 retries: int = 0, elapsed: float = 0.0,
                 stats: object = None) -> None:
        self.src = src
        self.dst = dst
        self.seq = seq
        self.retries = retries
        self.elapsed = elapsed
        self.stats = stats
        super().__init__(
            f"PE {src}: packet seq={seq} to PE {dst} unacknowledged after "
            f"{retries} retransmissions over {elapsed * 1e6:.0f} us of "
            f"virtual time (rel stats at give-up: {stats})"
        )


class FaultToleranceError(ConverseError):
    """Errors raised by the optional fault-tolerance layer (``repro.ft``):
    misconfiguration, checkpoint/recovery protocol failures, or a control
    message that could not be delivered within its retry budget."""


class HandlerError(ConverseError):
    """Problems with the generalized-message handler table."""


class UnknownHandlerError(HandlerError):
    """A message named a handler index that was never registered."""


class MessageError(ConverseError):
    """Malformed generalized message or misuse of the buffer protocol."""


class BufferOwnershipError(MessageError):
    """A handler touched a CMI-owned buffer after its handler returned
    without calling ``CmiGrabBuffer`` (paper section 3.1.3)."""


class SchedulerError(ConverseError):
    """Misuse of the Csd scheduler (e.g. exiting a scheduler that is not
    running)."""


class QueueingError(ConverseError):
    """Invalid priority or queueing-strategy misuse."""


class ThreadError(ConverseError):
    """Misuse of Cth thread objects (resuming a dead thread, suspending
    outside a thread, ...)."""


class SyncError(ConverseError):
    """Misuse of Cts synchronization objects (unlocking a lock not held,
    re-initializing a barrier with waiters, ...)."""


class MessageManagerError(ConverseError):
    """Misuse of the Cmm message manager."""


class LoadBalanceError(ConverseError):
    """Misuse of the Cld seed load balancer."""


class GroupError(ConverseError):
    """Misuse of processor groups (EMI)."""


class GlobalPointerError(ConverseError):
    """Misuse of EMI global pointers / get / put."""


class LanguageError(ConverseError):
    """Errors raised by the language runtimes layered on Converse."""


class PvmError(LanguageError):
    """PVM-subset runtime errors."""


class NxError(LanguageError):
    """NXLib-subset runtime errors."""


class CharmError(LanguageError):
    """Charm-subset runtime errors."""
