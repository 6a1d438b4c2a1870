"""Synchronization mechanisms — ``Cts*`` (paper section 3.2.3, API
appendix section 6).

Locks, condition variables and barriers over Cth threads.  "The
functionality outlined above is an extension of the Posix threads
standard.  The only notable difference is that the scheduler is separated
out" — so these objects never schedule anything themselves; they only
``suspend`` the current thread and ``awaken`` waiters, and whatever
strategy each thread carries decides when it actually runs again.

All three objects work from any context that has a Cth identity
(including SPM mains and message handlers, which get a main pseudo-thread
from ``CthSelf``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.core import context
from repro.core.errors import SyncError
from repro.threads.thread_object import CthModule, CthThread

__all__ = ["CtsLock", "CtsCondition", "CtsBarrier"]


def _module() -> CthModule:
    return context.current_runtime().cth


class CtsLock:
    """A mutex with a FIFO wait queue (``CtsNewLock`` ... ``CtsUnLock``).

    "The thread trying to obtain a lock continues ... if the lock can be
    obtained.  If not, the thread is placed in a queue for the lock, and
    the thread is suspended.  A thread which releases the lock causes the
    shifting of ownership ... to the first thread in this queue and
    awakens this thread."
    """

    def __init__(self) -> None:
        self.owner: Optional[CthThread] = None
        self._queue: Deque[CthThread] = deque()
        #: times ownership changed hands; tests use this.
        self.handoffs = 0

    def init(self) -> None:
        """``CtsLockInit``: reset a previously allocated lock."""
        if self._queue:
            raise SyncError("cannot re-init a lock with queued waiters")
        self.owner = None

    def try_lock(self) -> bool:
        """``CtsTryLock``: non-blocking; True when acquired."""
        me = _module().self_thread()
        if self.owner is None:
            self.owner = me
            return True
        return False

    def lock(self) -> None:
        """``CtsLock``: block (suspend) until ownership arrives."""
        mod = _module()
        me = mod.self_thread()
        if self.owner is None:
            self.owner = me
            return
        if self.owner is me:
            raise SyncError("CtsLock: relock by current owner (not recursive)")
        self._queue.append(me)
        while self.owner is not me:
            mod.suspend()

    def unlock(self) -> None:
        """``CtsUnLock``: release; ownership shifts to the first queued
        waiter, which is awakened.  Raises if the caller is not the
        owner."""
        mod = _module()
        me = mod.self_thread()
        if self.owner is not me:
            raise SyncError(
                "CtsUnLock by a thread that does not own the lock"
            )
        if self._queue:
            nxt = self._queue.popleft()
            self.owner = nxt
            self.handoffs += 1
            mod.awaken(nxt)
        else:
            self.owner = None

    @property
    def locked(self) -> bool:
        """True while some thread owns the lock."""
        return self.owner is not None

    @property
    def waiters(self) -> int:
        """Number of threads currently queued/waiting."""
        return len(self._queue)


class CtsCondition:
    """A condition variable (``CtsNewCondn`` ... ``CtsCondnBroadcast``).

    "Threads can wait on a condition variable.  Other threads can either
    signal or broadcast this condition variable causing the awakening of
    either one or all of the threads waiting."
    """

    def __init__(self) -> None:
        self._waiters: Deque[CthThread] = deque()
        self._release_tokens: dict = {}

    def init(self) -> None:
        """``CtsCondnInit``: per the paper's API, re-initialization
        "causes all the waiting threads ... to be awakened"."""
        self.broadcast()

    def wait(self, lock: Optional[CtsLock] = None) -> None:
        """``CtsCondnWait``: suspend until signalled.  If ``lock`` is
        given it is released while waiting and re-acquired before
        returning (the usual monitor pattern; the paper's call takes no
        lock, so it stays optional here)."""
        mod = _module()
        me = mod.self_thread()
        self._waiters.append(me)
        self._release_tokens[me.id] = False
        if lock is not None:
            lock.unlock()
        while not self._release_tokens[me.id]:
            mod.suspend()
        del self._release_tokens[me.id]
        if lock is not None:
            lock.lock()

    def signal(self) -> int:
        """``CtsCondnSignal``: release one waiter (FIFO).  Returns the
        number of threads released (0 or 1)."""
        mod = _module()
        if not self._waiters:
            return 0
        thr = self._waiters.popleft()
        self._release_tokens[thr.id] = True
        mod.awaken(thr)
        return 1

    def broadcast(self) -> int:
        """``CtsCondnBroadcast``: release every waiter.  Returns how many
        were released."""
        mod = _module()
        n = 0
        while self._waiters:
            thr = self._waiters.popleft()
            self._release_tokens[thr.id] = True
            mod.awaken(thr)
            n += 1
        return n

    @property
    def waiters(self) -> int:
        """Number of threads currently queued/waiting."""
        return len(self._waiters)


class CtsBarrier:
    """A barrier: "a condition variable whose kth wait is a broadcast"
    (``CtsNewBarrier`` / ``CtsBarrierReinit`` / ``CtsAtBarrier``)."""

    def __init__(self, num: int = 0) -> None:
        self._needed = num
        self._arrived = 0
        self._generation = 0
        self._cond = CtsCondition()
        #: completed barrier episodes; tests use this.
        self.episodes = 0

    def reinit(self, num: int) -> None:
        """``CtsBarrierReinit``: free any current waiters, then await the
        arrival of ``num`` threads."""
        if num < 1:
            raise SyncError(f"a barrier needs num >= 1, got {num}")
        self._cond.broadcast()
        self._needed = num
        self._arrived = 0
        self._generation += 1

    def at_barrier(self) -> None:
        """``CtsAtBarrier``: block until ``num`` threads have arrived; the
        last arrival releases everyone."""
        if self._needed < 1:
            raise SyncError("barrier not initialized (call reinit first)")
        gen = self._generation
        self._arrived += 1
        if self._arrived >= self._needed:
            self._arrived = 0
            self._generation += 1
            self.episodes += 1
            self._cond.broadcast()
            return
        while self._generation == gen:
            self._cond.wait()

    @property
    def waiting(self) -> int:
        """Number of threads blocked at the barrier."""
        return self._cond.waiters
