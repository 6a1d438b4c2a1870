"""Thread objects — ``Cth*`` (paper section 3.2.2, API appendix section 5).

Converse deliberately *separates* the essential capability of a thread —
suspending and resuming a stack of control — from scheduling policy and
concurrency control.  The thread object "encapsulates the stack and the
program counter"; everything else is pluggable:

* ``CthResume(t)`` — immediate context switch to ``t``; the switched-away
  thread's state (including *who resumed it*) is kept so control can come
  back.
* ``CthSuspend()`` — give up the processor; a per-thread *suspend
  strategy* picks what runs next (default: the longest-waiting thread in
  the module's ready pool; language runtimes typically install a strategy
  that returns control to the Converse scheduler instead).
* ``CthAwaken(t)`` — declare ``t`` runnable; the per-thread *awaken
  strategy* decides where that readiness is recorded (default: the ready
  pool; the scheduler strategy enqueues a generalized resume-message into
  the Csd queue, which is exactly how "a scheduler entry for a ready
  thread" becomes a generalized message in section 3.1.1).
* ``CthSetStrategy(t, suspfn, susparg, awakenfn, awakenarg)`` — override
  both, per thread, so "each module [can] control the order in which its
  own threads are scheduled".

The stack-switching substrate is the tasklet layer (one OS thread per
Cth thread, strictly one runnable at a time) — the Python stand-in for the
paper's ``setjmp``/``longjmp`` implementation.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.core import context
from repro.core.errors import ThreadError
from repro.core.message import Message

__all__ = ["CthThread", "CthModule"]


class _CthExit(BaseException):
    """Raised inside a thread body by ``CthExit`` to unwind its stack."""


class CthThread:
    """One thread of control (stack + program counter + strategies)."""

    _ids = 0

    def __init__(self, module: "CthModule", fn: Optional[Callable[[Any], Any]],
                 arg: Any = None, stacksize: Optional[int] = None,
                 tasklet: Any = None) -> None:
        CthThread._ids += 1
        self.id = CthThread._ids
        self.module = module
        self.fn = fn
        self.arg = arg
        #: accepted for API fidelity (CthCreateOfSize); tasklets have real
        #: Python stacks so the size is recorded but not enforced.
        self.stacksize = stacksize
        self.dead = False
        #: the context that last resumed this thread; suspending (or
        #: exiting) with no other choice returns control there.
        self.resumer: Any = None
        # Strategy slots (CthSetStrategy).
        self.suspend_fn: Optional[Callable[["CthThread", Any], None]] = None
        self.suspend_arg: Any = None
        self.awaken_fn: Optional[Callable[["CthThread", Any], None]] = None
        self.awaken_arg: Any = None
        if tasklet is not None:
            # Wrapping an existing context (the main tasklet): already live.
            self.tasklet = tasklet
        else:
            self.tasklet = module.node.spawn(
                self._body, name=f"cth{self.id}", start=False
            )
        self.tasklet.data = self

    def _body(self) -> None:
        try:
            self.fn(self.arg)  # type: ignore[misc]
        except _CthExit:
            pass
        finally:
            self.module._on_thread_done(self)

    @property
    def is_main(self) -> bool:
        """True for the pseudo-thread wrapping a non-Cth context."""
        return self.fn is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self.dead else "main" if self.is_main else "thread"
        return f"<CthThread #{self.id} {state} pe={self.module.node.pe}>"


class CthModule:
    """Per-PE thread support (``CthInit`` happens at construction).

    Owns the default ready pool and the Csd integration handler.
    """

    def __init__(self, runtime: Any) -> None:
        self.runtime = runtime
        self.node = runtime.node
        self.engine = runtime.node.engine
        #: default ready pool: FIFO of threads awaiting CthSuspend's pick.
        self.ready_pool: Deque[CthThread] = deque()
        #: handler that resumes a thread when its generalized
        #: resume-message is dequeued by the Csd scheduler.
        self.resume_handler = runtime.register_handler(
            self._on_resume_msg, "cth.resume"
        )
        self.threads_created = 0
        # Metric handles, cached once (same flag-guard discipline as
        # tracing: with metrics off each verb costs one flag test).
        if runtime.metering:
            self._mx_created = runtime.metrics.counter(
                "cth.threads_created", help="Cth threads created"
            )
            self._mx_switches = runtime.metrics.counter(
                "cth.switches", help="CthResume context switches"
            )
        else:
            self._mx_created = None
            self._mx_switches = None

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def self_thread(self) -> CthThread:
        """``CthSelf()``: the currently executing thread.  A non-Cth
        context (an SPM main, a message handler) gets a main pseudo-thread
        wrapper on first ask, so locks etc. work from plain code too."""
        t = context.require_tasklet()
        if t.node is not self.node:
            raise ThreadError(
                f"CthSelf on PE {self.node.pe} from a tasklet on another PE"
            )
        if isinstance(t.data, CthThread):
            return t.data
        return CthThread(self, None, tasklet=t)

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------
    def create(self, fn: Callable[[Any], Any], arg: Any = None,
               stacksize: Optional[int] = None) -> CthThread:
        """``CthCreate`` / ``CthCreateOfSize``: build a thread; it does
        not run until resumed (or awakened and later picked)."""
        if not callable(fn):
            raise ThreadError(f"thread function must be callable, got {fn!r}")
        self.threads_created += 1
        thr = CthThread(self, fn, arg, stacksize)
        if self.runtime.tracing:
            self.runtime.trace_event("thread_create", thread=thr.id)
        if self.runtime.metering:
            self._mx_created.inc(self.node.pe)
        return thr

    # ------------------------------------------------------------------
    # the four verbs
    # ------------------------------------------------------------------
    def resume(self, thr: CthThread) -> None:
        """``CthResume``: immediate switch to ``thr``; control returns
        here only when something resumes the current context again."""
        self._check_alive(thr)
        cur = context.require_tasklet()
        if thr.tasklet is cur:
            return
        thr.resumer = cur
        if self.runtime.tracing:
            self.runtime.trace_event("thread_resume", thread=thr.id)
        if self.runtime.metering:
            self._mx_switches.inc(self.node.pe)
        self.engine.transfer(thr.tasklet)

    def suspend(self) -> None:
        """``CthSuspend``: stop the current thread and transfer control
        per its suspend strategy (default: the ready pool, falling back to
        the thread's resumer)."""
        me = self.self_thread()
        if self.runtime.tracing:
            self.runtime.trace_event("thread_suspend", thread=me.id)
        if me.suspend_fn is not None:
            me.suspend_fn(me, me.suspend_arg)
            return
        self._default_suspend(me)

    def _default_suspend(self, me: CthThread) -> None:
        nxt = self._pop_ready()
        if nxt is not None:
            self.resume(nxt)
            return
        if me.resumer is not None and not me.resumer.finished:
            self.engine.transfer(me.resumer)
            return
        raise ThreadError(
            f"CthSuspend on PE {self.node.pe}: ready pool empty and no "
            "resumer to fall back to (awaken something first)"
        )

    def _pop_ready(self) -> Optional[CthThread]:
        while self.ready_pool:
            thr = self.ready_pool.popleft()
            if not thr.dead:
                return thr
        return None

    def awaken(self, thr: CthThread) -> None:
        """``CthAwaken``: record ``thr`` as ready per its awaken strategy
        (default: append to the ready pool)."""
        self._check_alive(thr)
        if thr.awaken_fn is not None:
            thr.awaken_fn(thr, thr.awaken_arg)
            return
        self.ready_pool.append(thr)

    def yield_(self) -> None:
        """``CthYield``: awaken self, then suspend — other ready threads
        run before control returns here."""
        me = self.self_thread()
        self.awaken(me)
        self.suspend()

    def exit(self) -> None:
        """``CthExit``: terminate the current thread; control moves on per
        its scheduling strategy.  Never returns."""
        me = self.self_thread()
        me.dead = True
        if me.is_main:
            raise ThreadError("CthExit called from a non-Cth context")
        raise _CthExit()

    # ------------------------------------------------------------------
    # strategies
    # ------------------------------------------------------------------
    def set_strategy(self, thr: CthThread,
                     suspfn: Optional[Callable[[CthThread, Any], None]],
                     susparg: Any,
                     awakenfn: Optional[Callable[[CthThread, Any], None]],
                     awakenarg: Any) -> CthThread:
        """``CthSetStrategy``: override how this thread is parked and
        picked.  Pass ``None`` to restore a default."""
        thr.suspend_fn = suspfn
        thr.suspend_arg = susparg
        thr.awaken_fn = awakenfn
        thr.awaken_arg = awakenarg
        return thr

    def use_scheduler_strategy(self, thr: CthThread) -> CthThread:
        """Install the strategy language runtimes use: awakening enqueues
        a generalized resume-message into the Csd queue ("a scheduler
        entry for a ready thread"); suspending returns control to whoever
        resumed the thread — normally the scheduler loop."""
        return self.set_strategy(
            thr, self._suspend_to_resumer, None, self._awaken_via_csd, None
        )

    def _awaken_via_csd(self, thr: CthThread, _arg: Any) -> None:
        msg = Message(self.resume_handler, thr, size=0)
        self.runtime.scheduler.enqueue_free(msg)

    def _suspend_to_resumer(self, thr: CthThread, _arg: Any) -> None:
        if thr.resumer is None or thr.resumer.finished:
            raise ThreadError(
                f"thread #{thr.id} suspended with no live resumer; is the "
                "Csd scheduler running on this PE?"
            )
        self.engine.transfer(thr.resumer)

    def _on_resume_msg(self, msg: Message) -> None:
        thr = msg.payload
        if not thr.dead:
            self.resume(thr)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _on_thread_done(self, thr: CthThread) -> None:
        """Runs as the last act of a thread's tasklet: pass the baton on
        so execution continues somewhere sensible."""
        thr.dead = True
        nxt = self._pop_ready()
        if nxt is not None:
            nxt.resumer = thr.resumer
            self.engine.make_ready(nxt.tasklet, front=True)
        elif thr.resumer is not None and not thr.resumer.finished:
            self.engine.make_ready(thr.resumer, front=True)
        # Otherwise: nothing to hand off to; the engine will pick up other
        # ready work or events (e.g. a parked scheduler waiting on arrivals).

    # ------------------------------------------------------------------
    def _check_alive(self, thr: CthThread) -> None:
        if thr.dead:
            raise ThreadError(f"operation on dead thread #{thr.id}")
        if thr.module is not self:
            raise ThreadError(
                f"thread #{thr.id} belongs to PE {thr.module.node.pe}, "
                f"not PE {self.node.pe} (threads cannot migrate)"
            )
