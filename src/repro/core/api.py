"""The C-flavoured Converse API (paper appendix), bound to the current PE.

Every function here mirrors one call from the paper's API reference and
operates on the runtime of whichever simulated PE is executing — so code
written against this module reads like the paper's C examples:

.. code-block:: python

    from repro.core import api

    def main():
        if api.CmiMyPe() == 0:
            msg = api.CmiNew(handler_id, b"hello")
            api.CmiSyncSend(1, msg)
        else:
            api.CsdScheduler(1)

An object-oriented surface exists too (``machine.runtime(pe).cmi`` etc.);
this module is a thin veneer over it.  All functions raise
:class:`~repro.core.errors.NotInTaskletError` when called outside
simulated user code.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.core import context
from repro.core.message import BitVector, Message, Priority
from repro.msgmgr.message_manager import CMM_WILDCARD, MessageManager
from repro.threads.sync import CtsBarrier, CtsCondition, CtsLock

__all__ = [
    # construction helpers
    "CmiNew", "BitVector",
    # init / exit
    "ConverseInit", "ConverseExit",
    # scheduler
    "CsdScheduler", "CsdExitScheduler", "CsdExitAll", "CsdEnqueue",
    "CsdScheduleUntilIdle", "CsdSchedulePoll", "CsdQueueLength",
    # identity / timing / modelling
    "CmiMyPe", "CmiNumPes", "CmiNumPe", "CmiTimer", "CmiWallTimer",
    "CmiCpuTimer", "CmiCharge",
    # handlers
    "CmiRegisterHandler", "CmiSetHandler", "CmiGetHandlerFunction",
    "CmiMsgHeaderSizeBytes",
    # point-to-point & broadcast
    "CmiSyncSend", "CmiAsyncSend", "CmiAsyncMsgSent", "CmiReleaseCommHandle",
    "CmiVectorSend", "CmiImmediateSend", "CmiSyncBroadcast", "CmiSyncBroadcastAll",
    "CmiSyncBroadcastAllAndFree", "CmiAsyncBroadcast", "CmiAsyncBroadcastAll",
    # receiving
    "CmiGetMsg", "CmiDeliverMsgs", "CmiGetSpecificMsg", "CmiGrabBuffer",
    # console
    "CmiPrintf", "CmiError", "CmiScanf", "CmiScanfAsync",
    # global pointers
    "CmiGptrCreate", "CmiGptrDref", "CmiSyncGet", "CmiGet", "CmiSyncPut",
    "CmiPut",
    # processor groups
    "CmiPgrpCreate", "CmiPgrpDestroy", "CmiAddChildren", "CmiAsyncMulticast",
    "CmiPgrpRoot", "CmiNumChildren", "CmiParent", "CmiChildren",
    "CmiPgrpReduce", "CmiPgrpBarrier",
    # threads
    "CthInit", "CthCreate", "CthCreateOfSize", "CthResume", "CthSuspend",
    "CthAwaken", "CthYield", "CthExit", "CthSelf", "CthSetStrategy",
    "CthUseSchedulerStrategy",
    # synchronization
    "CtsNewLock", "CtsNewCondn", "CtsNewBarrier", "CtsLock", "CtsCondition",
    "CtsBarrier",
    # message manager
    "CmmNew", "CMM_WILDCARD", "MessageManager",
    # load balancing
    "CldEnqueue", "CldGetStats",
    # timed callbacks
    "CcdCallFnAfter",
    # fault tolerance
    "CftInit", "CftCheckpoint", "CftRestarting", "CftRecover",
    "CftOnFailure", "CftMembership",
]


# One frame fewer on every API call: ``_rt()`` *is* the context lookup.
_rt = context.current_runtime


# ----------------------------------------------------------------------
# construction helpers (Pythonic sugar, not in the C API)
# ----------------------------------------------------------------------

def CmiNew(handler_id: int, payload: Any = None, size: Optional[int] = None,
           prio: Priority = None) -> Message:
    """Build a generalized message (C code would malloc + CmiSetHandler)."""
    return Message(handler_id, payload, size=size, prio=prio)


# ----------------------------------------------------------------------
# init / exit
# ----------------------------------------------------------------------

def ConverseInit() -> None:
    """``ConverseInit``: in this embedding, machine construction already
    initialized every component; the call validates that it runs on a
    live PE (and marks the paper-specified program shape)."""
    _rt().check_active()


def ConverseExit() -> None:
    """``ConverseExit``: no Converse call may follow on this PE."""
    _rt().converse_exit()


# ----------------------------------------------------------------------
# scheduler
# ----------------------------------------------------------------------

def CsdScheduler(nmsgs: int = -1) -> int:
    """Run the scheduler: ``-1`` until ``CsdExitScheduler``, else up to
    ``nmsgs`` messages without blocking.  Returns messages delivered."""
    return _rt().scheduler.run(nmsgs)


def CsdExitScheduler() -> None:
    """The paper's ``CsdExitScheduler`` call; thin veneer over the documented runtime implementation."""
    _rt().scheduler.exit()


def CsdExitAll() -> None:
    """Stop the Csd scheduler on every PE (local exit + broadcast)."""
    _rt().exit_all_schedulers()


def CsdEnqueue(msg: Message, prio: Priority = None) -> None:
    """The paper's ``CsdEnqueue`` call; thin veneer over the documented runtime implementation."""
    _rt().scheduler.enqueue(msg, prio)


def CsdScheduleUntilIdle() -> int:
    """``ScheduleUntilIdle()``: run until no work remains, never block."""
    return _rt().scheduler.run_until_idle()


def CsdSchedulePoll() -> int:
    """One non-blocking pass over network + queue."""
    return _rt().scheduler.poll()


def CsdQueueLength() -> int:
    """The paper's ``CsdQueueLength`` call; thin veneer over the documented runtime implementation."""
    return len(_rt().scheduler.queue)


# ----------------------------------------------------------------------
# identity / timing / modelling
# ----------------------------------------------------------------------

def CmiMyPe() -> int:
    """The paper's ``CmiMyPe`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.my_pe()


def CmiNumPes() -> int:
    """The paper's ``CmiNumPes`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.num_pes()


#: the paper spells it ``CmiNumPe``; both names work.
CmiNumPe = CmiNumPes


def CmiTimer() -> float:
    """The paper's ``CmiTimer`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.timer()


def CmiWallTimer() -> float:
    """The paper's ``CmiWallTimer`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.wall_timer()


def CmiCpuTimer() -> float:
    """CPU (busy) time of this PE, excluding idle waits."""
    return _rt().cmi.cpu_timer()


def CmiCharge(seconds: float) -> None:
    """Model ``seconds`` of local CPU work (advances this PE's virtual
    clock).  Not in the C API — the simulator's stand-in for actually
    burning cycles."""
    _rt().node.charge(seconds)


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------

def CmiRegisterHandler(fn: Callable[[Message], None],
                       name: Optional[str] = None) -> int:
    """The paper's ``CmiRegisterHandler`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.register_handler(fn, name)


def CmiSetHandler(msg: Message, handler_id: int) -> None:
    """The paper's ``CmiSetHandler`` call; thin veneer over the documented runtime implementation."""
    _rt().cmi.set_handler(msg, handler_id)


def CmiGetHandlerFunction(msg: Message) -> Callable[[Message], None]:
    """The paper's ``CmiGetHandlerFunction`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.get_handler_function(msg)


def CmiMsgHeaderSizeBytes() -> int:
    """The paper's ``CmiMsgHeaderSizeBytes`` call; thin veneer over the documented runtime implementation."""
    from repro.machine.cmi import CMI

    return CMI.msg_header_size_bytes()


# ----------------------------------------------------------------------
# sends
# ----------------------------------------------------------------------

def CmiSyncSend(dest_pe: int, msg: Message) -> None:
    """The paper's ``CmiSyncSend`` call; thin veneer over the documented runtime implementation."""
    _rt().cmi.sync_send(dest_pe, msg)


def CmiAsyncSend(dest_pe: int, msg: Message) -> Any:
    """The paper's ``CmiAsyncSend`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.async_send(dest_pe, msg)


def CmiAsyncMsgSent(handle: Any) -> bool:
    """The paper's ``CmiAsyncMsgSent`` call; thin veneer over the documented runtime implementation."""
    return handle.done


def CmiReleaseCommHandle(handle: Any) -> None:
    """The paper's ``CmiReleaseCommHandle`` call; thin veneer over the documented runtime implementation."""
    handle.release()


def CmiVectorSend(dest_pe: int, handler_id: int, pieces: Sequence[bytes]) -> Any:
    """The paper's ``CmiVectorSend`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.vector_send(dest_pe, handler_id, pieces)


def CmiImmediateSend(dest_pe: int, msg: Message) -> None:
    """Interrupt-style send (extension; paper section-6 future work)."""
    _rt().cmi.immediate_send(dest_pe, msg)


def CmiSyncBroadcast(msg: Message) -> None:
    """The paper's ``CmiSyncBroadcast`` call; thin veneer over the documented runtime implementation."""
    _rt().cmi.sync_broadcast(msg)


def CmiSyncBroadcastAll(msg: Message) -> None:
    """The paper's ``CmiSyncBroadcastAll`` call; thin veneer over the documented runtime implementation."""
    _rt().cmi.sync_broadcast_all(msg)


def CmiSyncBroadcastAllAndFree(msg: Message) -> None:
    """The paper's ``CmiSyncBroadcastAllAndFree`` call; thin veneer over the documented runtime implementation."""
    _rt().cmi.sync_broadcast_all_and_free(msg)


def CmiAsyncBroadcast(msg: Message) -> Any:
    """The paper's ``CmiAsyncBroadcast`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.async_broadcast(msg)


def CmiAsyncBroadcastAll(msg: Message) -> Any:
    """The paper's ``CmiAsyncBroadcastAll`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.async_broadcast_all(msg)


# ----------------------------------------------------------------------
# receiving
# ----------------------------------------------------------------------

def CmiGetMsg() -> Optional[Message]:
    """The paper's ``CmiGetMsg`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.get_msg()


def CmiDeliverMsgs(limit: Optional[int] = None) -> int:
    """The paper's ``CmiDeliverMsgs`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.deliver_msgs(limit)


def CmiGetSpecificMsg(handler_id: int) -> Message:
    """The paper's ``CmiGetSpecificMsg`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.get_specific_msg(handler_id)


def CmiGrabBuffer(msg: Message) -> Message:
    """The paper's ``CmiGrabBuffer`` call; thin veneer over the documented runtime implementation."""
    return msg.grab()


# ----------------------------------------------------------------------
# console
# ----------------------------------------------------------------------

def CmiPrintf(fmt: str, *args: Any) -> None:
    """The paper's ``CmiPrintf`` call; thin veneer over the documented runtime implementation."""
    _rt().cmi.printf(fmt, *args)


def CmiError(fmt: str, *args: Any) -> None:
    """The paper's ``CmiError`` call; thin veneer over the documented runtime implementation."""
    _rt().cmi.error(fmt, *args)


def CmiScanf(fmt: str) -> List[Any]:
    """The paper's ``CmiScanf`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.scanf(fmt)


def CmiScanfAsync(fmt: str, handler_id: int) -> None:
    """The paper's ``CmiScanfAsync`` call; thin veneer over the documented runtime implementation."""
    _rt().cmi.scanf_async(fmt, handler_id)


# ----------------------------------------------------------------------
# global pointers
# ----------------------------------------------------------------------

def CmiGptrCreate(size: int, init: Optional[bytes] = None) -> Any:
    """The paper's ``CmiGptrCreate`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.gptr.create(size, init)


def CmiGptrDref(gptr: Any) -> bytes:
    """The paper's ``CmiGptrDref`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.gptr.deref(gptr)


def CmiSyncGet(gptr: Any, nbytes: int, offset: int = 0) -> bytes:
    """The paper's ``CmiSyncGet`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.gptr.sync_get(gptr, nbytes, offset)


def CmiGet(gptr: Any, nbytes: int, offset: int = 0) -> Any:
    """The paper's ``CmiGet`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.gptr.async_get(gptr, nbytes, offset)


def CmiSyncPut(gptr: Any, data: bytes, offset: int = 0) -> None:
    """The paper's ``CmiSyncPut`` call; thin veneer over the documented runtime implementation."""
    _rt().cmi.gptr.sync_put(gptr, data, offset)


def CmiPut(gptr: Any, data: bytes, offset: int = 0) -> Any:
    """The paper's ``CmiPut`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.gptr.async_put(gptr, data, offset)


# ----------------------------------------------------------------------
# processor groups
# ----------------------------------------------------------------------

def CmiPgrpCreate() -> Any:
    """The paper's ``CmiPgrpCreate`` call; thin veneer over the documented runtime implementation."""
    return _rt().cmi.groups.create()


def CmiPgrpDestroy(group: Any) -> None:
    """The paper's ``CmiPgrpDestroy`` call; thin veneer over the documented runtime implementation."""
    _rt().cmi.groups.destroy(group)


def CmiAddChildren(group: Any, penum: int, procs: List[int]) -> None:
    """The paper's ``CmiAddChildren`` call; thin veneer over the documented runtime implementation."""
    _rt().cmi.groups.add_children(group, penum, procs)


def CmiAsyncMulticast(group: Any, msg: Message) -> None:
    """The paper's ``CmiAsyncMulticast`` call; thin veneer over the documented runtime implementation."""
    _rt().cmi.groups.async_multicast(group, msg)


def CmiPgrpRoot(group: Any) -> int:
    """The paper's ``CmiPgrpRoot`` call; thin veneer over the documented runtime implementation."""
    return group.root


def CmiNumChildren(group: Any, penum: int) -> int:
    """The paper's ``CmiNumChildren`` call; thin veneer over the documented runtime implementation."""
    return group.num_children(penum)


def CmiParent(group: Any, penum: int) -> Optional[int]:
    """The paper's ``CmiParent`` call; thin veneer over the documented runtime implementation."""
    return group.parent(penum)


def CmiChildren(group: Any, penum: int) -> List[int]:
    """The paper's ``CmiChildren`` call; thin veneer over the documented runtime implementation."""
    return group.children(penum)


def CmiPgrpReduce(group: Any, value: Any, op: Callable[[Any, Any], Any]) -> Any:
    """Spanning-tree reduction over the group (EMI "reductions and other
    global operations")."""
    return _rt().cmi.groups.reduce(group, value, op)


def CmiPgrpBarrier(group: Any) -> None:
    """The paper's ``CmiPgrpBarrier`` call; thin veneer over the documented runtime implementation."""
    _rt().cmi.groups.barrier(group)


# ----------------------------------------------------------------------
# threads
# ----------------------------------------------------------------------

def CthInit() -> None:
    """``CthInit``: forces construction of this PE's thread module."""
    _rt().cth


def CthCreate(fn: Callable[[Any], Any], arg: Any = None) -> Any:
    """The paper's ``CthCreate`` call; thin veneer over the documented runtime implementation."""
    return _rt().cth.create(fn, arg)


def CthCreateOfSize(fn: Callable[[Any], Any], arg: Any, stacksize: int) -> Any:
    """The paper's ``CthCreateOfSize`` call; thin veneer over the documented runtime implementation."""
    return _rt().cth.create(fn, arg, stacksize)


def CthResume(thr: Any) -> None:
    """The paper's ``CthResume`` call; thin veneer over the documented runtime implementation."""
    _rt().cth.resume(thr)


def CthSuspend() -> None:
    """The paper's ``CthSuspend`` call; thin veneer over the documented runtime implementation."""
    _rt().cth.suspend()


def CthAwaken(thr: Any) -> None:
    """The paper's ``CthAwaken`` call; thin veneer over the documented runtime implementation."""
    _rt().cth.awaken(thr)


def CthYield() -> None:
    """The paper's ``CthYield`` call; thin veneer over the documented runtime implementation."""
    _rt().cth.yield_()


def CthExit() -> None:
    """The paper's ``CthExit`` call; thin veneer over the documented runtime implementation."""
    _rt().cth.exit()


def CthSelf() -> Any:
    """The paper's ``CthSelf`` call; thin veneer over the documented runtime implementation."""
    return _rt().cth.self_thread()


def CthSetStrategy(thr: Any, suspfn: Any, susparg: Any,
                   awakenfn: Any, awakenarg: Any) -> Any:
    """The paper's ``CthSetStrategy`` call; thin veneer over the documented runtime implementation."""
    return _rt().cth.set_strategy(thr, suspfn, susparg, awakenfn, awakenarg)


def CthUseSchedulerStrategy(thr: Any) -> Any:
    """Install the Csd-integrated strategy (what language runtimes do)."""
    return _rt().cth.use_scheduler_strategy(thr)


# ----------------------------------------------------------------------
# synchronization objects
# ----------------------------------------------------------------------

def CtsNewLock() -> CtsLock:
    """The paper's ``CtsNewLock`` call; thin veneer over the documented runtime implementation."""
    return CtsLock()


def CtsNewCondn() -> CtsCondition:
    """The paper's ``CtsNewCondn`` call; thin veneer over the documented runtime implementation."""
    return CtsCondition()


def CtsNewBarrier(num: int = 0) -> CtsBarrier:
    """The paper's ``CtsNewBarrier`` call; thin veneer over the documented runtime implementation."""
    return CtsBarrier(num)


# ----------------------------------------------------------------------
# message manager
# ----------------------------------------------------------------------

def CmmNew() -> MessageManager:
    """The paper's ``CmmNew`` call; thin veneer over the documented runtime implementation."""
    return MessageManager()


# ----------------------------------------------------------------------
# load balancing
# ----------------------------------------------------------------------

def CldEnqueue(msg: Message, prio: Priority = None) -> None:
    """Hand a seed to the configured load balancer (paper section 3.3.1)."""
    _rt().cld.enqueue(msg, prio)


def CldGetStats() -> tuple:
    """This PE's seed accounting as a plain ``(created, forwarded,
    rooted, received)`` tuple — picklable, so SPMD workers can return it
    across the process boundary of the multiprocess machine layer."""
    s = _rt().cld.stats
    return (s.created, s.forwarded, s.rooted, s.received)


# ----------------------------------------------------------------------
# timed callbacks
# ----------------------------------------------------------------------

def CcdCallFnAfter(delay: float, fn: Callable[[], None]) -> None:
    """Run ``fn`` on this PE, in handler context, after ``delay`` seconds
    of virtual time (Converse's conditional-callback module)."""
    _rt().ccd_call_fn_after(delay, fn)


# ----------------------------------------------------------------------
# fault tolerance
# ----------------------------------------------------------------------

def _ft() -> Any:
    rt = _rt()
    if rt.ft is None:
        from repro.core.errors import FaultToleranceError

        raise FaultToleranceError(
            "fault tolerance is not enabled on this machine "
            "(build it with Machine(ft=..., reliable=True))"
        )
    return rt.ft


def CftInit(pack: Callable[[], Any], unpack: Callable[[Any], None]) -> None:
    """Register this PE's application state callbacks with the
    fault-tolerance layer: ``pack()`` snapshots the state a restart must
    restore, ``unpack(state)`` installs it on a fresh incarnation."""
    _ft().register_app(pack, unpack)


def CftCheckpoint() -> int:
    """Snapshot this PE's application + protocol state to its buddy PE
    (in-memory double checkpointing).  Returns the checkpoint epoch."""
    return _ft().checkpoint()


def CftRestarting() -> bool:
    """True when this main is a post-crash incarnation of its PE (the
    paper-style ``CmiMyPe()``-discovers-rank main uses this to branch
    into recovery instead of initialization)."""
    node = _rt().node
    return node.epoch > 0


def CftRecover() -> bool:
    """Pull this PE's last checkpoint back from its buddy and rejoin the
    computation (blocking; call from the restarted main after
    ``CftInit``).  Returns True when checkpoint state was restored,
    False on a cold start — the caller should then redo its fault-free
    initialization, which deterministic replay reconciles."""
    return _ft().recover()


def CftOnFailure(fn: Callable[[int], None]) -> None:
    """Register ``fn(pe)`` to run on this PE when a peer is declared
    down (the conditional-callback-style failure hook)."""
    _ft().add_failure_callback(fn)


def CftMembership() -> dict:
    """This PE's current membership view: ``{pe: "up"|"suspect"|"down"}``."""
    return dict(_ft().membership)
