"""EMI global pointers and one-sided get/put (paper section 3.1.3, API
appendix section 3.4).

"For transferring data between local and remote processors transparently,
Converse provides asynchronous get and put calls, and global pointers.  A
global pointer is an opaque handler, which specifies a particular address
on a particular processor."

Modelling: get/put are *hardware-serviced* one-sided operations (as on the
T3D's shared-memory engine) — the owner PE's CPU is never involved, so a
PE blocked in its own computation can still be read from or written to.
The initiating PE pays a reduced software overhead (RDMA issue cost); the
data pays normal wire time each way.  Remote reads/writes are applied at
the virtual instant the request reaches the owner's memory, so concurrent
puts and gets interleave in a well-defined global order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.errors import GlobalPointerError
from repro.machine.interface import SendHandle

__all__ = ["GlobalPtr", "RmaHandle", "GlobalPointerInterface"]

#: fraction of the model's send overhead paid to issue a one-sided op.
RMA_ISSUE_FRACTION = 0.5
#: modelled size in bytes of a get request / put acknowledgement packet.
RMA_CONTROL_BYTES = 16


@dataclass(frozen=True)
class GlobalPtr:
    """An opaque (pe, region, size) triple (``CmiGptrCreate``)."""

    pe: int
    region: int
    size: int

    def check_range(self, offset: int, nbytes: int) -> None:
        """Validate an access window against the region bounds."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise GlobalPointerError(
                f"access [{offset}, {offset + nbytes}) outside global "
                f"region of {self.size} bytes on PE {self.pe}"
            )


class RmaHandle(SendHandle):
    """Completion handle for asynchronous get/put (``CommHandle``)."""

    __slots__ = ("_data",)

    def __init__(self, engine: Any, complete_at: float) -> None:
        super().__init__(engine, complete_at)
        self._data: Optional[bytes] = None

    @property
    def data(self) -> bytes:
        """The fetched bytes (gets only); valid once ``done``."""
        if not self.done:
            raise GlobalPointerError("get not complete; wait for done")
        if self._data is None:
            raise GlobalPointerError("this handle carries no data (a put?)")
        return self._data


class GlobalPointerInterface:
    """Per-PE entry points for global-pointer operations."""

    def __init__(self, cmi: Any) -> None:
        self.cmi = cmi
        self.runtime = cmi.runtime
        self.node = cmi.node
        self.engine = cmi.node.engine
        self.machine = cmi.runtime.machine
        self.model = cmi.model

    # ------------------------------------------------------------------
    # creation / local access
    # ------------------------------------------------------------------
    def create(self, size: int, init: Optional[bytes] = None) -> GlobalPtr:
        """``CmiGptrCreate``: expose ``size`` bytes of this PE's memory."""
        if size < 0:
            raise GlobalPointerError(f"invalid region size {size}")
        key = self.node.alloc(size)
        if init is not None:
            if len(init) > size:
                raise GlobalPointerError(
                    f"init data ({len(init)} bytes) larger than region ({size})"
                )
            self.node.mem_write(key, 0, bytes(init))
        return GlobalPtr(self.node.pe, key, size)

    def deref(self, gptr: GlobalPtr) -> bytes:
        """``CmiGptrDref``: the memory behind a *local* global pointer."""
        if gptr.pe != self.node.pe:
            raise GlobalPointerError(
                f"cannot deref a pointer to PE {gptr.pe} from PE {self.node.pe}"
            )
        return self.node.mem_read(gptr.region, 0, gptr.size)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _issue(self) -> None:
        self.node.charge(self.model.send_overhead * RMA_ISSUE_FRACTION)

    def _transit(self, gptr: GlobalPtr, nbytes: int) -> float:
        hops = self.machine.topology.hops(self.node.pe, gptr.pe)
        return self.model.wire_time(nbytes, hops)

    # ------------------------------------------------------------------
    # get
    # ------------------------------------------------------------------
    def async_get(self, gptr: GlobalPtr, nbytes: int, offset: int = 0) -> RmaHandle:
        """``CmiGet``: start fetching ``nbytes`` from the remote region."""
        gptr.check_range(offset, nbytes)
        # Asked first: a layer without shared memory refuses here, before
        # anything is charged or scheduled.
        owner = self.machine.rma_node(gptr.pe)
        self._issue()
        t_req = self._transit(gptr, RMA_CONTROL_BYTES)
        t_rsp = self._transit(gptr, nbytes)
        handle = RmaHandle(self.engine, self.engine.now + t_req + t_rsp)

        def capture() -> None:
            handle._data = owner.mem_read(gptr.region, offset, nbytes)

        # The remote memory is read when the request reaches the owner.
        self.engine.schedule(t_req, capture)
        return handle

    def sync_get(self, gptr: GlobalPtr, nbytes: int, offset: int = 0) -> bytes:
        """``CmiSyncGet``: blocking fetch; returns the bytes."""
        handle = self.async_get(gptr, nbytes, offset)
        remaining = handle.complete_at - self.engine.now
        if remaining > 0:
            self.engine.sleep(remaining)
        return handle.data

    # ------------------------------------------------------------------
    # put
    # ------------------------------------------------------------------
    def async_put(self, gptr: GlobalPtr, data: bytes, offset: int = 0) -> RmaHandle:
        """``CmiPut``: start writing ``data`` into the remote region."""
        data = bytes(data)
        gptr.check_range(offset, len(data))
        owner = self.machine.rma_node(gptr.pe)
        self._issue()
        t_data = self._transit(gptr, len(data))
        t_ack = self._transit(gptr, RMA_CONTROL_BYTES)
        handle = RmaHandle(self.engine, self.engine.now + t_data + t_ack)
        # The remote memory is written when the data arrives.
        self.engine.schedule(
            t_data, owner.mem_write, gptr.region, offset, data
        )
        return handle

    def sync_put(self, gptr: GlobalPtr, data: bytes, offset: int = 0) -> None:
        """Blocking put: returns once the write is remotely visible and
        acknowledged."""
        handle = self.async_put(gptr, data, offset)
        remaining = handle.complete_at - self.engine.now
        if remaining > 0:
            self.engine.sleep(remaining)
