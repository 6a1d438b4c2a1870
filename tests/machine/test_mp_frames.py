"""The mp data-frame codec and the hub's relay of it.

A data frame carries a plain ``Message`` as a struct header plus a pickle
of its payload, and anything else as one pickle of the whole packet; the
receiver must rebuild exactly what pickling the packet whole would have.
The hub routes a data frame by its header and forwards its bytes
without unpickling them.
"""

from __future__ import annotations

import pickle
import selectors
import socket

import numpy as np
import pytest

from repro.core.message import BitVector, Message
from repro.machine import mp
from repro.machine.base import (
    machine_backend_available,
    machine_backend_unavailable_reason,
)
from repro.sim.machine import Machine
from tests.machine.conformance.workers import ReduceBomb

SRC, DST = 3, 1


class _Tagged(Message):
    __slots__ = ("tag",)


def _msg(payload=b"ball", prio=None, src_pe=SRC, **slots) -> Message:
    msg = Message(7, payload, prio=prio, src_pe=src_pe)
    for name, value in slots.items():
        setattr(msg, name, value)
    return msg


def _tagged() -> _Tagged:
    msg = _Tagged(7, b"ball", src_pe=SRC)
    msg.tag = "sub"
    return msg


def _bare_ack() -> Message:
    """A reliable-delivery bare ack: no payload, a cumulative ``ack`` and
    the one out-of-order ``seq`` it names."""
    return _msg(payload=None, size=16, seq=5, ack=9)


def _recycled() -> Message:
    msg = _msg()
    msg.mark_cmi_owned()
    msg.recycle()
    return msg


#: (id, packet factory, travels as a struct header + payload pickle)
CASES = [
    ("plain", _msg, True),
    ("prio-0", lambda: _msg(prio=0), True),
    ("prio-neg", lambda: _msg(prio=-3), True),
    ("prio-2**40", lambda: _msg(prio=2**40), True),
    ("prio--2**40", lambda: _msg(prio=-(2**40)), True),
    ("prio-int64-edges", lambda: _msg(prio=-(2**63), msg_id=2**63 - 1), True),
    ("msg-id", lambda: _msg(msg_id=12345), True),
    ("corrupted", lambda: _msg(corrupted=True), True),
    ("pooled", lambda: _msg(_pooled=True), True),
    ("steal-ok", lambda: _msg(steal_ok=True), True),
    ("all-flags", lambda: _msg(prio=-1, msg_id=0, corrupted=True,
                               _pooled=True, steal_ok=True), True),
    ("payload-none", lambda: _msg(payload=None), True),
    ("payload-tuple", lambda: _msg(payload=(1, "two", [3.0])), True),
    ("payload-numpy", lambda: _msg(payload=np.arange(12.0).reshape(3, 4)), True),
    ("payload-message", lambda: _msg(payload=_msg(payload=b"inner")), True),
    ("reliable", lambda: _msg(seq=4, ack=2), True),
    ("reliable-ack", _bare_ack, True),
    # the whole-object fallback
    ("prio-bitvector", lambda: _msg(prio=BitVector("011")), False),
    ("prio-2**70", lambda: _msg(prio=2**70), False),
    ("msg-id-2**64", lambda: _msg(msg_id=2**64), False),
    ("seq-2**63", lambda: _msg(seq=2**63), False),
    ("handler-2**33", lambda: Message(2**33, b"ball", src_pe=SRC), False),
    ("src-pe-none", lambda: _msg(src_pe=None), False),
    ("src-pe-other", lambda: _msg(src_pe=0), False),
    ("enq-time", lambda: _msg(enq_time=1.5e-6), False),
    ("cmi-owned", lambda: _msg(_cmi_owned=True), False),
    ("recycled", _recycled, False),
    ("subclass", _tagged, False),
]


def _state(obj):
    """``obj``'s type and every slot, recursively (NumPy arrays by dtype,
    shape and bytes): what "equal on every slot" compares."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (tuple, list)):
        return (type(obj), [_state(x) for x in obj])
    slots = [s for klass in type(obj).__mro__
             for s in getattr(klass, "__slots__", ())]
    if not slots:
        return (type(obj), obj)
    return (type(obj), {s: _state(getattr(obj, s, "<unset>")) for s in slots})


@pytest.mark.parametrize("immediate", [False, True], ids=["queued", "immediate"])
@pytest.mark.parametrize("make, fast", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_data_frame_rebuilds_what_a_whole_pickle_would(make, fast, immediate):
    packet = make()
    expected = pickle.loads(pickle.dumps(packet, protocol=pickle.HIGHEST_PROTOCOL))
    data = mp._encode_data(SRC, DST, packet, immediate)
    assert data[mp._LEN.size] == (mp._TAG_MSG if fast else mp._TAG_OBJ)
    buf = bytearray(data + mp._encode(("idle", 0, 0)))
    [(kind, got, imm), idle] = mp._decode(buf)
    assert (kind, bool(imm), idle) == ("msg", immediate, ("idle", 0, 0))
    assert _state(got) == _state(expected)
    assert not buf
    # The hub's view of the same bytes: routed, not rebuilt.
    assert mp._decode(bytearray(data), relay=True) == [("send", DST, data)]
    assert mp._sender(bytearray(data)) == SRC


needs_mp = pytest.mark.skipif(
    not machine_backend_available("mp"),
    reason=f"mp layer unavailable: {machine_backend_unavailable_reason('mp')}",
)


@pytest.fixture
def hub():
    m = Machine(2, machine_backend="mp")
    socks = []
    yield m, socks
    for sock in socks:
        sock.close()
    m.shutdown()


@needs_mp
@pytest.mark.parametrize("packet", [
    Message(7, ReduceBomb(), size=8, src_pe=0),
    _msg(payload=ReduceBomb(), size=8, src_pe=0, seq=0, ack=3),
], ids=["message", "reliable"])
def test_hub_relays_a_data_frame_without_unpickling_it(hub, packet, monkeypatch):
    """A payload that will not unpickle is the destination's problem: the
    hub forwards the sender's bytes untouched and counts them, and never
    calls ``pickle.loads`` on a data frame."""
    m, socks = hub
    conns = []
    for pe in (0, 1):
        ours, theirs = socket.socketpair()
        socks += [ours, theirs]
        conn = mp._HubConn(ours)
        conn.pe = pe
        m._conns[pe] = conn
        conns.append((conn, theirs))
    m._held = None  # every PE has said hello
    data = mp._encode_data(0, 1, packet, False)
    conns[0][1].sendall(data)

    def refuse(*_args, **_kwargs):
        raise AssertionError("the hub unpickled a data frame")

    monkeypatch.setattr(pickle, "loads", refuse)
    m._on_conn(conns[0][0], selectors.EVENT_READ)
    assert m._worker_error is None
    assert conns[1][0].out == [data]
    assert m._forwarded == [0, 1]
