"""The mp data-frame codec and the worker's links to its peers.

A data frame carries a plain ``Message`` as a struct header plus a pickle
of its payload, and anything else as one pickle of the whole packet; the
receiver must rebuild exactly what pickling the packet whole would have.
A worker sends it straight to its destination, on a link that opens with
a header naming the sender and its incarnation.  Every socket is read
with one ``_Reader``, which decodes in place: a stream must decode the
same wherever it is split.
"""

from __future__ import annotations

import itertools
import pickle
import random
import selectors
import shutil
import signal
import socket
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CrashSpec, FaultPlan, FTConfig, api
from repro.core.errors import BufferOwnershipError
from repro.core.message import BitVector, Message
from repro.machine import mp
from repro.machine.base import (
    MachineConfig,
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
    ("steal-ok", lambda: _msg(steal_ok=True), True),
    ("all-flags", lambda: _msg(prio=-1, msg_id=0, corrupted=True,
                               steal_ok=True), True),
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
    data = b"".join(mp._encode_data(SRC, DST, packet, immediate))
    assert data[mp._LEN.size] == (mp._TAG_MSG if fast else mp._TAG_OBJ)
    # As a link from SRC (incarnation 2) reads it: every data frame after
    # the link header carries it as its origin.
    buf = bytearray(mp._encode_link(SRC, 2, 0) + data + mp._encode(("idle", 0, 0)))
    [(kind, got, imm, origin), idle] = mp._decode(buf)
    assert (kind, bool(imm), origin, idle) == ("msg", immediate, (SRC, 2, 0),
                                               ("idle", 0, 0))
    assert _state(got) == _state(expected)
    assert not buf


#: every fault-tolerance message kind, by its handler's registered name.
FT_KINDS = ["ft.ack", "ft.ckpt", "ft.ckpt_data", "ft.down", "ft.hb",
            "ft.prune", "ft.recover", "ft.replay"]


@pytest.fixture(scope="module")
def ft_messages():
    """The first message of each FT kind a simulated run sends, with its
    sender: three PEs checkpoint once, and PE 1 crashes long enough for
    its monitor to gossip a down verdict before it restarts and
    recovers."""
    plan = FaultPlan(0, crashes=[CrashSpec(1, 100e-6, restart_after=1e-3)])
    sent = {}
    with Machine(3, reliable=True, ft=FTConfig(), faults=plan) as m:
        def main():
            api.CftInit(lambda: [api.CmiMyPe()], lambda _state: None)
            if api.CftRestarting():
                api.CftRecover()
            else:
                api.CftCheckpoint()

        inject = m.network.inject

        def spy(src, dst, nbytes, payload):
            sent.setdefault(m.runtime(0).handlers.name_of(payload.handler),
                            (src, payload))
            inject(src, dst, nbytes, payload)

        m.network.inject = spy
        m.launch(main)
        assert m.run() == "quiescent"
    return sent


@pytest.mark.parametrize("kind", FT_KINDS)
def test_ft_messages_take_the_struct_header(ft_messages, kind):
    """Fault-tolerance traffic is plain generalized messages, so every
    kind (the FT ack included) travels as a ``_TAG_MSG`` header plus
    its payload's pickle, and a corrupted copy arrives flagged."""
    src, msg = ft_messages[kind]
    expected = _state(pickle.loads(pickle.dumps(msg)))
    for corrupted in (False, True):
        msg.corrupted = corrupted
        data = b"".join(mp._encode_data(src, DST, msg, False))
        assert data[mp._LEN.size] == mp._TAG_MSG
        [(_kind, got, _imm, _origin)] = mp._decode(bytearray(data))
        assert got.corrupted is corrupted
        got.corrupted = False
        assert _state(got) == expected


@pytest.mark.parametrize("name, make", [(c[0], c[1]) for c in CASES],
                         ids=[c[0] for c in CASES])
def test_a_plain_send_frames_the_callers_message_as_its_wire_copy(worker, name, make):
    """Every kind of CMI send on mp hands the network the caller's
    message, and what reaches a receiver is, slot for slot, the wire copy
    a send makes: the caller's handler, payload, size and priority, the
    sender's PE and the send's trace id, nothing else of the caller's.
    PE 1 sends plain, traced, async and immediate, then broadcasts to
    both PEs (its own copy delivered in place).  Most cases are framed
    from the caller's message; a subclass, a priority or handler the
    header cannot hold take a plain copy, to the same effect."""
    machine, node, spy, _feed = worker()
    net, msg = machine.network, make()
    sends = [
        lambda: net.send_msg(node, 0, msg),
        lambda: net.send_msg(node, 0, msg, 12345),
        lambda: net.send_msg(node, 0, msg, asynchronous=True).done,
        lambda: net.send_msg(node, 0, msg, immediate=True),
        lambda: net.broadcast_msg(node, msg, {0: 77, 1: 78}, include_self=True),
    ]
    if name == "recycled":  # every kind reads msg.payload, and raises
        for send in sends:
            with pytest.raises(BufferOwnershipError):
                send()
        assert not spy.got and not node.inbox
        return
    assert [send() for send in sends] == [None, None, True, None, None]

    def wire(msg_id):
        copy = Message(msg.handler, msg.payload, size=msg.size, prio=msg.prio,
                       src_pe=1)
        copy.msg_id = msg_id
        return _state(copy)

    got = [(_state(f[1]), f[2]) for f in mp._decode(bytearray(spy.got))]
    assert got == [(wire(None), 0), (wire(12345), 0), (wire(None), 0),
                   (wire(None), 1), (wire(77), 0)]
    assert [_state(m) for m in node.inbox] == [wire(78)]


def test_a_reliable_retransmit_decodes_as_its_first_transmission(worker):
    """A reliable send keeps a copy of the caller's message and
    retransmits clones of it: PE 1 pings PE 0, which withholds its ack
    through two retransmissions and then answers with a pong that
    carries it.  Each retransmission decodes, slot for slot, to the
    first transmission, and the ack settles the ping."""
    from repro.machine.base import build_pe_stack
    from repro.machine.cmi import ReliableConfig

    machine, node, spy, feed = worker()
    rel = build_pe_stack(node, machine, MachineConfig(
        2, reliable=ReliableConfig(rto=2e-3))).cmi.reliable
    ping = Message(7, ("ping", 1), prio=-2)
    rel.send(0, ping, 4242)
    deadline = time.monotonic() + 10.0
    while rel.stats.retransmits < 2 and time.monotonic() < deadline:
        time.sleep(1e-3)
        node.pump()
    first, *again = [f[1] for f in mp._decode(bytearray(spy.got))]
    assert (first.payload, first.src_pe, first.msg_id, first.seq, first.ack) == (
        ("ping", 1), 1, 4242, 0, 0)
    assert [_state(f) for f in again] == [_state(first)] * 2
    pong = _msg(payload=("pong", 1), src_pe=0, seq=0, ack=1)
    feed.sendall(_data(0, 1, pong))
    while not node.inbox and time.monotonic() < deadline:
        node.pump()
    assert [m.payload for m in node.inbox] == [("pong", 1)]
    assert rel.in_flight == 0 and rel.stats.acks_received == 1


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


# ----------------------------------------------------------------------
# the reader: in-place decode at every split point
# ----------------------------------------------------------------------
def _data(src, dst, packet, immediate=False) -> bytes:
    return b"".join(mp._encode_data(src, dst, packet, immediate))


_BLOB = random.Random(7).randbytes(64 << 10)
_HUGE = random.Random(8).randbytes(4 << 20)
_ARRAY = np.arange(512, dtype=np.int64)
#: control frames, 8-byte data frames, a NumPy payload, a 64 KiB
#: message, a whole-object frame and one frame larger than the standing
#: buffer.
_FRAMES = [
    mp._encode(("hello", 3)),
    _data(SRC, DST, _msg(payload=b"8 bytes!")),
    _data(SRC, DST, _msg(payload=_ARRAY), immediate=True),
    mp._encode(("idle", 3, 0)),
    _data(SRC, DST, _msg(payload=_BLOB)),
    _data(SRC, DST, _tagged()),
    _data(SRC, DST, _msg(payload=_HUGE)),
    mp._encode(("printf", "out", 3, "done", 1.5)),
    _data(SRC, DST, _msg(payload=b"tail 8 b")),
]
_STREAM = b"".join(_FRAMES)
_BOUNDS = list(itertools.accumulate(map(len, _FRAMES), initial=0))

#: where the stream is cut: anywhere, and a few bytes either side of a
#: frame boundary (inside a length prefix or a header).
_cuts = st.tuples(
    st.lists(st.integers(0, len(_STREAM)), max_size=24),
    st.lists(st.tuples(st.sampled_from(_BOUNDS), st.integers(-12, 12)),
             max_size=12),
).map(lambda c: sorted({min(max(0, p), len(_STREAM))
                        for p in c[0] + [b + d for b, d in c[1]]}))


def _norm(frame):
    if frame[0] == "msg":
        return ("msg", _state(frame[1]), bool(frame[2]), frame[3])
    return frame


def _shares(payload, reader) -> bool:
    whole = np.frombuffer(reader.standing, np.uint8)
    return np.shares_memory(np.frombuffer(payload, np.uint8), whole)


class _Counted:
    """A socket that counts the bytes ``recv_into`` returned."""

    def __init__(self, sock):
        self.sock = sock
        self.got = 0

    def recv_into(self, buf, nbytes, flags):
        n = self.sock.recv_into(buf, nbytes, flags)
        self.got += n
        return n



@pytest.mark.parametrize("link", [False, True], ids=["worker", "link"])
@settings(max_examples=15, deadline=None)
@given(cuts=_cuts)
def test_reader_decodes_a_stream_cut_anywhere(link, cuts):
    """A worker reads its hub socket and its links the same way (one
    non-blocking ``recv_into`` per read); a link's stream opens with its
    header, which no frame after it may lose."""
    stream = (mp._encode_link(SRC, 1, 0) if link else b"") + _STREAM
    ours, theirs = socket.socketpair()
    try:
        ours.setblocking(False)
        theirs.setblocking(False)
        sock = _Counted(ours)
        reader = mp._Reader(sock, socket.MSG_DONTWAIT)
        got = []
        sent = 0

        def drain():
            while sock.got < sent:
                frames = []
                assert reader.read(frames)
                got.extend(map(_norm, frames))

        pos = 0
        for cut in cuts + [len(stream)]:
            chunk = memoryview(stream)[pos:cut]
            while chunk:
                try:
                    n = theirs.send(chunk)
                except BlockingIOError:
                    n = 0
                chunk, sent = chunk[n:], sent + n
                drain()
            pos = cut
        assert reader.start == reader.end
        assert got == [_norm(f) for f in mp._decode(bytearray(stream))]
        origins = {f[3] for f in got if f[0] == "msg"}
        assert origins == {(SRC, 1, 0) if link else None}
        # Decoded payloads own their bytes: they read the same after
        # later reads reused the buffer, and alias none of it.
        small, array = got[1][1], got[2][1]
        assert small[1]["_payload"] == (bytes, b"8 bytes!")
        assert array[1]["_payload"] == _state(_ARRAY)
    finally:
        ours.close()
        theirs.close()


def test_decoded_payloads_alias_nothing_of_the_read_buffer():
    a, b = socket.socketpair()
    try:
        reader = mp._Reader(a, socket.MSG_DONTWAIT)
        payload = (b"x" * 1000, np.arange(1000.0), bytearray(b"y" * 100))
        b.sendall(_data(SRC, DST, _msg(payload=payload)))
        frames = []
        while not frames:
            reader.read(frames)
        got = frames[0][1].payload
        assert [_shares(p, reader) for p in got] == [False] * 3
        assert _state(got) == _state(payload)
    finally:
        a.close()
        b.close()

class _Spy:
    """A socket's write side that records each ``sendmsg`` call's chunk
    count and takes at most ``taken`` bytes of the next one (all by
    default); ``sendall`` takes everything.  ``probe``, when set, is
    called at each write, its results kept in ``seen``.  It polls as the
    real socket ``fd`` does."""

    def __init__(self, fd, taken=None):
        self.fileno = fd.fileno
        self.taken = taken
        self.writes = []
        self.got = bytearray()
        self.probe = None
        self.seen = []

    def sendmsg(self, chunks):
        data = b"".join(chunks)[:self.taken]
        self.taken = None
        self.writes.append(len(chunks))
        if self.probe is not None:
            self.seen.append(self.probe())
        self.got += data
        return len(data)

    def sendall(self, data):
        if self.probe is not None:
            self.seen.append(self.probe())
        self.got += data

    def close(self):
        pass

    def frames(self):
        """What the reading end would decode: control tuples and payloads."""
        return [f[1].payload if f[0] == "msg" else f
                for f in mp._decode(bytearray(self.got))]


def _connect(name):
    """A link's sending end, connected to the listener ``name``."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(name)
    return sock


@pytest.fixture
def worker():
    """PE 1 of 2 as its worker process builds it, listening under the
    name the hub gives its incarnation 0, with a link in from PE 0 (its
    listener accepts it at the first pump) and its writes to PE 0 and to
    the hub spied on."""
    made, links = [], []

    def build(faults=None):
        hub_end, hub_far = socket.socketpair()
        fd, fd_far = socket.socketpair()  # what the spy polls as
        base = mp._socket_dir()
        listener = socket.create_server(mp._peer_name(base, 1, 0),
                                        family=socket.AF_UNIX)
        made.extend((hub_far, fd, fd_far))
        link = mp._WorkerLink(hub_end, 1, listener, base, [0, 0])
        machine = mp._WorkerMachine(1, link, MachineConfig(2, faults=faults))
        spy = link.out[0].sock = _Spy(fd)
        link.sock = _Spy(hub_far)
        links.append((link, hub_end))
        feed = _connect(mp._peer_name(base, 1, 0))
        made.append(feed)
        feed.sendall(mp._encode_link(0, 0, 0))
        return machine, machine.node_obj, spy, feed

    yield build
    for link, hub_end in links:
        link.sock = hub_end
        link.close()
        shutil.rmtree(link.base)
    for sock in made:
        sock.close()


def _arrive(node, feed, k):
    """``k`` data frames PE 0 -> PE 1, read and delivered to the inbox."""
    feed.sendall(b"".join(_data(0, 1, _msg(payload=("in", i), src_pe=0))
                          for i in range(k)))
    while len(node.inbox) < k:
        node.pump()


def _reply(machine, node, i, immediate=False, size=0):
    payload = ("out", i) if not size else bytes(size)
    machine.network.sync_send(node, 0, 8, _msg(payload=payload, src_pe=1),
                              immediate=immediate)


class _SpyPoller:
    """A worker's poller that records each ``poll`` call's timeout."""

    def __init__(self, poller):
        self.poller, self.calls = poller, []
        self.register, self.unregister = poller.register, poller.unregister

    def poll(self, timeout=None):
        self.calls.append(timeout)
        return self.poller.poll(timeout)


@pytest.mark.parametrize("late", [False, True], ids=["waiting", "after-grace"])
def test_a_park_reads_what_its_poll_found(worker, late):
    """Waking for one arrival costs the park's blocking poll and no
    ``poll(0)``: the pump reads the sockets that poll named.  An arrival
    after the idle grace (here: as the idle report is written) wakes the
    second, unbounded poll instead."""
    machine, node, spy, feed = worker()
    link = node.machine.worker
    node.pump()  # PE 0's link is accepted
    link.poller = poller = _SpyPoller(link.poller)
    frame = _data(0, 1, _msg(payload="in", src_pe=0))
    if late:
        link.sock.probe = lambda: feed.sendall(frame)
    else:
        feed.sendall(frame)
    node.wait_until(lambda: bool(node.inbox))
    grace = mp._IDLE_GRACE * 1e3
    assert poller.calls == ([grace, None] if late else [grace])
    assert [m.payload for m in node.inbox] == ["in"]
    assert link.sock.frames() == ([("idle", (0, 0), (0, 0), (0, 0), 0)] if late else [])


def test_a_park_writes_held_sends_before_it_polls(worker):
    machine, node, spy, feed = worker()
    _arrive(node, feed, 2)
    node.poll()
    _reply(machine, node, 0)  # held: an arrival waits
    link = node.machine.worker
    link.poller = poller = _SpyPoller(link.poller)
    node.wait_until(lambda: True)
    assert spy.writes == [2] and poller.calls == [0]


@pytest.mark.parametrize("taken", [0, 3, "head", "head+5"])
def test_worker_send_finishes_a_short_gather_write(worker, taken):
    """A short write never blocks: its tail waits, polled for POLLOUT,
    and the pump that finds the link writable sends it whole."""
    machine, node, spy, _feed = worker()
    frame = mp._encode_data(1, 0, _msg(payload=b"x" * 100, src_pe=1), False)
    spy.taken = {"head": len(frame[0]), "head+5": len(frame[0]) + 5}.get(taken, taken)
    link = node.machine.worker
    link.flush(link.out[0], frame)
    assert link.out[0].out and link.out[0].polled
    node.pump()
    assert bytes(spy.got) == b"".join(frame)
    assert not link.out[0].out and not link.out[0].polled


@pytest.mark.parametrize("k", [2, 16])
def test_sends_made_while_arrivals_wait_leave_in_one_write(worker, k):
    machine, node, spy, feed = worker()
    _arrive(node, feed, k)
    for i in range(k):  # the scheduler's drain: one handler per arrival
        assert node.poll().payload == ("in", i)
        _reply(machine, node, i)
        assert spy.writes == ([2 * k] if i == k - 1 else [])
    assert spy.frames() == [("out", i) for i in range(k)]


def test_a_send_with_an_empty_inbox_writes_at_once(worker):
    machine, node, spy, _feed = worker()
    for i in range(3):
        _reply(machine, node, i)
        assert spy.writes == [2] * (i + 1)
    assert spy.frames() == [("out", i) for i in range(3)]


def test_held_frames_are_written_before_the_idle_report(worker):
    """The report counts a held frame as sent, so the frame leaves first;
    an unchanged report is not repeated, but held frames still leave."""
    machine, node, spy, feed = worker()
    link = node.machine.worker
    hub = link.sock
    hub.probe = lambda: len(spy.writes)
    _arrive(node, feed, 2)
    _reply(machine, node, 0)
    _reply(machine, node, 1)
    assert spy.writes == []
    link.report_idle()
    assert spy.writes == [4] and hub.seen == [1]
    assert spy.frames() == [("out", 0), ("out", 1)]
    assert hub.frames() == [("idle", (2, 0), (2, 0), (0, 0), 0)]
    _reply(machine, node, 2)
    link.report_idle()
    assert spy.writes == [4, 2] and hub.seen == [1, 2]
    assert hub.frames()[1:] == [("idle", (3, 0), (2, 0), (0, 0), 0)]
    link.report_idle()
    assert hub.seen == [1, 2]


@pytest.mark.parametrize("size, cap", [(0, "iov"), (16 << 10, "bytes")])
def test_a_full_outbox_is_written_while_arrivals_wait(worker, size, cap):
    machine, node, spy, feed = worker()
    _arrive(node, feed, 1)
    peer = node.machine.worker.out[0]
    for sent in range(1, mp._IOV_MAX):
        _reply(machine, node, sent, size=size)
        if spy.writes:
            break
    [chunks] = spy.writes
    assert chunks == 2 * sent and chunks <= mp._IOV_MAX
    if cap == "iov":
        assert chunks >= mp._IOV_MAX - 1 and len(spy.got) < mp._BUF_BYTES
    else:
        assert len(spy.got) >= mp._BUF_BYTES > len(spy.got) - 2 * size
    assert not peer.out and peer.out_bytes == 0
    assert len(spy.frames()) == sent


def test_held_frames_leave_when_the_drain_ends_without_a_send(worker):
    """... as the scheduler's next look at the sockets, a pump, returns."""
    machine, node, spy, feed = worker()
    _arrive(node, feed, 2)
    node.poll()
    _reply(machine, node, 0)
    node.poll()  # its handler sends nothing
    assert spy.writes == [] and not node.inbox
    assert node.poll() is None
    assert spy.writes == [2]
    assert spy.frames() == [("out", 0)]


def test_an_immediate_frame_is_never_held(worker):
    machine, node, spy, feed = worker()
    _arrive(node, feed, 2)
    _reply(machine, node, 0)
    assert spy.writes == []
    _reply(machine, node, 1, immediate=True)
    # It leaves at once, behind the frame held before it.
    assert spy.writes == [4]
    assert spy.frames() == [("out", 0), ("out", 1)]


def test_delayed_copies_are_held_and_leave_in_order(worker):
    """Under a fault plan a delayed copy leaves from a timer; fired while
    arrivals wait it is held like any send, and leaves as the pump that
    fired it returns, in channel order."""
    plan = mp.FaultPlan(seed=5, delay=1.0, delay_max=1e-3)
    machine, node, spy, feed = worker(faults=plan)
    _arrive(node, feed, 1)
    for i in range(3):
        _reply(machine, node, i)
    assert spy.writes == [] and plan.stats.delays == 3
    time.sleep(0.01)  # every copy comes due (delay_max is 1 ms)
    node.pump()
    assert spy.writes == [6] and not machine.engine.pending_timers
    assert spy.frames() == [("out", i) for i in range(3)]


def test_the_alarm_writes_a_batch_the_main_thread_still_holds(worker):
    """A worker arms SIGALRM as a batch begins; its handler writes what
    is still held, unless it interrupted a write, and then re-arms."""
    machine, node, spy, feed = worker()
    link = node.machine.worker
    armed = []
    link.arm = lambda: armed.append(len(link.out[0].out))
    _arrive(node, feed, 2)
    _reply(machine, node, 0)
    _reply(machine, node, 1)
    assert armed == [0] and spy.writes == []
    with link.wlock:
        link.on_alarm()
    assert armed == [0, 4] and spy.writes == []
    link.on_alarm()
    assert spy.writes == [4] and not link.out[0].out
    link.on_alarm()  # nothing held
    assert spy.writes == [4] and len(armed) == 2
    assert spy.frames() == [("out", 0), ("out", 1)]


def test_alarms_among_holds_and_writes_lose_and_repeat_no_frame(worker):
    """Stress: a 50 us SIGALRM lands anywhere in drains of held replies,
    flushes and idle reports while a second thread writes health frames
    to the hub under the write lock; every frame reaches its reader whole
    and once, the replies in send order."""
    machine, node, spy, feed = worker()
    link = node.machine.worker
    hub = link.sock
    stop, health = threading.Event(), []

    def write_health():
        while not stop.is_set():
            with link.wlock:
                hub.sendall(mp._encode(("health", len(health))))
                health.append(len(health))

    old_handler = signal.signal(signal.SIGALRM, link.on_alarm)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    writer = threading.Thread(target=write_health)
    try:
        writer.start()
        signal.setitimer(signal.ITIMER_REAL, 5e-5, 5e-5)
        sent = 0
        for k in (1, 3, 8) * 150:
            _arrive(node, feed, k)
            while node.inbox:
                node.poll()
                _reply(machine, node, sent)
                sent += 1
            link.report_idle()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
        stop.set()
        writer.join(10)
        sys.setswitchinterval(old_interval)
    assert not writer.is_alive() and not link.out[0].out
    assert spy.frames() == [("out", i) for i in range(sent)]
    frames = hub.frames()
    assert [f[1] for f in frames if f[0] == "health"] == health
    assert len(frames) == len(health) + sum(f[0] == "idle" for f in frames)


@pytest.mark.parametrize("taken", [0, 5, 100, "all-but-one"])
def test_a_short_write_of_a_held_batch_delivers_every_frame(worker, taken):
    machine, node, spy, feed = worker()
    _arrive(node, feed, 4)
    for i in range(4):
        node.poll()
        _reply(machine, node, i, size=200 * i)
        if i == 2:  # the last send finds the inbox empty
            held = b"".join(node.machine.worker.out[0].out)
            spy.taken = len(held) - 1 if taken == "all-but-one" else taken
    assert len(spy.writes) == 1
    node.pump()  # the link polls writable: the rest leaves
    assert len(spy.writes) == 2
    assert spy.frames() == [("out", 0), bytes(200), bytes(400), bytes(600)]


# ----------------------------------------------------------------------
# links: who a frame is from, and what happens when an incarnation changes
# ----------------------------------------------------------------------
def test_a_link_to_an_older_incarnation_of_this_pe_is_closed_unread(worker):
    """A link whose header names an earlier incarnation of this PE as its
    target is closed, and nothing read off it is dispatched."""
    machine, node, spy, feed = worker()
    link = node.machine.worker
    link.epochs[1] = 1  # this process is PE 1's incarnation 1
    feed.sendall(_data(0, 1, _msg(payload="stale", src_pe=0)))
    feed.settimeout(5.0)
    for _ in range(3):
        node.pump()
    assert not node.inbox and link.recv == [0, 0]
    try:
        assert feed.recv(1) == b""
    except ConnectionResetError:
        pass  # closed with bytes unread: also closed


def test_a_link_from_a_newer_incarnation_renews_the_peer(worker):
    """PE 0's respawn can reach PE 1 before the hub's announcement does:
    its link header renews the peer at once — what waited for the old
    incarnation is dropped and both counts restart — and the
    announcement that follows changes nothing."""
    machine, node, spy, feed = worker()
    link = node.machine.worker
    _arrive(node, feed, 1)
    _reply(machine, node, 0)  # held: an arrival waits
    assert (link.sent, link.recv) == ([1, 0], [1, 0])
    fresh = _connect(link.listener.getsockname())
    try:
        fresh.sendall(mp._encode_link(0, 1, 0)
                      + _data(0, 1, _msg(payload="fresh", src_pe=0)))
        while len(node.inbox) < 2:
            node.pump()
        peer = link.out[0]
        assert link.epochs == [1, 0] and peer.name == mp._peer_name(link.base, 0, 1)
        assert (link.sent, link.recv) == ([0, 0], [1, 0])
        assert spy.writes == []  # the held reply went with its incarnation
        link.renew(0, 1)  # the hub's announcement, late
        assert link.out[0] is peer and link.recv == [1, 0]
    finally:
        fresh.close()

def _source(m, socks, pe=0):
    ours, theirs = socket.socketpair()
    socks += [ours, theirs]
    conn = mp._HubConn(ours)
    conn.pe = pe
    m._conns[pe] = conn
    return conn, theirs


# ----------------------------------------------------------------------
# an undecodable frame larger than the read buffer still names its sender
# ----------------------------------------------------------------------
def _feed(sock, data, step):
    """Write ``data`` to the non-blocking ``sock``, calling ``step()``
    (the reading side) between writes; then ``step()`` until it says
    done."""
    view = memoryview(data)
    while view:
        try:
            view = view[sock.send(view):]
        except BlockingIOError:
            pass
        step()
    for _ in range(1000):
        if step():
            return
    raise AssertionError("the reader never finished")


_BIG_BOMB = (ReduceBomb(), b"x" * (2 * mp._BUF_BYTES))

def test_worker_names_the_sender_of_an_undecodable_large_frame(worker):
    machine, node, _spy, b = worker()
    b.setblocking(False)
    link = node.machine.worker
    data = _data(0, 1, _msg(payload=_BIG_BOMB, src_pe=0, size=8))
    assert len(data) > mp._BUF_BYTES

    def step():
        assert node.poll() is None
        return link.stop.is_set()

    _feed(b, data, step)
    [(kind, why)] = link.sock.frames()
    assert kind == "fatal"
    assert "PE 1 could not decode a frame from PE 0" in why
    assert "refuses to unpickle" in why
    assert not node.inbox


@needs_mp
def test_hub_names_the_sender_of_an_undecodable_large_frame(hub):
    m, socks = hub
    src, feed = _source(m, socks)
    src.sock.setblocking(False)
    feed.setblocking(False)
    data = mp._encode(("result", 0, True, _BIG_BOMB))
    assert len(data) > mp._BUF_BYTES

    def step():
        m._on_conn(src, selectors.EVENT_READ)
        return m._worker_error is not None

    _feed(feed, data, step)
    pe, why, died = m._worker_error
    assert (pe, died) == (0, False)
    assert "the hub could not decode a frame from PE 0" in why
    assert "refuses to unpickle" in why
