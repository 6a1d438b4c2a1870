"""SPMD worker mains for the conformance battery.

Module-level functions only: the multiprocess layer ships launch specs
to worker processes by (picklable) reference, so closures over test
state cannot cross the machine boundary — workers communicate results
exclusively through their return values (``machine.results()``),
which works identically on every layer.
"""

from __future__ import annotations

from repro.core import api
from repro.core.errors import BufferOwnershipError
from repro.core.message import BitVector


def _register_stop():
    """Register the conventional stop handler (a remotely-sendable
    ``CsdExitScheduler``) and return its index."""
    return api.CmiRegisterHandler(lambda _msg: api.CsdExitScheduler(), "stop")


# ----------------------------------------------------------------------
# dispatch, delivery, ordering
# ----------------------------------------------------------------------
def w_handler_dispatch():
    """Two handlers per PE; PE 0 targets each one on PE 1 explicitly.
    Proves messages dispatch by handler *index* and nothing leaks
    between handlers."""
    me = api.CmiMyPe()
    hits = {"a": [], "b": []}

    def on_a(msg):
        hits["a"].append(bytes(msg.payload))

    def on_b(msg):
        hits["b"].append(bytes(msg.payload))
        api.CsdExitScheduler()

    h_a = api.CmiRegisterHandler(on_a, "conf.a")
    h_b = api.CmiRegisterHandler(on_b, "conf.b")
    if me == 0:
        api.CmiSyncSend(1, api.CmiNew(h_a, b"for-a"))
        api.CmiSyncSend(1, api.CmiNew(h_a, b"for-a-2"))
        api.CmiSyncSend(1, api.CmiNew(h_b, b"for-b"))
        return None
    api.CsdScheduler(-1)
    # on_b exits after one message; drain anything a left behind.
    api.CsdSchedulePoll()
    return {"a": hits["a"], "b": hits["b"]}


def w_pingpong(rounds, nbytes):
    """The classic round-trip: PE 0 <-> PE 1, ``rounds`` full trips.
    Returns the per-PE message count."""
    me = api.CmiMyPe()
    state = {"count": 0}
    h_stop = _register_stop()

    def on_ping(msg):
        state["count"] += 1
        if me == 1:
            api.CmiSyncSend(0, api.CmiNew(h_ping, msg.payload))
        elif state["count"] >= rounds:
            api.CmiSyncSend(1, api.CmiNew(h_stop, b""))
            api.CsdExitScheduler()
        else:
            api.CmiSyncSend(1, api.CmiNew(h_ping, msg.payload))

    h_ping = api.CmiRegisterHandler(on_ping, "conf.ping")
    if me == 0:
        api.CmiSyncSend(1, api.CmiNew(h_ping, b"x" * nbytes))
    api.CsdScheduler(-1)
    return state["count"]


def w_multi_sender(per_sender):
    """Every PE > 0 fires ``per_sender`` numbered messages at PE 0.

    The MMI guarantees delivery, not ordering ("no ordering guarantee
    between messages of a pair of processors" is the *weakest* reading —
    the contract tested is set-equality of the delivered multiset).
    Senders return what they sent; PE 0 returns what it received.
    """
    me = api.CmiMyPe()
    n = api.CmiNumPes()
    expected = (n - 1) * per_sender
    got = []

    def on_msg(msg):
        got.append(tuple(msg.payload))
        if len(got) >= expected:
            api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_msg, "conf.sink")
    if me == 0:
        api.CsdScheduler(-1)
        return sorted(got)
    sent = []
    for i in range(per_sender):
        api.CmiSyncSend(0, api.CmiNew(h, (me, i)))
        sent.append((me, i))
    return sorted(sent)


def w_broadcast(include_self):
    """PE 0 broadcasts once; every PE returns how many copies arrived.
    ``CmiSyncBroadcast`` must fan out to exactly the other N-1 PEs,
    ``CmiSyncBroadcastAll`` to all N — and a broadcast is not a barrier,
    so the root continues without waiting."""
    me = api.CmiMyPe()
    got = {"n": 0}

    def on_msg(msg):
        got["n"] += 1
        api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_msg, "conf.bcast")
    if me == 0:
        msg = api.CmiNew(h, b"fanout")
        if include_self:
            api.CmiSyncBroadcastAll(msg)
            api.CsdScheduler(-1)  # the root's own copy arrives like any other
        else:
            api.CmiSyncBroadcast(msg)
        return got["n"]
    api.CsdScheduler(-1)
    return got["n"]


def w_self_send():
    """A PE sends to itself; the loopback path must behave like any
    other delivery (handler runs from the scheduler, src_pe stamped)."""
    me = api.CmiMyPe()
    seen = {}

    def on_msg(msg):
        seen["src"] = msg.src_pe
        seen["payload"] = bytes(msg.payload)
        api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_msg, "conf.self")
    api.CmiSyncSend(me, api.CmiNew(h, b"to-myself"))
    api.CsdScheduler(-1)
    return (seen["src"], seen["payload"])


def w_async_send(rounds):
    """CmiAsyncSend round trips.  A reply proves the outbound send
    completed, so by the time each reply arrives ``CmiAsyncMsgSent``
    must be True for the handle that produced it — on every layer,
    without the test assuming anything about how time advances."""
    me = api.CmiMyPe()
    state = {"count": 0, "done_at_reply": True, "handle": None}
    h_stop = _register_stop()

    def _send_async(msg):
        state["handle"] = api.CmiAsyncSend(1, msg)

    def on_ping(msg):
        state["count"] += 1
        if me == 1:
            api.CmiSyncSend(0, api.CmiNew(h_ping, msg.payload))
            return
        if not api.CmiAsyncMsgSent(state["handle"]):
            state["done_at_reply"] = False
        api.CmiReleaseCommHandle(state["handle"])
        if state["count"] >= rounds:
            api.CmiSyncSend(1, api.CmiNew(h_stop, b""))
            api.CsdExitScheduler()
        else:
            _send_async(api.CmiNew(h_ping, msg.payload))

    h_ping = api.CmiRegisterHandler(on_ping, "conf.aping")
    if me == 0:
        _send_async(api.CmiNew(h_ping, b"y" * 16))
    api.CsdScheduler(-1)
    if me == 1:
        return state["count"]
    return {"count": state["count"], "done_at_reply": state["done_at_reply"]}


def w_quiescence_idle(value):
    """No traffic at all: the machine must still detect quiescence with
    every main simply returning."""
    return value + api.CmiMyPe()


def w_quiescence_ring(laps):
    """A token circles the ring ``laps`` times with no explicit
    synchronization; termination is pure quiescence bookkeeping (every
    PE's scheduler exits on a stop broadcast from the token's owner)."""
    me = api.CmiMyPe()
    n = api.CmiNumPes()
    state = {"hops": 0}
    h_stop = _register_stop()

    def on_token(msg):
        state["hops"] += 1
        lap, hops = msg.payload
        hops += 1
        if hops >= laps * n:
            for pe in range(n):
                if pe != me:
                    api.CmiSyncSend(pe, api.CmiNew(h_stop, b""))
            api.CsdExitScheduler()
            return
        api.CmiSyncSend((me + 1) % n, api.CmiNew(h_token, (lap, hops)))

    h_token = api.CmiRegisterHandler(on_token, "conf.token")
    if me == 0:
        api.CmiSyncSend(1 % n, api.CmiNew(h_token, (0, 0)))
    api.CsdScheduler(-1)
    return state["hops"]


def w_printf(tag):
    """Every PE emits one atomic console line."""
    api.CmiPrintf("%s from pe %d of %d\n", tag, api.CmiMyPe(), api.CmiNumPes())
    return api.CmiMyPe()


def w_immediate(count):
    """PE 0 fires immediate messages at PE 1, which counts them in its
    handler while sitting in a plain scheduler loop; a final normal
    message releases PE 1.  PE 1 announces itself first, so the burst
    lands on a PE that is already inside its scheduler."""
    me = api.CmiMyPe()
    got = {"n": 0}

    def on_imm(_msg):
        got["n"] += 1

    def on_done(_msg):
        api.CsdExitScheduler()

    def on_ready(_msg):
        for _ in range(count):
            api.CmiImmediateSend(1, api.CmiNew(h_imm, b"!"))
        api.CmiSyncSend(1, api.CmiNew(h_done, b""))
        api.CsdExitScheduler()

    h_imm = api.CmiRegisterHandler(on_imm, "conf.imm")
    h_done = api.CmiRegisterHandler(on_done, "conf.imm-done")
    h_ready = api.CmiRegisterHandler(on_ready, "conf.imm-ready")
    if me == 0:
        api.CsdScheduler(-1)  # wait for PE 1's readiness announcement
        return None
    api.CmiSyncSend(0, api.CmiNew(h_ready, b""))
    api.CsdScheduler(-1)
    return got["n"]


# ----------------------------------------------------------------------
# buffer ownership & header invariants
# ----------------------------------------------------------------------
def w_ownership_recycle():
    """A handler that does *not* grab its buffer loses it: after the
    handler returns the CMI recycles the message, and later payload
    access must raise BufferOwnershipError on every layer."""
    me = api.CmiMyPe()
    kept = {}

    def on_msg(msg):
        kept["msg"] = msg  # deliberately not grabbed
        api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_msg, "conf.own")
    if me == 0:
        api.CmiSyncSend(1, api.CmiNew(h, b"ephemeral"))
        return None
    api.CsdScheduler(-1)
    msg = kept["msg"]
    out = {"valid": msg.valid}
    try:
        _ = msg.payload
        out["raises"] = False
    except BufferOwnershipError:
        out["raises"] = True
    return out


def w_ownership_grab():
    """CmiGrabBuffer transfers ownership: a grabbed buffer survives the
    handler and its payload stays readable."""
    me = api.CmiMyPe()
    kept = {}

    def on_msg(msg):
        kept["msg"] = api.CmiGrabBuffer(msg)
        api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_msg, "conf.grab")
    if me == 0:
        api.CmiSyncSend(1, api.CmiNew(h, b"durable"))
        return None
    api.CsdScheduler(-1)
    msg = kept["msg"]
    return {"valid": msg.valid, "payload": bytes(msg.payload)}


def w_sender_keeps_buffer(rounds):
    """CmiSyncSend semantics: when the call returns the sender owns its
    buffer again — the receiver's consumption (and even the receiver
    rebinding its copy's payload) must never be observable on the
    sender's message object, which stays reusable for further sends."""
    me = api.CmiMyPe()
    state = {"count": 0}
    h_stop = _register_stop()

    def on_msg(msg):
        state["count"] += 1
        # Receiver-side rebinding: must be invisible to the sender.
        msg._payload = b"clobbered-by-receiver"
        if state["count"] >= rounds:
            api.CmiSyncSend(0, api.CmiNew(h_stop, b""))
            api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_msg, "conf.keep")
    if me == 0:
        original = b"sender-owned-bytes"
        msg = api.CmiNew(h, original)
        for _ in range(rounds):  # the same buffer, reused every round
            api.CmiSyncSend(1, msg)
        api.CsdScheduler(-1)
        return {"payload": bytes(msg.payload), "intact": msg.payload == original}
    api.CsdScheduler(-1)
    return state["count"]


def w_header_invariants():
    """HEADER_BYTES accounting and header fields must be identical
    across layers: src_pe stamped by the CMI, handler index preserved,
    priorities (int and BitVector) delivered unchanged."""
    me = api.CmiMyPe()
    got = {}

    def on_msg(msg):
        got[len(got)] = {
            "src": msg.src_pe,
            "handler": msg.handler,
            "prio": msg.prio,
            "size": msg.size,
            "payload": bytes(msg.payload),
        }
        if len(got) >= 2:
            api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_msg, "conf.header")
    header_bytes = api.CmiMsgHeaderSizeBytes()
    if me == 0:
        api.CmiSyncSend(1, api.CmiNew(h, b"int-prio", prio=7))
        api.CmiSyncSend(1, api.CmiNew(h, b"bits-prio", prio=BitVector("1011")))
        return {"header_bytes": header_bytes}
    api.CsdScheduler(-1)
    first, second = got[0], got[1]
    # Arrival order of the two is not part of the contract.
    if first["payload"] != b"int-prio":
        first, second = second, first
    return {
        "header_bytes": header_bytes,
        "src": (first["src"], second["src"]),
        "handler_ok": first["handler"] == h and second["handler"] == h,
        "int_prio": first["prio"],
        "bits_prio": second["prio"].bits,
        "sizes": (first["size"], second["size"]),
    }


def w_ccd_timer():
    """A Ccd timed callback is *pending work*: quiescence must wait for
    it (on any layer), and the callback runs in handler context."""
    me = api.CmiMyPe()
    fired = {"n": 0}

    def cb():
        fired["n"] += 1
        api.CsdExitScheduler()

    if me == 0:
        api.CcdCallFnAfter(0.01, cb)
        api.CsdScheduler(-1)
    return fired["n"]


def w_burn(cpu_seconds):
    """Burn ~cpu_seconds of CPU on every PE (measured-parallelism probe
    for the multiprocess layer)."""
    import time as _time

    start = _time.process_time()
    x = 0
    while _time.process_time() - start < cpu_seconds:
        x += sum(range(1000))
    return api.CmiMyPe()


def w_hang():
    """Never quiesce: a Ccd callback that re-arms itself keeps a timer
    pending forever.  Exists to prove run() timeouts fire and clean up."""

    def rearm():
        api.CcdCallFnAfter(0.05, rearm)

    api.CcdCallFnAfter(0.05, rearm)
    api.CsdScheduler(-1)


def w_raise(victim_pe):
    """Raise in the main program of one PE — the failure must surface
    from run()/results() as an error naming the PE, not hang the job."""
    if api.CmiMyPe() == victim_pe:
        raise RuntimeError("conformance: deliberate worker failure")
    return "ok"


def w_set_handler_retarget():
    """CmiSetHandler on a fresh message must steer dispatch: build a
    message for handler A, retarget to handler B, send — only B runs."""
    me = api.CmiMyPe()
    ran = []

    def on_a(_msg):
        ran.append("a")
        api.CsdExitScheduler()

    def on_b(_msg):
        ran.append("b")
        api.CsdExitScheduler()

    h_a = api.CmiRegisterHandler(on_a, "conf.ra")
    h_b = api.CmiRegisterHandler(on_b, "conf.rb")
    if me == 0:
        msg = api.CmiNew(h_a, b"retarget")
        api.CmiSetHandler(msg, h_b)
        api.CmiSyncSend(1, msg)
        return None
    api.CsdScheduler(-1)
    return ran


def w_cld_seed_burst(seeds_n, grain_s):
    """Cld conformance workload: PE 0 CldEnqueues ``seeds_n`` tagged
    seeds; each seed burns ``grain_s`` of charged time wherever it
    roots, then acks PE 0, which broadcasts a stop once every tag has
    been accounted for.

    Every PE returns ``(sorted tags that ran here, CldGetStats())`` so
    the test can check — identically on every machine layer — that the
    rooted multiset equals the created set (no seed lost, duplicated,
    or stuck in flight) and that ``sum(created) == sum(rooted)``."""
    me = api.CmiMyPe()
    ran = []
    acked = {"n": 0}

    def on_seed(msg):
        ran.append(msg.payload)
        api.CmiCharge(grain_s)
        api.CmiSyncSend(0, api.CmiNew(h_ack, None, size=8))

    def on_ack(_msg):
        acked["n"] += 1
        if acked["n"] >= seeds_n:
            api.CmiSyncBroadcastAll(api.CmiNew(h_stop, None, size=8))

    def on_stop(_msg):
        api.CsdExitScheduler()

    h_seed = api.CmiRegisterHandler(on_seed, "conf.cld.seed")
    h_ack = api.CmiRegisterHandler(on_ack, "conf.cld.ack")
    h_stop = api.CmiRegisterHandler(on_stop, "conf.cld.stop")
    if me == 0:
        for tag in range(seeds_n):
            api.CldEnqueue(api.CmiNew(h_seed, tag, size=32))
    api.CsdScheduler(-1)
    return (sorted(ran), api.CldGetStats())


def w_obs_ring(laps):
    """Deterministic observability workload: a token circles the ring
    ``laps`` full times, then its final holder broadcasts a stop to all
    PEs.  Every PE runs exactly ``laps`` token handlers plus one stop
    handler regardless of machine layer, so traced/metered runs on
    different layers must agree on the handler-invocation multiset."""
    me = api.CmiMyPe()
    n = api.CmiNumPes()
    state = {"tokens": 0}

    def on_token(msg):
        state["tokens"] += 1
        remaining = msg.payload
        if remaining > 0:
            api.CmiSyncSend((me + 1) % n,
                            api.CmiNew(h_token, remaining - 1, size=32))
        else:
            api.CmiSyncBroadcastAll(api.CmiNew(h_stop, None, size=16))

    def on_stop(_msg):
        api.CsdExitScheduler()

    h_token = api.CmiRegisterHandler(on_token, "obs.token")
    h_stop = api.CmiRegisterHandler(on_stop, "obs.stop")
    if me == 0:
        # laps*n hops in total, landing the last token back where the
        # count divides evenly: every PE sees exactly ``laps`` tokens.
        api.CmiSyncSend(1 % n, api.CmiNew(h_token, laps * n - 1, size=32))
    api.CsdScheduler(-1)
    return state["tokens"]


def w_speed_state():
    """What the raw-speed settings resolved to *inside* this PE: whether
    its runtime pools wire copies, and its scheduler's dispatch batch."""
    from repro.core import context

    rt = context.current_runtime()
    return (rt.pool is not None, rt.scheduler._batch)


# ----------------------------------------------------------------------
# one thread owns a PE (test_mp_backend.py)
# ----------------------------------------------------------------------
def w_thread_affinity(timers):
    """Which OS thread runs each kind of code the runtime calls on PE 1:
    an ordinary handler, an immediate handler, a Ccd callback, an
    arrival interceptor and a delivery hook.  Also the process's thread
    count before and after arming ``timers`` more Ccd callbacks."""
    import threading

    from repro.core import context

    me = api.CmiMyPe()
    ident = threading.get_ident
    seen = {k: set() for k in
            ("handler", "immediate", "ccd", "interceptor", "hook")}
    ticks = {"n": 0}

    def done():
        if seen["handler"] and seen["immediate"] and ticks["n"] == timers:
            api.CsdExitScheduler()

    def on_plain(_msg):
        seen["handler"].add(ident())
        done()

    def on_imm(_msg):
        seen["immediate"].add(ident())

    def on_ready(_msg):
        api.CmiImmediateSend(1, api.CmiNew(h_imm, b"!"))
        api.CmiSyncSend(1, api.CmiNew(h_plain, b"."))
        api.CsdExitScheduler()

    def on_tick():
        ticks["n"] += 1
        seen["ccd"].add(ident())
        done()

    def interceptor(_payload):
        seen["interceptor"].add(ident())
        return False

    h_plain = api.CmiRegisterHandler(on_plain, "aff.plain")
    h_imm = api.CmiRegisterHandler(on_imm, "aff.imm")
    h_ready = api.CmiRegisterHandler(on_ready, "aff.ready")
    if me == 0:
        api.CsdScheduler(-1)
        return None
    node = context.current_runtime().node
    node.set_interceptor(interceptor, front=True)
    node.add_delivery_hook(lambda _payload: seen["hook"].add(ident()))
    before = threading.active_count()
    for _ in range(timers):
        api.CcdCallFnAfter(0.05, on_tick)
    after = threading.active_count()
    api.CmiSyncSend(0, api.CmiNew(h_ready, b""))
    api.CsdScheduler(-1)
    return {"main": ident(), "threads": (before, after),
            **{k: sorted(v) for k, v in seen.items()}}


def w_thread_count():
    """How many threads this PE's process runs, seen from its main."""
    import threading

    return threading.active_count()


def w_reentrant_immediate(count):
    """PE 0 fires one immediate message at PE 1 and then ``count``
    ordinary ones.  PE 1 sleeps before entering the runtime, so one read
    decodes them all; the immediate handler calls ``CsdSchedulePoll()``
    while the later frames are decoded but not yet dispatched.  PE 1
    returns the ordinary payloads in dispatch order and how many of them
    the nested poll ran."""
    import time

    me = api.CmiMyPe()
    got = []
    inside = []

    def on_imm(_msg):
        api.CsdSchedulePoll()
        inside.append(len(got))

    def on_data(msg):
        got.append(msg.payload)
        if len(got) == count:
            api.CsdExitScheduler()

    def on_ready(_msg):
        api.CmiImmediateSend(1, api.CmiNew(h_imm, None, size=8))
        for i in range(count):
            api.CmiSyncSend(1, api.CmiNew(h_data, i, size=8))
        api.CsdExitScheduler()

    h_imm = api.CmiRegisterHandler(on_imm, "reent.imm")
    h_data = api.CmiRegisterHandler(on_data, "reent.data")
    h_ready = api.CmiRegisterHandler(on_ready, "reent.ready")
    if me == 0:
        api.CsdScheduler(-1)
        return None
    api.CmiSyncSend(0, api.CmiNew(h_ready, None, size=8))
    time.sleep(0.3)
    api.CsdScheduler(-1)
    return got, inside


def w_busy_handler(busy_s):
    """PE 1's handler for ``a`` tells PE 0 to send ``b`` and ``c``, then
    computes for ``busy_s`` without entering the runtime while they pile
    up behind it.  Returns the payloads PE 1 dispatched, in order."""
    import time

    me = api.CmiMyPe()
    got = []

    def on_data(msg):
        got.append(msg.payload)
        if msg.payload == "a":
            api.CmiSyncSend(0, api.CmiNew(h_go, None, size=8))
            time.sleep(busy_s)
        elif msg.payload == "c":
            api.CsdExitScheduler()

    def on_go(_msg):
        api.CmiSyncSend(1, api.CmiNew(h_data, "b", size=8))
        api.CmiSyncSend(1, api.CmiNew(h_data, "c", size=8))
        # PE 0's main returns here; under reliable=True its retransmit
        # timers must keep firing while it sits parked.
        api.CsdExitScheduler()

    h_data = api.CmiRegisterHandler(on_data, "busy.data")
    h_go = api.CmiRegisterHandler(on_go, "busy.go")
    if me == 0:
        api.CmiSyncSend(1, api.CmiNew(h_data, "a", size=8))
    api.CsdScheduler(-1)
    return got


def w_timer_then_return(delay):
    """Arm a Ccd timer and fall off the main: the timer is pending work
    (quiescence waits for it) that only a parked PE can fire."""
    api.CcdCallFnAfter(delay, lambda: None)
    return api.CmiMyPe()


def w_raise_in_ccd():
    """A Ccd callback that raises, on PE 1."""

    def boom():
        raise RuntimeError("conformance: deliberate Ccd failure")

    if api.CmiMyPe() == 1:
        api.CcdCallFnAfter(0.01, boom)
    api.CsdScheduler(-1)


def w_raise_in_immediate(parked):
    """An immediate handler that raises on PE 1 — inside PE 1's
    scheduler loop, or (``parked``) after its main has returned."""

    def boom(_msg):
        raise RuntimeError("conformance: deliberate immediate failure")

    h = api.CmiRegisterHandler(boom, "conf.imm-boom")
    if api.CmiMyPe() == 0:
        api.CmiImmediateSend(1, api.CmiNew(h, b"!"))
    elif not parked:
        api.CsdScheduler(-1)


def _refuse_to_unpickle():
    raise RuntimeError("conformance: payload refuses to unpickle")


class ReduceBomb:
    """Pickles fine; raises when the other side rebuilds it."""

    def __reduce__(self):
        return (_refuse_to_unpickle, ())


def w_send_reduce_bomb():
    h = api.CmiRegisterHandler(lambda _msg: None, "conf.bomb")
    if api.CmiMyPe() == 0:
        api.CmiSyncSend(1, api.CmiNew(h, ReduceBomb(), size=8))


# ----------------------------------------------------------------------
# capabilities a layer may refuse (test_interface.py)
# ----------------------------------------------------------------------
def w_cap_cth():
    """Create a Cth thread and switch to it; it runs to completion and
    control comes back."""
    ran = []
    api.CthResume(api.CthCreate(ran.append, "ran"))
    return ran


def w_cap_scanf():
    """One blocking, serialized console read per PE."""
    return api.CmiScanf("%d")


def w_cap_scanf_async():
    """The non-blocking scanf variant: the line arrives as a message."""
    got = []

    def on_line(msg):
        got.append(msg.payload)
        api.CsdExitScheduler()

    api.CmiScanfAsync("%d", api.CmiRegisterHandler(on_line, "cap.line"))
    api.CsdScheduler(-1)
    return got


def w_cap_rma(op):
    """PE 0 exposes four bytes and mails the global pointer to PE 1,
    which reads them one-sidedly (``op == "get"``) or overwrites them
    first (``"put"``).  Both PEs return what the region holds at the
    end, each by its own route: PE 1 by ``CmiSyncGet``, PE 0 locally."""
    box = []

    def on_mail(msg):
        box.append(msg.payload)
        api.CsdExitScheduler()

    h_mail = api.CmiRegisterHandler(on_mail, "cap.mail")
    if api.CmiMyPe() == 0:
        gptr = api.CmiGptrCreate(4, b"abcd")
        api.CmiSyncSend(1, api.CmiNew(h_mail, gptr, size=16))
        api.CsdScheduler(-1)  # until PE 1 says it is done
        return bytes(api.CmiGptrDref(gptr))
    api.CsdScheduler(-1)
    gptr = box[0]
    if op == "put":
        api.CmiSyncPut(gptr, b"WXYZ")
    data = bytes(api.CmiSyncGet(gptr, 4))
    api.CmiSyncSend(0, api.CmiNew(h_mail, None, size=8))
    return data


def w_cap_pgrp():
    """PE 0 builds a two-PE group with ``CmiPgrpCreate`` and multicasts
    over it; PE 1 resolves the group's id when the multicast lands."""
    got = []

    def on_msg(msg):
        got.append(msg.payload)
        api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_msg, "cap.pgrp")
    if api.CmiMyPe() == 0:
        group = api.CmiPgrpCreate()
        api.CmiAddChildren(group, 0, [1])
        api.CmiAsyncMulticast(group, api.CmiNew(h, "hi"))
    else:
        api.CsdScheduler(-1)
    return got


def w_gptr_local():
    """``CmiGptrCreate`` / ``CmiGptrDref`` on the PE's own memory."""
    return bytes(api.CmiGptrDref(api.CmiGptrCreate(6, b"abcd")))


def w_world_group_collectives():
    """A reduction and a barrier over the all-PEs spanning tree, which
    every PE derives locally from the machine size."""
    from repro.core import context
    from repro.machine.emi_groups import world_group

    group = world_group(context.current_runtime().machine)
    total = api.CmiPgrpReduce(group, api.CmiMyPe() + 1, lambda a, b: a + b)
    api.CmiPgrpBarrier(group)
    return total


def w_scatter_advance_receive():
    """PE 0 pre-posts an EMI scatter; the matching message from PE 1 is
    copied into the user buffer and never reaches its handler."""
    from repro.core import context

    ran = []
    dest = bytearray(4)

    def on_data(msg):
        ran.append(bytes(msg.payload))
        api.CsdExitScheduler()

    h_data = api.CmiRegisterHandler(on_data, "cap.data")
    if api.CmiMyPe() == 0:
        scatter = context.current_runtime().cmi.scatter
        scatter.register([(0, b"AB")], [(2, 4, dest, 0)])
        api.CsdScheduler(-1)  # ends on the non-matching message
        return bytes(dest), ran
    api.CmiSyncSend(0, api.CmiNew(h_data, b"ABwxyz"))
    api.CmiSyncSend(0, api.CmiNew(h_data, b"nomatch"))
    return None
