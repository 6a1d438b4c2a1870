"""Module-level SPMD workloads for the mp legs of the fault sweeps.

The multiprocess layer ships launch specs to worker processes by
(picklable) reference, so the closure-based runners in ``harness.py``
cannot cross the machine boundary.  These are the same workloads
rewritten in the conformance-worker idiom: module-level functions that
communicate results exclusively through their return values
(``machine.results()``).

The mp legs assert *invariants* — delivery multiset/sequence equality
under the reliable layer, machine-wide conservation, fault-free-
identical recovery results — rather than the simulator's byte-identical
traces: real sockets and real SIGKILLs do not replay deterministically.
"""

from __future__ import annotations

import time

from repro.core import api


def w_fuzz_pingpong(rounds):
    """PE 0 and PE 1 bounce one numbered ball ``2 * rounds`` hops; under
    exactly-once, per-sender-FIFO delivery each PE observes exactly the
    even (resp. odd) numbers in increasing order.  Returns this PE's
    receive sequence."""
    me = api.CmiMyPe()
    other = 1 - me
    mine = []

    def on_ball(msg):
        n = msg.payload
        mine.append(n)
        if n + 1 < 2 * rounds:
            api.CmiSyncSend(other, api.CmiNew(h_ball, n + 1))
        if len(mine) == rounds:
            api.CsdExitScheduler()

    h_ball = api.CmiRegisterHandler(on_ball, "fuzz.ball")
    if me == 0:
        api.CmiSyncSend(1, api.CmiNew(h_ball, 0))
    api.CsdScheduler(-1)
    return list(mine)


def w_fuzz_broadcast(count):
    """PE 0 broadcasts ``count`` numbered messages; every other PE must
    receive exactly ``0 .. count-1`` in order and returns its sequence."""
    me = api.CmiMyPe()
    mine = []

    def on_msg(msg):
        mine.append(msg.payload)
        if len(mine) == count:
            api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_msg, "fuzz.bcast")
    if me == 0:
        for i in range(count):
            api.CmiSyncBroadcast(api.CmiNew(h, i))
        return None
    api.CsdScheduler(-1)
    return list(mine)


def w_fuzz_relay(seeds_per_pe, ttl):
    """Every PE injects ``seeds_per_pe`` relays that hop the ring ``ttl``
    further times; every delivery acks PE 0, which broadcasts a stop once
    the full tally (``num_pes * seeds_per_pe * (ttl + 1)``) is in.

    A dropped relay (undetected loss) hangs the tally short; a duplicate
    overshoots it — the conservation invariant is ``sum(returned
    handled counts) == expected total``."""
    me = api.CmiMyPe()
    n = api.CmiNumPes()
    expected_total = n * seeds_per_pe * (ttl + 1)
    state = {"handled": 0, "acks": 0}

    def on_relay(msg):
        state["handled"] += 1
        remaining = msg.payload
        api.CmiSyncSend(0, api.CmiNew(h_ack, None, size=8))
        if remaining > 0:
            api.CmiSyncSend((me + 1) % n, api.CmiNew(h_relay, remaining - 1))

    def on_ack(_msg):
        state["acks"] += 1
        if state["acks"] >= expected_total:
            api.CmiSyncBroadcastAll(api.CmiNew(h_stop, None, size=8))

    def on_stop(_msg):
        api.CsdExitScheduler()

    h_relay = api.CmiRegisterHandler(on_relay, "fuzz.relay")
    h_ack = api.CmiRegisterHandler(on_ack, "fuzz.relay-ack")
    h_stop = api.CmiRegisterHandler(on_stop, "fuzz.relay-stop")
    for _ in range(seeds_per_pe):
        api.CmiSyncSend((me + 1) % n, api.CmiNew(h_relay, ttl))
    api.CsdScheduler(-1)
    return state["handled"]


def w_suicide(victim_pe):
    """The victim SIGKILLs its own process mid-run — an *unscheduled*
    death (no CrashSpec, no ft): the hub must surface a structured
    ``WorkerDied`` naming the PE, not an opaque hang or traceback."""
    import os
    import signal

    me = api.CmiMyPe()
    if me == victim_pe:
        time.sleep(0.2)
        os.kill(os.getpid(), signal.SIGKILL)
    api.CsdScheduler(-1)


def w_ft_pingpong(rounds, checkpoint_every=8, sleep_s=0.002):
    """The crash-surviving ping-pong written against the ``Cft*`` API
    (the mp twin of ``harness.run_ft_pingpong``).  ``sleep_s`` stretches
    each handler so a wall-clock ``CrashSpec`` lands mid-run rather than
    after the natural drain.  Returns this PE's receive sequence, which
    must equal the fault-free run's exactly."""
    me = api.CmiMyPe()
    other = 1 - me
    mine = []

    def on_ball(msg):
        n = msg.payload
        mine.append(n)
        if sleep_s:
            time.sleep(sleep_s)
        if n + 1 < 2 * rounds:
            api.CmiSyncSend(other, api.CmiNew(h_ball, n + 1))
        if checkpoint_every and len(mine) % checkpoint_every == 0:
            api.CftCheckpoint()
        if len(mine) == rounds:
            api.CsdExitScheduler()

    h_ball = api.CmiRegisterHandler(on_ball, "ft.ball")
    api.CftInit(lambda: list(mine),
                lambda state: mine.__setitem__(slice(None), state))

    def init_sends():
        if me == 0:
            api.CmiSyncSend(1, api.CmiNew(h_ball, 0))

    if api.CftRestarting():
        if not api.CftRecover():
            # Cold start: no checkpoint existed.  Redo the fault-free
            # initialization; replay + dedup reconcile anything peers
            # already saw.
            mine.clear()
            init_sends()
    else:
        init_sends()
    api.CsdScheduler(-1)
    return list(mine)


def w_ft_all2all(count, checkpoint_every=6, sleep_s=0.002):
    """Crash-surviving all-to-all (the mp twin of
    ``harness.run_ft_all2all``): every PE sends ``count`` numbered
    messages to every other PE, checkpoints its spontaneous
    initialization sends, and exits once ``count * (n - 1)`` arrived.
    Returns ``{src: [i, ...]}`` which must match the fault-free run."""
    me, n = api.CmiMyPe(), api.CmiNumPes()
    mine = {src: [] for src in range(n) if src != me}
    state = {"seen": 0}
    total = count * (n - 1)

    def on_msg(msg):
        src, i = msg.payload
        mine[src].append(i)
        state["seen"] += 1
        if sleep_s:
            time.sleep(sleep_s)
        if checkpoint_every and state["seen"] % checkpoint_every == 0:
            api.CftCheckpoint()
        if state["seen"] == total:
            api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_msg, "ft.a2a")

    def pack():
        return ({src: list(v) for src, v in mine.items()}, state["seen"])

    def unpack(snapshot):
        blobs, seen = snapshot
        for src, v in blobs.items():
            mine[src][:] = v
        state["seen"] = seen

    def init_sends():
        for step in range(1, n):
            dst = (me + step) % n
            for i in range(count):
                api.CmiSyncSend(dst, api.CmiNew(h, (me, i)))

    api.CftInit(pack, unpack)
    if api.CftRestarting():
        if not api.CftRecover():
            for v in mine.values():
                v.clear()
            state["seen"] = 0
            init_sends()
            api.CftCheckpoint()
    else:
        init_sends()
        api.CftCheckpoint()
    # The last arrival checkpoints too: a crash between that checkpoint
    # and the main's return restores a finished run, and no further
    # message would come to exit the scheduler.
    if state["seen"] < total:
        api.CsdScheduler(-1)
    return {src: list(v) for src, v in mine.items()}


def w_numbered_stream(count):
    """PE 0 sends ``count`` numbered messages to PE 1, which returns them
    in arrival order (unreliable: a FIFO-keeping plan must keep it)."""
    me = api.CmiMyPe()
    mine = []

    def on_num(msg):
        mine.append(msg.payload)
        if len(mine) == count:
            api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_num, "fifo.num")
    if me == 0:
        for i in range(count):
            api.CmiSyncSend(1, api.CmiNew(h, i))
        return None
    api.CsdScheduler(-1)
    return mine


def w_numbered_all2all(count):
    """Every PE sends ``count`` numbered messages to every other PE, in
    one fixed order, and exits once ``count * (n - 1)`` have arrived.
    Returns how many arrived."""
    me, n = api.CmiMyPe(), api.CmiNumPes()
    state = {"seen": 0}

    def on_num(_msg):
        state["seen"] += 1
        if state["seen"] == count * (n - 1):
            api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_num, "a2a.num")
    for i in range(count):
        for dst in range(n):
            if dst != me:
                api.CmiSyncSend(dst, api.CmiNew(h, (me, i)))
    api.CsdScheduler(-1)
    return state["seen"]
