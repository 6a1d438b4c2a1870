"""The programs the benchmark runs: SPMD mains handed to ``Machine.launch``.

Every main is module-level (picklable under both ``mp`` start methods),
takes one plain ``cfg`` dict and returns one plain dict through
``Machine.results()``.  Each is a closed loop that runs by the clock:

* phase 0 warms up for ``cfg["warm"]`` seconds,
* phase 1 (and phase 2 where a workload has a second traffic shape) is a
  measured window of ``cfg["windows"][i]`` seconds,
* then the main stops offering work, drains and returns.

Messages carry the phase they were sent in, so the receiving side counts
handler invocations per phase without knowing the clock of the sender,
and the driver can check the two sides against each other exactly.

With ``cfg["traced"]`` the mains wrap their own call sites in spans
(:mod:`spans`); otherwise they call the bare ``repro.api`` functions, so
the untraced pass pays nothing for the instrumentation.
"""

from __future__ import annotations

import random
import time
import zlib
from typing import Any, Dict, List

from repro import api

from spans import Recorder

LARGE_BYTES = 64 * 1024
#: every 64th large ball is CRC-checked (a CRC of 64 KiB costs ~15 us)
CRC_EVERY = 64
LIVE_TASKS = 1024
PRIO_TABLE = 4096
YIELD_THREADS = 8
STREAM_CREDITS = 16
#: a PE keeps the time of every this-many-th handler invocation of phase 1
STREAM_TICK = 16

now = time.monotonic


def _phase_ends(t0: float, cfg: Dict[str, Any]) -> List[float]:
    """Absolute end time of phase 0, 1, ... for a main that started at
    ``t0``; the last entry is followed by the drain."""
    ends, t = [], t0
    for span in [cfg["warm"]] + list(cfg["windows"]):
        t += span
        ends.append(t)
    return ends


def _result(rec: Any, **fields: Any) -> Dict[str, Any]:
    fields["pe"] = api.CmiMyPe()
    fields["spans"] = rec.rows if rec is not None else []
    return fields


# ----------------------------------------------------------------------
# pingpong: one ball in flight between PE 0 and PE 1
# ----------------------------------------------------------------------

def pingpong_main(cfg: Dict[str, Any]) -> Dict[str, Any]:
    """Two PEs bounce one ball.  Phase 1 carries 8-byte payloads; phase
    2, when ``cfg["windows"]`` has a second entry, 64 KiB ones.

    A ball is ``(hop, phase, blob)``; PE 0 handles odd hops, PE 1 even
    ones and echoes the blob.  PE 0 keeps the clock: one
    ``time.monotonic()`` per round trip, in its handler, is both the
    round-trip sample and the phase switch.  With ``cfg["trips"]`` a
    measured phase also ends after that many round trips: a workload
    whose memory grows with every message must do the same work in every
    repetition for its peak to mean anything.
    """
    me = api.CmiMyPe()
    other = 1 - me
    t_entry = now()
    rng = random.Random(cfg["seed"])
    small = [rng.randbytes(8) for _ in range(64)]
    large = rng.randbytes(LARGE_BYTES)
    large_crc = zlib.crc32(large)
    nphases = 1 + len(cfg["windows"])
    ends = _phase_ends(t_entry, cfg)
    trips = cfg.get("trips", float("inf"))
    counts = [0] * nphases
    samples: List[List[float]] = [[] for _ in range(nphases)]
    marks = [t_entry]
    vmarks = [api.CmiTimer()]
    cur = 0          # phase PE 0 is sending in
    last = 0.0       # PE 0: when the previous ball came home
    expect = 1 - me  # next hop this PE must see
    sent = errors = 0
    t_done = 0.0

    rec = Recorder() if cfg["traced"] else None
    new, send = api.CmiNew, api.CmiSyncSend
    if rec is not None:
        new = rec.wrap("core.api.CmiNew", new, op_of=lambda _h, ball, **_k: ball[0])
        send = rec.wrap("core.api.CmiSyncSend", send)

    def serve(hop: int, phase: int) -> None:
        nonlocal sent
        blob = large if phase == 2 else small[(hop >> 1) & 63]
        sent += 1
        send(other, new(h, (hop, phase, blob), size=len(blob)))

    def on_ball_pe0(msg: Any) -> None:
        nonlocal cur, last, expect, errors, t_done
        hop, phase, blob = msg.payload
        t = now()
        counts[phase] += 1
        samples[phase].append(t - last)
        last = t
        if hop != expect:
            errors += 1
        expect = hop + 2
        if phase == 2:
            if len(blob) != LARGE_BYTES or \
                    ((hop >> 1) % CRC_EVERY == 0 and zlib.crc32(blob) != large_crc):
                errors += 1
        elif blob != small[(hop >> 1) & 63]:
            errors += 1
        if t >= ends[cur] or (cur > 0 and counts[cur] >= trips):
            cur += 1
            marks.append(t)
            vmarks.append(api.CmiTimer())
            if cur == nphases:
                t_done = t
                api.CsdExitAll()
                return
        serve(hop + 1, cur)

    def on_ball_pe1(msg: Any) -> None:
        nonlocal expect, errors, sent
        hop, phase, blob = msg.payload
        counts[phase] += 1
        if hop != expect:
            errors += 1
        expect = hop + 2
        sent += 1
        send(other, new(h, (hop + 1, phase, blob), size=len(blob)))

    on_ball = on_ball_pe0 if me == 0 else on_ball_pe1
    if rec is not None:
        on_ball = rec.wrap_handler("user.handler", on_ball,
                                   op_of=lambda msg: msg.payload[0])
    h = api.CmiRegisterHandler(on_ball, "bench.ball")
    if me == 0:
        last = now()
        serve(0, 0)
    api.CsdScheduler(-1)
    return _result(rec, counts=counts, samples=samples, marks=marks,
                   vmarks=vmarks, errors=errors, sent=sent,
                   t_entry=t_entry, t_done=t_done)


# ----------------------------------------------------------------------
# csd_churn: scheduler and queue only, no network
# ----------------------------------------------------------------------

def churn_main(cfg: Dict[str, Any]) -> Dict[str, Any]:
    """One PE, ``LIVE_TASKS`` live tasks, each enqueueing one successor
    through ``CsdEnqueue``.  ``cfg["prio"]`` gives every task a seeded
    integer priority (the machine must then be built with
    ``queue="int"``); otherwise priorities are ``None``.

    The clock is read once per generation (``LIVE_TASKS`` tasks); a
    generation is the latency sample and the phase switch.
    """
    t_entry = now()
    rng = random.Random(cfg["seed"])
    prios: List[Any] = [rng.randrange(1 << 20) if cfg["prio"] else None
                        for _ in range(PRIO_TABLE)]
    ends = _phase_ends(t_entry, cfg)
    nphases = len(ends)
    gens: List[List[float]] = [[] for _ in range(nphases)]
    marks = [t_entry]
    ran = spawned = phase = errors = 0
    last = t_entry
    last_prio = -1
    t_done = 0.0

    rec = Recorder() if cfg["traced"] else None
    new, enqueue = api.CmiNew, api.CsdEnqueue
    if rec is not None:
        new = rec.wrap("core.api.CmiNew", new, op_of=lambda _h, k, **_k: k)
        enqueue = rec.wrap("core.api.CsdEnqueue", enqueue)

    def spawn() -> None:
        nonlocal spawned
        spawned += 1
        enqueue(new(h, spawned, size=8), prios[spawned % PRIO_TABLE])

    def on_task(msg: Any) -> None:
        nonlocal ran, phase, last, errors, last_prio, t_done
        ran += 1
        if ran % LIVE_TASKS == 0 and phase < nphases:
            t = now()
            gens[phase].append(t - last)
            last = t
            if t >= ends[phase]:
                phase += 1
                marks.append(t)
                t_done = t
        if phase < nphases:
            spawn()
        elif cfg["prio"]:
            # Draining: nothing is enqueued any more, so the queue must
            # hand the rest out in priority order.
            p = prios[msg.payload % PRIO_TABLE]
            if p < last_prio:
                errors += 1
            last_prio = p

    if rec is not None:
        on_task = rec.wrap_handler("user.handler", on_task,
                                   op_of=lambda msg: msg.payload)
    h = api.CmiRegisterHandler(on_task, "bench.task")
    for _ in range(LIVE_TASKS):
        spawn()
    api.CsdScheduleUntilIdle()
    return _result(rec, ran=ran, spawned=spawned, gens=gens, marks=marks,
                   errors=errors + api.CsdQueueLength(),
                   t_entry=t_entry, t_done=t_done)


# ----------------------------------------------------------------------
# cth_yield: threads resumed through the scheduler
# ----------------------------------------------------------------------

def yield_main(cfg: Dict[str, Any]) -> Dict[str, Any]:
    """One PE, ``YIELD_THREADS`` Cth threads on the scheduler strategy,
    each calling ``CthYield`` in a loop: every yield is a suspend plus a
    generalized resume message through Csd.  Thread 0 keeps the clock;
    its call-to-return time is one rotation of all the threads."""
    t_entry = now()
    ends = _phase_ends(t_entry, cfg)
    nphases = len(ends)
    counts = [[0] * nphases for _ in range(YIELD_THREADS)]
    samples: List[List[float]] = [[] for _ in range(nphases)]
    st = {"phase": 0, "finished": 0, "t_done": 0.0}
    marks = [t_entry]

    rec = Recorder() if cfg["traced"] else None
    yield_ = api.CthYield
    if rec is not None:
        yield_ = rec.wrap("core.api.CthYield", yield_)

    def body(tid: int) -> None:
        mine = counts[tid]
        if tid == 0:
            while st["phase"] < nphases:
                phase = st["phase"]
                t0 = now()
                yield_()
                t1 = now()
                mine[phase] += 1
                samples[phase].append(t1 - t0)
                if t1 >= ends[phase]:
                    st["phase"] = phase + 1
                    marks.append(t1)
            st["t_done"] = marks[-1]
        else:
            while st["phase"] < nphases:
                phase = st["phase"]
                yield_()
                mine[phase] += 1
        st["finished"] += 1
        if st["finished"] == YIELD_THREADS:
            api.CsdExitScheduler()

    for tid in range(YIELD_THREADS):
        thr = api.CthCreate(body, tid)
        api.CthUseSchedulerStrategy(thr)
        api.CthAwaken(thr)
    api.CsdScheduler(-1)
    return _result(rec, counts=counts, samples=samples, marks=marks,
                   finished=st["finished"], t_entry=t_entry,
                   t_done=st["t_done"])


# ----------------------------------------------------------------------
# stream: credit-windowed all-to-all
# ----------------------------------------------------------------------

def stream_main(cfg: Dict[str, Any]) -> Dict[str, Any]:
    """Every PE streams 8-byte data messages to every other PE with
    ``STREAM_CREDITS`` outstanding per ordered pair; each data delivery
    returns a credit, each credit releases the next data message.  The
    in-flight count is bounded, so the rate does not depend on how long
    the run is.

    Each PE reads its own clock once per handler; the phase a data
    message was sent in travels with it and comes back on its credit.
    """
    me, npes = api.CmiMyPe(), api.CmiNumPes()
    t_entry = now()
    rng = random.Random(cfg["seed"])
    blobs = [rng.randbytes(8) for _ in range(64)]
    peers = [p for p in range(npes) if p != me]
    random.Random(cfg["seed"] * 1009 + me).shuffle(peers)
    ends = _phase_ends(t_entry, cfg)
    nphases = len(ends)
    credits = {p: STREAM_CREDITS for p in peers}
    sent = {p: [0] * nphases for p in peers}
    got_data = {p: [0] * nphases for p in peers}
    got_credit = {p: [0] * nphases for p in peers}
    next_seq = {p: 0 for p in peers}
    expect = {p: 0 for p in peers}
    sent_at = {p: [0.0] * STREAM_CREDITS for p in peers}
    samples: List[List[float]] = [[] for _ in range(nphases)]
    st = {"errors": 0, "reported": False, "done": 0, "t_done": 0.0, "handled": 0}
    ticks: List[float] = []  # when every STREAM_TICK-th handler of phase 1 ran

    rec = Recorder() if cfg["traced"] else None
    new, send = api.CmiNew, api.CmiSyncSend
    if rec is not None:
        # op = (sender, receiver, seq) folded into one int
        new = rec.wrap("core.api.CmiNew", new,
                       op_of=lambda _h, p, **_k: _stream_op(p[0], p[1], p[2]))
        send = rec.wrap("core.api.CmiSyncSend", send)

    def phase_at(t: float) -> int:
        phase = 0
        while phase < nphases and t >= ends[phase]:
            phase += 1
        return phase

    def pump(dst: int, t: float) -> None:
        phase = phase_at(t)
        if phase == nphases:
            if not st["reported"] and \
                    all(c == STREAM_CREDITS for c in credits.values()):
                st["reported"] = True
                st["t_done"] = t
                send(0, new(h_done, (me, me, 0), size=0))
            return
        while credits[dst] > 0:
            credits[dst] -= 1
            seq = next_seq[dst]
            next_seq[dst] = seq + 1
            sent[dst][phase] += 1
            sent_at[dst][seq % STREAM_CREDITS] = t
            send(dst, new(h_data, (me, dst, seq, phase, blobs[seq & 63]), size=8))

    def tick(t: float) -> None:
        st["handled"] = n = st["handled"] + 1
        if n % STREAM_TICK == 0:
            ticks.append(t)

    def on_data(msg: Any) -> None:
        src, _dst, seq, phase, blob = msg.payload
        t = now()
        got_data[src][phase] += 1
        if seq != expect[src] or blob != blobs[seq & 63]:
            st["errors"] += 1
        expect[src] = seq + 1
        if phase == 1:
            tick(t)
        send(src, new(h_credit, (src, me, seq, phase), size=0))

    def on_credit(msg: Any) -> None:
        _me, src, seq, phase = msg.payload
        t = now()
        got_credit[src][phase] += 1
        credits[src] += 1
        samples[phase].append(t - sent_at[src][seq % STREAM_CREDITS])
        if phase == 1:
            tick(t)
        pump(src, t)

    def on_done(_msg: Any) -> None:
        st["done"] += 1
        if st["done"] == npes:
            api.CsdExitAll()

    if rec is not None:
        on_data = rec.wrap_handler(
            "user.handler", on_data,
            op_of=lambda m: _stream_op(m.payload[0], m.payload[1], m.payload[2]))
        on_credit = rec.wrap_handler(
            "user.handler", on_credit,
            op_of=lambda m: _stream_op(m.payload[0], m.payload[1], m.payload[2]))
    h_data = api.CmiRegisterHandler(on_data, "bench.data")
    h_credit = api.CmiRegisterHandler(on_credit, "bench.credit")
    h_done = api.CmiRegisterHandler(on_done, "bench.done")
    t = now()
    for dst in peers:
        pump(dst, t)
    api.CsdScheduler(-1)
    return _result(rec, sent=sent, got_data=got_data, got_credit=got_credit,
                   samples=samples, errors=st["errors"], ticks=ticks,
                   t_entry=t_entry, t_done=st["t_done"])


def _stream_op(src: int, dst: int, seq: int) -> int:
    return (seq * 16 + src) * 16 + dst
