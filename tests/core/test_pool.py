"""Pooled message allocation (:mod:`repro.core.pool`) — the raw-speed
free list must never weaken the buffer-ownership protocol.

Covers the satellite checklist: a poisoned recycled message is never
resurrected with stale payload/prio/enq_time/msg_id, across
grab/recycle/re-send cycles, and a seeded fuzz-style workload produces
identical results with the pool on and off (including under a hostile
fault plan with the reliability layer).
"""

from __future__ import annotations

import random

import pytest

from repro import FaultPlan, Machine, api
from repro.core.errors import BufferOwnershipError
from repro.core.message import Message
from repro.core.pool import MessagePool
from repro.sim.models import GENERIC


# ----------------------------------------------------------------------
# unit: the free list itself
# ----------------------------------------------------------------------
def test_acquire_fresh_then_reuse_counters():
    pool = MessagePool()
    a = pool.acquire(3, "hello", 16, None, 0)
    assert pool.created == 1 and pool.reused == 0
    assert a._pooled and a._valid and not a._cmi_owned
    assert a.payload == "hello" and a.handler == 3 and a.size == 16
    assert a.msg_id is None and a.enq_time is None and not a.corrupted

    a.mark_cmi_owned()
    a.recycle()
    pool.release(a)
    assert pool.released == 1 and len(pool) == 1

    b = pool.acquire(4, "world", 8, None, 1)
    assert b is a                      # LIFO reuse of the parked buffer
    assert pool.reused == 1 and pool.created == 1


def test_parked_buffer_stays_poisoned():
    """While a buffer sits in the free list, stale references must keep
    failing loudly — parking must not resurrect it."""
    pool = MessagePool()
    msg = pool.acquire(1, b"x" * 32, 32, None, 0)
    msg.mark_cmi_owned()
    msg.recycle()
    pool.release(msg)
    assert not msg._valid
    with pytest.raises(BufferOwnershipError):
        _ = msg.payload


def test_acquire_resets_every_slot():
    """A resurrected buffer must carry zero state from its previous
    life: payload, prio, msg_id, enq_time, corrupted, seq/ack, ownership
    bits."""
    pool = MessagePool()
    msg = pool.acquire(7, "stale-payload", 64, 9, 2)
    # simulate a full life: queued (enq_time/msg_id stamped), sequenced
    # and corrupted on the wire, then recycled by the CMI.
    msg.msg_id = 12345
    msg.enq_time = 1.5
    msg.seq, msg.ack = 4, 2
    msg.corrupted = True
    msg.mark_cmi_owned()
    msg.recycle()
    pool.release(msg)

    fresh = pool.acquire(2, "new", 8, None, 0)
    assert fresh is msg
    assert fresh.payload == "new"
    assert fresh.handler == 2 and fresh.size == 8 and fresh.src_pe == 0
    assert fresh.prio is None
    assert fresh.msg_id is None
    assert fresh.enq_time is None
    assert fresh.corrupted is False
    assert fresh.seq == -1 and fresh.ack == 0
    assert fresh._cmi_owned is False and fresh._valid and fresh._pooled


def test_release_ignores_live_grabbed_and_foreign_messages():
    pool = MessagePool()
    live = pool.acquire(1, "live", 8, None, 0)
    pool.release(live)                       # still valid: not parked
    assert len(pool) == 0 and pool.released == 0

    user = Message(1, "user-built", size=8)  # never pool-born
    user.mark_cmi_owned()
    user.recycle()
    pool.release(user)
    assert len(pool) == 0 and pool.released == 0


def test_double_release_is_noop():
    pool = MessagePool()
    msg = pool.acquire(1, "x", 8, None, 0)
    msg.mark_cmi_owned()
    msg.recycle()
    pool.release(msg)
    pool.release(msg)                        # second release: ignored
    assert len(pool) == 1 and pool.released == 1
    # and a foreign pool cannot adopt the parked buffer either
    other = MessagePool()
    other.release(msg)
    assert len(other) == 0


def test_max_free_cap_drops_excess():
    pool = MessagePool(max_free=2)
    msgs = [pool.acquire(1, i, 8, None, 0) for i in range(4)]
    for m in msgs:
        m.mark_cmi_owned()
        m.recycle()
        pool.release(m)
    assert len(pool) == 2 and pool.released == 2 and pool.dropped == 2


# ----------------------------------------------------------------------
# integration: the CMI draws wire copies from the pool
# ----------------------------------------------------------------------
def _unpooled(m):
    """Turn message pooling off on every PE of ``m``: the machine
    decides pooling itself, so the off path is reached through the
    runtime's ``pool`` slot."""
    for rt in m.runtimes:
        rt.pool = None


def _run_pingpong(n, pool=True):
    """2-PE ping-pong; returns (received payload log per PE, machine)."""
    log = [[], []]
    with Machine(2, model=GENERIC) as m:
        if not pool:
            _unpooled(m)
        def main():
            me = api.CmiMyPe()
            other = 1 - me

            def on_msg(msg):
                log[me].append(msg.payload)
                if msg.payload < n:
                    api.CmiSyncSend(other, api.CmiNew(h, msg.payload + 1))
                if msg.payload >= n - 1:
                    api.CsdExitScheduler()

            h = api.CmiRegisterHandler(on_msg, "pp")
            if me == 0:
                api.CmiSyncSend(1, api.CmiNew(h, 1))
            api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        stats = [rt.pool.stats() if rt.pool else None for rt in m.runtimes]
    return log, stats


def test_pool_recycles_wire_copies_in_pingpong():
    log, stats = _run_pingpong(40, pool=True)
    assert log[1] == list(range(1, 41, 2))
    assert log[0] == list(range(2, 41, 2))
    # steady-state traffic is served from the free list, not malloc
    total = {k: sum(s[k] for s in stats) for k in stats[0]}
    assert total["reused"] > total["created"]
    assert total["released"] >= total["reused"]


def test_pool_off_matches_pool_on_exactly():
    on, _ = _run_pingpong(30, pool=True)
    off, stats_off = _run_pingpong(30, pool=False)
    assert on == off
    assert stats_off == [None, None]         # pooling off: no pool objects


def test_stale_reference_fails_loudly_then_resurrects_clean():
    """The full grab/recycle/re-send cycle on one physical buffer:

    1. a handler stashes a wire buffer *without* grabbing it;
    2. after the handler returns the buffer is recycled and parked —
       the stale reference must raise :class:`BufferOwnershipError`;
    3. the next send from that PE resurrects the same object; the old
       reference now sees the *new* message only — none of the old
       payload/prio/msg_id/enq_time survives.
    """
    stashed = []
    state = {}
    with Machine(2, model=GENERIC) as m:
        def main():
            me = api.CmiMyPe()

            def on_first(msg):
                stashed.append(msg)          # no grab: recycled on return

            def on_second(msg):
                state["second_payload"] = msg.payload
                api.CsdExitScheduler()

            h1 = api.CmiRegisterHandler(on_first, "first")
            h2 = api.CmiRegisterHandler(on_second, "second")
            if me == 0:
                api.CmiSyncSend(1, Message(h1, "old-life", size=8, prio=5))
                api.CsdScheduler(1)          # wait for the echo
            else:
                api.CsdScheduler(1)          # receive + recycle + park
                ref = stashed[0]
                with pytest.raises(BufferOwnershipError):
                    _ = ref.payload          # poisoned while parked
                # re-send: PE 1's CMI acquires from its own free list
                api.CmiSyncSend(0, Message(h2, "new-life", size=8))
                assert ref._valid            # resurrected for the new send
                assert ref.payload == "new-life" and ref.prio is None
                assert ref.msg_id is None and ref.enq_time is None

        m.launch(main)
        m.run()
    assert state["second_payload"] == "new-life"


def test_grabbed_buffer_is_never_pooled():
    """``CmiGrabBuffer`` transfers ownership to the program: the buffer
    must survive arbitrarily more pooled traffic untouched and must
    never appear in any free list."""
    grabbed = []
    with Machine(2, model=GENERIC) as m:
        def main():
            me = api.CmiMyPe()

            def on_keep(msg):
                grabbed.append(api.CmiGrabBuffer(msg))

            def on_churn(msg):
                if msg.payload == 0:
                    api.CsdExitAll()
                else:
                    api.CmiSyncSend(1 - me,
                                    api.CmiNew(h_churn, msg.payload - 1))

            h_keep = api.CmiRegisterHandler(on_keep, "keep")
            h_churn = api.CmiRegisterHandler(on_churn, "churn")
            if me == 0:
                api.CmiSyncSend(1, Message(h_keep, "precious", size=8))
                api.CmiSyncSend(1, api.CmiNew(h_churn, 20))
            api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        pools = [rt.pool for rt in m.runtimes]
        buf = grabbed[0]
        assert buf._valid and buf.payload == "precious"
        for p in pools:
            assert all(parked is not buf for parked in p._free)

    assert grabbed[0].payload == "precious"  # still alive after shutdown


def test_no_stale_resurrection_across_many_cycles():
    """Drive hundreds of grab/recycle/re-send cycles through a 2-PE
    credit stream and assert every received message carries exactly the
    payload and priority it was sent with — nothing from a previous
    occupant of the (heavily reused) buffers."""
    n = 300
    seen = []
    with Machine(2, model=GENERIC) as m:
        def main():
            me = api.CmiMyPe()

            def on_data(msg):
                seen.append((msg.payload, msg.prio, msg.msg_id,
                             msg.corrupted))
                api.CmiSyncSend(0, api.CmiNew(h_credit, msg.payload[1]))
                if msg.payload[1] == n - 1:
                    api.CsdExitScheduler()

            def on_credit(msg):
                i = msg.payload + 1
                if i < n:
                    api.CmiSyncSend(
                        1, Message(h_data, ("cycle", i), size=8,
                                   prio=i % 7))
                else:
                    api.CsdExitScheduler()

            h_data = api.CmiRegisterHandler(on_data, "data")
            h_credit = api.CmiRegisterHandler(on_credit, "credit")
            if me == 0:
                api.CmiSyncSend(1, Message(h_data, ("cycle", 0), size=8,
                                           prio=0))
            api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        reused = sum(rt.pool.stats()["reused"] for rt in m.runtimes)
    assert [p for p, _, _, _ in seen] == [("cycle", i) for i in range(n)]
    assert [pr for _, pr, _, _ in seen] == [i % 7 for i in range(n)]
    assert all(mid is None for _, _, mid, _ in seen)
    assert not any(c for _, _, _, c in seen)
    assert reused > n // 2                   # the buffers really cycled


# ----------------------------------------------------------------------
# fuzz-style parity: pooling must be observationally invisible
# ----------------------------------------------------------------------
def _run_seeded_scatter(seed, pool, num_pes=4, per_pe=25):
    """Every PE sends ``per_pe`` messages to seeded-random destinations
    with seeded-random payloads/prios; returns each PE's receive log."""
    total = num_pes * per_pe
    logs = [[] for _ in range(num_pes)]
    got = [0]
    with Machine(num_pes, model=GENERIC) as m:
        if not pool:
            _unpooled(m)
        def main():
            me = api.CmiMyPe()
            rng = random.Random(seed * 1000 + me)

            def on_msg(msg):
                logs[me].append(msg.payload)
                got[0] += 1
                if got[0] == total:
                    api.CsdExitAll()

            h = api.CmiRegisterHandler(on_msg, "scatter")
            others = [d for d in range(num_pes) if d != me]
            for i in range(per_pe):
                dest = rng.choice(others)
                prio = rng.randrange(4)
                api.CmiSyncSend(dest, Message(h, (me, i, rng.random()),
                                              size=16, prio=prio))
            api.CsdScheduler(-1)

        m.launch(main)
        m.run()
    return logs


def test_seeded_fuzz_parity_pool_on_vs_off():
    for seed in (7, 23, 101):
        on = _run_seeded_scatter(seed, pool=True)
        off = _run_seeded_scatter(seed, pool=False)
        assert on == off, f"pooling changed delivery for seed {seed}"


# ----------------------------------------------------------------------
# seed forwarding: the Cld wrapper rides pooled wire buffers
# ----------------------------------------------------------------------
def _run_seed_forwarding(ldb, pool=True, seeds=64, num_pes=4, seed=9):
    """PE 0 CldEnqueues tagged seeds that charge time wherever they
    root; returns (per-PE payload logs, per-PE pool stats)."""
    logs = [[] for _ in range(num_pes)]
    with Machine(num_pes, model=GENERIC, ldb=ldb, seed=seed) as m:
        if not pool:
            _unpooled(m)
        def main():
            me = api.CmiMyPe()

            def work(msg):
                logs[me].append(msg.payload)
                api.CmiCharge(40e-6)

            hid = api.CmiRegisterHandler(work, "seedwork")
            if me == 0:
                for i in range(seeds):
                    api.CldEnqueue(Message(hid, ("seed", i, "x" * 8),
                                           size=16))
            api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        # ``if rt.pool`` would misread an *empty* free list as "no pool"
        # (MessagePool defines __len__): test None explicitly.
        stats = [rt.pool.stats() if rt.pool is not None else None
                 for rt in m.runtimes]
    return logs, stats


@pytest.mark.parametrize("ldb", ["random", "neighbor", "steal", "adaptive"])
def test_forwarded_seeds_survive_pool_recycling(ldb):
    """Seed wrappers travel as pooled wire copies, and forwarding /
    stealing re-wraps the *inner* seed for another hop.  Recycling a
    wrapper buffer must never poison the seed riding in it: every tag
    arrives exactly once with its payload intact, no matter how many
    hops (forward chains, steal replies, migration pushes) it took."""
    logs, stats = _run_seed_forwarding(ldb, pool=True)
    all_payloads = sorted(p for log in logs for p in log)
    assert all_payloads == [("seed", i, "x" * 8) for i in range(64)], (
        f"[{ldb}] seed payload lost or corrupted through pooled hops"
    )
    # The run really exercised the free lists.
    total = {k: sum(s[k] for s in stats) for k in stats[0]}
    assert total["released"] > 0


@pytest.mark.parametrize("ldb", ["random", "steal"])
def test_seed_placement_parity_pool_on_vs_off(ldb):
    """Pooling must be observationally invisible to the balancer: the
    same machine seed gives the identical per-PE seed placement with the
    free list on and off."""
    on, _ = _run_seed_forwarding(ldb, pool=True)
    off, off_stats = _run_seed_forwarding(ldb, pool=False)
    assert on == off
    assert all(s is None for s in off_stats)


def test_pool_forced_on_under_hostile_faults_with_reliable():
    """Pooling is off under an unreliable fault plan but stays on with
    the reliability layer, which must still deliver every logical
    message exactly once, in per-sender order."""
    n = 12
    plan = FaultPlan(41, drop=0.2, duplicate=0.15, reorder=0.2,
                     reorder_max=300e-6)
    with Machine(2, model=GENERIC, faults=plan, reliable=True) as m:
        got = []

        def main():
            me = api.CmiMyPe()

            def on_msg(msg):
                got.append(msg.payload)
                if len(got) == n:
                    api.CsdExitScheduler()

            h = api.CmiRegisterHandler(on_msg, "rel")
            if me == 0:
                for i in range(n):
                    api.CmiSyncSend(1, api.CmiNew(h, i))
            api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        assert m.runtime(1).pool is not None   # pooling really was on
    assert got == list(range(n))
