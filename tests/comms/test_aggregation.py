"""Unit tests for the streaming message-aggregation layer
(:mod:`repro.comms.aggregation`): flush policies, routing, accounting,
composition with reliability, and strict need-based cost when off.
"""

from __future__ import annotations

import pytest

from repro.comms.aggregation import AggregationConfig, Aggregator
from repro.core import api
from repro.core.errors import SimulationError
from repro.core.message import Message
from repro.sim.machine import Machine


# ----------------------------------------------------------------------
# shared driver: fine-grained all-to-all, every PE counts receipts
# ----------------------------------------------------------------------
def run_all2all(num_pes: int, rounds: int, size: int = 16,
                **machine_kwargs):
    """Every PE sends ``rounds`` messages of ``size`` bytes to every
    other PE, then runs its scheduler until it received them all.
    Returns ``(per-PE receive counts, machine stats dict)``."""
    recv = [0] * num_pes
    expected_each = rounds * (num_pes - 1)
    with Machine(num_pes, **machine_kwargs) as m:
        def main():
            me = api.CmiMyPe()

            def on_msg(msg):
                recv[me] += 1
                if recv[me] == expected_each:
                    api.CsdExitScheduler()

            h = api.CmiRegisterHandler(on_msg, "a2a")
            for r in range(rounds):
                for d in range(num_pes):
                    if d != me:
                        api.CmiSyncSend(d, Message(h, (me, r), size=size))
            api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        stats = {
            "wire_msgs": m.network.stats.messages,
            "sent": sum(n.stats.msgs_sent for n in m.nodes),
            "received": sum(n.stats.msgs_received for n in m.nodes),
            "per_channel": dict(m.network.stats.per_channel),
            "agg": [rt.aggregation.stats if rt.aggregation else None
                    for rt in m.runtimes],
            "vt": m.now,
        }
    return recv, stats


# ----------------------------------------------------------------------
# correctness & accounting
# ----------------------------------------------------------------------
def test_off_by_default_zero_structures():
    with Machine(2) as m:
        assert m.config.aggregation is None
        for rt in m.runtimes:
            assert rt.aggregation is None
            assert rt.cmi.aggregation is None
            assert rt.idle_flush is None
            assert rt.cmi.flush_aggregation() == 0


def test_delivery_identical_with_and_without_aggregation():
    plain, _ = run_all2all(4, 10)
    agg, stats = run_all2all(4, 10, aggregation=True)
    assert plain == agg == [30, 30, 30, 30]
    # Every PE's layer drained completely.
    for s in stats["agg"]:
        assert s.submitted == 30
        assert s.delivered == 30
    assert all(rtstats.batches_sent > 0 for rtstats in stats["agg"])


def test_wire_message_reduction_and_conservation():
    _, plain = run_all2all(4, 16)
    _, agg = run_all2all(4, 16, aggregation=True)
    # Coalescing must cut wire messages by a large factor (16 msgs per
    # destination fit in a single default-config batch).
    assert agg["wire_msgs"] * 4 <= plain["wire_msgs"]
    # Machine-layer message conservation: one count per batch, balanced.
    assert agg["sent"] == agg["received"]
    assert plain["sent"] == plain["received"]


def test_large_messages_bypass_aggregation():
    cfg = AggregationConfig(max_msg_bytes=64)
    recv, stats = run_all2all(2, 5, size=4096, aggregation=cfg)
    assert recv == [5, 5]
    for s in stats["agg"]:
        assert s.submitted == 0  # every send took the direct path


def test_payloads_and_sources_survive_batching():
    """Batched messages must arrive with payload and src_pe intact."""
    got = []
    with Machine(3, aggregation=True) as m:
        def main():
            me = api.CmiMyPe()

            def on_msg(msg):
                got.append((me, msg.src_pe, msg.payload))
                if len([g for g in got if g[0] == me]) == 4:
                    api.CsdExitScheduler()

            h = api.CmiRegisterHandler(on_msg, "pay")
            if me == 0:
                for i in range(4):
                    api.CmiSyncSend(1, Message(h, ("blob", i), size=8))
                    api.CmiSyncSend(2, Message(h, ("blob", i), size=8))
            else:
                api.CsdScheduler(-1)

        m.launch(main)
        m.run()
    for pe in (1, 2):
        mine = [(src, pay) for (p, src, pay) in got if p == pe]
        assert mine == [(0, ("blob", i)) for i in range(4)]


# ----------------------------------------------------------------------
# flush policies
# ----------------------------------------------------------------------
def test_flush_on_full_batch():
    cfg = AggregationConfig(max_batch_msgs=4, flush_period=None,
                            flush_on_idle=False)
    recv, stats = run_all2all(2, 8, aggregation=cfg)
    assert recv == [8, 8]
    for s in stats["agg"]:
        assert s.flush_full == 2  # 8 msgs / 4 per batch
        assert s.flush_idle == s.flush_timer == 0


def test_flush_on_byte_budget():
    cfg = AggregationConfig(max_batch_msgs=10_000, max_batch_bytes=256,
                            max_msg_bytes=512, flush_period=None,
                            flush_on_idle=False)
    recv, stats = run_all2all(2, 6, size=100, aggregation=cfg)
    assert recv == [6, 6]
    for s in stats["agg"]:
        assert s.flush_bytes >= 2  # (100+8)*3 > 256
        assert s.flush_full == 0


def test_flush_on_timer():
    # Idle flush off: only the virtual-time timer can move a partial
    # buffer, so completion lands at (or just past) the flush period.
    cfg = AggregationConfig(flush_period=300e-6, flush_on_idle=False)
    recv, stats = run_all2all(2, 3, aggregation=cfg)
    assert recv == [3, 3]
    assert stats["vt"] >= 300e-6
    for s in stats["agg"]:
        assert s.flush_timer >= 1


def test_flush_on_scheduler_idle():
    # Default config: the idle flush beats the 200us timer by orders of
    # magnitude, so completion time stays tiny.
    recv, stats = run_all2all(2, 3, aggregation=True)
    assert recv == [3, 3]
    assert stats["vt"] < 200e-6
    assert any(s.flush_idle >= 1 for s in stats["agg"])


def test_quiescent_drain_rescues_stranded_buffers():
    # No timer, no idle flush, and the sender never enters a scheduler:
    # only the machine's quiescent drain can move the buffered batch.
    cfg = AggregationConfig(flush_period=None, flush_on_idle=False)
    got = []
    with Machine(2, aggregation=cfg) as m:
        def sender():
            h = api.CmiRegisterHandler(lambda msg: None, "unused")
            api.CmiSyncSend(1, Message(hid[0], "stranded", size=8))

        def receiver():
            def on_msg(msg):
                got.append(msg.payload)
                api.CsdExitScheduler()

            hid.append(api.CmiRegisterHandler(on_msg, "drain"))
            api.CmiCharge(1e-6)
            api.CsdScheduler(-1)

        hid = []
        m.launch_on(1, receiver)
        m.launch_on(0, sender)
        m.run()
        assert m.runtime(0).aggregation.stats.flush_drain == 1
    assert got == ["stranded"]


def test_explicit_flush():
    cfg = AggregationConfig(flush_period=None, flush_on_idle=False)
    with Machine(2, aggregation=cfg) as m:
        def main():
            rt = m.runtime(0)
            h = api.CmiRegisterHandler(lambda msg: None, "x")
            api.CmiSyncSend(1, Message(h, None, size=8))
            assert rt.aggregation.pending == 1
            assert rt.cmi.flush_aggregation() == 1
            assert rt.aggregation.pending == 0
            assert rt.aggregation.stats.flush_explicit == 1

        m.launch_on(0, main)
        m.run()


# ----------------------------------------------------------------------
# mesh routing
# ----------------------------------------------------------------------
def test_mesh2d_next_hop_column_first():
    with Machine(9, aggregation=AggregationConfig(route="mesh2d")) as m:
        agg = m.runtime(0).aggregation  # PE 0 = (row 0, col 0) on a 3x3
        assert agg.next_hop(0) == 0     # self
        assert agg.next_hop(3) == 3     # same column: direct
        assert agg.next_hop(4) == 1     # fix column first: (0,1)
        assert agg.next_hop(8) == 2     # via (0,2)
        assert agg.next_hop(2) == 2     # same row: column hop IS dest
        agg4 = m.runtime(4).aggregation  # PE 4 = (1,1)
        assert agg4.next_hop(6) == 3    # (2,0) via (1,0)
        assert agg4.next_hop(1) == 1    # same column


def test_mesh2d_delivers_and_forwards():
    recv, stats = run_all2all(9, 6,
                              aggregation=AggregationConfig(route="mesh2d"))
    assert recv == [48] * 9
    assert stats["sent"] == stats["received"]
    # Off-diagonal traffic must have transited intermediate PEs.
    assert sum(s.forwarded for s in stats["agg"]) > 0
    # Dimension-ordered routing uses only row/column channels: no wire
    # message between PEs differing in both row and column.
    for (src, dst), n in stats["per_channel"].items():
        same_row = src // 3 == dst // 3
        same_col = src % 3 == dst % 3
        assert same_row or same_col, f"diagonal channel {src}->{dst}"


def test_mesh2d_ragged_grid_falls_back_direct():
    # 6 PEs -> isqrt = 2 columns, rows of 2: every cell exists, but on a
    # 7-PE machine the virtual cell for some hops exceeds num_pes.
    recv, stats = run_all2all(7, 4,
                              aggregation=AggregationConfig(route="mesh2d"))
    assert recv == [24] * 7
    assert stats["sent"] == stats["received"]


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------
def test_aggregation_composes_with_reliable_delivery():
    recv, stats = run_all2all(3, 8, aggregation=True, reliable=True)
    assert recv == [16, 16, 16]
    assert stats["sent"] == stats["received"]


def test_aggregation_with_collectives():
    """Barriers and reductions (which bypass or flush aggregation as
    needed) still work on an aggregated machine."""
    from repro.machine.emi_groups import world_group

    results = []
    with Machine(4, aggregation=True) as m:
        def main():
            from repro.core.context import current_runtime

            g = world_group(current_runtime().machine)
            results.append(api.CmiPgrpReduce(g, api.CmiMyPe(), lambda a, b: a + b))

        m.launch(main)
        m.run()
    assert results == [6, 6, 6, 6]


def test_direct_send_opts_out():
    cfg = AggregationConfig(flush_period=None, flush_on_idle=False)
    with Machine(2, aggregation=cfg) as m:
        def main():
            rt = m.runtime(0)
            h = api.CmiRegisterHandler(lambda msg: None, "x")
            rt.cmi.sync_send(1, Message(h, None, size=8), direct=True)
            assert rt.aggregation.pending == 0  # bypassed the buffers

        m.launch_on(0, main)
        m.run()


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_metrics_cover_batching():
    recv = [0, 0]
    with Machine(2, aggregation=True, metrics=True) as m:
        def main():
            me = api.CmiMyPe()

            def on_msg(msg):
                recv[me] += 1
                if recv[me] == 6:
                    api.CsdExitScheduler()

            h = api.CmiRegisterHandler(on_msg, "mx")
            for i in range(6):
                api.CmiSyncSend(1 - me, Message(h, i, size=8))
            api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        snap = m.metrics.snapshot()
        assert snap["agg.submitted"]["total"] == 12
        assert snap["agg.batches"]["total"] >= 2
        assert snap["agg.batch_msgs"]["kind"] == "histogram"
    assert recv == [6, 6]


def test_tracing_records_flush_and_logical_sends():
    with Machine(2, aggregation=True, trace="memory") as m:
        def main():
            me = api.CmiMyPe()

            def on_msg(msg):
                api.CsdExitScheduler()

            h = api.CmiRegisterHandler(on_msg, "tr")
            if me == 0:
                api.CmiSyncSend(1, Message(h, None, size=8))
            else:
                api.CsdScheduler(-1)

        m.launch(main)
        m.run()
        sends = m.tracer.by_kind("send")
        assert any(e.fields.get("aggregated") for e in sends)
        assert len(m.tracer.by_kind("agg_flush")) >= 1
        assert len(m.tracer.by_kind("agg_batch")) >= 1


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [
    dict(max_batch_msgs=0),
    dict(max_batch_bytes=0),
    dict(flush_period=0.0),
    dict(flush_period=-1e-6),
    dict(route="torus"),
    dict(per_msg_cost=-1.0),
])
def test_config_validation(bad):
    with pytest.raises(SimulationError):
        Machine(2, aggregation=AggregationConfig(**bad)).shutdown()


def test_machine_true_means_default_config():
    with Machine(2, aggregation=True) as m:
        assert m.config.aggregation == AggregationConfig()
        assert isinstance(m.runtime(0).aggregation, Aggregator)


# ----------------------------------------------------------------------
# non-blocking scheduler entry points must not strand buffered batches
# (regression: run_until_idle()/poll() used to return with the
# aggregation buffers still holding small messages, so a program
# driving its scheduler purely by polling never put them on the wire)
# ----------------------------------------------------------------------
def _no_auto_flush_cfg():
    """Aggregation tuned so *only* the pre-idle hook can flush: no
    timer, thresholds far above what the test submits."""
    return AggregationConfig(flush_period=None, max_batch_msgs=1000,
                             max_batch_bytes=1 << 20)


def test_schedule_until_idle_flushes_aggregation_buffers():
    got, hid = [], []
    with Machine(2, aggregation=_no_auto_flush_cfg()) as m:
        def receiver():
            def on_msg(msg):
                got.append(msg.payload)
                if len(got) == 3:
                    api.CsdExitScheduler()

            hid.append(api.CmiRegisterHandler(on_msg, "idleflush"))
            api.CmiCharge(1e-6)
            api.CsdScheduler(-1)

        def sender():
            rt = m.runtime(0)
            for i in range(3):
                api.CmiSyncSend(1, Message(hid[0], i, size=8))
            assert rt.aggregation.pending == 3     # all still buffered
            api.CsdScheduleUntilIdle()             # must flush pre-idle
            assert rt.aggregation.pending == 0
            assert rt.aggregation.stats.flush_idle >= 1

        m.launch_on(1, receiver)
        m.launch_on(0, sender)
        m.run()
    assert got == [0, 1, 2]


def test_schedule_poll_flushes_aggregation_buffers():
    got, hid = [], []
    with Machine(2, aggregation=_no_auto_flush_cfg()) as m:
        def receiver():
            def on_msg(msg):
                got.append(msg.payload)
                if len(got) == 2:
                    api.CsdExitScheduler()

            hid.append(api.CmiRegisterHandler(on_msg, "pollflush"))
            api.CmiCharge(1e-6)
            api.CsdScheduler(-1)

        def sender():
            rt = m.runtime(0)
            for i in range(2):
                api.CmiSyncSend(1, Message(hid[0], i, size=8))
            assert rt.aggregation.pending == 2
            api.CsdSchedulePoll()                  # must flush when idle
            assert rt.aggregation.pending == 0

        m.launch_on(1, receiver)
        m.launch_on(0, sender)
        m.run()
    assert got == [0, 1]
