"""A dispatch batch of 1 must reproduce the unbatched scheduler's
trace-event ordering byte-for-byte.

The golden file ``golden_trace_batch1.jsonl`` was captured from the
scheduler *before* batched dispatch existed (one message drained per
loop iteration).  Running the same deterministic workload with
``repro.core.scheduler.CSD_BATCH`` patched to 1 must serialize to the
identical byte sequence: batching is a pure amortization, never a
semantic change.

Regenerate the golden (only when the workload itself changes) with:

    PYTHONPATH=src:tests python -m tests.tracing.test_batch_trace_order
"""

from __future__ import annotations

import json
import os

from repro.core import api, scheduler
from repro.core.message import Message
from repro.sim.machine import Machine

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_trace_batch1.jsonl")


def _workload():
    """A small deterministic mixed workload: pingpong + broadcast +
    priority traffic over 4 PEs, fully traced."""
    rounds = 6

    def main():
        me = api.CmiMyPe()
        n = api.CmiNumPes()

        def on_ping(msg):
            hop = msg.payload
            if hop < rounds:
                api.CmiSyncSend((me + 1) % 2, Message(ping, hop + 1, size=32))
            else:
                api.CsdExitScheduler()

        def on_bcast(msg):
            pass

        def on_prio(msg):
            pass

        ping = api.CmiRegisterHandler(on_ping, "ping")
        bcast = api.CmiRegisterHandler(on_bcast, "bcast")
        prio = api.CmiRegisterHandler(on_prio, "prio")

        if me == 0:
            api.CmiSyncSend(1, Message(ping, 0, size=32))
            api.CsdScheduler(-1)
        elif me == 1:
            api.CsdScheduler(-1)
        elif me == 2:
            for i in range(2):
                api.CmiSyncBroadcast(Message(bcast, i, size=16))
            for i in range(4):
                api.CmiSyncSend(3, Message(prio, i, size=8, prio=4 - i))
            api.CsdScheduler(2 * (n - 1) + 2)
        else:
            api.CsdScheduler(2 + 4)

    with Machine(4, trace=True) as m:
        m.launch(main)
        m.run()
        return ["%d %.9f %s %s" % (
            ev.pe, ev.time, ev.kind,
            json.dumps(ev.fields, sort_keys=True))
            for ev in m.tracer.events]


def test_batch1_matches_golden_trace(monkeypatch):
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    monkeypatch.setattr(scheduler, "CSD_BATCH", 1)
    assert _workload() == golden


def test_batched_dispatch_same_events_as_batch1(monkeypatch):
    """Larger batches may legally reorder *interleavings across PEs*?
    No — the sim engine is deterministic per PE and dispatch order per
    PE is FIFO either way, so the full event multiset must match; we
    additionally require per-PE sequences to be identical."""
    monkeypatch.setattr(scheduler, "CSD_BATCH", 1)
    base = _workload()
    monkeypatch.setattr(scheduler, "CSD_BATCH", 16)
    batched = _workload()

    def per_pe(lines):
        out = {}
        for ln in lines:
            out.setdefault(ln.split(" ", 1)[0], []).append(ln)
        return out

    assert per_pe(batched) == per_pe(base)


if __name__ == "__main__":
    scheduler.CSD_BATCH = 1
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_workload()) + "\n")
    print("wrote", GOLDEN, "with", len(open(GOLDEN).readlines()), "events")
