"""Merging per-process registry snapshots (repro.metrics.merge_snapshots).

The mp layer's invariant: merging the per-worker snapshots must produce
exactly what one machine-wide registry would have recorded.  These tests
build real registries, split their updates across "processes", and check
the merge against an unsplit reference.
"""

from __future__ import annotations

import json

import pytest

from repro.metrics.registry import (
    MetricsRegistry,
    merge_snapshots,
    save_snapshot,
)


def _worker_registry(pe, handlers, queue_peak):
    """One worker's registry, as the mp layer builds it: each process
    only ever touches its own PE's series."""
    r = MetricsRegistry()
    c = r.counter("csd.handlers_run", help="handler invocations dispatched")
    c.inc(pe, handlers)
    g = r.gauge("csd.queue_depth", help="scheduler queue depth")
    g.set(pe, queue_peak)
    g.set(pe, 0)  # drained by run end; max must survive the merge
    h = r.histogram("csd.handler_time", bounds=(1e-6, 1e-3, 1.0), help="t")
    for _ in range(handlers):
        h.observe(pe, 1e-4)
    return r


def test_merge_equals_single_machine_registry():
    workers = [_worker_registry(pe, handlers=pe + 1, queue_peak=10 * (pe + 1))
               for pe in range(3)]
    merged = merge_snapshots([w.snapshot() for w in workers])

    reference = MetricsRegistry()
    c = reference.counter("csd.handlers_run",
                          help="handler invocations dispatched")
    g = reference.gauge("csd.queue_depth", help="scheduler queue depth")
    h = reference.histogram("csd.handler_time", bounds=(1e-6, 1e-3, 1.0),
                            help="t")
    for pe in range(3):
        c.inc(pe, pe + 1)
        g.set(pe, 10 * (pe + 1))
        g.set(pe, 0)
        for _ in range(pe + 1):
            h.observe(pe, 1e-4)

    assert merged == reference.snapshot()


def test_counter_collisions_sum():
    # Two snapshots reporting the same PE (e.g. a re-run worker) add up.
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("n").inc(0, 2)
    b.counter("n").inc(0, 3)
    b.counter("n").inc(1, 5)
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["n"]["per_pe"] == {"0": 5, "1": 5}
    assert merged["n"]["total"] == 10


def test_gauge_merge_keeps_maxima():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.gauge("q").set(0, 7)
    a.gauge("q").set(0, 1)
    b.gauge("q").set(1, 4)
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["q"]["per_pe"] == {"0": 1, "1": 4}
    assert merged["q"]["max_per_pe"] == {"0": 7, "1": 4}
    assert merged["q"]["max"] == 7


def test_histogram_merge_recomputes_aggregates():
    a, b = MetricsRegistry(), MetricsRegistry()
    ha = a.histogram("t", bounds=(1.0, 10.0))
    hb = b.histogram("t", bounds=(1.0, 10.0))
    ha.observe(0, 0.5)
    ha.observe(0, 5.0)
    hb.observe(1, 20.0)
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    m = merged["t"]
    assert m["count"] == 3
    assert m["sum"] == pytest.approx(25.5)
    assert m["mean"] == pytest.approx(25.5 / 3)
    assert m["min"] == 0.5 and m["max"] == 20.0
    assert sorted(m["per_pe"]) == ["0", "1"]
    assert m["per_pe"]["0"]["count"] == 2
    assert m["per_pe"]["1"]["count"] == 1


def test_histogram_merge_with_empty_snapshot():
    # A worker that never observed anything must not poison min/max.
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("t", bounds=(1.0,)).observe(0, 2.0)
    b.histogram("t", bounds=(1.0,))  # created, never observed
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["t"]["count"] == 1
    assert merged["t"]["min"] == 2.0 and merged["t"]["max"] == 2.0
    assert "_seen_any" not in merged["t"]


def test_histogram_bounds_mismatch_rejected():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("t", bounds=(1.0,)).observe(0, 0.5)
    b.histogram("t", bounds=(2.0,)).observe(1, 0.5)
    with pytest.raises(ValueError, match="bounds"):
        merge_snapshots([a.snapshot(), b.snapshot()])


def test_kind_mismatch_rejected():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("x").inc(0)
    b.gauge("x").set(1, 1)
    with pytest.raises(ValueError, match="kind"):
        merge_snapshots([a.snapshot(), b.snapshot()])


def test_merge_does_not_mutate_inputs():
    a = MetricsRegistry()
    a.counter("n").inc(0, 1)
    snap_a = a.snapshot()
    before = json.dumps(snap_a, sort_keys=True)
    b = MetricsRegistry()
    b.counter("n").inc(0, 9)
    merge_snapshots([snap_a, b.snapshot()])
    assert json.dumps(snap_a, sort_keys=True) == before


def test_merge_empty_and_single():
    assert merge_snapshots([]) == {}
    a = MetricsRegistry()
    a.counter("n").inc(2, 4)
    assert merge_snapshots([a.snapshot()]) == a.snapshot()


def test_save_snapshot_round_trips(tmp_path):
    a = MetricsRegistry()
    a.counter("n").inc(0, 3)
    path = tmp_path / "m.json"
    save_snapshot(a.snapshot(), path)
    assert json.loads(path.read_text()) == a.snapshot()
