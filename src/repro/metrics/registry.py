"""A lightweight runtime metrics registry (counters, gauges, histograms).

The tracing layer answers "what happened, in order"; this module answers
"how much, how often, how long" without storing one record per event.
The same need-based-cost discipline as tracing applies:

* no registry (the machine's ``metrics`` is ``None``) — hot paths guard
  every update with ``if rt.metering:`` so a disabled registry costs one
  attribute load and a falsy branch;
* subsystems cache *metric handles* (the :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` objects) at construction, so an
  enabled registry costs one method call and a dict update per event —
  never a name lookup.

All values are keyed per PE, so reports can show both machine-wide
totals and per-PE imbalance.  Virtual-time quantities (latencies, idle
time) are recorded in seconds; histograms use fixed bucket bounds chosen
once at creation, so observation is O(#buckets) worst case and the
snapshot is directly comparable across runs.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "make_registry",
    "merge_snapshots",
    "save_snapshot",
    "TIME_BUCKETS",
    "SIZE_BUCKETS",
    "DEPTH_BUCKETS",
]

#: default bucket bounds for virtual-time latencies (seconds): roughly
#: logarithmic from 1us to 100ms, bracketing every machine model's
#: per-message costs (tens of microseconds).
TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 1e-2, 1e-1,
)

#: default bucket bounds for message sizes (bytes), octave-ish spacing
#: matching the paper's figure sweeps (16B .. 64KB).
SIZE_BUCKETS: Tuple[float, ...] = (
    16, 64, 256, 1024, 4096, 16384, 65536,
)

#: default bucket bounds for queue depths (messages).
DEPTH_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class Counter:
    """A monotonically increasing per-PE total (events, bytes, seconds)."""

    kind = "counter"
    __slots__ = ("name", "help", "values")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.values: Dict[int, float] = {}

    def inc(self, pe: int, n: float = 1.0) -> None:
        """Add ``n`` to this PE's total (hot path)."""
        values = self.values
        values[pe] = values.get(pe, 0.0) + n

    @property
    def total(self) -> float:
        """Machine-wide total across PEs."""
        return sum(self.values.values())

    def value(self, pe: int) -> float:
        """One PE's total (0 if never incremented)."""
        return self.values.get(pe, 0.0)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly rendering."""
        return {
            "kind": self.kind,
            "help": self.help,
            "total": self.total,
            "per_pe": {str(pe): v for pe, v in sorted(self.values.items())},
        }


class Gauge:
    """A per-PE instantaneous value; the high-water mark is kept too
    (queue depth, in-flight packets)."""

    kind = "gauge"
    __slots__ = ("name", "help", "values", "maxima")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.values: Dict[int, float] = {}
        self.maxima: Dict[int, float] = {}

    def set(self, pe: int, v: float) -> None:
        """Record the current value for this PE (hot path)."""
        self.values[pe] = v
        maxima = self.maxima
        if v > maxima.get(pe, float("-inf")):
            maxima[pe] = v

    def value(self, pe: int) -> float:
        """One PE's last-set value (0 if never set)."""
        return self.values.get(pe, 0.0)

    def max(self, pe: Optional[int] = None) -> float:
        """High-water mark for one PE, or machine-wide when ``pe=None``."""
        if pe is not None:
            return self.maxima.get(pe, 0.0)
        return max(self.maxima.values(), default=0.0)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly rendering."""
        return {
            "kind": self.kind,
            "help": self.help,
            "per_pe": {str(pe): v for pe, v in sorted(self.values.items())},
            "max_per_pe": {str(pe): v for pe, v in sorted(self.maxima.items())},
            "max": self.max(),
        }


class Histogram:
    """A fixed-bucket per-PE distribution (latencies, sizes, depths).

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; one implicit overflow bucket catches everything above the
    last bound.  Sums/counts/min/max are tracked exactly, so the mean is
    exact even though percentiles are bucket-resolution.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "bounds", "buckets", "sums", "counts",
                 "mins", "maxs")

    def __init__(self, name: str, bounds: Sequence[float] = TIME_BUCKETS,
                 help: str = "") -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted and non-empty, got {bounds!r}")
        self.name = name
        self.help = help
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.buckets: Dict[int, List[int]] = {}
        self.sums: Dict[int, float] = {}
        self.counts: Dict[int, int] = {}
        self.mins: Dict[int, float] = {}
        self.maxs: Dict[int, float] = {}

    def observe(self, pe: int, v: float) -> None:
        """Record one observation for this PE (hot path)."""
        row = self.buckets.get(pe)
        if row is None:
            row = self.buckets[pe] = [0] * (len(self.bounds) + 1)
        row[bisect_left(self.bounds, v)] += 1
        self.sums[pe] = self.sums.get(pe, 0.0) + v
        self.counts[pe] = self.counts.get(pe, 0) + 1
        if v < self.mins.get(pe, float("inf")):
            self.mins[pe] = v
        if v > self.maxs.get(pe, float("-inf")):
            self.maxs[pe] = v

    @property
    def count(self) -> int:
        """Total observations across PEs."""
        return sum(self.counts.values())

    @property
    def sum(self) -> float:
        """Sum of all observations across PEs."""
        return sum(self.sums.values())

    @property
    def mean(self) -> float:
        """Exact machine-wide mean (0 when empty)."""
        n = self.count
        return self.sum / n if n else 0.0

    def merged_buckets(self) -> List[int]:
        """Bucket counts summed across PEs (len(bounds) + 1 entries)."""
        merged = [0] * (len(self.bounds) + 1)
        for row in self.buckets.values():
            for i, c in enumerate(row):
                merged[i] += c
        return merged

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly rendering."""
        return {
            "kind": self.kind,
            "help": self.help,
            "bounds": list(self.bounds),
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": min(self.mins.values(), default=0.0),
            "max": max(self.maxs.values(), default=0.0),
            "buckets": self.merged_buckets(),
            "per_pe": {
                str(pe): {
                    "count": self.counts.get(pe, 0),
                    "sum": self.sums.get(pe, 0.0),
                    "buckets": row,
                }
                for pe, row in sorted(self.buckets.items())
            },
        }


class MetricsRegistry:
    """Named metrics for one machine.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: wiring
    code calls them once at construction and caches the returned handle;
    re-requesting an existing name returns the same object (a kind
    mismatch raises).

    Nothing here locks: a registry is only ever updated by one thread
    of control at a time (the simulator hands one baton between all
    PEs; an mp worker's registry belongs to its main thread), so an
    update is a plain read-modify-write.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, factory: Any, kind: str) -> Any:
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = factory()
            return m
        if m.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {m.kind}, not a {kind}"
            )
        return m

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get(name, lambda: Gauge(name, help), "gauge")

    def histogram(self, name: str, bounds: Sequence[float] = TIME_BUCKETS,
                  help: str = "") -> Histogram:
        """Get or create a :class:`Histogram` (bounds fixed at creation)."""
        return self._get(name, lambda: Histogram(name, bounds, help), "histogram")

    def get(self, name: str) -> Optional[Any]:
        """The metric registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """All metrics as one JSON-friendly dict (stable key order)."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def save(self, path: Any) -> None:
        """Write :meth:`snapshot` to ``path`` as indented JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def report(self) -> str:
        """A plain-text table of every metric (the ``metrics`` CLI view)."""
        return render_metrics_report(self.snapshot())


def render_metrics_report(snapshot: Mapping[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as a text table.

    Module-level so the CLI can render snapshots loaded from JSON files
    without reconstructing live metric objects.
    """
    if not snapshot:
        return "(no metrics recorded)"
    lines = [f"{'metric':<28} {'kind':<10} {'value':>14}  detail"]
    lines.append("-" * 78)
    for name in sorted(snapshot):
        m = snapshot[name]
        kind = m.get("kind", "?")
        if kind == "counter":
            value, detail = f"{m['total']:g}", _per_pe_brief(m.get("per_pe", {}))
        elif kind == "gauge":
            value = f"{m.get('max', 0):g}"
            detail = "max; now " + _per_pe_brief(m.get("per_pe", {}))
        elif kind == "histogram":
            value = f"{m.get('count', 0):g}"
            detail = (f"mean={m.get('mean', 0):.3g} min={m.get('min', 0):.3g} "
                      f"max={m.get('max', 0):.3g}")
        else:  # unknown kinds pass through untouched
            value, detail = "?", json.dumps(m, sort_keys=True)[:40]
        lines.append(f"{name:<28} {kind:<10} {value:>14}  {detail}")
    return "\n".join(lines)


def _per_pe_brief(per_pe: Mapping[str, Any]) -> str:
    items = sorted(per_pe.items(), key=lambda kv: int(kv[0]))
    body = " ".join(f"pe{pe}={v:g}" for pe, v in items[:6])
    if len(items) > 6:
        body += f" … ({len(items)} PEs)"
    return body


def merge_snapshots(snapshots: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Merge per-process :meth:`MetricsRegistry.snapshot` dicts into one.

    The mp machine layer runs one registry per worker process; at
    shutdown each worker ships its snapshot to the hub, and this function
    recombines them into the same shape a single machine-wide registry
    would have produced — so :func:`render_metrics_report`, the CLI and
    every analysis consumer work unchanged on distributed runs.

    Per-PE maps are unioned (summing on collisions, which only occur if
    two snapshots claim the same PE); counter totals, gauge maxima and
    histogram aggregates are recomputed from the merged per-PE data.
    Histograms must agree on bucket bounds (they do, by construction:
    bounds are fixed in the wiring code) — a mismatch raises
    ``ValueError`` rather than merging incomparable distributions.
    """
    merged: Dict[str, Any] = {}
    for snap in snapshots:
        for name, m in snap.items():
            cur = merged.get(name)
            if cur is None:
                cur = merged[name] = json.loads(json.dumps(m))  # deep copy
                if cur.get("kind") == "histogram" and cur.get("count"):
                    # Mark populated extrema so later snapshots combine
                    # with them instead of replacing them.
                    cur["_seen_any"] = True
                continue
            if cur.get("kind") != m.get("kind"):
                raise ValueError(
                    f"metric {name!r} has kind {m.get('kind')!r} in one "
                    f"snapshot and {cur.get('kind')!r} in another"
                )
            kind = cur.get("kind")
            if kind == "counter":
                per = cur["per_pe"]
                for pe, v in m.get("per_pe", {}).items():
                    per[pe] = per.get(pe, 0.0) + v
                cur["total"] = sum(per.values())
            elif kind == "gauge":
                for key in ("per_pe", "max_per_pe"):
                    dst = cur.setdefault(key, {})
                    for pe, v in m.get(key, {}).items():
                        dst[pe] = max(dst.get(pe, float("-inf")), v)
                cur["max"] = max(cur["max_per_pe"].values(), default=0.0)
            elif kind == "histogram":
                if list(cur.get("bounds", [])) != list(m.get("bounds", [])):
                    raise ValueError(
                        f"histogram {name!r} bucket bounds differ between "
                        "snapshots; cannot merge"
                    )
                per = cur.setdefault("per_pe", {})
                for pe, row in m.get("per_pe", {}).items():
                    dst = per.get(pe)
                    if dst is None:
                        per[pe] = json.loads(json.dumps(row))
                    else:
                        dst["count"] += row.get("count", 0)
                        dst["sum"] += row.get("sum", 0.0)
                        dst["buckets"] = [
                            a + b for a, b in
                            zip(dst["buckets"], row.get("buckets", []))
                        ]
                cur["count"] = sum(r["count"] for r in per.values())
                cur["sum"] = sum(r["sum"] for r in per.values())
                cur["mean"] = cur["sum"] / cur["count"] if cur["count"] else 0.0
                nbuckets = len(cur.get("bounds", [])) + 1
                buckets = [0] * nbuckets
                for r in per.values():
                    for i, c in enumerate(r.get("buckets", [])):
                        buckets[i] += c
                cur["buckets"] = buckets
                # min/max: the per-snapshot extrema, ignoring empty sides
                # (an empty histogram snapshots min=max=0.0, which must
                # not clamp a populated one).
                if m.get("count"):
                    if cur.get("_seen_any"):
                        cur["min"] = min(cur["min"], m.get("min", 0.0))
                        cur["max"] = max(cur["max"], m.get("max", 0.0))
                    else:
                        cur["min"], cur["max"] = m.get("min", 0.0), m.get("max", 0.0)
                    cur["_seen_any"] = True
            if not cur.get("help") and m.get("help"):
                cur["help"] = m["help"]
    for m in merged.values():
        m.pop("_seen_any", None)
    return merged


def save_snapshot(snapshot: Mapping[str, Any], path: Any) -> None:
    """Write a snapshot dict to ``path`` as indented JSON — the
    module-level twin of :meth:`MetricsRegistry.save` for snapshots that
    never lived in a local registry (e.g. merged mp worker snapshots)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(snapshot), fh, indent=2, sort_keys=True)
        fh.write("\n")


def make_registry(spec: Any) -> Optional[MetricsRegistry]:
    """Build a registry from a machine-constructor argument.

    ``False``/``None`` -> metrics off; ``True`` -> a fresh registry; an
    existing :class:`MetricsRegistry` passes through (so tests can hold a
    reference before the run).  Anything else raises ``ValueError`` —
    the same no-silent-typos contract as ``make_tracer``.
    """
    if spec in (None, False):
        return None
    if spec is True:
        return MetricsRegistry()
    if isinstance(spec, MetricsRegistry):
        return spec
    raise ValueError(
        f"invalid metrics spec {spec!r}: use False, True, or a MetricsRegistry"
    )
