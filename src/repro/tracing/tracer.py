"""Trace sinks ("many variants of this module are provided, depending on
the sophistication of the tracing desired" — paper section 3.3.2).

Three variants:

* no tracer (the machine's ``tracer`` is ``None``) — zero overhead, the
  need-based-cost default;
* :class:`MemoryTracer` — keeps events in RAM for analysis in tests;
* :class:`JsonlTracer` — streams events as JSON lines for external tools.

A :class:`CountingTracer` is also provided for cheap per-kind statistics
without storing events.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import IO, Any, Dict, List, Mapping, Optional, Tuple

from repro.core.errors import TraceSpecError
from repro.tracing.events import SchemaDeclaration, TraceEvent

__all__ = [
    "Tracer",
    "MemoryTracer",
    "CountingTracer",
    "JsonlTracer",
    "parse_trace_spec",
    "make_tracer",
    "load_jsonl",
]


class Tracer:
    """Base sink.  ``record`` must be cheap: it runs on every event.

    Every tracer is a context manager: ``with JsonlTracer(path) as t:``
    guarantees the tail of a buffered trace is flushed even when the
    block raises (the :class:`~repro.sim.machine.Machine` teardown path
    calls :meth:`close` too, for tracers it was handed)."""

    def __init__(self) -> None:
        self.schemas: List[SchemaDeclaration] = []

    def record(self, pe: int, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        """Record one event (hot path: called on every traced event)."""
        raise NotImplementedError

    def declare_schema(self, schema: SchemaDeclaration) -> None:
        """Register a language's self-describing event schema."""
        self.schemas.append(schema)

    def close(self) -> None:
        """Flush/close any backing resources."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class MemoryTracer(Tracer):
    """Store every event; the analysis module consumes these."""

    def __init__(self) -> None:
        super().__init__()
        self.events: List[TraceEvent] = []

    def record(self, pe: int, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        """Record one event (hot path: called on every traced event)."""
        self.events.append(TraceEvent(pe, time, kind, dict(fields)))

    def by_kind(self, kind: str) -> List[TraceEvent]:
        """All recorded events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def by_pe(self, pe: int) -> List[TraceEvent]:
        """All recorded events of one PE, in order."""
        return [e for e in self.events if e.pe == pe]

    def __len__(self) -> int:
        return len(self.events)


class CountingTracer(Tracer):
    """Only count events per (pe, kind); no storage growth per event."""

    def __init__(self) -> None:
        super().__init__()
        self.counts: Counter = Counter()

    def record(self, pe: int, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        """Record one event (hot path: called on every traced event)."""
        self.counts[(pe, kind)] += 1

    def total(self, kind: Optional[str] = None) -> int:
        """Total events counted, optionally restricted to one kind."""
        if kind is None:
            return sum(self.counts.values())
        return sum(v for (pe, k), v in self.counts.items() if k == kind)


class JsonlTracer(Tracer):
    """Stream events as JSON lines to a file-like object or path."""

    def __init__(self, target: Any) -> None:
        super().__init__()
        if hasattr(target, "write"):
            self._fh: IO[str] = target
            self._owns = False
        else:
            self._fh = open(target, "w", encoding="utf-8")
            self._owns = True
        self.count = 0

    def record(self, pe: int, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        """Record one event (hot path: called on every traced event)."""
        payload: Dict[str, Any] = {"pe": pe, "time": time, "kind": kind}
        payload.update(fields)
        self._fh.write(json.dumps(payload, default=str) + "\n")
        self.count += 1

    def declare_schema(self, schema: SchemaDeclaration) -> None:
        """Register a language's self-describing event schema."""
        super().declare_schema(schema)
        self._fh.write(
            json.dumps(
                {
                    "kind": "__schema__",
                    "language": schema.language,
                    "event": schema.event_name,
                    "fields": list(schema.fields),
                }
            )
            + "\n"
        )

    def close(self) -> None:
        """Flush and release any backing resources."""
        self._fh.flush()
        if self._owns:
            self._fh.close()


def parse_trace_spec(spec: Any) -> Tuple[Optional[str], Any]:
    """The ``trace=`` grammar, parsed once for every machine layer.

    Returns ``(mode, target)``: ``False``/``None`` -> ``(None, None)``;
    ``True``/``"memory"`` -> ``("memory", None)``; ``"count"`` ->
    ``("count", None)``; ``"jsonl:<path>"``, a path-like object, a
    string that is unambiguously a path (contains a separator or ends in
    ``.jsonl``), or a file object -> ``("jsonl", path_or_file)``; an
    existing :class:`Tracer` -> ``("tracer", tracer)``.

    Anything else raises :class:`~repro.core.errors.TraceSpecError`: a
    typo like ``"counting"`` must fail loudly instead of silently
    creating a stray trace file named after the typo.
    """
    if spec in (None, False):
        return None, None
    if spec is True or spec == "memory":
        return "memory", None
    if spec == "count":
        return "count", None
    if isinstance(spec, Tracer):
        return "tracer", spec
    if isinstance(spec, str):
        if spec.startswith("jsonl:"):
            return "jsonl", spec[len("jsonl:"):]
        if os.sep in spec or "/" in spec or spec.endswith(".jsonl"):
            return "jsonl", spec
    elif isinstance(spec, os.PathLike):
        return "jsonl", os.fspath(spec)
    elif hasattr(spec, "write"):
        return "jsonl", spec
    raise TraceSpecError(
        f"unknown tracer spec {spec!r}: use False, True, 'memory', "
        "'count', 'jsonl:<path>', a path, a file object, or a Tracer"
    )


def make_tracer(spec: Any) -> Optional[Tracer]:
    """Build a tracer from a machine-constructor argument (grammar:
    :func:`parse_trace_spec`); an existing :class:`Tracer` passes
    through."""
    mode, target = parse_trace_spec(spec)
    if mode == "memory":
        return MemoryTracer()
    if mode == "count":
        return CountingTracer()
    if mode == "jsonl":
        return JsonlTracer(target)
    return target


def load_jsonl(path: Any) -> MemoryTracer:
    """Reload an on-disk JSONL trace into a :class:`MemoryTracer`.

    The inverse of streaming through a :class:`JsonlTracer`: event lines
    become :class:`TraceEvent` records (``pe``/``time``/``kind`` pulled
    out of the payload, everything else restored as ``fields``) and
    ``__schema__`` lines become :class:`SchemaDeclaration` entries — so
    the analysis, export and CLI layers consume live tracers and trace
    files through one interface.
    """
    tracer = MemoryTracer()
    if hasattr(path, "read"):
        lines = path
    else:
        lines = open(path, "r", encoding="utf-8")
    try:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            kind = payload.pop("kind", None)
            if kind == "__schema__":
                tracer.schemas.append(
                    SchemaDeclaration(
                        language=payload.get("language", "?"),
                        event_name=payload.get("event", "?"),
                        fields=tuple(
                            (str(n), str(t)) for n, t in payload.get("fields", [])
                        ),
                    )
                )
                continue
            if kind is None or "pe" not in payload or "time" not in payload:
                raise ValueError(
                    f"{path}:{lineno}: trace line missing pe/time/kind: {line[:80]}"
                )
            pe = payload.pop("pe")
            time = payload.pop("time")
            tracer.events.append(TraceEvent(int(pe), float(time), str(kind), payload))
    finally:
        if lines is not path:
            lines.close()
    return tracer
