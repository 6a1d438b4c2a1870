"""Spans recorded by the benchmark's own wrappers, and the arithmetic on them.

A span is the tuple ``(name, start, end, parent, op)``:

* ``start``/``end`` are ``time.monotonic()`` seconds (one clock for every
  process on Linux, so spans from different PEs of an ``mp`` machine
  share a time line);
* ``parent`` is the index, in the same PE's list, of the span that was
  open when this one started (``-1`` for none);
* ``op`` identifies the message the span belongs to (ball sequence
  number, task number, iteration): all spans of one message share it.

Spans stay in a per-PE list, travel back through ``Machine.results()``
and are written to ``out/trace-<workload>.jsonl`` after the run.  The
program under test is not instrumented: every span brackets a call the
benchmark makes into a public function.
"""

from __future__ import annotations

import json
import math
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int, int]


class Recorder:
    """Per-PE span list with one level of nesting: a handler span is the
    parent of every wrapped call made while it is open.

    ``op`` is the identifier stamped on new spans; a handler wrapper sets
    it from its message, other callers assign it directly.
    """

    def __init__(self) -> None:
        self.rows: List[Any] = []
        self.op = -1
        self._open = -1

    def wrap(self, name: str, fn: Callable[..., Any],
             op_of: Optional[Callable[..., int]] = None) -> Callable[..., Any]:
        """``fn`` with the same signature, each call inside a span.  With
        ``op_of``, the call's positional arguments name the op of this
        span and of the ones that follow (a ``CmiNew`` starts the spans
        of the message it builds)."""
        rows, now = self.rows, time.monotonic

        def timed(*args: Any, **kwargs: Any) -> Any:
            if op_of is not None:
                self.op = op_of(*args)
            t0 = now()
            out = fn(*args, **kwargs)
            rows.append((name, t0, now(), self._open, self.op))
            return out

        return timed

    def wrap_handler(self, name: str, fn: Callable[..., Any],
                     op_of: Callable[..., int]) -> Callable[..., Any]:
        """A handler (or entry method) inside a span that is the parent
        of the wrapped calls it makes.  Handlers do not nest: Converse
        runs one at a time per PE."""
        rows, now = self.rows, time.monotonic

        def handler(*args: Any) -> None:
            sid = len(rows)
            rows.append(None)
            self._open = sid
            self.op = op = op_of(*args)
            t0 = now()
            try:
                fn(*args)
            finally:
                rows[sid] = (name, t0, now(), -1, op)
                self._open = -1

        return handler


def self_times(rows: Sequence[Span]) -> List[float]:
    """Self time of every span: its duration minus the part of that
    interval its direct children cover."""
    out = [end - start for (_n, start, end, _p, _o) in rows]
    for _name, start, end, parent, _op in rows:
        if parent >= 0:
            p_start, p_end = rows[parent][1], rows[parent][2]
            out[parent] -= max(0.0, min(end, p_end) - max(start, p_start))
    return out


def by_name(rows: Sequence[Span], values: Sequence[float]) -> Dict[str, List[float]]:
    """Group one value per span (durations, self times) by span name."""
    out: Dict[str, List[float]] = {}
    for row, value in zip(rows, values):
        out.setdefault(row[0], []).append(value)
    return out


def durations(rows: Sequence[Span]) -> List[float]:
    return [end - start for (_n, start, end, _p, _o) in rows]


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample;
    0.0 for an empty one, which is how a layer that did no work reads."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = min(len(data), max(1, math.ceil(len(data) * q / 100.0)))
    return data[rank - 1]


def transits(send_rows: Sequence[Span], recv_rows: Sequence[Span],
             send_name: str, handler_name: str) -> Dict[int, float]:
    """``machine.transit`` per op: the gap from the return of the
    sender's ``send_name`` span to the start of the receiver's
    ``handler_name`` span of the same op.  No wrapper can see inside it:
    it is the machine layer plus Csd as a black box."""
    sent = {op: end for (name, _s, end, _p, op) in send_rows if name == send_name}
    return {op: start - sent[op] for (name, start, _e, _p, op) in recv_rows
            if name == handler_name and op in sent}


def write_jsonl(path: str, per_pe: Dict[int, Sequence[Span]],
                limit: Optional[int] = None) -> int:
    """Write spans as one JSON object per line, at most ``limit`` per PE
    (a parent always precedes its children, so a cut keeps the links
    valid); returns the line count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for pe in sorted(per_pe):
            for sid, (name, start, end, parent, op) in enumerate(per_pe[pe][:limit]):
                fh.write(json.dumps({"pe": pe, "id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
                n += 1
    return n
