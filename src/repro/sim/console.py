"""Atomic console I/O (``CmiPrintf`` / ``CmiScanf`` / ``CmiError``).

The MMI "guarantees that data from two separate printfs is not
interleaved" and that "scanf calls from different sources are effectively
serialized" (paper section 3.1.3).  In the simulator both are natural —
one tasklet runs at a time — so the console records output (the shared
``ConsoleLog``) and serves a pre-fed (or machine-fed) scanf input queue.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Any, Deque, List, Optional

from repro.core import context
from repro.core.errors import SimulationError
from repro.machine.interface import ConsoleLog

__all__ = ["Console", "sscanf"]


#: scanf conversion -> regex fragment + Python converter
_SCANF_CONVERSIONS = {
    "d": (r"[-+]?\d+", int),
    "i": (r"[-+]?\d+", int),
    "u": (r"\d+", int),
    "f": (r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?", float),
    "g": (r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?", float),
    "e": (r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?", float),
    "s": (r"\S+", str),
    "c": (r".", str),
}


def sscanf(text: str, fmt: str) -> List[Any]:
    """A small C-``sscanf`` for the conversions the paper's API needs
    (``%d %i %u %f %g %e %s %c``).  Returns the converted values; raises
    :class:`SimulationError` when the input does not match."""
    pattern_parts: List[str] = []
    converters: List[Any] = []
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch == "%":
            if i + 1 >= len(fmt):
                raise SimulationError(f"dangling %% in scanf format {fmt!r}")
            conv = fmt[i + 1]
            if conv == "%":
                pattern_parts.append(re.escape("%"))
            else:
                try:
                    frag, pyconv = _SCANF_CONVERSIONS[conv]
                except KeyError:
                    raise SimulationError(
                        f"unsupported scanf conversion %{conv} in {fmt!r}"
                    ) from None
                pattern_parts.append(f"({frag})")
                converters.append(pyconv)
            i += 2
        elif ch.isspace():
            pattern_parts.append(r"\s+")
            while i < len(fmt) and fmt[i].isspace():
                i += 1
        else:
            pattern_parts.append(re.escape(ch))
            i += 1
    pattern = r"\s*" + "".join(pattern_parts)
    m = re.match(pattern, text)
    if m is None:
        raise SimulationError(f"scanf: input {text!r} does not match format {fmt!r}")
    return [conv(g) for conv, g in zip(converters, m.groups())]


class Console(ConsoleLog):
    """The simulated machine's shared console.

    Output is the inherited :class:`~repro.machine.interface.ConsoleLog`
    (atomicity is natural here — one tasklet runs at a time).  Input is
    a line queue: tests pre-feed lines with :meth:`feed`; blocking reads
    park the calling tasklet until a line is available.
    """

    def __init__(self, engine: Any, echo: bool = False) -> None:
        super().__init__(engine, echo)
        self._input: Deque[str] = deque()
        self._waiters: Deque[Any] = deque()

    def feed(self, *lines: str) -> None:
        """Queue input lines for scanf (callable before or during a run)."""
        self._input.extend(lines)
        # Wake any tasklet blocked in a scanf.
        while self._waiters:
            self.engine.make_ready(self._waiters.popleft())

    def read_line(self) -> str:
        """Blocking line read: parks the calling tasklet until input is
        fed.  Reads are serialized by engine determinism."""
        t = context.require_tasklet()
        while not self._input:
            self._waiters.append(t)
            self.engine.suspend()
        return self._input.popleft()

    def try_read_line(self) -> Optional[str]:
        """Non-blocking read; ``None`` when no input is queued."""
        return self._input.popleft() if self._input else None

    def scanf(self, fmt: str) -> List[Any]:
        """Blocking formatted read from the input queue."""
        return sscanf(self.read_line(), fmt)

    @property
    def pending_input(self) -> int:
        """Lines queued for scanf that have not been read yet."""
        return len(self._input)
