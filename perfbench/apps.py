"""Whole-program workload: 2-D Jacobi relaxation on a chare array.

Modelled on ``examples/jacobi2d_charm.py``: a ``TILES x TILES`` chare
array decomposes a square grid, every element exchanges ghost rows with
its four neighbours by asynchronous entry-method invocation, relaxes with
NumPy and contributes its residual to an array reduction; the reduction
target starts the next iteration.  Unlike the example it runs by the
clock (warm-up, then a measured window of whole iterations) and keeps
its state in a :class:`JacobiRun` the driver owns, not in module globals.

Simulator only: the run object is shared by every PE, which one process
allows and ``mp`` would not.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro import api
from repro.langs.charm import Chare, Charm

from spans import Recorder

TILES = 6            # 6 x 6 chare array
TILE = 16            # each tile is 16 x 16
N = TILES * TILE
NUM_PES = 4
#: the fixed job ``time_to_solution_s`` is quoted for
SOLVE_ITERS = 400

now = time.monotonic


def boundary(seed: int) -> np.ndarray:
    """The input: an (N+2)^2 frame, zero inside, with a seeded hot left
    edge.  Everything the program sees of the seed is in this array."""
    rng = random.Random(seed)
    g = np.zeros((N + 2, N + 2))
    g[:, 0] = [0.5 + 0.5 * rng.random() for _ in range(N + 2)]
    return g


def reference(seed: int, iters: int) -> np.ndarray:
    """The same relaxation as one plain NumPy loop."""
    g = boundary(seed)
    for _ in range(iters):
        g[1:-1, 1:-1] = 0.25 * (g[:-2, 1:-1] + g[2:, 1:-1]
                                + g[1:-1, :-2] + g[1:-1, 2:])
    return g[1:-1, 1:-1]


class JacobiRun:
    """State of one run, shared by the tiles and read by the driver."""

    def __init__(self, cfg: Dict[str, Any]) -> None:
        self.seed = cfg["seed"]
        self.warm = cfg["warm"]
        self.window = cfg["windows"][0]
        self.recs: Optional[List[Recorder]] = (
            [Recorder() for _ in range(NUM_PES)] if cfg["traced"] else None)
        self.array: Any = None
        self.entry_calls = 0
        self.iters = 0
        self.phase = 0
        self.t_entry = 0.0
        #: (time, iterations done, entry calls made, virtual time) at the
        #: start and the end of the window
        self.marks: List[tuple] = []
        self.iter_times: List[float] = []
        self.last = 0.0
        self.result: Optional[np.ndarray] = None
        self.t_done = 0.0

    # -- reduction targets, fired on PE 0 -------------------------------
    def round_done(self, _worst: float) -> None:
        t = now()
        self.iters += 1
        if self.phase == 1:
            self.iter_times.append(t - self.last)
        self.last = t
        if self.phase == 0 and t >= self.t_entry + self.warm:
            self.phase = 1
            self._mark(t)
        elif self.phase == 1 and t >= self.marks[0][0] + self.window:
            self.phase = 2
            self._mark(t)
            self.array.collect()
            return
        self.array.start_iteration()

    def _mark(self, t: float) -> None:
        self.marks.append((t, self.iters, self.entry_calls, api.CmiTimer()))

    def assembled(self, blocks: dict) -> None:
        grid = np.zeros((N, N))
        for (ti, tj), block in blocks.items():
            grid[ti * TILE:(ti + 1) * TILE, tj * TILE:(tj + 1) * TILE] = block
        self.result = grid
        self.t_done = now()
        Charm.get().exit_all()


class Tile(Chare):
    """One TILE x TILE block plus its ghost frame."""

    def __init__(self, run: JacobiRun) -> None:
        self.run = run
        self.ti, self.tj = divmod(self.thisIndex, TILES)
        r0, c0 = self.ti * TILE, self.tj * TILE
        self.u = boundary(run.seed)[r0:r0 + TILE + 2, c0:c0 + TILE + 2].copy()
        self.iteration = 0
        self.ghosts_needed = 4 - ((self.ti in (0, TILES - 1))
                                  + (self.tj in (0, TILES - 1)))
        self.ghosts_seen = 0
        self.pending: Dict[int, list] = {}
        self._contribute = self.charm.array_contribute
        self._kernel = self._relax_kernel
        self._invoke = self._send_ghost
        if run.recs is not None:
            rec = run.recs[self.mype]
            op = lambda *_a: self.iteration * TILES * TILES + self.thisIndex
            self.start_iteration = rec.wrap_handler(
                "langs.charm.entry", self.start_iteration, op)
            self.ghost = rec.wrap_handler("langs.charm.entry", self.ghost, op)
            self._contribute = rec.wrap("langs.charm.array_contribute",
                                        self._contribute)
            self._kernel = rec.wrap("user.kernel", self._kernel)
            self._invoke = rec.wrap("langs.charm.invoke", self._invoke)

    def _send_ghost(self, nb: Any, side: tuple, row: np.ndarray) -> None:
        nb.ghost(self.iteration, side, row)

    def start_iteration(self) -> None:
        """Broadcast target: send my edges to the neighbours."""
        self.run.entry_calls += 1
        u = self.u
        for di, dj, row in ((-1, 0, u[1, 1:-1]), (1, 0, u[-2, 1:-1]),
                            (0, -1, u[1:-1, 1]), (0, 1, u[1:-1, -2])):
            ni, nj = self.ti + di, self.tj + dj
            if 0 <= ni < TILES and 0 <= nj < TILES:
                self._invoke(self.thisArray[ni * TILES + nj], (-di, -dj),
                             row.copy())

    def ghost(self, iteration: int, side: tuple, row: np.ndarray) -> None:
        """A neighbour's edge arrived."""
        self.run.entry_calls += 1
        self._ghost(iteration, side, row)

    def _ghost(self, iteration: int, side: tuple, row: np.ndarray) -> None:
        if iteration != self.iteration:
            # A fast neighbour is an iteration ahead; keep it for later.
            self.pending.setdefault(iteration, []).append((side, row))
            return
        di, dj = side
        if di == -1:
            self.u[0, 1:-1] = row
        elif di == 1:
            self.u[-1, 1:-1] = row
        elif dj == -1:
            self.u[1:-1, 0] = row
        else:
            self.u[1:-1, -1] = row
        self.ghosts_seen += 1
        if self.ghosts_seen == self.ghosts_needed:
            self._relax()

    def _relax_kernel(self) -> float:
        u = self.u
        interior = 0.25 * (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:])
        residual = float(np.max(np.abs(interior - u[1:-1, 1:-1])))
        u[1:-1, 1:-1] = interior
        return residual

    def _relax(self) -> None:
        residual = self._kernel()
        self.ghosts_seen = 0
        self._contribute(self, ("res", self.iteration), residual, max,
                         self.run.round_done)
        self.iteration = it = self.iteration + 1
        for side, row in self.pending.pop(it, []):
            self._ghost(it, side, row)

    def collect(self) -> None:
        """Gather the tiles (an array reduction carrying blocks)."""
        self.run.entry_calls += 1
        self.charm.array_contribute(
            self, "gather", {(self.ti, self.tj): self.u[1:-1, 1:-1].copy()},
            lambda a, b: {**a, **b}, self.run.assembled)


def jacobi_main(run: JacobiRun) -> None:
    ch = Charm.get()
    if ch.my_pe == 0:
        run.t_entry = run.last = now()
        run.array = ch.create_array(Tile, TILES * TILES, run)
        run.array.start_iteration()
    api.CsdScheduler(-1)
