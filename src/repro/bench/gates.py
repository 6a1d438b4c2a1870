"""The gates ``perfbench/`` does not cover, as one table.

    python -m repro.bench gate ft lb agg   # exit 1 if any named gate fails

``perfbench/`` (``BENCHMARK.json``) judges wall-clock speed.  What it
declares out of scope is held here: whole-PE crash recovery on both
machine layers (``ft``, ``ft-mp``), Cld load balance on a skewed
workload (``lb``, and the report-only ``lb-powerlaw``), and the
aggregation win on fine-grained traffic (``agg``).

Each entry of :data:`GATES` is one measure function, the columns its
rows print under and the thresholds those rows must meet;
:func:`render` and :func:`check` are the only table and verdict code.
Every threshold is a constant of its row, so the command takes gate
names and nothing else.
"""

from __future__ import annotations

import argparse
import operator
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import CrashSpec, FaultPlan, FTConfig, Machine, api
from repro.bench.workloads import HotKeyWorkload, PowerLawTreeWorkload
from repro.comms.aggregation import AggregationConfig
from repro.machine.base import machine_backend_unavailable_reason

__all__ = ["GATES", "Gate", "Threshold", "render", "check", "main"]

Row = Dict[str, Any]

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    ">": operator.gt, ">=": operator.ge, "<=": operator.le, "==": operator.eq,
}


@dataclass(frozen=True)
class Threshold:
    """``row[key] <op> bound`` must hold on the rows labelled ``rows``
    (each of which must have been measured), or on every row when
    ``rows`` is empty.  ``note`` says what a failure means, where the
    comparison alone does not."""

    key: str
    op: str
    bound: Any
    rows: Tuple[Any, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class Gate:
    """One row of :data:`GATES`.  ``columns`` are ``(header, row key,
    format)`` triples; the first column is the row's label.  A gate with
    no thresholds only reports.  ``layer`` is the machine layer the
    measurement needs: where it is unavailable the gate is skipped with
    a note, not failed."""

    title: str
    measure: Callable[[], List[Row]]
    columns: Tuple[Tuple[str, str, str], ...]
    thresholds: Tuple[Threshold, ...] = ()
    layer: str = "sim"


# ======================================================================
# mains — module-level and reporting through their return values, so the
# same program runs on any machine layer (mp ships mains by reference)
# ======================================================================

def ft_pingpong_main(rounds: int, checkpoint_every: int,
                     sleep_s: float) -> List[int]:
    """Crash-surviving ping-pong written against the ``Cft*`` API: two
    PEs bounce one numbered ball, checkpointing every
    ``checkpoint_every`` receives (0: only the timer-driven checkpoints
    of ``FTConfig(checkpoint_interval=...)``).  ``sleep_s`` stretches
    each handler so a wall-clock ``CrashSpec`` lands mid-run.  Returns
    this PE's receive sequence, which must equal the fault-free run's."""
    me = api.CmiMyPe()
    mine: List[int] = []

    def on_ball(msg: Any) -> None:
        n = msg.payload
        mine.append(n)
        if sleep_s:
            time.sleep(sleep_s)
        if n + 1 < 2 * rounds:
            api.CmiSyncSend(1 - me, api.CmiNew(h, n + 1))
        if checkpoint_every and len(mine) % checkpoint_every == 0:
            api.CftCheckpoint()
        if len(mine) == rounds:
            api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_ball, "gate.ftball")
    api.CftInit(lambda: list(mine),
                lambda state: mine.__setitem__(slice(None), state))
    if not (api.CftRestarting() and api.CftRecover()):
        # First start, or a restart that found no checkpoint: (re)do the
        # fault-free initialization; replay + dedup reconcile whatever
        # the peer already saw.
        mine.clear()
        if me == 0:
            api.CmiSyncSend(1, api.CmiNew(h, 0))
    api.CsdScheduler(-1)
    return list(mine)


def all2all_main(rounds: int) -> int:
    """Fine-grained all-to-all: every PE streams ``rounds`` 8-byte
    messages to every other PE and returns how many it received."""
    me, n = api.CmiMyPe(), api.CmiNumPes()
    expected = rounds * (n - 1)
    state = {"count": 0}

    def on_msg(_msg: Any) -> None:
        state["count"] += 1
        if state["count"] == expected:
            api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_msg, "gate.a2a")
    for r in range(rounds):
        for dst in range(n):
            if dst != me:
                api.CmiSyncSend(dst, api.CmiNew(h, r))
    api.CsdScheduler(-1)
    return state["count"]


# ======================================================================
# measure functions
# ======================================================================

def _ft_row(label: str, layer: str, *, rounds: int, seed: int, crash: CrashSpec,
            ft: FTConfig, checkpoint_every: int, sleep_s: float) -> Row:
    """One ft ping-pong run with one mid-run crash of PE 1 — one table
    row: crash-to-recovered latency (the ``ft.recovery_latency``
    histogram: virtual time on sim, respawned-process wall time on mp),
    checkpoint cost, and whether both PEs' results are the fault-free
    sequences."""
    t0 = time.perf_counter()
    with Machine(2, machine_backend=layer, faults=FaultPlan(seed, crashes=[crash]),
                 reliable=True, ft=ft, metrics=True) as m:
        m.launch(ft_pingpong_main, rounds, checkpoint_every, sleep_s)
        m.run()
        received = m.results()
    wall = time.perf_counter() - t0
    snap = m.metrics_snapshot()  # mp workers ship their registries at shutdown
    return {
        "run": label,
        "recovery_us": (snap["ft.recovery_latency"]["mean"] or 0.0) * 1e6,
        "recoveries": snap["ft.recoveries"]["total"],
        "checkpoints": snap["ft.checkpoints"]["total"],
        "checkpoint_kbytes": snap["ft.checkpoint_bytes"]["total"] / 1024.0,
        "fault_free": received == [list(range(1, 2 * rounds, 2)),
                                   list(range(0, 2 * rounds, 2))],
        "wall_s": wall,
    }


def measure_ft() -> List[Row]:
    """Recovery latency and checkpoint cost vs checkpoint interval on
    the simulator: short intervals pay more checkpoint bytes, long ones
    replay more on recovery."""
    return [
        _ft_row(f"ckpt every {us} us", "sim", rounds=120, seed=0,
                crash=CrashSpec(1, 400e-6, 250e-6),
                ft=FTConfig(checkpoint_interval=us * 1e-6),
                checkpoint_every=0, sleep_s=0.0)
        for us in (50, 100, 200)
    ]


def measure_ft_mp() -> List[Row]:
    """The same program with a real SIGKILL + respawn of the PE 1
    worker process; a 2 ms handler sleep keeps the run alive past the
    wall-clock crash time."""
    return [
        _ft_row(f"seed {seed}", "mp", rounds=60, seed=seed,
                crash=CrashSpec(1, 0.1, 0.05), ft=FTConfig(),
                checkpoint_every=8, sleep_s=0.002)
        for seed in range(2)
    ]


def _lb_rows(workload: Any) -> List[Row]:
    """One skewed seed workload (everything created on PE 0) under the
    do-nothing baseline, the static spreader and the two feedback-driven
    rebalancers.  Virtual time: exact per seed."""
    results = [workload.run(s) for s in ("direct", "spray", "adaptive", "steal")]
    return [{
        "strategy": r.strategy,
        "makespan_us": r.makespan_us,
        "imbalance": r.imbalance,
        "efficiency": r.efficiency,
        "speedup": results[0].makespan_us / r.makespan_us,
        "rooted": r.rooted,
    } for r in results]


#: the fine-grained all-to-all: 8 PEs x 70 rounds = 3,920 logical messages.
AGG_PES, AGG_ROUNDS = 8, 70
AGG_MESSAGES = AGG_PES * (AGG_PES - 1) * AGG_ROUNDS


def _all2all_seconds(aggregation: Optional[AggregationConfig]) -> float:
    t0 = time.perf_counter()
    with Machine(AGG_PES, machine_backend="sim", aggregation=aggregation) as m:
        m.launch(all2all_main, AGG_ROUNDS)
        m.run()
        delivered = sum(m.results())
    seconds = time.perf_counter() - t0
    if delivered != AGG_MESSAGES:
        raise RuntimeError(f"all2all lost messages: {delivered} delivered")
    return seconds


def measure_agg() -> List[Row]:
    """Wall-clock msgs/sec of the identical send schedule with the
    aggregation layer off and on (best of 5 each: the ratio is the only
    wall-clock verdict here, and best-of keeps host noise out of it)."""
    rows: List[Row] = []
    for label, aggregation in (("off", None),
                               ("on", AggregationConfig(max_batch_msgs=32))):
        seconds = min(_all2all_seconds(aggregation) for _ in range(5))
        rows.append({"aggregation": label, "messages": AGG_MESSAGES,
                     "seconds": seconds, "msgs_per_s": AGG_MESSAGES / seconds})
    for row in rows:
        row["ratio"] = row["msgs_per_s"] / rows[0]["msgs_per_s"]
    return rows


# ======================================================================
# the table
# ======================================================================

_FT_COLUMNS = (
    ("run", "run", "{}"),
    ("recovery", "recovery_us", "{:,.0f} us"),
    ("recoveries", "recoveries", "{:.0f}"),
    ("checkpoints", "checkpoints", "{:.0f}"),
    ("ckpt traffic", "checkpoint_kbytes", "{:.1f} KB"),
    ("fault-free result", "fault_free", "{}"),
    ("wall", "wall_s", "{:.3f}s"),
)

_LB_COLUMNS = (
    ("strategy", "strategy", "{}"),
    ("makespan", "makespan_us", "{:,.1f} us"),
    ("imbalance", "imbalance", "{:.2f}"),
    ("efficiency", "efficiency", "{:.2f}"),
    ("vs direct", "speedup", "{:.2f}x"),
    ("rooted", "rooted", "{}"),
)


def _recovers_once_within(ceiling_us: int) -> Tuple[Threshold, ...]:
    return (
        Threshold("recoveries", "==", 1),
        Threshold("recovery_us", ">", 0),
        Threshold("recovery_us", "<=", ceiling_us),
        Threshold("fault_free", "==", True),
    )


GATES: Dict[str, Gate] = {
    "ft": Gate(
        title="crash recovery vs checkpoint interval (sim, virtual time; "
              "120-round ping-pong, PE 1 crashes at 400 us, restarts after 250 us)",
        measure=measure_ft,
        columns=_FT_COLUMNS,
        thresholds=_recovers_once_within(2_000),
    ),
    "ft-mp": Gate(
        title="real-process crash recovery (mp, wall clock; 60-round "
              "ping-pong, PE 1 SIGKILLed at 100 ms, respawned after 50 ms)",
        measure=measure_ft_mp,
        columns=_FT_COLUMNS,
        thresholds=_recovers_once_within(500_000),
        layer="mp",
    ),
    "lb": Gate(
        title="seed load balancing (hotkey: 512 x 50 us seeds created on PE 0, 8 PEs)",
        measure=lambda: _lb_rows(HotKeyWorkload(num_pes=8, tasks=512)),
        columns=_LB_COLUMNS,
        thresholds=(
            Threshold("imbalance", ">", 3, rows=("direct",),
                      note="set-up error: direct is not pathological, so the "
                           "workload is not skewed enough to prove anything"),
            Threshold("imbalance", "<=", 1.5, rows=("adaptive", "steal")),
            Threshold("speedup", ">=", 1.5, rows=("adaptive", "steal")),
        ),
    ),
    "lb-powerlaw": Gate(
        title="seed load balancing (powerlaw: 600-node spawn tree rooted on "
              "PE 0, 8 PEs; report only)",
        measure=lambda: _lb_rows(PowerLawTreeWorkload(num_pes=8, tasks=600)),
        columns=_LB_COLUMNS,
    ),
    "agg": Gate(
        title="streaming aggregation on the fine-grained all-to-all "
              "(sim, wall clock, best of 5)",
        measure=measure_agg,
        columns=(
            ("aggregation", "aggregation", "{}"),
            ("messages", "messages", "{:,}"),
            ("seconds", "seconds", "{:.3f}"),
            ("msgs/sec", "msgs_per_s", "{:,.0f}"),
            ("vs off", "ratio", "{:.2f}x"),
        ),
        thresholds=(Threshold("ratio", ">=", 2.0, rows=("on",)),),
    ),
}


# ======================================================================
# render, check, run
# ======================================================================

def render(gate: Gate, rows: Sequence[Row]) -> str:
    """``rows`` as an aligned text table under ``gate.columns``."""
    table = [[header for header, _, _ in gate.columns]]
    table += [[fmt.format(row[key]) for _, key, fmt in gate.columns]
              for row in rows]
    widths = [max(len(line[i]) for line in table)
              for i in range(len(gate.columns))]
    return "\n".join(
        "  " + "  ".join(cell.rjust(w) for cell, w in zip(line, widths))
        for line in table
    )


def check(gate: Gate, rows: Sequence[Row]) -> List[str]:
    """Hold ``rows`` to every threshold of ``gate``: prints one verdict
    line per comparison and returns the failures (empty: gate passes)."""
    label_key = gate.columns[0][1]
    formats = {key: fmt for _, key, fmt in gate.columns}
    by_label = {row[label_key]: row for row in rows}
    failures: List[str] = []
    for t in gate.thresholds:
        for label in t.rows or by_label:
            row = by_label.get(label)
            if row is None:
                failures.append(f"{label}: row was not measured")
                continue
            ok = _OPS[t.op](row[t.key], t.bound)
            claim = (f"{label}: {t.key} {formats[t.key].format(row[t.key])} "
                     f"{t.op} {t.bound}")
            print(f"  {claim} {'OK' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{claim} does not hold"
                                + (f" ({t.note})" if t.note else ""))
    return failures


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench gate",
        description="Run the named gates (the checks perfbench/ declares "
                    "out of scope); exit 1 if any fails.",
    )
    parser.add_argument(
        "names", nargs="+", choices=sorted(GATES), metavar="NAME",
        help=f"gates to run: {', '.join(GATES)}",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: ``python -m repro.bench gate NAME...``."""
    failures: List[str] = []
    for name in _parser().parse_args(argv).names:
        gate = GATES[name]
        unavailable = machine_backend_unavailable_reason(gate.layer)
        if unavailable:
            print(f"{name}: machine layer {gate.layer!r} unavailable here, "
                  f"skipping: {unavailable}")
            continue
        print(f"{name}: {gate.title}")
        rows = gate.measure()
        print(render(gate, rows))
        failures += [f"{name}: {f}" for f in check(gate, rows)]
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0
