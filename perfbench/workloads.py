"""One repetition of each workload, as run inside a pinned child process.

A repetition builds its machine the way a user would (``Machine(n)`` plus
at most ``machine_backend``, ``queue``, ``reliable``, ``trace`` and
``metrics``), runs a main from :mod:`mains` or :mod:`apps`, checks the
outputs against what the two sides of every exchange counted, and turns
the stamps into numbers.  Nothing here reaches into the program: every
layer is measured from outside, through public calls.

A repetition returns a :class:`Rep`; :func:`run_rep` is the boundary that
turns an exception into a failed repetition instead of a dead benchmark.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import Machine
from repro.langs.charm import Charm

import apps
import mains
from spans import by_name, durations, percentile, self_times, transits

now = time.monotonic

#: how the measured seconds of a repetition are shared out between the
#: two traffic shapes of a two-phase workload (first shape, second shape)
SPLIT_PINGPONG_MP = (0.6, 0.4)
SPLIT_CHURN = (0.5, 0.5)
#: warm-up, as a share of the measured seconds
WARM_SHARE = 0.1
#: pingpong_mp's pass with the program's own tracing on keeps every trace
#: event in memory until shutdown, so its window also ends after this many
#: round trips (about 1.3 s on this host): the merge in shutdown() then
#: compares equal work, not how fast the host happened to be
TRACED_TRIPS = 4000
#: Other tenants of the host slow this CPU to about half speed for
#: milliseconds to seconds at a time, in most windows (README, "What
#: selects the slow mode").  A window is therefore cut into batches of
#: about BATCH_S seconds, and the bounded numbers are read at the batch
#: QUIET_PCT percent up from the fastest: a pace the program held while
#: the host left it alone.  What the whole window gave is reported beside
#: them, unbounded.
QUIET_PCT = 10
BATCH_S = 0.010
#: The first machine a process builds pays for everything the program
#: loads on first use: 8-14 ms on ``sim`` against 0.7 ms for every later
#: one, and it is that one-off that the host's weather moves most (+80%
#: in a bad hour, when the pace of a window lost 17%).  ``setup_s`` is
#: therefore read off machines built after the measured one: each runs
#: the same main for SETUP_WINDOW_S seconds, and a repetition reports the
#: median of cfg["setups"] of them.
SETUP_WINDOW_S = 0.02


@dataclass
class Rep:
    """What one repetition measured."""

    attempted: int = 0
    failed: int = 0
    #: end-to-end numbers the workload itself defines
    quiet_msgs_per_s: float = 0.0
    quiet_op_us_p50: float = 0.0
    #: seconds from before ``Machine(...)`` to after ``shutdown()``, and
    #: the part of it the mains spent between entry and their last stamp
    wall_s: float = 0.0
    busy_s: float = 0.0
    #: median ``wall_s - busy_s`` of the machines built after the measured
    #: one; 0 when ``cfg["setups"]`` asked for none
    setup_s: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    #: pe -> span rows, traced repetitions only
    spans: Dict[int, list] = field(default_factory=dict)
    error: str = ""


@dataclass
class Drive:
    """One machine, built, run and shut down, with a stamp at every step."""

    results: List[Any]
    machine: Any
    begin: float
    built: float
    launched: float
    ran: float
    down: float
    shutdown_s: float
    hub_cpu_s: float

    @property
    def run_s(self) -> float:
        return self.ran - self.launched


def drive(num_pes: int, kwargs: Dict[str, Any], main: Callable[..., Any],
          arg: Any, attach: Optional[Callable[[Any], Any]] = None) -> Drive:
    begin = now()
    machine = Machine(num_pes, **kwargs)
    try:
        built = now()
        if attach is not None:
            attach(machine)
        machine.launch(main, arg)
        launched = now()
        cpu0 = time.process_time()
        machine.run()
        ran = now()
        hub_cpu = time.process_time() - cpu0
        results = machine.results()
    finally:
        t = now()
        machine.shutdown()
        down = now()
    return Drive(results, machine, begin, built, launched, ran, down,
                 down - t, hub_cpu)


def main_cfg(cfg: Dict[str, Any], windows: Sequence[float], **extra: Any) -> Dict[str, Any]:
    total = sum(windows)
    out = {"seed": cfg["seed"], "traced": cfg["traced"],
           "warm": WARM_SHARE * total, "windows": list(windows)}
    out.update(extra)
    return out


def us(seconds: float) -> float:
    return seconds * 1e6


def batch_len(samples: Sequence[float], seconds: float = BATCH_S) -> int:
    """How many consecutive samples (durations) make a batch of about
    ``seconds``; the whole sample when it is shorter than that."""
    typical = percentile(samples, 50)
    if typical <= 0:
        return 1
    return max(1, min(len(samples), round(seconds / typical)))


def batches(samples: Sequence[float], batch: int) -> List[Sequence[float]]:
    """Consecutive full batches of ``batch`` samples."""
    return [samples[i:i + batch] for i in range(0, len(samples) - batch + 1, batch)]


def _throughput(rep: Rep, samples: Sequence[float], msgs_per_sample: float,
                seconds: float = BATCH_S) -> None:
    """``samples`` are back-to-back durations, each covering
    ``msgs_per_sample`` handler invocations.  ``msgs_per_s`` is their
    count over their sum: everything the window held, stalls and busy
    neighbours included.  ``quiet_msgs_per_s`` is the rate of the batch
    QUIET_PCT percent up from the fastest; ``window_excess_share`` is the
    share of the window spent above that pace."""
    if not samples:
        return
    batch = batch_len(samples, seconds)
    quiet = percentile([sum(b) for b in batches(samples, batch)], QUIET_PCT)
    rep.quiet_msgs_per_s = batch * msgs_per_sample / quiet
    rate = len(samples) * msgs_per_sample / sum(samples)
    rep.layers["msgs_per_s"] = rate
    rep.layers["window_excess_share"] = max(0.0, 1.0 - rate / rep.quiet_msgs_per_s)


def _latency(rep: Rep, per_clock: Sequence[Sequence[float]], batch: int) -> None:
    """``per_clock`` holds the latency samples of each PE that kept a
    clock, in order.  ``op_us_p50`` is the median of them all;
    ``quiet_op_us_p50`` is the median inside the batch QUIET_PCT percent
    up from the fastest."""
    medians = [percentile(b, 50) for samples in per_clock
               for b in batches(samples, min(batch, len(samples) or 1))]
    rep.quiet_op_us_p50 = us(percentile(medians, QUIET_PCT))
    rep.layers["op_us_p50"] = us(percentile(
        [v for samples in per_clock for v in samples], 50))


def _account(rep: Rep, d: Drive, results: Sequence[Dict[str, Any]]) -> None:
    """Add one machine run to the repetition's wall and busy time."""
    rep.wall_s += d.down - d.begin
    rep.busy_s += max(r["t_done"] for r in results) - min(r["t_entry"] for r in results)


def _machine_layers(rep: Rep, d: Drive, results: Sequence[Dict[str, Any]],
                    deliveries: int) -> None:
    """Layer numbers every machine run yields without spans."""
    t_entry = min(r["t_entry"] for r in results)
    t_done = max(r["t_done"] for r in results)
    lay = rep.layers
    lay["machine.construct_s"] = d.built - d.begin
    lay["machine.spawn_s"] = t_entry - d.launched
    lay["machine.drain_s"] = d.ran - t_done
    lay["machine.shutdown_s"] = d.shutdown_s
    worker_cpu = getattr(d.machine, "worker_cpu_seconds", None)
    if worker_cpu is not None and deliveries:
        workers = sum(worker_cpu().values())
        lay["machine.mp.worker_cpu_us_per_msg"] = us(workers / deliveries)
        lay["machine.mp.hub_cpu_us_per_msg"] = us(d.hub_cpu_s / deliveries)
        lay["machine.mp.idle_share"] = max(0.0, 1.0 - (workers + d.hub_cpu_s) / d.run_s)


def _span_layers(rep: Rep, per_pe: Dict[int, list], names: Dict[str, str]) -> None:
    """``<layer metric> = p50 of the durations of span <name>``, plus the
    handler's self time, over all PEs."""
    durs: Dict[str, List[float]] = {}
    selfs: List[float] = []
    for rows in per_pe.values():
        for name, vals in by_name(rows, durations(rows)).items():
            durs.setdefault(name, []).extend(vals)
        mine = by_name(rows, self_times(rows))
        selfs.extend(mine.get("user.handler", []))
        selfs.extend(mine.get("langs.charm.entry", []))
    for span_name, metric in names.items():
        rep.layers[metric] = us(percentile(durs.get(span_name, []), 50))
    rep.layers["user.handler_self_us_p50"] = us(percentile(selfs, 50))


# ----------------------------------------------------------------------
# pingpong_sim, pingpong_sim_reliable, pingpong_mp
# ----------------------------------------------------------------------

def rep_pingpong(cfg: Dict[str, Any], kwargs: Dict[str, Any],
                 split: Sequence[float] = (1.0,), **extra: Any) -> Rep:
    rep = Rep()
    windows = [cfg["seconds"] * share for share in split]
    d = drive(2, kwargs, mains.pingpong_main, main_cfg(cfg, windows, **extra))
    r0, r1 = sorted(d.results, key=lambda r: r["pe"])
    _account(rep, d, [r0])  # PE 1 has no clock: PE 0's stamps bracket both
    sent = r0["sent"] + r1["sent"]
    handled = sum(r0["counts"]) + sum(r1["counts"])
    rep.attempted = sent
    rep.failed = abs(sent - handled) + r0["errors"] + r1["errors"] + sum(
        abs(a - b) for a, b in zip(r0["counts"], r1["counts"]))
    vmarks = r0["vmarks"]
    msgs = r0["counts"][1] + r1["counts"][1]
    small, large = r0["samples"][1], (r0["samples"][2] if len(split) > 1 else [])
    _throughput(rep, small, 2)
    _latency(rep, [large or small], batch_len(large or small))
    lay = rep.layers
    lay["rtt_us_p50"] = us(percentile(small, 50))
    lay["rtt_us_p90"] = us(percentile(small, 90))
    lay["rtt_us_p99"] = us(percentile(small, 99))
    _machine_layers(rep, d, [r0], handled)
    if kwargs.get("machine_backend") != "mp":
        lay["sim.virtual_us_per_msg"] = us((vmarks[2] - vmarks[1]) / msgs)
    if kwargs.get("metrics"):
        snap = d.machine.metrics_snapshot()
        if "rel.retransmits" in snap:
            lay["machine.cmi.rel.retransmits"] = snap["rel.retransmits"]["total"]
            lay["machine.cmi.rel.acks_per_msg"] = (
                snap["rel.rtt"]["count"] / snap["rel.data_sent"]["total"])
            # No faults are injected, so a retransmission is a failure.
            rep.failed += int(snap["rel.retransmits"]["total"])
    if kwargs.get("trace"):
        lay["tracing.events_per_msg"] = len(d.machine.tracer.events) / handled
    if cfg["traced"]:
        rep.spans = {0: r0["spans"], 1: r1["spans"]}
        _span_layers(rep, rep.spans, {"core.api.CmiNew": "core.api.CmiNew_us_p50"})
        # Hops below this one carried 8 bytes, the rest 64 KiB.
        first_large = 2 * (r0["counts"][0] + r0["counts"][1])
        is_small = (lambda op: op < first_large) if len(split) > 1 else (lambda op: True)
        hops = transits(r0["spans"], r1["spans"], "core.api.CmiSyncSend", "user.handler")
        hops.update(transits(r1["spans"], r0["spans"],
                             "core.api.CmiSyncSend", "user.handler"))
        t_small = [v for op, v in hops.items() if is_small(op)]
        t_large = [v for op, v in hops.items() if not is_small(op)]
        lay["machine.transit_us_p50"] = us(percentile(t_small, 50))
        lay["machine.transit_us_p99"] = us(percentile(t_small, 99))
        lay["machine.transit_large_us_p50"] = us(percentile(t_large, 50))
        sends = [(op, end - start) for rows in rep.spans.values()
                 for (name, start, end, _p, op) in rows
                 if name == "core.api.CmiSyncSend"]
        lay["core.api.CmiSyncSend_us_p50"] = us(percentile(
            [v for op, v in sends if is_small(op)], 50))
        lay["core.api.CmiSyncSend_large_us_p50"] = us(percentile(
            [v for op, v in sends if not is_small(op)], 50))
    return rep


def rep_pingpong_sim(cfg: Dict[str, Any]) -> Rep:
    return rep_pingpong(cfg, {})


def rep_pingpong_sim_reliable(cfg: Dict[str, Any]) -> Rep:
    kwargs: Dict[str, Any] = {"reliable": True}
    if cfg.get("counters"):
        kwargs["metrics"] = True
    if cfg.get("on_mp"):
        kwargs["machine_backend"] = "mp"
    return rep_pingpong(cfg, kwargs)


def rep_pingpong_mp(cfg: Dict[str, Any]) -> Rep:
    if cfg.get("observed"):
        # The small balls alone, with the program's own tracing and metrics.
        path = os.path.join(cfg["out_dir"], f"converse-trace-{cfg['tag']}.jsonl")
        return rep_pingpong(cfg, {"machine_backend": "mp", "trace": f"jsonl:{path}",
                                  "metrics": True}, trips=TRACED_TRIPS)
    return rep_pingpong(cfg, {"machine_backend": "mp"}, SPLIT_PINGPONG_MP)


# ----------------------------------------------------------------------
# csd_churn
# ----------------------------------------------------------------------

def rep_csd_churn(cfg: Dict[str, Any]) -> Rep:
    rep = Rep()
    for prio, share, kwargs in ((False, SPLIT_CHURN[0], {}),
                                (True, SPLIT_CHURN[1], {"queue": "int"})):
        d = drive(1, kwargs, mains.churn_main,
                  main_cfg(cfg, [cfg["seconds"] * share], prio=prio))
        (r,) = d.results
        _account(rep, d, [r])
        rep.attempted += r["spawned"]
        rep.failed += abs(r["spawned"] - r["ran"]) + r["errors"]
        tasks = len(r["gens"][1]) * mains.LIVE_TASKS
        window = r["marks"][2] - r["marks"][1]
        gens = r["gens"][1]
        if prio:
            _latency(rep, [[g / mains.LIVE_TASKS for g in gens]], batch_len(gens))
            rep.layers["prio_msgs_per_s"] = len(gens) * mains.LIVE_TASKS / sum(gens)
        else:
            _throughput(rep, gens, mains.LIVE_TASKS)
            _machine_layers(rep, d, [r], r["ran"])
        if cfg["traced"]:
            tag = "_prio" if prio else ""
            rep.spans[int(prio)] = rows = r["spans"]
            t0, t1 = r["marks"][1], r["marks"][2]
            in_handlers = sum(e - s for (n, s, e, _p, _o) in rows
                              if n == "user.handler" and t0 <= s and e <= t1)
            rep.layers[f"core.scheduler.loop_self{tag}_us"] = us(
                (window - in_handlers) / tasks)
            rep.layers[f"core.api.CsdEnqueue{tag}_us_p50"] = us(percentile(
                [e - s for (n, s, e, _p, _o) in rows if n == "core.api.CsdEnqueue"], 50))
    # Both at the quiet pace: 1e6 / quiet_op_us_p50 is tasks per second.
    rep.layers["core.queueing.prio_penalty_ratio"] = (
        rep.quiet_msgs_per_s * rep.quiet_op_us_p50 / 1e6)
    if cfg["traced"]:
        _span_layers(rep, {0: rep.spans[0]}, {"core.api.CmiNew": "core.api.CmiNew_us_p50"})
    return rep


# ----------------------------------------------------------------------
# cth_yield
# ----------------------------------------------------------------------

def rep_cth_yield(cfg: Dict[str, Any]) -> Rep:
    rep = Rep()
    d = drive(1, {}, mains.yield_main, main_cfg(cfg, [cfg["seconds"]]))
    (r,) = d.results
    _account(rep, d, [r])
    per_thread = [c[1] for c in r["counts"]]
    rep.attempted = sum(sum(c) for c in r["counts"])
    if r["finished"] != mains.YIELD_THREADS:
        rep.failed = rep.attempted
    else:
        # FIFO resumes make the threads take strict turns.
        rep.failed = max(0, max(per_thread) - min(per_thread) - 1)
    turns = r["samples"][1]  # thread 0's yields: one turn of every thread each
    _throughput(rep, turns, mains.YIELD_THREADS)
    _latency(rep, [turns], batch_len(turns))
    _machine_layers(rep, d, [r], rep.attempted)
    if cfg["traced"]:
        rep.spans = {0: r["spans"]}
        _span_layers(rep, rep.spans, {"core.api.CthYield": "core.api.CthYield_us_p50"})
    return rep


# ----------------------------------------------------------------------
# jacobi_sim
# ----------------------------------------------------------------------

def rep_jacobi_sim(cfg: Dict[str, Any]) -> Rep:
    rep = Rep()
    run = apps.JacobiRun(main_cfg(cfg, [cfg["seconds"]]))
    d = drive(apps.NUM_PES, {}, apps.jacobi_main, run, attach=Charm.attach)
    stamps = [{"t_entry": run.t_entry, "t_done": run.t_done}]
    _account(rep, d, stamps)
    (t0, it0, calls0, v0), (t1, it1, calls1, v1) = run.marks
    window, iters, calls = t1 - t0, it1 - it0, calls1 - calls0
    rep.attempted = run.entry_calls
    tiles = apps.TILES * apps.TILES
    per_iter = tiles + 4 * apps.TILES * (apps.TILES - 1)
    err = float(np.max(np.abs(run.result - apps.reference(run.seed, run.iters))))
    rep.failed = abs(run.entry_calls - tiles - run.iters * per_iter)
    if not err < 1e-12:
        rep.failed = rep.attempted
    _throughput(rep, run.iter_times, calls / iters)
    _latency(rep, [run.iter_times], batch_len(run.iter_times))
    lay = rep.layers
    lay["time_to_solution_s"] = percentile(run.iter_times, 50) * apps.SOLVE_ITERS
    lay["langs.charm.entry_calls_per_iter"] = calls / iters
    lay["sim.virtual_us_per_msg"] = us((v1 - v0) / calls)
    _machine_layers(rep, d, stamps, run.entry_calls)
    if run.recs is not None:
        rep.spans = {pe: rec.rows for pe, rec in enumerate(run.recs)}
        _span_layers(rep, rep.spans, {
            "langs.charm.array_contribute": "langs.charm.array_contribute_us_p50",
            "langs.charm.invoke": "langs.charm.invoke_us_p50"})
        kernel = sum(e - s for rows in rep.spans.values()
                     for (n, s, e, _p, _o) in rows
                     if n == "user.kernel" and t0 <= s and e <= t1)
        lay["user.kernel_share"] = kernel / window
        lay["langs.charm.per_entry_us"] = us((window - kernel) / calls)
    return rep


# ----------------------------------------------------------------------
# stream_mp
# ----------------------------------------------------------------------

def rep_stream_mp(cfg: Dict[str, Any]) -> Rep:
    rep = Rep()
    npes = 4
    d = drive(npes, {"machine_backend": "mp"}, mains.stream_main,
              main_cfg(cfg, [cfg["seconds"]]))
    res = sorted(d.results, key=lambda r: r["pe"])
    _account(rep, d, res)
    handled = 0
    for i, r in enumerate(res):
        rep.failed += r["errors"]
        for j, sent in r["sent"].items():
            for phase, n in enumerate(sent):
                arrived, credited = res[j]["got_data"][i][phase], r["got_credit"][j][phase]
                rep.attempted += 2 * n
                rep.failed += abs(n - arrived) + abs(n - credited)
                handled += arrived + credited
    # One time line for the machine: every stamp, whichever PE took it,
    # marks STREAM_TICK more deliveries.  A batch boundary is off by at
    # most one tick per PE, so batches are 40 ms, not 10.
    stamps = sorted(t for r in res for t in r["ticks"])
    _throughput(rep, [b - a for a, b in zip(stamps, stamps[1:])],
                mains.STREAM_TICK, seconds=4 * BATCH_S)
    _latency(rep, [r["samples"][1] for r in res], 128)
    _machine_layers(rep, d, res, handled)
    if cfg["traced"]:
        rep.spans = {r["pe"]: r["spans"] for r in res}
        _span_layers(rep, rep.spans, {
            "core.api.CmiNew": "core.api.CmiNew_us_p50",
            "core.api.CmiSyncSend": "core.api.CmiSyncSend_us_p50"})
        gaps: List[float] = []
        for a in res:
            for b in res:
                if a is not b:
                    gaps.extend(transits(a["spans"], b["spans"], "core.api.CmiSyncSend",
                                         "user.handler").values())
        rep.layers["machine.transit_us_p50"] = us(percentile(gaps, 50))
        rep.layers["machine.transit_us_p99"] = us(percentile(gaps, 99))
    return rep


REPS: Dict[str, Callable[[Dict[str, Any]], Rep]] = {
    "pingpong_sim": rep_pingpong_sim,
    "pingpong_sim_reliable": rep_pingpong_sim_reliable,
    "csd_churn": rep_csd_churn,
    "cth_yield": rep_cth_yield,
    "jacobi_sim": rep_jacobi_sim,
    "pingpong_mp": rep_pingpong_mp,
    "stream_mp": rep_stream_mp,
}


def run_rep(cfg: Dict[str, Any]) -> Rep:
    """Run one repetition, then ``cfg["setups"]`` short ones in the same
    process for ``setup_s``, their ops counted with the rest.  An
    exception (``SimulationError``, ``WorkerDied``, a failed unpacking of
    a short result list, ...) comes back as ``Rep.error`` and the caller
    fails every op of the repetition."""
    try:
        run = REPS[cfg["workload"]]
        rep = run(cfg)
        rep.failed = min(rep.failed, rep.attempted)
        rep.layers["machine.first_setup_s"] = rep.wall_s - rep.busy_s
        short = dict(cfg, seconds=SETUP_WINDOW_S, traced=False)
        setups = []
        for _ in range(cfg.get("setups", 0)):
            extra = run(short)
            rep.attempted += extra.attempted
            rep.failed += min(extra.failed, extra.attempted)
            setups.append(extra.wall_s - extra.busy_s)
        if setups:
            rep.setup_s = statistics.median(setups)
        return rep
    except Exception:  # boundary: the benchmark must outlive the program
        text = traceback.format_exc()
        sys.stderr.write(text)
        return Rep(error=text)
