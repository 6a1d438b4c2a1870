"""The repository's benchmark: one command, every workload, every metric.

Two ways in:

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload, as the benchmark driver calls it.  The last
    line of standard output is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
    ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
    ``--trace 1``.

``python3 perfbench/run.py [--workloads a,b] [--runs K] [--traced] ...``
    ``K`` such runs of every workload, a table of every metric by name
    with its unit, and a result file under ``perfbench/out/``.
    ``--against DIR`` measures the program of another checkout with this
    benchmark, its runs alternating with this checkout's, and hands both
    result files to ``compare.py``; ``--repeat-check`` does the same with
    this checkout on both sides.

Either way each repetition is a fresh child process (``child.py``) pinned
to one CPU, with every ``REPRO_*`` variable removed from its environment
and a wall-clock deadline: a hung run becomes failed ops, not a hung
benchmark.  ``--seconds`` is the measured time of a run; it is shared
equally among the run's repetitions, which all get the run's seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: repetitions of a ``--trace 0`` run: 2 s each at ``run_seconds`` 12
REPS = 6
#: short machines each of them builds after the measured one, for ``setup_s``
SETUPS = 3
#: ops charged, all failed, to a repetition that raised, died or overran
#: its deadline before it could count its own
NOMINAL_OPS = 1000
#: most spans written per PE to ``out/trace-<workload>.jsonl``
TRACE_LIMIT = 20000
#: virtual time per message is a property of the cost model and the
#: inputs; repetitions may differ by float rounding only
VIRTUAL_TIME_RTOL = 1e-9

#: extra repetitions of a ``--trace 1`` run, after the plain one and the
#: one with spans: (label, workload, extra configuration)
EXTRA_PASSES: Dict[str, List[Tuple[str, str, Dict[str, Any]]]] = {
    "pingpong_sim_reliable": [
        ("counters", "pingpong_sim_reliable", {"counters": True}),
        ("on_mp", "pingpong_sim_reliable", {"on_mp": True}),
        ("ref", "pingpong_sim", {}),
    ],
    "pingpong_mp": [("observed", "pingpong_mp", {"observed": True})],
}


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def src_of(checkout: str) -> str:
    return os.path.join(os.path.abspath(checkout), "src")


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

def child_env(src: str, seed: int) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([src, HERE])
    # mp trace spools and probe files stay inside the checkout
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # the same seed gives the same run, down to the order of its dicts
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def run_child(args: Sequence[str], env: Dict[str, str],
              deadline_s: float) -> Optional[Dict[str, Any]]:
    """Run ``python <args>`` in its own process group, wait for it, and
    return the JSON object on its last line; ``None`` if it overran the
    deadline, died or printed none.  The whole group is gone on return."""
    proc = subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: child overran {deadline_s:.0f}s deadline\n")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        stdout = ""
    finally:
        _clear_group(proc.pid)
    if proc.returncode != 0:
        sys.stderr.write(f"perfbench: child exited with {proc.returncode}\n")
        return None
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _clear_group(pgid: int) -> None:
    """SIGKILL whatever outlived a child in its process group (``mp``
    workers of a child that hung) and wait until the group is empty."""
    end = time.monotonic() + 10
    while time.monotonic() < end:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_rep(src: str, workload: str, seed: int, seconds: float,
            traced: bool = False, tag: str = "rep",
            **extra: Any) -> Optional[Dict[str, Any]]:
    cfg = {"workload": workload, "seed": seed, "seconds": seconds,
           "traced": traced, "out_dir": OUT, "tag": tag,
           "trace_limit": TRACE_LIMIT}
    cfg.update(extra)
    return run_child([os.path.join(HERE, "child.py"), json.dumps(cfg)],
                     child_env(src, seed), deadline_s=3 * seconds + 30)


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------

class Tally:
    """Ops attempted and failed over the repetitions of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, rep: Optional[Dict[str, Any]]) -> bool:
        """Count one repetition; True when it produced numbers."""
        if rep is None or rep["error"]:
            self.attempted += NOMINAL_OPS
            self.failed += NOMINAL_OPS
            return False
        self.attempted += rep["attempted"]
        self.failed += rep["failed"]
        return True

    def check_virtual_time(self, per_msg: Sequence[float]) -> None:
        """One more op: the simulator's virtual time per message is the
        same in every repetition."""
        if per_msg:
            self.attempted += 1
            if max(per_msg) - min(per_msg) > VIRTUAL_TIME_RTOL * max(per_msg):
                sys.stderr.write(f"perfbench: virtual time per message moved: {per_msg}\n")
                self.failed += 1


def run_value(name: str, values: Sequence[float]) -> float:
    """What a run reports for an end-to-end metric, given one value per
    repetition.  The ``quiet_*`` metrics already look, inside a
    repetition, for the batches the host left alone; across repetitions
    they go on looking and take the best one, because on a shared host a
    whole repetition is often slowed from end to end (README, "What
    selects the slow mode").  ``setup_s``, the median of a repetition's
    short machines, is taken from the best repetition for the same
    reason.  ``peak_rss_mb`` is the median."""
    if name == "quiet_msgs_per_s":
        return max(values)
    if name in ("quiet_op_us_p50", "setup_s"):
        return min(values)
    return statistics.median(values)


def end_to_end(src: str, workload: str, seed: int, seconds: float,
               reps: int = REPS) -> Tuple[Tally, Dict[str, float], List[float]]:
    """``reps`` plain repetitions.  Returns the tally, every end-to-end
    metric read off the repetitions that produced numbers, and the host
    calibration taken before and after each."""
    tally = Tally()
    values: Dict[str, List[float]] = {}
    virtual: List[float] = []
    host_ns: List[float] = []
    for i in range(reps):
        rep = run_rep(src, workload, seed, seconds / reps, tag=f"rep{i}",
                      setups=SETUPS)
        if tally.add(rep):
            for name, value in rep["e2e"].items():
                values.setdefault(name, []).append(value)
            host_ns += rep["host_ns"]
            if "sim.virtual_us_per_msg" in rep["layers"]:
                virtual.append(rep["layers"]["sim.virtual_us_per_msg"])
    tally.check_virtual_time(virtual)
    return tally, {n: run_value(n, v) for n, v in values.items()}, host_ns


def run_probes(src: str, seed: int) -> Optional[Dict[str, float]]:
    return run_child([os.path.join(HERE, "probes.py"), OUT],
                     child_env(src, seed), deadline_s=60)


def per_layer(src: str, workload: str, seed: int, seconds: float,
              names: Sequence[str], probes: Optional[Dict[str, float]]
              ) -> Tuple[Tally, Dict[str, float], str]:
    """One plain repetition, one with the benchmark's spans on, and the
    extra passes the workload's ratios need; ``probes`` are the numbers
    of ``probes.py`` (``None``: it failed).  Returns the tally, a value
    for every name in ``names`` (0 where the workload does not exercise
    the layer) and the round-trip budget line."""
    passes = [("plain", workload, {}), ("spans", workload, {"traced": True})]
    passes += EXTRA_PASSES.get(workload, [])
    tally = Tally()
    got: Dict[str, Dict[str, Any]] = {}
    for label, wl, extra in passes:
        rep = run_rep(src, wl, seed, seconds / len(passes), tag=label, **extra)
        if tally.add(rep):
            got[label] = rep
    virtual = [got[label]["layers"].get("sim.virtual_us_per_msg")
               for label in ("plain", "spans") if label in got]
    tally.check_virtual_time([v for v in virtual if v is not None])
    if probes is None:
        tally.attempted += 1
        tally.failed += 1
        probes = {}

    out = dict.fromkeys(names, 0.0)
    plain, spans = got.get("plain"), got.get("spans")
    for rep in (spans, plain):  # plain wins where both have a number
        if rep is not None:
            out.update(rep["layers"])
    out.update(probes)

    def rate(label: str) -> float:
        return got[label]["e2e"]["quiet_msgs_per_s"] if label in got else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["bench.span_overhead_ratio"] = ratio(rate("plain"), rate("spans"))
    if workload == "pingpong_sim_reliable":
        out["machine.cmi.rel.overhead_ratio"] = ratio(rate("ref"), rate("plain"))
        out["machine.cmi.rel.mp_msgs_per_s"] = rate("on_mp")
        if "counters" in got:
            for key in ("machine.cmi.rel.retransmits", "machine.cmi.rel.acks_per_msg"):
                out[key] = got["counters"]["layers"][key]
    if plain and "observed" in got:
        seen = got["observed"]["layers"]
        out["tracing.overhead_ratio"] = ratio(rate("plain"), rate("observed"))
        out["tracing.events_per_msg"] = seen["tracing.events_per_msg"]
        out["tracing.merge_s"] = (seen["machine.shutdown_s"]
                                  - plain["layers"]["machine.shutdown_s"])
    if out.get("machine.mp.worker_cpu_us_per_msg"):  # the run had mp workers
        key, floor = "machine.mp.vs_native_ratio", "native.socket_relay_rtt_us_p50"
    else:
        key, floor = "sim.vs_native_ratio", "native.queue_rtt_us_p50"
    out[key] = ratio(out.get("rtt_us_p50", 0.0), out.get(floor, 0.0))
    return tally, {name: float(out[name]) for name in names}, budget_line(spans)


def budget_line(spans: Optional[Dict[str, Any]]) -> str:
    """With one ball in flight nothing overlaps, so a round trip is twice
    (handler self + CmiNew + CmiSyncSend + transit); say how close the
    medians of the traced pass come to its own round-trip median."""
    lay = spans["layers"] if spans else {}
    if not lay.get("machine.transit_us_p50") or not lay.get("rtt_us_p50"):
        return ""
    parts = [lay["user.handler_self_us_p50"], lay["core.api.CmiNew_us_p50"],
             lay["core.api.CmiSyncSend_us_p50"], lay["machine.transit_us_p50"]]
    total = 2 * sum(parts)
    return ("budget: 2 x (handler_self {:.1f} + CmiNew {:.1f} + CmiSyncSend {:.1f}"
            " + transit {:.1f}) = {:.1f} us = {:.0%} of the traced pass's"
            " rtt_us_p50 {:.1f} us").format(*parts, total, total / lay["rtt_us_p50"],
                                            lay["rtt_us_p50"])


def driver_run(spec: Dict[str, Any], workload: str, seed: int, seconds: float,
               trace: bool) -> Dict[str, Any]:
    """The object the driver reads from the last line."""
    src = src_of(ROOT)
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        tally, values, budget = per_layer(src, workload, seed, seconds, list(units),
                                          run_probes(src, seed))
        if budget:
            print(budget)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        tally, values, _host = end_to_end(src, workload, seed, seconds)
    return {"correct": tally.failed == 0, "attempted": max(1, tally.attempted),
            "failed": tally.failed,
            "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                        for name, unit in units.items()}}


# ----------------------------------------------------------------------
# every workload: the table and the result files
# ----------------------------------------------------------------------

def summary(values: Sequence[float]) -> Dict[str, Any]:
    out: Dict[str, Any] = {"values": list(values), "n": len(values)}
    if values:
        out["median"] = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def host_meta(src: str, seed: int, seconds: float, runs: int) -> Dict[str, Any]:
    cpus = sorted(os.sched_getaffinity(0))
    return {"seed": seed, "seconds": seconds, "runs": runs, "reps_per_run": REPS,
            "cpu_pinned": cpus[0], "cpus_allowed": cpus, "nproc": os.cpu_count(),
            "kernel": platform.release(), "python": platform.python_version(),
            "src": src, "git_sha": _git_sha(os.path.dirname(src))}


def _git_sha(checkout: str) -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository


def full_sets(spec: Dict[str, Any], srcs: Sequence[str], workloads: Sequence[str],
              seed: int, seconds: float, runs: int, traced: bool
              ) -> List[Dict[str, Any]]:
    """``runs`` runs (seeds ``seed``, ``seed + 1``, ...) of every workload
    for each program in ``srcs``; with two programs, which of them goes
    first alternates from run to run.  One value per run and metric is
    kept.  ``traced`` adds the per-layer pass, for the last program."""
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    results = [{"meta": host_meta(src, seed, seconds, runs), "workloads": {}}
               for src in srcs]
    probes = run_probes(srcs[-1], seed) if traced else None
    sides = list(range(len(srcs)))
    for workload in workloads:
        tallies = [Tally() for _ in srcs]
        values: List[Dict[str, List[float]]] = [{} for _ in srcs]
        host_ns: List[List[float]] = [[] for _ in srcs]
        for run in range(runs):
            for side in (sides if run % 2 == 0 else sides[::-1]):
                t, medians, host = end_to_end(srcs[side], workload, seed + run, seconds)
                tallies[side].attempted += t.attempted
                tallies[side].failed += t.failed
                host_ns[side] += host
                for name, value in medians.items():
                    values[side].setdefault(name, []).append(value)
        for side, result in enumerate(results):
            tally = tallies[side]
            row: Dict[str, Any] = {
                "attempted": tally.attempted, "failed": tally.failed,
                "failed_ops_ratio": tally.failed / max(1, tally.attempted),
                "host_ns": summary(host_ns[side]),
                "end_to_end": {n: summary(values[side].get(n, [])) for n in e2e_units}}
            result["workloads"][workload] = row
            print(f"\n== {workload} ({result['meta']['src']}): "
                  f"{tally.failed} failed of {tally.attempted} ops")
            for name, unit in e2e_units.items():
                s = row["end_to_end"][name]
                print(f"  {name:<44} {s.get('median', 0.0):>14.4f} {unit:<6}"
                      f" q1 {s.get('q1', 0.0):.4f} q3 {s.get('q3', 0.0):.4f} n {s['n']}")
        if traced:
            row = results[-1]["workloads"][workload]
            t, layers, budget = per_layer(srcs[-1], workload, seed, seconds,
                                          list(layer_units), probes)
            row.update(per_layer=layers, layer_failed=t.failed, budget=budget)
            for name, unit in layer_units.items():
                if layers[name]:
                    print(f"  {name:<44} {layers[name]:>14.4f} {unit}")
            if budget:
                print("  " + budget)
    return results


def write_result(result: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {os.path.relpath(path, ROOT)}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="driver mode: run this one workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="driver mode: 1 prints the per-layer metrics")
    ap.add_argument("--seed", type=int, default=1996)
    ap.add_argument("--seconds", type=float, help="measured seconds per run "
                    "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--runs", type=int, help=f"runs per workload ({REPS} repetitions "
                    "each); default 1, 3 with --repeat-check, 10 with --against")
    ap.add_argument("--traced", action="store_true",
                    help="add the per-layer pass to a full set")
    ap.add_argument("--smoke", action="store_true",
                    help="tenth-size windows; for the self-test only")
    ap.add_argument("--out", help="result file (default: perfbench/out/result.json)")
    ap.add_argument("--against", metavar="DIR", help="also measure the program of the "
                    "checkout DIR (the parent), runs alternating, then compare.py")
    ap.add_argument("--repeat-check", action="store_true",
                    help="two sets of this checkout, runs alternating, then compare.py; "
                    "fails unless every row reads unchanged")
    args = ap.parse_args(argv)

    base = src_of(args.against or ROOT)
    for src in {src_of(ROOT), base}:
        if not os.path.isdir(os.path.join(src, "repro")):
            sys.stderr.write(f"perfbench: no program to measure under {src}\n")
            return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.smoke:
        seconds /= 10
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)

    if args.workload:
        if args.workload not in names:
            sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
            return 2
        print(json.dumps(driver_run(spec, args.workload, args.seed, seconds,
                                    bool(args.trace))))
        return 0

    chosen = args.workloads.split(",") if args.workloads else names
    unknown = [w for w in chosen if w not in names]
    if unknown:
        sys.stderr.write(f"perfbench: unknown workloads {unknown}\n")
        return 2
    out = args.out or os.path.join(OUT, "result.json")
    comparing = bool(args.against or args.repeat_check)
    runs = args.runs or (10 if args.against else 3 if args.repeat_check else 1)
    srcs = [base, src_of(ROOT)] if comparing else [src_of(ROOT)]
    results = full_sets(spec, srcs, chosen, args.seed, seconds, runs, args.traced)
    write_result(results[-1], out)
    if not comparing:
        return 0
    root, ext = os.path.splitext(out)
    write_result(results[0], f"{root}.base{ext}")
    import compare

    return compare.main([f"{root}.base{ext}", out], strict=args.repeat_check)


if __name__ == "__main__":
    sys.exit(main())
