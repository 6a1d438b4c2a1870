"""Child process: one repetition of one workload, on one CPU.

``run.py`` starts this file once per repetition with a JSON configuration
as its only argument.  The child pins itself to the first CPU it is
allowed before it imports ``repro`` (``mp`` workers inherit the mask),
runs the repetition and prints one JSON object on its last line.

``setup_s`` is everything a user waits for around a run that is not the
program doing its work: machine construction, spawn, launch, the
quiescence drain, ``results()`` and ``shutdown()``.  It is the time from
before ``Machine(...)`` to after ``shutdown()``, minus the time the mains
spent between their entry and their last stamp, read off short machines
built after the measured one (``workloads.SETUP_WINDOW_S``).  What the
first machine of a process pays on top, and ``import repro``, are timed
too but reported apart, as the layer metrics ``machine.first_setup_s``
and ``repro.import_s``.

A fixed pure-Python loop is timed just before and just after the
repetition.  ``host_ns`` says how fast the host was then; it is what
tells a slow host from a slow program when two repetitions disagree.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def pyloop_ns() -> float:
    """Nanoseconds per iteration of a fixed loop: the fastest of five
    batches of 20,000, about 10 ms in all."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(20_000):
            acc += i * i & 0xFF
        best = min(best, (time.perf_counter_ns() - t0) / 20_000)
    return best


def main(argv: list) -> int:
    cfg = json.loads(argv[1])
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t0 = time.monotonic()
    import repro  # noqa: F401
    import_s = time.monotonic() - t0
    import workloads

    host_ns = [pyloop_ns()]
    rep = workloads.run_rep(cfg)
    host_ns.append(pyloop_ns())
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "attempted": rep.attempted,
        "failed": rep.failed,
        "error": rep.error,
        "host_ns": host_ns,
        "e2e": {
            "quiet_msgs_per_s": rep.quiet_msgs_per_s,
            "quiet_op_us_p50": rep.quiet_op_us_p50,
            "setup_s": rep.setup_s,
            # ru_maxrss is KiB on Linux; the second term is the largest
            # worker process the child has waited for.
            "peak_rss_mb": (own + workers) / 1024.0,
        },
        "layers": dict(rep.layers, **{"repro.import_s": import_s,
                                      "native.pyloop_ns": min(host_ns)}),
    }
    if rep.spans:
        from spans import write_jsonl

        path = os.path.join(cfg["out_dir"], f"trace-{cfg['workload']}.jsonl")
        out["trace_file"] = path
        out["trace_spans"] = write_jsonl(path, rep.spans, limit=cfg["trace_limit"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
