"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the parent (or the first of two sets of the same commit), B the
change; ``run.py --against`` and ``--repeat-check`` write the pair with
the runs of the two sides alternating, so value *k* of A and value *k*
of B are one pair.  One row per workload and end-to-end metric, with
both medians, both quartile pairs, both run counts and the base of every
ratio.  The verdict follows section 8 of the ``choosing-metrics`` guide:

unresolved
    either side has fewer than two runs, or the spread of either side
    (quartile distance) is wider than the metric's bound in
    ``BENCHMARK.json``: the runs cannot tell.  Tested first, and never
    reported as "unchanged" or as a regression.
regressed
    B's median is worse than A's by more than the bound, or B failed a
    larger share of its ops.
improved
    B wins at least nine tenths of the pairs (ties counting for neither
    side, at least ten pairs) and the medians differ by more than A's own
    quartile distance.
unchanged
    none of the above.

The bound is a share of A's median; for ``setup_s`` it is that or
``SETUP_FLOOR_S`` seconds, whichever is larger, because a simulator
machine sets up in about 10 ms and a quarter of that is noise.

Exit status: 1 if any row regressed (with ``--strict``: or is
unresolved), 2 if a workload is missing from either file, else 0.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

MIN_PAIRS = 10
WIN_SHARE = 0.9
SETUP_FLOOR_S = 0.05


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, in the metric's unit;
    negative when it is better."""
    return a - b if better == "higher" else b - a


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float,
            floor: float = 0.0) -> str:
    """``bound`` is a share of ``a``'s median, ``floor`` the least it
    stands for in the metric's unit."""
    if a.get("n", 0) < 2 or b.get("n", 0) < 2:
        return "unresolved"
    allowed = max(bound * abs(a["median"]), floor)
    if max(a["q3"] - a["q1"], b["q3"] - b["q1"]) > allowed:
        return "unresolved"
    if worse_by(a["median"], b["median"], better) > allowed:
        return "regressed"
    pairs = list(zip(a["values"], b["values"]))
    wins = sum(1 for x, y in pairs if worse_by(x, y, better) < 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(a["median"] - b["median"]) > a["q3"] - a["q1"]):
        return "improved"
    return "unchanged"


def compare(spec: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Rows for every workload of ``a`` and ``b``, which must hold the
    same workloads (``KeyError`` names the one that is missing)."""
    rows: List[Dict[str, Any]] = []
    for workload in list(a["workloads"]) + [w for w in b["workloads"]
                                           if w not in a["workloads"]]:
        row_a, row_b = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sa, sb = row_a["end_to_end"][name], row_b["end_to_end"][name]
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": sa, "b": sb,
                "ratio": sb["median"] / sa["median"] if sa.get("median") and sb.get("n") else 0.0,
                "verdict": verdict(sa, sb, metric["better"], metric["bound"],
                                   SETUP_FLOOR_S if name == "setup_s" else 0.0),
            })
        fa, fb = row_a["failed_ops_ratio"], row_b["failed_ops_ratio"]
        rows.append({
            "workload": workload, "metric": "failed_ops_ratio", "unit": "ratio",
            "a": {"median": fa, "n": 1}, "b": {"median": fb, "n": 1},
            "ratio": 0.0,
            "verdict": "regressed" if fb > fa else "unchanged",
        })
    return rows


def render(rows: Sequence[Dict[str, Any]]) -> str:
    def cell(s: Dict[str, Any]) -> str:
        if not s.get("n"):
            return "no data"
        return (f"{s['median']:.4g} [{s.get('q1', s['median']):.4g}, "
                f"{s.get('q3', s['median']):.4g}] n={s['n']}")

    lines = [f"{'workload':<22} {'metric':<17} {'A median [q1, q3]':<36} "
             f"{'B median [q1, q3]':<36} {'B/A':>7}  verdict"]
    for r in rows:
        base = f"{r['ratio']:.3f}" if r["ratio"] else "-"
        lines.append(f"{r['workload']:<22} {r['metric']:<17} {cell(r['a']):<36} "
                     f"{cell(r['b']):<36} {base:>7}  {r['verdict']}")
    lines.append("B/A is B's median over A's median (base: A, in the metric's unit).")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None, strict: bool = False) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--strict" in argv:
        strict = True
        argv = [arg for arg in argv if arg != "--strict"]
    if len(argv) != 2:
        sys.stderr.write("usage: compare.py [--strict] A.json B.json\n")
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    try:
        rows = compare(spec, *results)
    except KeyError as exc:
        sys.stderr.write(f"compare.py: {exc} is in one result file and not in the other\n")
        return 2
    print(render(rows))
    bad = ("regressed", "unresolved") if strict else ("regressed",)
    failing = [r for r in rows if r["verdict"] in bad]
    for r in failing:
        print(f"{r['verdict'].upper()}: {r['metric']} on {r['workload']}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
