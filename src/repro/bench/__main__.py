"""Regenerate the paper's figures from the command line.

    python -m repro.bench                 # all five figures
    python -m repro.bench t3d myrinet_fm  # a subset, by model name
    python -m repro.bench --sizes 16 256 4096

Prints the same paper-vs-measured tables the benchmark suite produces
(without pytest-benchmark's wall-clock layer) — handy for eyeballing
model changes quickly.

The ``gate`` subcommand instead runs the pass/fail checks CI holds that
the repository benchmark (``perfbench/``, see its README) declares out
of scope — crash recovery, load balance, aggregation — by name and with
no flags (see :mod:`repro.bench.gates`):

    python -m repro.bench gate ft lb agg
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.bench import gates
from repro.bench.reporting import banner, series_table
from repro.bench.roundtrip import DEFAULT_SIZES, figure_series
from repro.sim.models import ALL_MODELS

#: figure number per machine, for the headers.
FIGURES = {
    "atm_hp": "Figure 4",
    "t3d": "Figure 5",
    "myrinet_fm": "Figure 6",
    "sp1": "Figure 7",
    "paragon": "Figure 8",
}

#: first-argument subcommands; anything else is the figure CLI.
SUBCOMMANDS = {"gate": gates.main}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the Converse paper's latency figures.",
    )
    parser.add_argument(
        "models", nargs="*", default=[], metavar="MODEL",
        help=f"machine models to run: {', '.join(sorted(FIGURES))} "
             "(default: all five)",
    )
    parser.add_argument(
        "--sizes", nargs="+", type=int, default=DEFAULT_SIZES,
        help="message sizes in bytes (default: 16B..64KB by octaves)",
    )
    parser.add_argument(
        "--reps", type=int, default=3,
        help="round trips averaged per size (default: 3)",
    )
    return parser


def main(argv: List[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    parser = _parser()
    args = parser.parse_args(argv)

    bad = [m for m in args.models if m not in FIGURES]
    if bad:
        parser.error(
            f"unknown model(s) {', '.join(bad)}; choose from "
            f"{', '.join(sorted(FIGURES))}"
        )
    names = args.models or sorted(FIGURES)
    for name in names:
        model = ALL_MODELS[name]
        include_queued = name == "myrinet_fm"  # the Figure 6 experiment
        series = figure_series(model, sizes=args.sizes, reps=args.reps,
                               include_queued=include_queued)
        print(banner(f"{FIGURES[name]}: {model.description}"))
        print(series_table(args.sizes, {k: v.us for k, v in series.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
