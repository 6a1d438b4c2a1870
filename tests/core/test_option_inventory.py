"""An inventory of everything a user can set: environment variables,
``Machine(...)`` keywords and the ``python -m repro.bench`` command line.

Each independently settable value multiplies the configurations the
test and benchmark matrices must cover, so adding one is a decision,
not a side effect: a PR that introduces a knob has to edit the literal
sets below, in a test whose only job is to say so.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro.bench import __main__ as bench_cli, gates
from repro.machine.base import MACHINE_LAYERS, MachineConfig

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

ENV_VARS = {"REPRO_SIM_BACKEND", "REPRO_MACHINE_BACKEND", "REPRO_MP_START_METHOD"}

#: the keywords every machine layer shares (MachineConfig's fields).
SHARED = {
    "num_pes", "model", "queue", "ldb", "trace", "echo", "seed", "faults",
    "reliable", "backend", "metrics", "aggregation", "ft", "pool", "inline",
    "machine_backend",
}

#: keywords a layer adds on top of the shared table.
EXTRAS = {
    "sim": set(),
    "mp": {"timeout", "start_method", "watch", "health_interval"},
}

#: ``python -m repro.bench``: first-argument subcommands, the names
#: ``gate`` accepts, and the flags of each parser.
BENCH_SUBCOMMANDS = {"gate"}
BENCH_GATES = {"ft", "ft-mp", "lb", "lb-powerlaw", "agg"}
BENCH_FIGURE_FLAGS = {"--sizes", "--reps"}
BENCH_GATE_FLAGS = set()


def test_env_var_inventory():
    found = set()
    for path in SRC.rglob("*.py"):
        found |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert found == ENV_VARS


def test_machine_config_fields_are_the_shared_keywords():
    assert {f.name for f in dataclasses.fields(MachineConfig)} == SHARED


def test_every_registered_layer_is_inventoried():
    assert set(MACHINE_LAYERS) == set(EXTRAS)


@pytest.mark.parametrize("layer", sorted(EXTRAS))
def test_layer_keywords_are_shared_plus_declared_extras(layer):
    """A layer's constructor names its extras explicitly and forwards
    everything else to ``MachineConfig``, whose own signature rejects
    names outside the shared table — so the layer's keyword set is
    exactly the union checked here."""
    cls = MACHINE_LAYERS[layer].load()
    params = inspect.signature(cls.__init__).parameters.values()
    kinds = {p.kind for p in params}
    assert inspect.Parameter.VAR_KEYWORD in kinds, "shared keywords not forwarded"
    named = {p.name for p in params
             if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)} - {"self"}
    assert named - SHARED == EXTRAS[layer]
    assert set(cls.restricted_options) <= SHARED
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        cls(1, csd_batch=4)


def _flags(parser):
    return {flag for action in parser._actions
            for flag in action.option_strings} - {"-h", "--help"}


def test_bench_cli_inventory():
    assert set(bench_cli.SUBCOMMANDS) == BENCH_SUBCOMMANDS
    assert set(gates.GATES) == BENCH_GATES
    assert _flags(bench_cli._parser()) == BENCH_FIGURE_FLAGS
    assert _flags(gates._parser()) == BENCH_GATE_FLAGS
