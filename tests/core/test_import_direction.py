"""Which way the imports point: nothing above the machine interface
imports the simulator.

The paper's portability claim is that everything above the CMI is
machine-independent.  Here that is a rule about modules: the simulator
(``repro.sim``) is one machine layer among others, reached through the
layer registry by name; what every layer shares lives in neutral
modules (``repro.machine.interface``, ``repro.machine.faults``,
``repro.core.context``).  A module that wants an exception has to add
itself to the literal list below, in a test whose only job is to say so.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: who may ``import repro.sim``: the simulator itself, the benchmark and
#: trace-demo programs that are *about* the simulator, and the package
#: front door that re-exports ``Machine`` and the paper's cost models.
MAY_IMPORT_SIM = ("sim/", "bench/", "trace/cli.py", "__init__.py")

#: the layer registry names the simulator's module as a string.
MAY_NAME_SIM = MAY_IMPORT_SIM + ("machine/base.py",)

#: names that left ``repro.sim`` for a neutral module.  One stays
#: importable from its old home only where that module itself uses it.
MOVED_OUT = {
    "repro.sim.network": {"NetworkStats", "FaultSpec", "FaultStats", "CrashSpec"},
    "repro.sim.node": {"NodeStats"},
    "repro.sim.console": {"ConsoleRecord"},
}


def _imports(path: Path):
    """Every module a file imports, function-level imports included, as
    ``(lineno, absolute dotted name)``; ``from a import b`` yields both
    ``a`` and ``a.b`` since ``b`` may be a submodule."""
    package = ("repro",) + path.relative_to(SRC).parts[:-1]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = list(package[:len(package) - node.level + 1]) if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def _allowed(rel: str, allow) -> bool:
    return any(rel == a or (a.endswith("/") and rel.startswith(a)) for a in allow)


def test_only_the_listed_modules_import_the_simulator():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if _allowed(rel, MAY_IMPORT_SIM):
            continue
        offenders += [
            f"{rel}:{lineno}: imports {name}"
            for lineno, name in _imports(path)
            if name == "repro.sim" or name.startswith("repro.sim.")
        ]
    assert not offenders, "\n".join(offenders)


def test_only_the_registry_names_the_simulator_as_a_string():
    # importlib.import_module("repro.sim...") would walk around the AST
    # check above; the registry entry is the one sanctioned spelling.
    literal = re.compile(r"""["']repro\.sim[."']""")
    offenders = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if literal.search(path.read_text())
        and not _allowed(path.relative_to(SRC).as_posix(), MAY_NAME_SIM)
    ]
    assert not offenders


def test_context_left_the_simulator_without_a_shim():
    assert not (SRC / "sim" / "context.py").exists()
    assert importlib.util.find_spec("repro.sim.context") is None
    from repro.core import context

    assert callable(context.bind_node)
    assert not hasattr(context, "_set_inline_node")


def test_moved_names_are_not_re_exported_from_the_simulator():
    for module, names in MOVED_OUT.items():
        namespace = vars(importlib.import_module(module))
        assert not names & set(namespace), (module, names & set(namespace))
