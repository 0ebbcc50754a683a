"""Every ``src/repro`` module is reachable from an entry point.

A module that only its own tests import is code nobody runs.  This test
builds the static import graph from the repository's entry points
(``bench/``, ``benchmarks/``, ``examples/`` and ``repro.experiments.cli``,
the ``gdwheel-repro`` script) and fails on any module the graph does not
reach.

Imports are read with :mod:`ast`, wherever they sit in a file (function
bodies included).  A name imported from a package resolves to the module
that defines it, following the package's own re-exports, so a package
``__init__`` that re-exports a module does not by itself make that module
reachable.  Package ``__init__`` files are not checked themselves: importing
any submodule runs them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_DIRS = ("bench", "benchmarks", "examples")
ENTRY_MODULES = ("repro.experiments.cli",)

#: modules allowed to stay unreachable; keep it empty
ALLOWED_UNREACHABLE = frozenset()


def module_path(name):
    """The source file of ``repro...`` module ``name``, or None."""
    base = SRC.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def is_package(name):
    path = module_path(name)
    return path is not None and path.name == "__init__.py"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_names(tree):
    """``(module, name)`` pairs a file imports; ``name`` None for ``import m``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                yield node.module, alias.name


def package_source(package, name):
    """Where ``package/__init__.py`` gets ``name`` from.

    Returns the submodule ``package.name``, the module the ``__init__``
    re-exports ``name`` from, or the package itself when it defines
    ``name`` (or the name cannot be traced).
    """
    if module_path(f"{package}.{name}") is not None:
        return f"{package}.{name}", None
    for node in parse(module_path(package)).body:
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return node.module, alias.name
    return package, None


def reachable_modules():
    roots = [path for d in ENTRY_DIRS for path in (ROOT / d).rglob("*.py")]
    pending = [pair for path in roots for pair in imported_names(parse(path))]
    pending += [(name, None) for name in ENTRY_MODULES]
    reached = set()
    seen = set()
    while pending:
        module, name = pending.pop()
        if (module, name) in seen or not module.startswith("repro"):
            continue
        seen.add((module, name))
        if module_path(module) is None:
            continue
        if name is not None and is_package(module):
            source, source_name = package_source(module, name)
            if source != module:
                pending.append((source, source_name))
                continue
        if module not in reached:
            reached.add(module)
            pending.extend(imported_names(parse(module_path(module))))
    return reached


def all_modules():
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }


def test_every_module_is_reachable_from_an_entry_point():
    unreached = all_modules() - reachable_modules() - ALLOWED_UNREACHABLE
    assert not unreached, (
        "modules no entry point imports: " + ", ".join(sorted(unreached))
    )
