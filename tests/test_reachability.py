"""Every module under src/repro must be reached from an entry point.

The entry points are the three CLIs (``python -m repro.experiments``,
``repro.obs`` and ``repro.lint``) and every Python file under
``tools/``, ``benchmarks/``, ``perfbench/`` and ``examples/``.  The
graph is built statically from the import statements, with two rules
that keep it honest:

* ``from pkg import name`` resolves through ``pkg/__init__.py`` to the
  submodule that defines ``name``.  A package's re-exports are not
  followed on their own, so a module that only its package
  ``__init__`` imports counts as unreached.
* Imports under ``if TYPE_CHECKING:`` are annotations, not uses.

Tests are not entry points: a module that only tests import is dead
code with a test attached.
"""

from __future__ import annotations

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"

ENTRY_MODULES = ("repro.experiments.__main__", "repro.obs.__main__",
                 "repro.lint.__main__")
SCRIPT_DIRS = ("tools", "benchmarks", "perfbench", "examples")

#: Modules no import statement reaches on purpose, each with its reason.
ALLOWED_UNREACHED = {
    "repro.runtime.bench":
        "subprocess entry point: tools/bench_gate.py runs it with python -m",
    "repro.apps.sherman.validate":
        "test oracle: the Sherman tree tests check invariants with it",
}


def _module_files() -> dict[str, pathlib.Path]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()
PACKAGES = {name for name, path in MODULES.items()
            if path.name == "__init__.py"}


def _absolute(module: str, node: ast.ImportFrom) -> str:
    """The absolute module an ``ImportFrom`` in ``module`` names."""
    if not node.level:
        return node.module or ""
    package = module if module in PACKAGES else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _runtime_nodes(tree: ast.AST):
    """Every node, skipping the bodies of ``if TYPE_CHECKING:``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _imports(path: pathlib.Path, module: str = ""):
    """``(requests, reexports)`` of one file.  A request is ``(module,
    name)``, ``name`` None for a whole-module import.  In a package
    ``__init__``, module-level ``from`` imports are re-exports, keyed by
    the bound name, and are followed only when a caller asks for it."""
    tree = ast.parse(path.read_text(), str(path))
    top_level = {id(node) for node in tree.body}
    is_package = module in PACKAGES
    requests, reexports = [], {}
    for node in _runtime_nodes(tree):
        if isinstance(node, ast.Import):
            requests.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(module, node)
            for alias in node.names:
                if is_package and id(node) in top_level:
                    reexports[alias.asname or alias.name] = (source, alias.name)
                else:
                    requests.append((source, alias.name))
    return requests, reexports


def reached_modules() -> set[str]:
    parsed = {name: _imports(path, name) for name, path in MODULES.items()}
    reached: set[str] = set()
    pending: list[tuple[str, str | None]] = []

    def visit(module: str) -> None:
        parts = module.split(".")
        for i in range(1, len(parts) + 1):   # importing runs the parents
            prefix = ".".join(parts[:i])
            if prefix in MODULES and prefix not in reached:
                reached.add(prefix)
                pending.extend(parsed[prefix][0])

    for module in ENTRY_MODULES:
        visit(module)
    for directory in SCRIPT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            pending.extend(_imports(path)[0])
    seen: set[tuple[str, str | None]] = set()
    while pending:
        request = pending.pop()
        if request in seen:
            continue
        seen.add(request)
        module, name = request
        if name is not None and f"{module}.{name}" in MODULES:
            module, name = f"{module}.{name}", None
        visit(module)
        reexport = parsed.get(module, ((), {}))[1].get(name)
        if reexport is not None:
            pending.append(reexport)
    return reached


def test_every_src_module_is_reached_from_an_entry_point():
    unreached = sorted(set(MODULES) - reached_modules()
                       - set(ALLOWED_UNREACHED))
    assert not unreached, (
        "modules no experiment, tool, benchmark, perfbench workload or "
        f"example imports (delete them, or wire them in): {unreached}")


def test_allow_list_names_only_live_unreached_modules():
    reached = reached_modules()
    for module in ALLOWED_UNREACHED:
        assert module in MODULES, f"{module} no longer exists"
        assert module not in reached, f"{module} is reached; drop it"


def test_reexport_alone_does_not_reach():
    """``from repro.defense import HarmonicDetector`` reaches
    ``repro.defense.harmonic``, not the package's other re-exports."""
    requests, reexports = _imports(MODULES["repro.defense"], "repro.defense")
    assert reexports["HarmonicDetector"] == (
        "repro.defense.harmonic", "HarmonicDetector")
    assert not requests
