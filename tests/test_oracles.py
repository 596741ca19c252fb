"""The brute-force oracles stay independent of the solver blocks they judge."""

import ast
from pathlib import Path

from uav_mec import oracles

SOLVER_MODULES = {"offload", "placement", "association", "orchestrator",
                  "cover"}


def imported_names(tree: ast.AST):
    """Every dotted name an import statement in tree reads: the module and,
    for a from-import, each name taken from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_oracles_import_no_solver_block():
    tree = ast.parse(Path(oracles.__file__).read_text())
    solver = sorted(name for name in imported_names(tree)
                    if SOLVER_MODULES & set(name.split(".")))
    assert solver == []
