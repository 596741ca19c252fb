"""The solver blocks take a plan in the one form the solve holds it in.

Inside a solve, alpha is a tuple of per-S-UAV target bitmasks and beta a
tuple of 0/1 ints; an alpha matrix is built only where the plan leaves the
solver (orchestrator.SolverReport.alpha). So association.py, cover.py,
offload.py and placement.py name no Association and read no .alpha: a
block that took a matrix would unpack it again on every call, and a block
that returned one would have the next block pack it again.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "uav_mec"
BLOCKS = ("association.py", "cover.py", "offload.py", "placement.py")


def matrix_uses(source: str) -> list[str]:
    """Where source names Association (imported, as a variable or as a
    whole string) or reads an alpha attribute (also through getattr), as
    'Association, line N' or '.alpha, line N'."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if ((isinstance(node, ast.Attribute) and node.attr == "alpha")
                or (isinstance(node, ast.Constant) and node.value == "alpha")):
            out.append(f".alpha, line {node.lineno}")
        elif ((isinstance(node, ast.Name) and node.id == "Association")
              or (isinstance(node, ast.alias) and node.name == "Association")
              or (isinstance(node, ast.Constant)
                  and node.value == "Association")):
            out.append(f"Association, line {node.lineno}")
    return out


def test_blocks_take_and_return_bitmasks():
    for module in BLOCKS:
        found = matrix_uses((PACKAGE / module).read_text(encoding="utf-8"))
        assert found == [], (module, found)


def test_the_guard_flags_every_kind_of_use():
    source = ("from .scenario import Association\n"
              "def f(a):\n    return a.alpha\n"
              "def g(a):\n    return getattr(a, 'alpha')\n"
              "def h(mask) -> Association:\n    alpha = mask\n"
              "    return 'Association', alpha\n")
    assert sorted(matrix_uses(source)) == [
        ".alpha, line 3", ".alpha, line 5", "Association, line 1",
        "Association, line 6", "Association, line 8"]
