"""Every top-level function and class in the package is reached by code.

Code that only tests reach goes (ROADMAP aim 2), so each top-level name in
src/uav_mec/ must be named by some code in src/, scripts/ or perfbench/
outside its own definition. A name counts where it is read (a name or an
attribute), imported, or written out as a whole string, as perfbench's
tracer names the functions it wraps; a docstring or comment does not count.
oracles.py is exempt: its functions are references that tests call. A
re-export in uav_mec/__init__.py is not a use.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXEMPT = {"__init__.py", "oracles.py"}


def _names(tree: ast.AST) -> Counter:
    """How often each identifier is named in tree's code."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out[node.value] += 1
    return out


def unreached(root: Path) -> list[str]:
    """'file:line name' of every top-level definition in root's package
    that no code names outside the definition itself."""
    package = root / "src" / "uav_mec"
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for d in ("src", "scripts", "perfbench")
             for p in sorted((root / d).rglob("*.py"))
             if p != package / "__init__.py"}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name in EXEMPT:
            continue
        for node in trees[path].body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and named[node.name] == _names(node)[node.name]):
                out.append(f"{path.name}:{node.lineno} {node.name}")
    return out


def test_every_top_level_definition_is_reached_by_code():
    assert unreached(ROOT) == []


def test_the_guard_flags_a_definition_only_tests_could_reach(tmp_path):
    package = tmp_path / "src" / "uav_mec"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "__init__.py").write_text(
        "from .blocks import exported_only\n")
    (package / "blocks.py").write_text(
        '"""imported, wrapped, recursive, exported_only, unnamed"""\n'
        "def imported():\n    return 1\n"
        "def wrapped():\n    return 2\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "def exported_only():\n    return 3\n"
        "class Unnamed:  # imported\n    pass\n")
    (tmp_path / "perfbench" / "tracer.py").write_text(
        "from uav_mec import blocks\n"
        "from uav_mec.blocks import imported\n"
        "WRAPPED = [(blocks, 'wrapped')]\n")
    assert [u.split()[1] for u in unreached(tmp_path)] == [
        "recursive", "exported_only", "Unnamed"]
