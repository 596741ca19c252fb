"""S-UAV positions reach the blocks from one place: Pools.hover_point.

offload.py and placement.py read no S-UAV's current_pos, and
orchestrator.py reads it only in check_constraints, the independent
checker. A block that read a scenario's positions on its own could price
another geometry than the association search does: before they shared one
source, S-UAVs that stay put sat at initial_pos for the search and at
current_pos for the other blocks.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "uav_mec"
# module -> the top-level definitions allowed to read current_pos
ALLOWED = {"offload.py": set(), "placement.py": set(),
           "orchestrator.py": {"check_constraints"}}


def readers(source: str, name: str = "current_pos") -> list[str]:
    """The top-level definitions of source whose code names `name`, as an
    attribute, a variable or a whole string (getattr's argument); code
    outside any definition is listed as 'line N'."""
    out = []
    for node in ast.parse(source).body:
        for sub in ast.walk(node):
            if ((isinstance(sub, ast.Attribute) and sub.attr == name)
                    or (isinstance(sub, ast.Name) and sub.id == name)
                    or (isinstance(sub, ast.Constant) and sub.value == name)):
                out.append(getattr(node, "name", f"line {node.lineno}"))
                break
    return out


def test_blocks_read_positions_only_through_pools():
    for module, allowed in ALLOWED.items():
        found = readers((PACKAGE / module).read_text(encoding="utf-8"))
        assert set(found) <= allowed, (module, found)


def test_the_guard_flags_every_kind_of_read():
    source = ("def f(s):\n    return s.current_pos\n"
              "def g(s):\n    return getattr(s, 'current_pos')\n"
              "def h(s):\n    return s.initial_pos\n"
              "class C:\n    def m(self, current_pos):\n"
              "        return current_pos\n"
              "X = [s.current_pos for s in ()]\n")
    assert readers(source) == ["f", "g", "C", "line 10"]
