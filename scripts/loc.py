#!/usr/bin/env python3
"""Count the lines of every module of src/uav_mec/.

One row per module: its line count as `wc -l` gives it, and its code lines,
the lines left after dropping docstrings, comments and blank lines. A
docstring is found with ast (the leading string of a module, class or
function), and a line counts as code when tokenize finds on it a token that
is neither a comment nor a docstring. The last row holds the totals.

Usage:
    python3 scripts/loc.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "uav_mec"
LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER)


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of every docstring's opening quote."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(wc -l lines, code lines) of one module's source."""
    docstrings = docstring_starts(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING
                                  and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def main() -> int:
    rows = [(path.name, *count(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))]
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  "
          f"{sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
