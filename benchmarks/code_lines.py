#!/usr/bin/env python3
"""Count code lines: non-blank, non-comment, non-docstring (PR 13's rule).

    python3 benchmarks/code_lines.py src                 # per file + total
    python3 benchmarks/code_lines.py src --against OLD   # before/after table

A line counts when it carries at least one token that is not a comment,
and is not part of a docstring (a bare string expression that is the first
statement of a module, class or function).  At the PR-22 commit this gives
``hopsfs/namenode.py`` = 500 and ``src`` = 13,490.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def count_tree(root: Path) -> dict[str, int]:
    """``{path relative to root: code lines}`` for every ``*.py`` below it."""
    if root.is_file():
        return {root.name: code_lines(root.read_text())}
    return {str(p.relative_to(root)): code_lines(p.read_text())
            for p in sorted(root.rglob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", type=Path)
    ap.add_argument("--against", type=Path, default=None,
                    help="the same tree at another commit: print "
                         "before/after/delta per file that differs")
    args = ap.parse_args(argv)
    now = count_tree(args.root)
    if args.against is None:
        for path, n in now.items():
            print(f"{n:7d}  {path}")
        print(f"{sum(now.values()):7d}  total")
        return 0
    old = count_tree(args.against)
    print(f"{'before':>7s} {'after':>7s} {'delta':>6s}  file")
    for path in sorted(old.keys() | now.keys()):
        b, a = old.get(path, 0), now.get(path, 0)
        if a != b:
            print(f"{b:7d} {a:7d} {a - b:+6d}  {path}")
    b, a = sum(old.values()), sum(now.values())
    print(f"{b:7d} {a:7d} {a - b:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
