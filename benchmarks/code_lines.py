#!/usr/bin/env python3
"""Count code lines: non-blank, non-comment, non-docstring (PR 13's rule).

    python3 benchmarks/code_lines.py src                 # per file + total
    python3 benchmarks/code_lines.py src --against OLD   # before/after table
    python3 benchmarks/code_lines.py src --knobs [--against OLD]

A line counts when it carries at least one token that is not a comment,
and is not part of a docstring (a bare string expression that is the first
statement of a module, class or function).  At the PR-22 commit this gives
``hopsfs/namenode.py`` = 500 and ``src`` = 13,490.

``--knobs`` counts settable values instead, from the AST (an ``--against``
tree is read, never imported): the fields of each config dataclass in
``KNOB_CLASSES``, a field typed as a frozen dataclass of the tree (a config
value such as ``RobustConfig.retry``) counted as that class's fields, and
the keyword parameters of each function in ``KNOB_FUNCTIONS``.
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


# The opt-in serving paths' config blocks and the ops' service context.
KNOB_CLASSES = ("RobustConfig", "AsyncCommitConfig", "ElasticConfig",
                "ListingCacheConfig", "FsContext")
KNOB_FUNCTIONS = ("build_hopsfs", "build_cephfs", "Network.__init__", "run_transaction")


def _definitions(root: Path) -> tuple[dict, set, dict]:
    """``{class: [(field, annotation)]}`` of the dataclasses below ``root``,
    the names of the frozen ones, and ``{name or Class.name: FunctionDef}``
    of its functions."""
    classes, frozen, functions = {}, set(), {}
    for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = node
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    functions[f"{node.name}.{item.name}"] = item
            decorators = [ast.unparse(d) for d in node.decorator_list]
            if any("frozen=True" in d for d in decorators):
                frozen.add(node.name)
            if any("dataclass" in d for d in decorators):
                classes[node.name] = [
                    (item.target.id, ast.unparse(item.annotation))
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    and "ClassVar" not in ast.unparse(item.annotation)]
    return classes, frozen, functions


def count_knobs(root: Path) -> dict[str, int]:
    """``{name: settable values}`` of ``KNOB_CLASSES`` and ``KNOB_FUNCTIONS``."""
    classes, frozen, functions = _definitions(root)

    def fields(name: str) -> int:
        return sum(fields(ann) if ann in frozen else 1 for _f, ann in classes[name])

    counts = {name: fields(name) for name in KNOB_CLASSES if name in classes}
    for name in KNOB_FUNCTIONS:
        if name in functions:
            args = functions[name].args
            counts[f"{name}()"] = len(args.defaults) + len(args.kwonlyargs)
    return counts


def count_tree(root: Path) -> dict[str, int]:
    """``{path relative to root: code lines}`` for every ``*.py`` below it."""
    if root.is_file():
        return {root.name: code_lines(root.read_text())}
    return {str(p.relative_to(root)): code_lines(p.read_text())
            for p in sorted(root.rglob("*.py"))}


def _totals(counts: dict[str, int], knobs: bool) -> dict[str, int]:
    """The total; with ``knobs``, config fields and keyword parameters apart."""
    if not knobs:
        return {"total": sum(counts.values())}
    params = sum(n for name, n in counts.items() if name.endswith("()"))
    return {"config fields total": sum(counts.values()) - params,
            "keyword parameters total": params}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", type=Path)
    ap.add_argument("--against", type=Path, default=None,
                    help="the same tree at another commit: print "
                         "before/after/delta per file that differs")
    ap.add_argument("--knobs", action="store_true",
                    help="count settable values (config fields, keyword "
                         "parameters) instead of code lines")
    args = ap.parse_args(argv)
    count = count_knobs if args.knobs else count_tree
    now = count(args.root)
    if args.against is None:
        for path, n in now.items():
            print(f"{n:7d}  {path}")
        for label, n in _totals(now, args.knobs).items():
            print(f"{n:7d}  {label}")
        return 0
    old = count(args.against)
    print(f"{'before':>7s} {'after':>7s} {'delta':>6s}  {'name' if args.knobs else 'file'}")
    for path in (list(now) if args.knobs else sorted(old.keys() | now.keys())):
        b, a = old.get(path, 0), now.get(path, 0)
        if a != b or args.knobs:
            print(f"{b:7d} {a:7d} {a - b:+6d}  {path}")
    before = _totals(old, args.knobs)
    for label, a in _totals(now, args.knobs).items():
        print(f"{before[label]:7d} {a:7d} {a - before[label]:+6d}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
