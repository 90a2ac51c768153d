#!/usr/bin/env python3
"""Which functions under ``src/repro`` does a set of commands never call?

    python3 benchmarks/never_called.py run -- python -m pytest -x -q
    python3 benchmarks/never_called.py run -- python3 bench_e2e/run.py --seed 0 --quick
    python3 benchmarks/never_called.py report          # what no run has called
    python3 benchmarks/never_called.py clear

``run`` executes one command with a ``sitecustomize`` on ``PYTHONPATH`` that
installs a ``sys.settrace`` hook in every interpreter the command starts —
pool workers and ``subprocess`` children included.  The hook only answers
*call* events (it returns no local tracer, so lines are never traced) and
appends each function of ``src/repro`` to a per-process log the first time
it runs; tier-1 under it takes about two minutes.  Runs accumulate in
``--data`` (default ``/tmp/never_called``) until ``clear``.

``report`` compares the logs with every ``def`` in ``src/repro`` (``ast``)
and prints the ones no run entered, with their line counts.  A function
listed here is a *candidate*: confirm with grep before deleting — the
figure targets only ``repro all`` runs, and error paths no test provokes,
are never called either.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

_SITECUSTOMIZE = '''\
import os, sys, threading

_PREFIX = {prefix!r}
_DIR = {data!r}
_seen = set()
_log = None


def _tracer(frame, event, arg):
    code = frame.f_code
    if code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_PREFIX):
            global _log
            if _log is None or _log[0] != os.getpid():  # first call, or forked
                _log = (os.getpid(), open(os.path.join(_DIR, "%d.log" % os.getpid()), "a"))
            _log[1].write("%s:%d\\n" % (code.co_filename, code.co_firstlineno))
            _log[1].flush()
    return None


sys.settrace(_tracer)
threading.settrace(_tracer)
'''


def _run(data: Path, command: list) -> int:
    hook = data / "hook"
    hook.mkdir(parents=True, exist_ok=True)
    (hook / "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(prefix=str(PACKAGE) + os.sep, data=str(data)))
    path = os.pathsep.join(
        p for p in (str(hook), str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(command, cwd=ROOT, env={**os.environ, "PYTHONPATH": path}).returncode


def defined_functions() -> dict:
    """``(file, first line) -> (qualified name, lines)`` for every def."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # co_firstlineno is the first decorator's line.
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = (
                        prefix + child.name, child.end_lineno - first + 1)
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)
        visit(ast.parse(path.read_text()), "")
    return found


def _report(data: Path) -> int:
    called = set()
    for log in data.glob("*.log"):
        for line in log.read_text().splitlines():
            filename, _, lineno = line.rpartition(":")
            called.add((filename, int(lineno)))
    if not called:
        print(f"no runs recorded under {data}", file=sys.stderr)
        return 2
    functions = defined_functions()
    missed = sorted((key, value) for key, value in functions.items() if key not in called)
    for (filename, lineno), (name, lines) in missed:
        print(f"{Path(filename).relative_to(ROOT)}:{lineno}  {name}  ({lines} lines)")
    print(f"{len(missed)} of {len(functions)} functions never called "
          f"({sum(lines for _k, (_n, lines) in missed)} lines)")
    return 0


def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data", type=Path, default=Path("/tmp/never_called"))
    ap.add_argument("action", choices=("run", "report", "clear"))
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="for `run`: the command, after `--`")
    args = ap.parse_args(argv)
    if args.action == "clear":
        shutil.rmtree(args.data, ignore_errors=True)
        return 0
    if args.action == "report":
        return _report(args.data)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        ap.error("run needs a command: never_called.py run -- <command>")
    return _run(args.data, command)


if __name__ == "__main__":
    sys.exit(main())
