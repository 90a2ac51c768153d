"""Entry point: ``python3 bench_e2e/run.py`` or ``python -m bench_e2e``.

Pins ``PYTHONHASHSEED=0`` (string-keyed dict layout, and with it host
time, varies with the hash seed) by re-executing the interpreter once,
and puts the checkout's ``src/`` on the path so the command needs no
``PYTHONPATH``.
"""

import os
import sys
from pathlib import Path


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.orig_argv[1:],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    root = Path(__file__).resolve().parent.parent
    for entry in (str(root), str(root / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    try:
        import repro  # noqa: F401
    except ImportError:
        print(f"bench_e2e: the simulator is not at {root / 'src'}", file=sys.stderr)
        return 2
    from bench_e2e.cli import main as cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
