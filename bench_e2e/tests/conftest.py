"""Self-tests of the benchmark: ``python -m pytest bench_e2e/tests`` from the
repo root (not part of the tier-1 suite)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
