#!/usr/bin/env python3
"""Re-pin, or check, the pinned artifacts of ``benchmarks/pins.py``.

    python3 benchmarks/repin.py [--check] [NAME ...]

Without ``--check``: run the producer of every named artifact (default:
all of them), print per artifact what moved — which hashes, which numbers
and by how much — and rewrite the files that moved.  An artifact whose
compared content equals its file is left alone byte for byte, so on a clean
tree this is a no-op and after a deliberate model change ``git diff`` is the
whole re-pin, reviewable in one place.  Machine-dependent fields (wall-clock
rates, RSS) are re-recorded whenever their artifact is written and never
compared; to refresh them alone, remove the file and re-pin it.

With ``--check``: write nothing; exit 1 naming every artifact whose live
value breaks its rule (exact; call counts may fall but not rise 0.5 %;
detection recall never below).  This is what the CI gates call.

A full run takes ~6 min, the figure tables most of it; name the artifacts
a change can have moved (an unknown name prints the ones there are).
"""

from __future__ import annotations

import os
import pathlib
import sys

_root = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_root / "src"), str(_root)]

from benchmarks.pins import PINS, ROOT  # noqa: E402  (needs the path set above)


def run(pins, check: bool, root: pathlib.Path = ROOT, out=print) -> list:
    """Check or re-pin ``pins`` against the files under ``root``; returns
    the names of the artifacts that differ."""
    differing = []
    for pin in pins:
        pinned = pin.read(root)
        live = pin.produce()
        lines = pin.problems(pinned, live) if check else pin.moved(pinned, live)
        if not lines:
            out(f"{pin.name}: {'holds' if check else 'unchanged'}  ({pin.path})")
            continue
        differing.append(pin.name)
        out(f"{pin.name}: {'DIFFERS' if check else 're-pinned'}  ({pin.path})")
        for line in lines:
            out(f"    {line}")
        if not check:
            pin.write(live, root)
    return differing


def main(argv: list) -> int:
    check = "--check" in argv
    names = [arg for arg in argv if arg != "--check"]
    unknown = [name for name in names if name not in PINS]
    if unknown:
        sys.exit(f"unknown artifact(s) {', '.join(unknown)}; the registry has:\n  "
                 + "\n  ".join(f"{pin.name:<34} {pin.rule.__name__:<8} {pin.path}"
                               for pin in PINS.values()))
    # Pins are recorded at scale 1 on the quick grid, whatever the caller's shell says.
    os.environ["REPRO_BENCH_SCALE"] = "1.0"
    os.environ.pop("REPRO_BENCH_FULL", None)
    differing = run([PINS[name] for name in names or PINS], check)
    if check and differing:
        print(f"pinned artifacts differ: {', '.join(differing)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
