"""Every pin against its real producer (not tier-1; ``tests/test_pins.py``
covers the machinery with stubbed producers).

    PYTHONPATH=src python -m pytest benchmarks/test_pins.py -m "not slow"    # ~5 min
    PYTHONPATH=src python -m pytest benchmarks/test_pins.py                   # + the figure tables

On a clean tree each artifact must hold its rule *and* a re-pin must have
nothing to write — ``python3 benchmarks/repin.py`` then leaves
``git status --porcelain`` empty.  The last test is the identity tool run
against its own tree: four rows, exit 0.
"""

import subprocess
import sys

import pytest

from .pins import PINS, ROOT


def _params():
    """The figure tables (``test_*``) take minutes, not seconds."""
    return [pytest.param(name, marks=pytest.mark.slow) if name.startswith("test_") else name
            for name in PINS]


@pytest.mark.parametrize("name", _params())
def test_pin_holds_and_a_repin_has_nothing_to_write(name, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "1.0")
    monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
    pin = PINS[name]
    pinned, live = pin.read(), pin.produce()
    assert not pin.problems(pinned, live)
    assert not pin.moved(pinned, live)


@pytest.mark.slow
def test_a_tree_is_schedule_identical_to_itself():
    out = subprocess.run([sys.executable, "benchmarks/schedule_identity.py", ".", "."],
                         cwd=ROOT, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "exit 0 on 4 rows" in out.stdout
