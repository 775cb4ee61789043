"""Each demo script runs to completion and prints its closing verdict."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fiskit

DEMOS = Path(__file__).resolve().parent.parent / "demos"

EXPECTED = {
    "tile_round_trip.py": "still the same language: True",
    "word_matching_pipeline.py": "overall: pass",
    "bounded_verdicts.py": "verdict: empty within bounds",
    "diagonal_language.py": "off-diagonal variant accepted: False",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(EXPECTED)


def run_demo(name: str) -> str:
    """The demo's stdout, after it exits 0 on the fiskit under test."""
    src = str(Path(fiskit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name):
    assert EXPECTED[name] in run_demo(name).splitlines()


# the full text of the one demo that prints the finiteness report
BOUNDED_VERDICTS = """\
== instance unit: x=('a',) y=('a',)
emptiness: first accepted grid
a
a
$
bounds: 6x8
witness: 3x1
pumps: yes
verdict: infinite; the witness's width has unboundedly many heights
probe: reached in a 4x2 grid

== instance mismatch: x=('ab',) y=('ba',)
emptiness: no accepted grid within 6x8
bounds: 6x8
witness: none
verdict: empty within bounds
probe: unreachable within 6x9

"""


def test_bounded_verdicts_prints_its_reports():
    assert run_demo("bounded_verdicts.py") == BOUNDED_VERDICTS
