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


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name):
    src = str(Path(fiskit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert EXPECTED[name] in done.stdout.splitlines()
