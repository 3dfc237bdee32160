"""Smoke test of the scripts in ``demos/``: each runs to completion.

Each demo runs in its own interpreter with ``src`` on ``PYTHONPATH``, as a
reader would run it from the repository root.  The multiple-cover demo
prints its nilpotent relation images, which must read as classes in
Q[t]/(t^d).
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))
PRINTS = {"multiple_cover_identity.py": ["image (-t mod t^2)", "image (-t mod t^3)"]}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for text in PRINTS.get(name, ()):
        assert text in done.stdout
