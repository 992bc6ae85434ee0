"""Every demo script runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import preimages

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    # The demos import the same package this test process imported.
    package_root = str(Path(preimages.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_every_demo_is_collected():
    assert len(DEMOS) >= 5
