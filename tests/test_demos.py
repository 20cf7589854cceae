"""Every demo runs to completion against the current package.

Each demo is a caller of the public API, so each runs as a subprocess in a
fresh directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import catlink

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(catlink.__file__).resolve().parents[1])


def test_every_demo_is_collected():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env.pop("CATLINK_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr[-2000:]
