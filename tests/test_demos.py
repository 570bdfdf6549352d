"""The quick demos run to completion against the package in ``src``.

Each demo is copied to a temporary directory first, because it writes its
outputs to ``demo_out`` next to itself.  Demos 03 and 04 train a network
and are left to be run by hand.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_optic_flow.py", "02_synthetic_episodes.py"])
def test_demo_runs(tmp_path, name):
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
