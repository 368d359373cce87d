import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# demos/03 solves M = 1000 and is left to manual runs
QUICK_DEMOS = ["01_point_source_over_layers.py", "02_single_inclusion.py"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_quick_demo_runs(name, tmp_path):
    """The README's quick demos run to completion from a clean directory."""
    env = dict(os.environ, LAYERSCATTER_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
