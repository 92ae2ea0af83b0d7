"""Every tools/ script's top level runs in a fresh interpreter.

The tools import private helpers of the package (and perfbench's
workloads), and nothing else runs them, so a renamed helper would break
them unnoticed.  Each script's module body runs under a name other than
__main__, which imports everything and defines every function without
starting the measurement.  A subprocess keeps the BLAS thread settings
that iteration_cost.py makes at import out of this interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = sorted((ROOT / "tools").glob("*.py"))


@pytest.mark.parametrize("script", TOOLS, ids=lambda p: p.name)
def test_tool_imports_cleanly(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import runpy, sys; runpy.run_path(sys.argv[1], run_name='tool')", str(script)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
