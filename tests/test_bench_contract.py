"""The benchmark's tracer (perfbench/spans.py) wraps library functions by
their names in the modules that call them, so deleting or renaming one of
those names breaks every traced benchmark run.  This test installs the
tracer, as ``perfbench/run.py --trace 1`` does, in a child process so the
patches do not leak into the rest of the suite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = sys.argv[1:]
from spans import Tracer
from workloads import Api
Tracer().install(Api())
"""


def test_tracer_installs_on_the_library():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
