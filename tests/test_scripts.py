"""The demo scripts under scripts/ run to exit 0 and print what they claim,
each in a subprocess on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_script(name, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_coverage_sweep_collapses_past_the_state_count():
    lines = run_script("coverage_sweep.py", "--m", "16", "--max-n", "4")
    # n = 4: 24 orders from 16 registers, 12 of them distinct
    assert lines[-1].split() == ["4", "24", "12", "0.5000", "0.6667"]


def test_murdoch_demo_prints_four_rows():
    header, *rows = run_script("murdoch_demo.py", "--reps", "100000")
    assert header.split()[:2] == ["generator", "method"]
    assert [row.split()[:2] for row in rows] == [
        ["mt19937", "floor"], ["mt19937", "mask"], ["hash_counter", "floor"], ["hash_counter", "mask"],
    ]


def test_calibration_run_writes_a_passing_report(tmp_path):
    out = tmp_path / "report.json"
    lines = run_script("calibration_run.py", "--repetitions", "1", "--out", str(out), cwd=tmp_path)
    assert lines[-1].startswith("passed: True")
    report = json.loads(out.read_text())
    assert report["experiment"] == "calibration"
    assert report["passed"] is True
