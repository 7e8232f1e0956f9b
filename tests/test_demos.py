"""Smoke test of the demo that exercises evolution and the trace writer."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_two_photon_oscillation_demo(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "two_photon_oscillation.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "two_photon_trace.csv").is_file()
    predicted = float(re.search(r"2\|g_eff\| = (\S+)", proc.stdout).group(1))
    freq = float(re.search(r"oscillation frequency (\S+)", proc.stdout).group(1))
    assert abs(freq - predicted) < 0.05 * predicted
