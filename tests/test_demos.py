"""Smoke tests of the demos: each runs in a scratch cwd and exits 0."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


# avoided_crossing_sweep.py is left out: it takes several seconds.
@pytest.mark.parametrize("name", ["process_catalog_tour.py", "classical_mixing_analogy.py"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
