"""Smoke test of the demo scripts: each runs to the end in a fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
TIMING = DEMOS / "05_reference_timing.py"


def run_demo(script, tmp_path, *args):
    """Run one demo from `tmp_path` (its temporary files go there too) on
    one BLAS thread; its standard output."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "TMPDIR": str(tmp_path), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(script), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", sorted(
    p.name for p in DEMOS.glob("0[1-4]_*.py")))
def test_demo_runs(tmp_path, script):
    assert run_demo(DEMOS / script, tmp_path)
    # a reference cache lives only as long as the demo
    assert not list(tmp_path.glob("polyvem-ref-*"))


def test_reference_timing_writes_and_compares(tmp_path):
    args = ("fullyCoupled", "1", "--grains", "4")
    first = json.loads(run_demo(TIMING, tmp_path, *args, "--write", "F"))
    assert (tmp_path / "F").is_file()
    second = json.loads(run_demo(TIMING, tmp_path, *args, "--compare", "F"))
    keys = {"mode", "levels", "grains", "wall_s", "max_rss_mib", "n_dofs",
            "solver"}
    assert keys <= first.keys()
    assert keys | {"rel_diff"} <= second.keys()
    assert (second["mode"], second["levels"], second["grains"]) == (
        "fullyCoupled", 1, 4)
    assert second["rel_diff"] == 0.0
