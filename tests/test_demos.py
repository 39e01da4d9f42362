"""Every demo script runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr


def test_top_level_demo_with_a_large_transform_reports_once():
    # no __main__ guard, and its 4096 x 1 KiB transform runs half in the
    # worker: the worker must not re-run the demo's top-level code
    proc = _run(ROOT / "demos" / "deletion_proof_asymmetry.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("epoch of 4096 cells") == 1, proc.stdout
