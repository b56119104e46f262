"""Every demo runs to completion: a demo that uses a deleted or renamed API
fails here instead of silently."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(ROOT.glob("demos/0[1-4]_*.py"))


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert result.returncode == 0, result.stderr
