"""Smoke test: every ``examples/*.py`` script runs to completion.

The examples are the API's first users; each one runs in a fresh
interpreter against ``src`` and must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path,
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
