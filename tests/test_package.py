"""The public name list and the shipped scripts."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import starquant

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_public_names_resolve_once():
    names = starquant.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(starquant, name) is not None, name


def test_correspondence_sweep_script():
    src = str(Path(starquant.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "correspondence_sweep.py"),
         "--dim", "2", "--max-degree", "3"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "35 monomials" in done.stdout
    assert "all representations equal" in done.stdout
