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


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(starquant.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_correspondence_sweep_script():
    done = run_script("correspondence_sweep.py", "--dim", "2", "--max-degree", "3")
    assert done.returncode == 0, done.stderr
    assert "35 monomials" in done.stdout
    assert "all representations equal" in done.stdout


def test_flow_demo_script():
    # both flow routes agree on every (H, S, t) case the demo prints
    done = run_script("flow_demo.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("agree") == 8
    assert "DISAGREE" not in done.stdout


def test_convergence_study_script():
    done = run_script("convergence_study.py", "--sizes", "64", "128", "256")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["64", "128", "256"]
    # the first row has no predecessor; the solver is fourth order
    orders = [float(row[-1]) for row in rows[1:]]
    assert all(3.5 <= order <= 4.5 for order in orders), done.stdout
