"""Self-test of the benchmark.

    python3 -m pytest bench/test_bench.py -q

Checks that traced counts repeat exactly for one seed, that seeds change
the inputs, that every metric in BENCHMARK.json is printed with its
unit, and that the benchmark refuses to run without the sources.  Takes
about a minute on 2 vCPUs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

EXACT = ("scalars.", "observables.", "star.bidiff_calls", "wkb.grid_points",
         "cli.error_exits")


def _ops(workload, seed, tmp_path, count):
    ops, ctx = workloads.make_ops(workload, seed, 1, ROOT, str(tmp_path))
    return ops[:count], ctx


def _fingerprint(ops):
    return [repr(op.inputs) for op in ops]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload, tmp_path):
    counts = []
    for _ in range(2):
        ops, ctx = _ops(workload, 7, tmp_path, 12)
        res = worker.traced(ops, ctx)
        assert not res["failures"]
        counts.append({k: v for k, v in res["counts"].items() if k.startswith(EXACT)})
    assert counts[0] == counts[1]
    assert counts[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_decides_the_inputs(workload, tmp_path):
    first = _fingerprint(_ops(workload, 1, tmp_path, 20)[0])
    again = _fingerprint(_ops(workload, 1, tmp_path, 20)[0])
    other = _fingerprint(_ops(workload, 2, tmp_path, 20)[0])
    assert first == again
    assert first != other


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, key):
    stdout, res = _result(_run("--workload", "wkb_cli", "--seed", "3", "--seconds", "2",
                               "--trace", trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in stdout.splitlines()), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "assoc", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
