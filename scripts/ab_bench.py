"""Interleaved A/B runs of the end-to-end benchmark between two git revisions.

    python3 scripts/ab_bench.py PARENT CHANGE --workloads transport assoc \\
        --pairs 10 --first-seed 501 --seconds 25 > ab.json

Each revision is exported with ``git archive`` into its own fresh
directory, so neither side sees uncommitted edits or the other's build
output.  For every workload and pair i, both copies run

    python3 bench/run.py --workload W --seed (first_seed + i) --seconds S --trace 0

one after the other, never two at once; the side that goes first
alternates from pair to pair.  Progress goes to stderr.  The JSON on
stdout gives, per workload and metric, each side's median [Q1, Q3]
(inclusive quartiles of ``statistics.quantiles``) and runs, the ratio of
the medians, the pairs the change read better (``change_better_pairs``,
ties count for neither) and whether the change's median is within the
metric's bound in the change's ``BENCHMARK.json``: the layout of the
``BENCH_<n>.json`` files.  Two verdicts apply the claim rule:
``gain_shown`` when the change read better in at least 9 of 10 pairs and
its median beats the parent's by more than the parent's Q3 - Q1, and
``unresolved`` when that parent IQR is wider than the metric's bound (a
fraction of the parent's median), so the runs spread too widely to
judge the bound, unless every run of the change reads better than every
run of the parent.  The script reads ``bench/`` and changes
nothing in either checkout but what a benchmark run writes there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, dest: str) -> str:
    """A clean copy of ``rev`` in ``dest``; returns its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=REPO, check=True, capture_output=True, text=True).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", commit], cwd=REPO, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return commit


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one end-to-end run in ``root``."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py failed in {root} (exit {proc.returncode}): "
                         f"{(proc.stdout + proc.stderr)[-400:]}")
    return json.loads(lines[-1])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(r, 4) for r in runs]}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    apart = all(sign * (c - p) > 0 for p in parent for c in change)
    return {"parent": summary(parent), "change": summary(change),
            "ratio_change_over_parent": round(c_med / p_med, 4) if p_med else None,
            "change_better_pairs": wins,
            "within_bound": sign * (c_med - p_med) >= -bound * abs(p_med),
            "gain_shown": 10 * wins >= 9 * len(parent) and sign * (c_med - p_med) > q3 - q1,
            "unresolved": q3 - q1 > bound * abs(p_med) and not apart}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the baseline")
    parser.add_argument("change", help="git revision of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    with tempfile.TemporaryDirectory(prefix="ab_bench-") as work:
        roots = {side: os.path.join(work, side) for side in ("parent", "change")}
        commits = {side: export(rev, roots[side])
                   for side, rev in (("parent", args.parent), ("change", args.change))}
        with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
            spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
        seeds = list(range(args.first_seed, args.first_seed + args.pairs))
        report = {}
        for workload in args.workloads:
            results = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    results[side].append(run_once(roots[side], workload, seed, args.seconds))
                print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first): "
                      + ", ".join(f"{side} {results[side][-1]['metrics']['ops_per_s']['value']:.1f}"
                                  for side in ("parent", "change")) + " ops/s",
                      file=sys.stderr, flush=True)
            metrics = {}
            for name, m in spec.items():
                series = {side: [r["metrics"][name]["value"] for r in results[side]]
                          for side in results}
                metrics[name] = compare(series["parent"], series["change"],
                                        m["better"], m["bound"])
            report[workload] = {
                "pairs": args.pairs, "seeds": seeds,
                "failed": {side: sum(r["failed"] for r in results[side]) for side in results},
                "attempted": {side: sum(r["attempted"] for r in results[side])
                              for side in results},
                "metrics": metrics}
    print(json.dumps({
        "command": f"python3 bench/run.py --workload W --seed N --seconds {args.seconds:g} "
                   "--trace 0",
        "method": "interleaved pairs of parent and change, each from a clean copy of its "
                  "tree (git archive); the side that runs first alternates from pair to "
                  "pair; quartiles are the inclusive method of statistics.quantiles; "
                  "change_better_pairs counts pairs where the change read better (ties "
                  "count for neither); gain_shown: at least 9/10 pairs better and the "
                  "median gap above the parent's Q3 - Q1; unresolved: the parent's Q3 - Q1 "
                  "above bound * |parent median|, unless every change run reads better "
                  "than every parent run",
        "parent_commit": commits["parent"][:7], "change_commit": commits["change"][:7],
        "end_to_end": report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
