"""Interleaved A/B runs of two starquant trees: benchmark runs, ops or one CLI call.

    python3 scripts/ab.py workload PARENT CHANGE --workloads transport assoc \\
        --pairs 10 --seed 501 --seconds 25 > ab.json
    python3 scripts/ab.py ops PARENT CHANGE --workloads transport --cycles 10
    python3 scripts/ab.py cli PARENT CHANGE --pairs 5 -- star "(q+p)^8" q --json

A side is a git revision, exported by ``git archive`` into a fresh directory,
or an existing directory, used as it is.  The sides never run at once and take
turns going first (``order``).  ``ops`` loads both sides into this interpreter
and times their ops back to back after one untimed round of them a side, and
judges each round's change/parent ratio, since rounds drift together; ``cli``
hashes a child's stdout as it reads it, and a run whose exit code or hash
differs from the first run's fails.  A failed op is counted and shown, never
timed away, and makes the exit status 1.  stdout gets one JSON object in the
layout of the ``runs`` entries of ``BENCH_<n>.json``.
"""

import argparse
import hashlib
import importlib
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
ENTRY = "import sys; from starquant.cli import main; sys.exit(main())"
METHOD = ("interleaved pairs of parent and change, never two at once, the first side "
          "alternating by pair (ops: by op index + round); quartiles: inclusive "
          "statistics.quantiles; change_better_pairs: pairs the change read better, ties for "
          "neither; gain_shown: 9/10 of at least 10 pairs better and the median gap above the "
          "parent's Q3 - Q1; unresolved: the parent's Q3 - Q1 above bound * |parent median|, "
          "unless every change run reads better than every parent run; ops judges both on "
          "round_ratio, each round's change/parent ratio: a gap of its median from 1 above its "
          "Q3 - Q1, and its Q3 - Q1 above bound unless every round reads better")


def order(k: int) -> tuple[str, str]:
    """The alternation rule: the parent goes first at even k, the change at odd k."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


def side_root(arg: str, dest: str) -> tuple[str, str, str]:
    """(root, kind, label): a directory as it is, else a copy of the revision in dest."""
    if os.path.isdir(arg):
        return os.path.abspath(arg), "dir", os.path.abspath(arg)
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{arg}^{{commit}}"],
                            cwd=REPO, check=True, capture_output=True, text=True).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", commit], cwd=REPO, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {arg} failed")
    return dest, "commit", commit[:7]


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(r, 4) for r in runs]}


def compare(parent: list[float], change: list[float], better: str, bound: float,
            paired: bool = False) -> dict:
    """Verdicts on one metric.  With ``paired`` (ops) pair k of both sides ran in
    one round, so its change/parent ratio cancels the drift between rounds that
    per-side quartiles carry, and the verdicts rest on that ratio."""
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    out = {"parent": summary(parent), "change": summary(change),
           "ratio_change_over_parent": round(c_med / p_med, 4) if p_med else None,
           "change_better_pairs": wins}
    if paired:
        ratios = [c / p for p, c in zip(parent, change)]
        out["round_ratio"] = summary(ratios)
        # the median ratio's gap from 1, and the bound as a ratio
        gap, spread_of, scale = sign * (statistics.median(ratios) - 1), ratios, 1
        apart = wins == len(ratios)
    else:
        gap, spread_of, scale = sign * (c_med - p_med), parent, abs(p_med)
        apart = all(sign * (c - p) > 0 for p in parent for c in change)
    q1, _, q3 = statistics.quantiles(spread_of, n=4, method="inclusive")
    return {**out, "within_bound": gap >= -bound * scale,
            "gain_shown": 10 * wins >= 9 * max(len(parent), 10) and gap > q3 - q1,
            "unresolved": q3 - q1 > bound * scale and not apart}


def interleave(pairs: int, step, seeds: list[int], bounds: dict, label: str,
               paired: bool = False) -> dict:
    """One case's JSON block; step(k) runs pair k: {side: (metrics, failed, attempted)}."""
    runs = {side: [] for side in SIDES}
    failed, attempted = dict.fromkeys(SIDES, 0), dict.fromkeys(SIDES, 0)
    for k in range(pairs):
        for side, (metrics, bad, tried) in step(k).items():
            runs[side].append(metrics)
            failed[side] += bad
            attempted[side] += tried
        print(f"{label} pair {k + 1}/{pairs} ({order(k)[0]} first): " + "; ".join(
            f"{side} " + ", ".join(f"{name} {runs[side][-1][name]:.4g}" for name in bounds)
            for side in SIDES), file=sys.stderr, flush=True)
    return {"pairs": pairs, "seeds": seeds, "failed": failed, "attempted": attempted,
            "metrics": {name: compare([r[name] for r in runs["parent"]],
                                      [r[name] for r in runs["change"]], m["better"], m["bound"],
                                      paired)
                        for name, m in bounds.items()}}


def workload_target(args, roots: dict, spec: dict, scratch: str) -> tuple[str, dict]:
    def run(side: str, workload: str, seed: int) -> tuple[dict, int, int]:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(args.seconds), "--trace",
                               "0"], cwd=roots[side], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench/run.py failed in {roots[side]} (exit {proc.returncode}): "
                             f"{(proc.stdout + proc.stderr)[-400:]}")
        result = json.loads(lines[-1])
        if result["failed"]:
            print(proc.stdout, file=sys.stderr)
        return ({name: m["value"] for name, m in result["metrics"].items()},
                result["failed"], result["attempted"])

    seeds = [args.seed + k for k in range(args.pairs)]
    return (f"python3 bench/run.py --workload W --seed N --seconds {args.seconds:g} --trace 0",
            {workload: interleave(args.pairs, lambda k: {side: run(side, workload, seeds[k])
                                                         for side in order(k)},
                                  seeds, spec, workload) for workload in args.workloads})


def _swap(out: dict, into: dict) -> None:
    """Move the starquant and workloads modules from sys.modules to out; put into's there."""
    for name in [name for name in sys.modules
                 if name in ("starquant", "workloads") or name.startswith("starquant.")]:
        out[name] = sys.modules.pop(name)
    sys.modules.update(into)


def load(root: str, args, scratch: str) -> tuple[dict, dict]:
    """(modules, {workload: ops}) of the tree in root, its modules left out of sys.modules."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    try:
        workloads = importlib.import_module("workloads")
        ops = {w: workloads.make_ops(w, args.seed, args.cycles, root, scratch)[0]
               for w in args.workloads}
    finally:
        del sys.path[:2]
    modules = {}
    _swap(modules, {})
    return modules, ops


def ops_target(args, roots: dict, spec: dict, scratch: str) -> tuple[str, dict]:
    loaded = {side: load(roots[side], args, scratch) for side in SIDES}

    def run(side: str, workload: str, i: int) -> tuple[float, bool]:
        """(seconds, failed) of op i with only its side's modules in sys.modules, so an
        import made at call time finds its own side and joins that side's set."""
        modules, op = loaded[side][0], loaded[side][1][workload][i]
        _swap({}, modules)
        t0 = perf_counter()
        try:
            why = op.run()
        except Exception as exc:  # a library failure is an op failure, as in bench/worker.py
            why = f"{type(exc).__name__}: {str(exc)[:160]}"
        spent = perf_counter() - t0
        _swap(modules, {})
        if why:
            print(f"{workload} {side} op {i} ({op.label}): {why}", file=sys.stderr)
        return spent, bool(why)

    cases = {}
    for workload in args.workloads:
        n = len(loaded["parent"][1][workload])
        if n != len(loaded["change"][1][workload]):
            raise SystemExit("the two sides build op streams of different lengths")

        def step(r: int) -> dict:
            spent, bad = dict.fromkeys(SIDES, 0.0), dict.fromkeys(SIDES, 0)
            for i in range(n):
                for side in order(i + r):
                    seconds, failed = run(side, workload, i)
                    spent[side] += seconds
                    bad[side] += failed
            return {side: ({"ops_per_s": n / spent[side]}, bad[side], n) for side in SIDES}

        warm = dict.fromkeys(SIDES, 0)  # one untimed round of the whole stream a side
        for i in range(n):
            for side in order(i):
                warm[side] += run(side, workload, i)[1]
        case = cases[workload] = interleave(args.pairs, step, [args.seed],
                                            {"ops_per_s": spec["ops_per_s"]}, workload, True)
        for side in SIDES:
            case["failed"][side] += warm[side]
            case["attempted"][side] += n
    return (f"workloads.make_ops(W, {args.seed}, {args.cycles}) of both sides in one "
            "interpreter, op by op", cases)


def cli_target(args, roots: dict, spec: dict, scratch: str) -> tuple[str, dict]:
    outputs = []  # (exit code, stdout sha256) of every run; the first is the reference

    def run(side: str) -> tuple[dict, bool, int]:
        digest = hashlib.sha256()
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *args.argv],
                                env={**os.environ, "PYTHONPATH": os.path.join(roots[side], "src")},
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        while chunk := proc.stdout.read(1 << 20):
            digest.update(chunk)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)  # reaped here, not by Popen
        wall = perf_counter() - start
        outputs.append((os.waitstatus_to_exitcode(status), digest.hexdigest()))
        if outputs[-1] != outputs[0]:
            print(f"{side}: (exit, sha256) {outputs[-1]}, first run {outputs[0]}", file=sys.stderr)
        return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}, outputs[-1] != outputs[0], 1

    command = f"starquant {shlex.join(args.argv)}"
    bounds = {"wall_s": spec["setup_s"], "peak_rss_mb": spec["peak_rss_mb"]}
    return f"{command} in a fresh interpreter", {command: interleave(
        args.pairs, lambda k: {side: run(side) for side in order(k)}, [], bounds, "cli")}


TARGETS = {"workload": workload_target, "ops": ops_target, "cli": cli_target}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], usage="%(prog)s "
                                     "{workload,ops,cli} PARENT CHANGE [options] [-- ARGV...]")
    parser.add_argument("target", choices=TARGETS)
    parser.add_argument("parent", help="baseline: a directory, or a git revision to export")
    parser.add_argument("change", help="the change: a directory, or a git revision")
    parser.add_argument("--workloads", nargs="+", choices=("assoc", "transport", "wkb_cli"),
                        help="workload and ops: the workloads to run")
    parser.add_argument("--pairs", type=int, default=10, help="pairs (ops: rounds), at least 2")
    parser.add_argument("--seed", type=int, default=1, help="workload: pair 1's; ops: all ops'")
    parser.add_argument("--seconds", type=float, default=25, help="workload: seconds a run")
    parser.add_argument("--cycles", type=int, default=10, help="ops: op-stream cycles a round")
    words = sys.argv[1:]
    cut = words.index("--") if "--" in words else len(words)
    args = parser.parse_args(words[:cut])
    args.argv = words[cut + 1:]
    if args.pairs < 2 or args.cycles < 1:
        parser.error("--pairs must be at least 2 for quartiles, --cycles at least 1")
    if (args.target == "cli") == bool(args.workloads) or (args.target == "cli") != bool(args.argv):
        parser.error("the cli target takes the CLI arguments after --, the others --workloads")

    roots, labels = {}, {}
    with tempfile.TemporaryDirectory(prefix="ab-") as work:
        for side, arg in zip(SIDES, (args.parent, args.change)):
            roots[side], kind, label = side_root(arg, os.path.join(work, side))
            labels[f"{side}_{kind}"] = label
        with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
            spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
        command, cases = TARGETS[args.target](args, roots, spec, work)
    print(json.dumps({"what": "scripts/ab.py " + shlex.join(words), "command": command,
                      "method": METHOD, **labels, "end_to_end": cases}, indent=1))
    return 1 if any(sum(case["failed"].values()) for case in cases.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
