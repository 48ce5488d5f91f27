"""Interleaved in-process A/B timing of one benchmark workload between two checkouts.

    python3 scripts/ab_inprocess.py A B --workload transport --rounds 10

A and B are directories that each hold a checkout with ``src/`` and
``bench/``.  Both load into this one interpreter: each side's
``starquant`` package and ``bench/workloads.py`` are imported under their
usual names and then set aside, and a side's modules are put back in
``sys.modules`` before each of its ops, so an import made at call time
finds its own side; a module that a side first imports while it builds
or runs its ops (a lazily loaded ``starquant.wkb``) joins that side's
set, so it loads once.  Both sides build the same seeded op stream.  In
every round op i of each side runs back to back, the side that goes
first alternating with i and with the round, and the round's ratio is
B's summed op time over A's.  The script prints every round's ratio and
then the median, min and max ratio; a ratio below 1 means B is faster.
An op whose check fails is counted and shown, never timed away.  Nothing
is written under either ``bench/``: the wkb_cli S' file goes to a
temporary directory.
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import tempfile
from time import perf_counter


def _ours(name: str) -> bool:
    return name in ("starquant", "workloads") or name.startswith("starquant.")


def _swap_in(modules: dict) -> None:
    for name in [name for name in sys.modules if _ours(name)]:
        del sys.modules[name]
    sys.modules.update(modules)


def _keep_new(modules: dict) -> None:
    """Add to a side's set the modules it imported since it was swapped in."""
    modules.update((name, mod) for name, mod in sys.modules.items() if _ours(name))


def load(root: str):
    """(modules, workloads module) of the checkout in ``root``, left out of sys.modules."""
    _swap_in({})
    paths = [os.path.join(root, "src"), os.path.join(root, "bench")]
    sys.path[:0] = paths
    try:
        workloads = importlib.import_module("workloads")
    finally:
        del sys.path[:len(paths)]
    modules = {name: mod for name, mod in sys.modules.items() if _ours(name)}
    _swap_in({})
    return modules, workloads


def run_op(op) -> str | None:
    try:
        return op.run()
    except Exception as exc:  # a library failure is an op failure, as in bench/worker.py
        return f"{type(exc).__name__}: {str(exc)[:160]}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="checkout directory of the baseline")
    parser.add_argument("b", help="checkout directory of the change")
    parser.add_argument("--workload", required=True,
                        choices=("assoc", "transport", "wkb_cli"))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=10,
                        help="op-stream cycles timed per round (default 10)")
    args = parser.parse_args()
    if args.rounds < 1 or args.cycles < 1:
        parser.error("--rounds and --cycles must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ab_inprocess-") as scratch:
        sides = []
        for root in (args.a, args.b):
            modules, workloads = load(os.path.abspath(root))
            _swap_in(modules)
            ops, _ = workloads.make_ops(args.workload, args.seed, args.cycles,
                                        os.path.abspath(root), scratch)
            _keep_new(modules)
            sides.append((modules, ops))
        if len(sides[0][1]) != len(sides[1][1]):
            raise SystemExit("the two checkouts build op streams of different lengths")
        failed = [0, 0]
        for side, (modules, ops) in enumerate(sides):  # one untimed warm-up op each
            _swap_in(modules)
            if run_op(ops[0]):
                failed[side] += 1
            _keep_new(modules)
        ratios = []
        for r in range(args.rounds):
            spent = [0.0, 0.0]
            for i in range(len(sides[0][1])):
                for side in ((0, 1) if (i + r) % 2 == 0 else (1, 0)):
                    modules, ops = sides[side]
                    _swap_in(modules)
                    t0 = perf_counter()
                    why = run_op(ops[i])
                    spent[side] += perf_counter() - t0
                    _keep_new(modules)
                    if why:
                        failed[side] += 1
                        print(f"side {'AB'[side]} op {i} ({ops[i].label}): {why}",
                              file=sys.stderr)
            ratios.append(spent[1] / spent[0])
            print(f"round {r + 1}/{args.rounds}: A {spent[0]:.3f} s, B {spent[1]:.3f} s, "
                  f"B/A {ratios[-1]:.4f}", flush=True)
        _swap_in({})
    print(f"{args.workload}: B/A median {statistics.median(ratios):.4f}, "
          f"min {min(ratios):.4f}, max {max(ratios):.4f} over {args.rounds} rounds "
          f"of {len(sides[0][1])} ops; failed ops A {failed[0]}, B {failed[1]}")
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
