"""Wall time, peak RSS and output hash of one CLI call from two checkouts.

    python3 scripts/cli_peak.py A B --runs 5 -- wkb solve1d --sprime-expr q^2+q \\
        --interval 1 2 --samples 1048576 --order 0 --bc 1 --json

A and B are directories that each hold a checkout with ``src/``.  Every
run is a fresh interpreter with that side's ``src/`` on ``PYTHONPATH``
that calls ``starquant.cli.main`` on the argv after ``--``; the two
sides alternate, the side that goes first alternating from run to run,
and never run at once.  A child's stdout is hashed as it is read, never
held whole.  The script prints per side the median wall time, the
median and range of the child's peak RSS (``ru_maxrss`` from
``os.wait4``, so of that child alone), the exit codes, and whether
every run of both sides wrote the same stdout (sha256).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
from time import perf_counter

ENTRY = "import sys; from starquant.cli import main; sys.exit(main())"


def run_once(root: str, argv: list[str]) -> tuple[float, float, int, str]:
    """(wall seconds, peak RSS in MB, exit code, stdout sha256) of one fresh run."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    digest = hashlib.sha256()
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    while chunk := proc.stdout.read(1 << 20):
        digest.update(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, usage.ru_maxrss / 1024, proc.returncode, digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="checkout directory of the baseline")
    parser.add_argument("b", help="checkout directory of the change")
    parser.add_argument("--runs", type=int, default=5, help="runs per side (default 5)")
    parser.usage = "%(prog)s A B [--runs N] -- ARGV..."
    words = sys.argv[1:]
    cut = words.index("--") if "--" in words else len(words)
    args = parser.parse_args(words[:cut])
    argv = words[cut + 1:]
    if not argv or args.runs < 1:
        parser.error("give at least one run and the CLI arguments after --")

    sides = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    results: dict[str, list] = {"A": [], "B": []}
    for i in range(args.runs):
        for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
            results[side].append(run_once(sides[side], argv))
    for side, runs in results.items():
        walls = [r[0] for r in runs]
        rss = [r[1] for r in runs]
        codes = sorted({r[2] for r in runs})
        print(f"{side}: wall median {statistics.median(walls):.3f} s "
              f"(min {min(walls):.3f}, max {max(walls):.3f}), "
              f"peak RSS median {statistics.median(rss):.1f} MB "
              f"(min {min(rss):.1f}, max {max(rss):.1f}), exit {codes}  [{sides[side]}]")
    hashes = {r[3] for runs in results.values() for r in runs}
    print(f"stdout sha256 equal: {'yes' if len(hashes) == 1 else 'no'}"
          f" ({', '.join(sorted(h[:12] for h in hashes))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
