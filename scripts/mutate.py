"""Mutation check of the tier-1 suite: every catalog mutant must fail it.

    python3 scripts/mutate.py [TREE] [--only NAME ...] > mutants.jsonl

TREE is a git revision, exported by ``git archive`` as ``scripts/ab.py`` exports
a side, or a directory, copied; it defaults to this working tree.  Each mutant,
one exact source edit whose old text must occur once, is applied to a fresh copy
of TREE.  The copy's tier-1 suite then runs with ``-x`` under the ``mutate``
Hypothesis profile of ``tests/conftest.py``, which skips shrinking: first the
mutant's ``first`` test file, which only orders the run, and, if that passes,
the whole suite.  One JSON line per mutant goes to stdout: killed, survived or
error, the first failing test, and the seconds taken.  The exit status is 1 when
a mutant is not killed and the catalog does not mark it equivalent with a reason.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import NamedTuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab import REPO, side_root  # noqa: E402

# Not run on a mutant: the smoke test of this script would run it again on
# each one, and the benchmark A/A run (12 s) checks the harness, not the library.
DESELECT = ("tests/test_package.py::test_mutate_kills_a_catalog_mutant",
            "tests/test_package.py::test_ab_workload_a_against_itself")
# A mutant that runs the suite past this is reported as an error, not killed.
TIMEOUT = 300


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    why: str
    first: str  # the test file run first
    equivalent: str = ""  # why surviving is correct, for a mutant that cannot fail


SAME_SCALARS = """        return (self.re_num == other.re_num and self.im_num == other.im_num
                and self.den == other.den)"""

CATALOG = [
    # the 16 mutants of ROADMAP's mutation probe at 9730792
    Mutant("p-free-slice-one-order-low", "src/starquant/star.py",
           "entries[bisect_left(entries, (n,)):]", "entries[bisect_left(entries, (n - 1,)):]",
           "the p-free slice of a table cut one order low", "tests/test_star.py"),
    Mutant("leibniz-weight-from-3", "src/starquant/observables.py",
           "                w *= d\n", "                w *= d if d < 3 else d + 1\n",
           "a wrong _leibniz_terms weight at d >= 3", "tests/test_gns.py"),
    Mutant("tail-without-order-3", "src/starquant/evolution.py",
           "if b >= 3 and b % 2:", "if b >= 5 and b % 2:",
           "the odd-order tail R without its order-3 term", "tests/test_evolution.py"),
    Mutant("i-cubed-rotation-sign", "src/starquant/star.py",
           "(-re, -im), (im, -re))", "(-re, -im), (im, re))",
           "a wrong sign in _sum's i^3 rotation", "tests/test_star.py"),
    Mutant("moment-from-h-3", "src/starquant/gns.py",
           "            moment *= up ** h\n", "            moment *= up ** h * (1 + (h >= 3))\n",
           "a wrong Gaussian moment in omega0 for |alpha|/2 >= 3", "tests/test_gns.py"),
    Mutant("compositions-drop-full-head", "src/starquant/observables.py",
           "        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, end)))\n",
           "        if slots < 4 or bars[0] != total:\n"
           "            yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, end)))\n",
           "_compositions dropping head = total at 4 or more slots", "tests/test_gns.py"),
    Mutant("table-work-limit-2x", "src/starquant/star.py",
           "MAX_TABLE_WORK = 250_000_000", "MAX_TABLE_WORK = 500_000_000",
           "MAX_TABLE_WORK loosened 2x", "tests/test_star.py"),
    Mutant("moment-limit-2x", "src/starquant/gns.py",
           "MAX_MOMENT_EXPONENT = 10_000", "MAX_MOMENT_EXPONENT = 20_000",
           "MAX_MOMENT_EXPONENT loosened 2x", "tests/test_gns.py"),
    Mutant("grid-values-limit-2x", "src/starquant/cli.py",
           "MAX_GRID_VALUES = 2 ** 21", "MAX_GRID_VALUES = 2 ** 22",
           "MAX_GRID_VALUES loosened 2x", "tests/test_cli.py"),
    Mutant("weyl-monomials-limit-2x", "src/starquant/gns.py",
           "MAX_WEYL_MONOMIALS = 300", "MAX_WEYL_MONOMIALS = 600",
           "MAX_WEYL_MONOMIALS loosened 2x", "tests/test_gns.py"),
    Mutant("scalar-eq-true", "src/starquant/scalars.py", SAME_SCALARS, "        return True",
           "Scalar.__eq__ returning True", "tests/test_equality.py"),
    Mutant("scalar-eq-real-part", "src/starquant/scalars.py", SAME_SCALARS,
           "        return self.re_num == other.re_num and self.den == other.den",
           "Scalar.__eq__ ignoring the imaginary part", "tests/test_equality.py"),
    Mutant("series-eq-orders", "src/starquant/scalars.py",
           "isinstance(other, LaurentSeries) and self.terms == other.terms",
           "isinstance(other, LaurentSeries) and self.terms.keys() == other.terms.keys()",
           "LaurentSeries.__eq__ comparing orders only", "tests/test_equality.py"),
    Mutant("polynomial-eq-keys", "src/starquant/observables.py",
           "self.dim == other.dim and self.terms == other.terms",
           "self.dim == other.dim and self.terms.keys() == other.terms.keys()",
           "PhasePolynomial.__eq__ comparing term keys only", "tests/test_equality.py"),
    Mutant("observable-eq-rate", "src/starquant/observables.py",
           "and self.rate == other.rate and self.body == other.body)",
           "and self.body == other.body)",
           "GaussianObservable.__eq__ ignoring the rate", "tests/test_equality.py"),
    Mutant("combined-limit-2x", "src/starquant/star.py",
           "if held > MAX_COMBINED:", "if held > 2 * MAX_COMBINED:",
           "_sum's MAX_COMBINED check loosened 2x", "tests/test_star.py"),
    # one for each part of the constant per-call bookkeeping
    Mutant("bound-skips-exact-pricing", "src/starquant/star.py",
           "for price in priced() if", "for price in [largest] * tables if",
           "past the budget, _check_work sums the bound instead of each table's price",
           "tests/test_star.py"),
    Mutant("phase-sum-unreduced", "src/starquant/phase.py",
           "                m = gcd(n, d)\n", "                m = 1\n",
           "_per_phase groups jobs by unreduced phase sums, so a phase reached two ways "
           "keeps only one group", "tests/test_phase.py"),
    Mutant("i-power-swapped", "src/starquant/scalars.py",
           "_I_POWERS = (ONE, I, -ONE, -I)", "_I_POWERS = (ONE, -I, -ONE, I)",
           "i_power with the entries of i and -i swapped", "tests/test_scalars.py"),
    Mutant("omega0-keeps-zero-sums", "src/starquant/gns.py",
           "for k, (re, im) in acc.items() if re or im})",
           "for k, (re, im) in acc.items()})",
           "omega0 keeping the orders whose moments cancel", "tests/test_gns.py"),
]


def fresh_copy(tree: str, dest: str) -> str:
    """An exported revision, or a copy of a directory, at dest."""
    root, kind, _ = side_root(tree, dest)
    if kind == "dir":
        shutil.copytree(root, dest, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", ".bench_out",
            ".benchmarks"))
    return dest


def apply(root: str, mutant: Mutant) -> None:
    path = os.path.join(root, mutant.path)
    with open(path) as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.path}, not once")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def first_failure(root: str, paths: list[str]) -> tuple[str, str | None]:
    """(outcome, test): killed and the first failing test, survived, or error."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
               "--hypothesis-profile=mutate", *(f"--deselect={test}" for test in DESELECT),
               *paths]
    try:
        done = subprocess.run(command, cwd=root, env={**os.environ,
                                                      "PYTHONPATH": os.path.join(root, "src")},
                              capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "error", f"no result within {TIMEOUT} s"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    if done.returncode == 0:
        return "survived", None
    if done.returncode in (1, 2) and failed:
        return "killed", failed[1]
    return "error", f"pytest exit {done.returncode}: {done.stdout[-300:]}"


def run(tree: str, mutant: Mutant, work: str) -> dict:
    start = perf_counter()
    root = fresh_copy(tree, os.path.join(work, mutant.name))
    apply(root, mutant)
    outcome, test = first_failure(root, [mutant.first])
    if outcome == "survived":
        outcome, test = first_failure(root, ["tests"])
    shutil.rmtree(root)
    return {"mutant": mutant.name, "path": mutant.path, "why": mutant.why, "outcome": outcome,
            "first_failure": test, "equivalent": mutant.equivalent or None,
            "seconds": round(perf_counter() - start, 2)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=REPO,
                        help="a git revision or a directory (default: this working tree)")
    parser.add_argument("--only", nargs="+", metavar="NAME", choices=[m.name for m in CATALOG],
                        help="run only these catalog mutants")
    args = parser.parse_args()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as work:
        for mutant in CATALOG:
            if args.only and mutant.name not in args.only:
                continue
            result = run(args.tree, mutant, work)
            print(json.dumps(result), flush=True)
            failed += result["outcome"] != "killed" and not mutant.equivalent
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
