"""Sweep the operator correspondence over all monomials of bounded degree.

For every monomial q^alpha p^beta up to a total degree cap, compares
the represented operator pi0 against the symmetrized-word oracle
(average of all operator orderings) and reports counts and timing.
Degrees above 8 are refused by the oracle, which keeps the word count
sane, and sweeps of more than ``gns.MAX_WEYL_MONOMIALS`` monomials are
refused before any work.
"""

from __future__ import annotations

import argparse
import time

from starquant import weyl_check


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=1)
    parser.add_argument("--max-degree", type=int, default=6)
    args = parser.parse_args()

    start = time.perf_counter()
    checked, mismatched = weyl_check(args.dim, args.max_degree)
    elapsed = time.perf_counter() - start

    print(f"dim {args.dim}, total degree <= {args.max_degree}: "
          f"{checked} monomials in {elapsed:.2f}s")
    if mismatched:
        print(f"{len(mismatched)} MISMATCHES:")
        for alpha, beta in mismatched:
            print(f"  q^{alpha} p^{beta}")
    else:
        print("all representations equal the symmetrized words")


if __name__ == "__main__":
    main()
