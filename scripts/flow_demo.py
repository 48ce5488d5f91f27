"""Show the Heisenberg flow next to its oscillatory-phase cross-check.

For a few (H, S) pairs, prints A_t H computed by the evolution module
and by conjugation with e^{i t S / lambda}, flagging the quantum
correction terms (everything above lambda order zero).  The two routes
share only the polynomial layer and its Leibniz-term enumerator, and
neither calls the star kernel, so agreement here exercises the whole
symbolic stack.
"""

from __future__ import annotations

from fractions import Fraction

from starquant import ActionData, GaussianObservable, PhasePolynomial, conjugate_by_phase, evolve
from starquant.render import pretty_polynomial

Q = PhasePolynomial.coordinate_q(0, 1)
P = PhasePolynomial.coordinate_p(0, 1)

CASES = [
    ("p", P, "q^2/2", Q * Q * Fraction(1, 2)),
    ("p^2", P * P, "q^3", Q ** 3),
    ("p^3", P ** 3, "q^3", Q ** 3),
    ("p^3 + q*p", P ** 3 + Q * P, "q^2/2", Q * Q * Fraction(1, 2)),
]


def quantum_part(poly: PhasePolynomial) -> PhasePolynomial:
    parts = poly.lambda_components()
    out = PhasePolynomial.zero(poly.dim)
    for k, component in parts.items():
        if k > 0:
            out = out + component.mul_lambda(k)
    return out


def main() -> None:
    for t in (Fraction(1), Fraction(1, 2)):
        print(f"--- t = {t} ---")
        for h_label, h, s_label, s_poly in CASES:
            s = ActionData(s_poly)
            flowed = evolve(GaussianObservable(h), t, s).body
            dressed = conjugate_by_phase(h, s, t)
            tag = "agree" if flowed == dressed else "DISAGREE"
            print(f"A_t[{h_label}]  (S = {s_label}):")
            print(f"  evolve:     {pretty_polynomial(flowed)}")
            print(f"  phase conj: {pretty_polynomial(dressed)}   [{tag}]")
            correction = quantum_part(flowed)
            if not correction.is_zero():
                print(f"  quantum correction: {pretty_polynomial(correction)}")
        print()


if __name__ == "__main__":
    main()
