#!/usr/bin/env python3
"""Convergence of the two-guess growth constant.

The sequence a_{n+1} = a_n^2 - a_n + 1 doubles its exponent each step;
b_n = (a_n - 1/2)^(1/2^(n-1)) climbs to the constant theta that turns
the recursion into a closed-form bound a_n <= theta^(2^(n-1)) + 1/2.
Prints the b_n ladder, enclosures at several precisions, and the log2
safety margin of the closed form at each n.
"""

import argparse
import sys
from pathlib import Path

import mpmath

# run from a plain checkout: the package sources come first, as under pytest
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hatcheck.bounds import theta_estimate, two_guess_seq


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--terms", type=int, default=10, help="how many b_n to print")
    ap.add_argument("--margin-terms", type=int, default=20)
    args = ap.parse_args()

    with mpmath.workprec(300):
        print("b_n ladder:")
        for n in range(1, args.terms + 1):
            a_n = two_guess_seq(n)
            log2_b = (mpmath.log(mpmath.mpf(2 * a_n.exact - 1), 2) - 1) / 2 ** (n - 1)
            print(f"  n={n:2d}  digits(a_n)={len(a_n.to_text()):6d}  b_n={2 ** log2_b}")

        print("enclosures:")
        for bits in (32, 64, 128, 256):
            lo, hi = theta_estimate(bits)
            width = hi - lo
            print(
                f"  bits={bits:3d}  lo={float(lo):.15f}  hi={float(hi):.15f}"
                f"  width=2^{mpmath.log(mpmath.mpf(width.numerator) / width.denominator, 2)}"
            )

        _, hi = theta_estimate(128)
        log2_hi = mpmath.log(mpmath.mpf(hi.numerator) / hi.denominator, 2)
        print("closed-form margin, log2(theta_hi^(2^(n-1)) + 1/2) headroom:")
        for n in range(1, args.margin_terms + 1):
            a_n = two_guess_seq(n).exact
            lhs = mpmath.log(mpmath.mpf(2 * a_n - 1), 2) - 1
            margin = 2 ** (n - 1) * log2_hi - lhs
            print(f"  n={n:2d}  margin={mpmath.nstr(margin, 6)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
