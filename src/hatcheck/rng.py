"""Deterministic 64-bit random generator (splitmix64).

All sampling in this package flows from a single user-supplied seed
through this generator, so reports are reproducible across platforms and
Python versions.  The update rule is the standard splitmix64 step:

    state  = (state + GAMMA) mod 2^64
    output = mix(state)

    mix(z): z = (z XOR (z >> 30)) * MUL1   mod 2^64
            z = (z XOR (z >> 27)) * MUL2   mod 2^64
            return z XOR (z >> 31)

Bounded draws are one output reduced mod the bound: below(n) is
next_u64() % n.  Each output is uniform on [0, 2^64), so below(n) is
within total variation (2^64 mod n) / 2^64 < n / 2^64 of uniform on
[0, n): 9 * 10^-18 at n = 946, 3 * 10^-14 at n = 10^6.

Counter form.  The state only ever moves by GAMMA, and every bounded
draw takes exactly one output, so draw k (counting from 0) of a
generator whose state is s is mix(s + (k+1)*GAMMA): any draw can be
computed without the ones before it.
"""

from __future__ import annotations

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MUL1 = 0xBF58476D1CE4E5B9
MUL2 = 0x94D049BB133111EB


def mix(z: int) -> int:
    """The splitmix64 output function of a 64-bit state."""
    z = ((z ^ (z >> 30)) * MUL1) & MASK
    z = ((z ^ (z >> 27)) * MUL2) & MASK
    return z ^ (z >> 31)


class SplitMix64:
    def __init__(self, seed: int) -> None:
        self.state = seed & MASK

    def next_u64(self) -> int:
        # mix inlined: the solver's local search draws in its inner loop
        self.state = (self.state + GAMMA) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * MUL1) & MASK
        z = ((z ^ (z >> 27)) * MUL2) & MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Integer in [0, n), one output mod n (see the module docstring)."""
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n
