"""Deterministic 64-bit random generator (splitmix64).

All sampling in this package flows from a single user-supplied seed
through this generator, so reports are reproducible across platforms and
Python versions.  The update rule is the standard splitmix64 step:

    state  = (state + 0x9E3779B97F4A7C15) mod 2^64
    z      = state
    z      = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z      = (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output = z XOR (z >> 31)

Bounded draws use rejection sampling on the top multiple of the bound,
which keeps the distribution exactly uniform and the stream portable.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n
