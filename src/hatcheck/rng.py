"""Deterministic 64-bit random generator (splitmix64).

All sampling in this package flows from a single user-supplied seed
through this generator, so reports are reproducible across platforms and
Python versions.  The update rule is the standard splitmix64 step:

    state  = (state + GAMMA) mod 2^64
    output = mix(state)

    mix(z): z = (z XOR (z >> 30)) * MUL1   mod 2^64
            z = (z XOR (z >> 27)) * MUL2   mod 2^64
            return z XOR (z >> 31)

Bounded draws use rejection sampling on the top multiple of the bound,
which keeps the distribution exactly uniform and the stream portable.

Counter form.  The state only ever moves by GAMMA, so draw k (counting
from 0) of a generator whose state is s is mix(s + (k+1)*GAMMA): any
draw can be computed without the ones before it.  mix is a bijection
(each step is an invertible xorshift or an odd multiplier), and unmix is
its inverse.  That places the rejections of below(n) too: the output x
is rejected when x >= 2^64 - (2^64 mod n), and the state that yields it
is unmix(x).  Scaled by GAMMA^-1, states become plain counters: with
key(s) = s * GAMMA^-1 mod 2^64, draw k from state s has key
key(s) + k + 1.  rejection_keys(n) lists, sorted, the keys of every
state whose output below(n) rejects, so whether a run of draws contains
a rejection is one range lookup.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MUL1 = 0xBF58476D1CE4E5B9
MUL2 = 0x94D049BB133111EB
GAMMA_INV = pow(GAMMA, -1, 1 << 64)
_MUL1_INV = pow(MUL1, -1, 1 << 64)
_MUL2_INV = pow(MUL2, -1, 1 << 64)

# a bound with more rejecting outputs than this has its runs of draws
# scanned instead of looked up; inverting 2^12 outputs takes about 7 ms,
# once per bound
MAX_REJECTION_KEYS = 1 << 12


def mix(z: int) -> int:
    """The splitmix64 output function of a 64-bit state."""
    z = ((z ^ (z >> 30)) * MUL1) & MASK
    z = ((z ^ (z >> 27)) * MUL2) & MASK
    return z ^ (z >> 31)


def _unshift(y: int, s: int) -> int:
    """Inverse of z -> z XOR (z >> s) on 64-bit ints."""
    z = y
    for _ in range(64 // s):
        z = y ^ (z >> s)
    return z


def unmix(x: int) -> int:
    """The state whose mix is x."""
    z = _unshift(x, 31)
    z = _unshift((z * _MUL2_INV) & MASK, 27)
    return _unshift((z * _MUL1_INV) & MASK, 30)


@lru_cache(maxsize=64)
def rejection_keys(n: int):
    """Sorted keys (see the module docstring) of the states below(n) rejects.

    None when there are more than MAX_REJECTION_KEYS of them.
    """
    rejected = (1 << 64) % n
    if rejected > MAX_REJECTION_KEYS:
        return None
    return tuple(sorted((unmix(x) * GAMMA_INV) & MASK for x in range((1 << 64) - rejected, 1 << 64)))


def _keyed_offsets(keys: tuple, first: int, count: int) -> list:
    """Ascending k in [0, count) with first + k a key, all mod 2^64."""
    end = first + count
    hits = keys[bisect_left(keys, first) : bisect_left(keys, end)]
    if end > MASK:
        hits += tuple(k + (1 << 64) for k in keys[: bisect_left(keys, end - (1 << 64))])
    return [k - first for k in hits]


def clean_run(bounds, state: int, draws: int) -> bool:
    """True if below(n) rejects none of the next `draws` draws from state,
    for every n in bounds: one range lookup each.  False, unchecked, for
    a bound without rejection keys."""
    first = (state * GAMMA_INV + 1) & MASK  # key of draw 0
    end = first + draws
    for n in bounds:
        keys = rejection_keys(n)
        if keys is None:
            return False
        i = bisect_left(keys, first)
        if i < len(keys) and keys[i] < end or end > MASK and keys and keys[0] < end - (1 << 64):
            return False
    return True


def rejections(n: int, state: int, accepted: int) -> list:
    """Draws below(n) rejects on its next `accepted` results from state.

    Offsets k, ascending, of the rejected draws mix(state + (k+1)*GAMMA);
    the calls consume accepted + len(result) draws in all.
    """
    keys = rejection_keys(n)
    if keys is None:
        # too many rejecting outputs to invert: scan the run instead
        limit = (1 << 64) - ((1 << 64) % n)
        out, k = [], 0
        while accepted:
            k += 1
            if mix((state + k * GAMMA) & MASK) >= limit:
                out.append(k - 1)
            else:
                accepted -= 1
        return out
    first = (state * GAMMA_INV + 1) & MASK  # key of draw 0
    out, done = [], 0
    while accepted:
        # a rejection in the run lengthens it by one draw, which may reject too
        hits = _keyed_offsets(keys, (first + done) & MASK, accepted)
        out += [done + k for k in hits]
        done += accepted
        accepted = len(hits)
    return out


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
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n
