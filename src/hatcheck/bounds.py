"""Growth sequences and closed-form bounds, exact or in log2 form.

Values carry one of two representations: exact (int or Fraction) while
the stored integers stay under a digit guard, and a log2 interval with
decimal.Decimal ends beyond it.  The intervals are computed in one
40-digit decimal context, whose + - * / ln and exp round correctly, and
each result is padded outward by 2^-90 of itself plus 2^-120, far more
than its rounding, so every interval is a true enclosure; comparisons
refuse to order overlapping intervals instead of guessing.

Both sequences here are Sylvester's, x_0 = 1, x_1 = 2,
x_{k+1} = x_k^2 - x_k + 1 (each term is one more than the product of
all earlier ones); the two-guess sequence is the same one shifted by an
index, a(n) = sylvester(n + 1) for n >= 1.  They grow doubly
exponentially, the cycle-length bound is (64/25) raised to a power of
two, and the degenerate-tree bounds iterate x -> x^k, so log2 forms are
the common case beyond tiny arguments.

A sequence term is exact when it fits under the guard (the sequence
increases, so every earlier term then fits too).  Whether it does is
decided without building a term that would cross it: terms are squared
exactly only up to a few thousand bits, then the padded log2 recurrence
is walked on to the requested term, and its enclosure is compared with
the guard.  Under it, exact squaring resumes; at or above it, the
walked interval is the value.  An enclosure that straddles the guard
raises IndeterminateComparisonError.  That cannot happen at
DIGIT_GUARD: the nearest term up to the index cap, a(22) =
sylvester(23), is about 486k bits under it.

Exact values print in full, and never through int.__str__ above 600
digits: it is quadratic in CPython before 3.12 and subject to the
int-to-str digit limit.  A sequence term or cycle-length bound past that
size gets its digits from a run of its own chain on `decimal.Decimal`
(Sylvester's step, or the squaring of 64 and 25), in a fixed local
context wide enough that every step is exact; a step that would round
raises instead.  libmpdec multiplies large numbers fast and
Decimal.__str__ is linear, so the 426,881 digits of a(21) cost about
0.02 s.  Such a value is deferred: it carries its digits, and its int or
Fraction is built by the binary chain only when .exact is first read
(0.04-0.07 s more for a(21)), so printing it never builds it.  Any other
integer of 600 or more digits, such as one passed to
BigBound.from_exact, is rendered by divide and conquer on powers of two
into a Decimal (Knuth, TAOCP vol. 2, 4.4).  Neither path reads the
process's int-to-str limit or decimal context, and nothing global is
changed.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import isqrt
from typing import Callable, Optional, Union

from .errors import IndeterminateComparisonError

ExactValue = Union[int, Fraction]

# exact integers are kept up to this many decimal digits (per stored
# integer: a fraction's numerator and denominator count separately)
DIGIT_GUARD = 10**6
GUARD_BITS = int(DIGIT_GUARD * math.log2(10))

_SEQ_LIMIT = 64
# sequence terms are squared exactly only up to this size; past it the
# exact/log switch is decided from a log2 enclosure (see _sylvester_term)
_WORK_BITS = 4096

# the one working context of the log2 enclosures (see the module
# docstring); Overflow traps rather than giving Infinity
_CTX = decimal.Context(prec=40, Emax=decimal.MAX_EMAX)
_PAD_REL = _CTX.power(2, -90)
_PAD_ABS = _CTX.power(2, -120)
_LN2 = _CTX.ln(2)

# t**h in the degenerate-tree bounds stays a machine-scale integer, and
# their log2 under 10^MAX_EMAX: at h log2 t = 53 the closed form's is
# 8.6e+585670424961447822, at 54 the recursive one's 1.2e+1171340849922895643
_NESTED_LIMIT_BITS = 53


def _pad_down(x):
    return x - abs(x) * _PAD_REL - _PAD_ABS


def _pad_up(x):
    return x + abs(x) * _PAD_REL + _PAD_ABS


def _log2(v) -> decimal.Decimal:
    return decimal.Decimal(v).ln() / _LN2


def _nstr(x: decimal.Decimal, n: int) -> str:
    """x to n significant digits in the layout of mpmath.nstr: the digits
    are cut to n + 3, then rounded half up to n; fixed point when the
    leading digit's exponent is in (-5, n), else d.ddde+X; trailing zeros
    are stripped down to .0."""
    ctx = decimal.Context(prec=n, rounding=decimal.ROUND_HALF_UP, Emax=decimal.MAX_EMAX)
    cut = decimal.Context(prec=n + 3, rounding=decimal.ROUND_DOWN, Emax=decimal.MAX_EMAX).plus(x)
    y = ctx.plus(cut)
    exp = y.adjusted()
    fixed = -5 < exp < n
    text = f"{ctx.normalize(y if fixed else ctx.scaleb(y, -exp)):f}"
    if "." not in text:
        text += ".0"
    return text if fixed else f"{text}e{exp:+d}"


# 2^1990 < 10^600: below this, str(v) has at most 600 digits, under the
# lowest int-to-str limit (640) CPython accepts
_STR_BITS = 1990
# leaves of the power-of-two split convert to Decimal directly
_LEAF_BITS = 128
# integer arithmetic on Decimal at this context is exact: a step that
# would round raises Inexact instead
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])


def decimal_text(v: int) -> str:
    """str(v) in subquadratic time and regardless of the int-to-str limit.

    v = hi * 2^w2 + lo is rebuilt recursively as an exact Decimal (each
    power of two computed once), and Decimal.__str__ is linear.
    """
    if v.bit_length() < _STR_BITS:
        return str(v)
    two = decimal.Decimal(2)
    powers = {}

    def pow2(w: int) -> decimal.Decimal:
        p = powers.get(w)
        if p is None:
            if w <= _LEAF_BITS:
                p = two**w
            elif w - 1 in powers:
                p = powers[w - 1] + powers[w - 1]
            else:
                p = pow2(w >> 1) * pow2(w - (w >> 1))
            powers[w] = p
        return p

    def build(x: int, w: int) -> decimal.Decimal:
        if w <= _LEAF_BITS:
            return decimal.Decimal(x)
        w2 = w >> 1
        hi = x >> w2
        return build(x - (hi << w2), w2) + build(hi, w - w2) * pow2(w2)

    with decimal.localcontext(_EXACT):
        return str(build(v, v.bit_length()))


def _log2_interval_of_int(v: int):
    # only the top bits are read, since Decimal(v) is quadratic in the
    # length of v: v >> s <= v / 2^s < (v >> s) + 1
    s = max(0, v.bit_length() - 256)
    top = v >> s
    return _pad_down(s + _log2(top)), _pad_up(s + _log2(top + 1 if s else top))


def _log2_interval_of_exact(v: ExactValue):
    if v == 0:
        return decimal.Decimal("-inf"), decimal.Decimal("-inf")
    if isinstance(v, int):
        return _log2_interval_of_int(v)
    nlo, nhi = _log2_interval_of_int(v.numerator)
    dlo, dhi = _log2_interval_of_int(v.denominator)
    return _pad_down(nlo - dhi), _pad_up(nhi - dlo)


@dataclass(frozen=True, eq=False)
class BigBound:
    """A non-negative value, exact or enclosed by a log2 interval.

    An exact value may be deferred: it is made with its decimal digits
    and a build of its int or Fraction, which .exact runs on its first
    read and keeps.  to_text and is_exact never run it, nor does
    log2_interval when the value carries an enclosure of its own.
    Equality, hashing and ordering read .exact, so a deferred value
    compares as the int or Fraction it builds.
    """

    _exact: Optional[ExactValue] = None
    # an enclosure of the value: the value itself for a log2 form, and
    # optional for an exact value, whose enclosure is otherwise computed
    # from .exact
    log2_lo: Optional[object] = None
    log2_hi: Optional[object] = None
    # a deferred exact value's decimal text, and the build of its int or
    # Fraction that .exact runs on first read
    digits: Optional[str] = field(default=None, repr=False)
    _build: Optional[Callable[[], ExactValue]] = field(default=None, repr=False)

    @classmethod
    def from_exact(cls, value: ExactValue) -> "BigBound":
        if value < 0:
            raise ValueError("bounds are non-negative")
        if isinstance(value, Fraction) and value.denominator == 1:
            value = value.numerator
        return cls(_exact=value)

    @classmethod
    def from_log2(cls, lo, hi) -> "BigBound":
        if lo > hi:
            raise ValueError("empty log2 interval")
        return cls(log2_lo=lo, log2_hi=hi)

    @property
    def exact(self) -> Optional[ExactValue]:
        if self._exact is None and self._build is not None:
            object.__setattr__(self, "_exact", self._build())
        return self._exact

    @property
    def is_exact(self) -> bool:
        return self._exact is not None or self._build is not None

    def _key(self) -> tuple:
        return (self.exact,) if self.is_exact else (self.log2_lo, self.log2_hi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigBound):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def log2_interval(self):
        if self.log2_lo is not None:
            return self.log2_lo, self.log2_hi
        with decimal.localcontext(_CTX):
            return _log2_interval_of_exact(self.exact)

    def log2_interval_text(self) -> str:
        """The log2 enclosure as [lo, hi], each end to 17 digits."""
        lo, hi = self.log2_interval()
        return f"[{_nstr(lo, 17)}, {_nstr(hi, 17)}]"

    def approx_text(self) -> str:
        """The value to 12 digits, from the middle of its log2 enclosure."""
        lo, hi = self.log2_interval()
        with decimal.localcontext(_CTX):
            return _nstr(((lo + hi) / 2 * _LN2).exp(), 12)

    def to_text(self) -> str:
        if self.digits is not None:
            return self.digits
        if self.is_exact:
            if isinstance(self.exact, Fraction):
                return f"{decimal_text(self.exact.numerator)}/{decimal_text(self.exact.denominator)}"
            return decimal_text(self.exact)
        with decimal.localcontext(_CTX):
            return f"2^{_nstr((self.log2_lo + self.log2_hi) / 2, 17)}"

    def _precedes(self, other, strict: bool) -> bool:
        """self < other if strict, else self <= other.

        Unless both are exact, this is decided from the log2 enclosures,
        and IndeterminateComparisonError is raised where they overlap
        too much to decide it.
        """
        other = _coerce(other)
        if self.is_exact and other.is_exact:
            return self.exact < other.exact if strict else self.exact <= other.exact
        a_lo, a_hi = self.log2_interval()
        b_lo, b_hi = other.log2_interval()
        if a_hi < b_lo or (a_hi == b_lo and not strict):
            return True
        if a_lo > b_hi or (a_lo == b_hi and strict):
            return False
        raise IndeterminateComparisonError(
            f"cannot order log2 intervals [{a_lo}, {a_hi}] and [{b_lo}, {b_hi}]"
        )

    def __le__(self, other) -> bool:
        return self._precedes(other, strict=False)

    def __lt__(self, other) -> bool:
        return self._precedes(other, strict=True)

    def __ge__(self, other) -> bool:
        return _coerce(other).__le__(self)

    def __gt__(self, other) -> bool:
        return _coerce(other).__lt__(self)


def _coerce(value) -> BigBound:
    if isinstance(value, BigBound):
        return value
    if isinstance(value, (int, Fraction)):
        return BigBound.from_exact(value)
    raise TypeError(f"cannot compare BigBound with {type(value).__name__}")


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError("sequence index must be non-negative")
    if n > _SEQ_LIMIT:
        raise ValueError(f"sequence index capped at {_SEQ_LIMIT}")


def _sylvester_step(x):
    """Sylvester's x -> x^2 - x + 1, on int, or exactly on Decimal under _EXACT."""
    return x * x - x + 1


def _sylvester_term(n: int) -> BigBound:
    """x_n of x_0 = 1, x_1 = 2, x_{k+1} = x_k^2 - x_k + 1.

    Terms are exact while they fit under the digit guard and log2
    intervals beyond it.  Terms are squared exactly only up to
    _WORK_BITS.  Past that, the log2 enclosure is walked on to x_n
    first: if it lies under GUARD_BITS, the term is exact, and the exact
    squaring resumes where it stopped once .exact is read; if at or
    above, the walked interval is the result.  No term over the guard is
    ever built.  An enclosure that straddles the guard raises
    IndeterminateComparisonError.
    """
    if n == 0:
        return BigBound.from_exact(1)
    x, k = 2, 1
    while k < n and x.bit_length() <= min(_WORK_BITS, GUARD_BITS):
        x = _sylvester_step(x)
        k += 1
    # exact test; only a guard near or under _WORK_BITS trips it
    if x.bit_length() > GUARD_BITS:
        return _sylvester_log2(n, k, x)
    if k < n:
        tail = _sylvester_log2(n, k, x)
        if tail.log2_lo >= GUARD_BITS:
            return tail
        if tail.log2_hi >= GUARD_BITS:
            raise IndeterminateComparisonError(
                f"sylvester term {n} has log2 in [{tail.log2_lo}, {tail.log2_hi}], "
                f"which straddles the {GUARD_BITS}-bit guard"
            )
    if x.bit_length() < _STR_BITS:
        return BigBound.from_exact(x)
    # the digits from the same chain run on Decimal; the int squaring
    # from x_k on waits for a reader of .exact
    with decimal.localcontext(_EXACT):
        d = decimal.Decimal(2)
        for _ in range(n - 1):
            d = _sylvester_step(d)
        digits = str(d)
    return BigBound(digits=digits, _build=partial(_sylvester_steps, x, n - k))


def _sylvester_steps(x: int, steps: int) -> int:
    """x after the given number of Sylvester steps."""
    for _ in range(steps):
        x = _sylvester_step(x)
    return x


def _sylvester_log2(n: int, k: int, x: int) -> BigBound:
    """log2 enclosure of x_n from the exact x_k, 1 <= k <= n."""
    with decimal.localcontext(_CTX):
        lo, hi = _log2_interval_of_int(x)
        while k < n:
            # x^2 (1 - 1/x) < x^2 - x + 1 < x^2, and for x >= 2,
            # log2(1 - 1/x) >= max(-1, -2^(2 - floor(log2 x))); the drop
            # allowed is that bound, but never less than 2^-60
            drop = decimal.Decimal(2) ** -min(60, max(0, math.floor(lo) - 2))
            lo = _pad_down(2 * lo - drop)
            hi = _pad_up(2 * hi)
            k += 1
        return BigBound.from_log2(lo, hi)


def sylvester(n: int) -> BigBound:
    """n-th term of 1, 2, 3, 7, 43, 1807, ...: each term is one more
    than the product of all previous terms."""
    _check_index(n)
    return _sylvester_term(n)


def two_guess_seq(n: int) -> BigBound:
    """n-th term of 1, 3, 7, 43, 1807, ...: each term is one more than
    twice the product of all previous terms, so a(n) = sylvester(n + 1)
    for n >= 1."""
    _check_index(n)
    return _sylvester_term(n + 1) if n else BigBound.from_exact(1)


def _sqrt_down(x: Fraction, bits: int) -> Fraction:
    """Largest multiple of 2^-bits at most sqrt(x)."""
    scaled = (x.numerator << (2 * bits)) // x.denominator
    return Fraction(isqrt(scaled), 1 << bits)


def _sqrt_up(x: Fraction, bits: int) -> Fraction:
    """A multiple of 2^-bits at least sqrt(x)."""
    scaled = -((-x.numerator << (2 * bits)) // x.denominator)
    return Fraction(isqrt(scaled) + 1, 1 << bits)


# depth of the sequence recursion used for the growth-rate constant;
# the tail beyond it is below 2^-1000, far inside the final padding
_THETA_TERMS = 12


def theta_estimate(precision_bits: int):
    """Enclosure of the doubling constant of the two-guess sequence.

    The sequence satisfies a_{n+1} = a_n^2 - a_n + 1, so u_n = a_n - 1/2
    satisfies u_{n+1} = u_n^2 + 1/4 and b_n = u_n^(1/2^(n-1)) increases
    to a limit theta with a_n <= theta^(2^(n-1)) + 1/2.  The enclosure
    takes b_N for a deep fixed N by directed rational square roots and
    pads the upper end to absorb the (vastly smaller) remaining tail.

    Returns (lo, hi) as Fractions with hi - lo <= 2^-(precision_bits/2).
    """
    if not 1 <= precision_bits <= 256:
        raise ValueError("precision_bits must be in 1..256")
    a = two_guess_seq(_THETA_TERMS).exact
    u = Fraction(2 * a - 1, 2)
    bits = precision_bits + 32
    lo = hi = u
    for _ in range(_THETA_TERMS - 1):
        lo = _sqrt_down(lo, bits)
        hi = _sqrt_up(hi, bits)
    hi += Fraction(1, 2 ** (precision_bits // 2 + 2))
    return lo, hi


def circ_bound(c: int) -> BigBound:
    """Value of (64/25)^(2^(floor(c*c/2) - 1)) + 1/2 for cycle bound c."""
    if c < 3:
        raise ValueError("cycle-length bound needs c >= 3")
    if c > 2**16:
        raise ValueError("c capped at 2^16")
    d = (c * c) // 2
    exponent_log2 = d - 1
    # numerator digits are the binding size: 64^(2^(d-1)) has about
    # 1.8 * 2^(d-1) decimal digits
    fits = exponent_log2 <= 60 and (2**exponent_log2) * 6 <= GUARD_BITS
    # 2 * 64^N + 25^N over 2 * 25^N, in lowest terms: the numerator has
    # 6N + 2 bits
    if fits and 6 * 2**exponent_log2 + 2 < _STR_BITS:
        return BigBound.from_exact(_circ_fraction(2**exponent_log2))
    with decimal.localcontext(_CTX):
        base_lo, base_hi = _log2_interval_of_exact(Fraction(64, 25))
        exp = decimal.Decimal(2) ** exponent_log2
        lo = _pad_down(exp * base_lo)
        # the +1/2 lifts log2 by less than 2^-60 at these magnitudes
        hi = _pad_up(exp * base_hi + decimal.Decimal(2) ** -60)
    if not fits:
        return BigBound.from_log2(lo, hi)
    # a power of two as exponent makes ** a chain of squarings on either
    # type; the Fraction waits for a reader of .exact
    n = 2**exponent_log2
    with decimal.localcontext(_EXACT):
        p, q = decimal.Decimal(64) ** n, decimal.Decimal(25) ** n
        digits = f"{2 * p + q}/{2 * q}"
    return BigBound(log2_lo=lo, log2_hi=hi, digits=digits, _build=partial(_circ_fraction, n))


def _circ_fraction(n: int) -> Fraction:
    """(64/25)^n + 1/2."""
    return Fraction(64, 25) ** n + Fraction(1, 2)


def _e_enclosure(bits: int = 180):
    # e is the sum of 1/k!: the terms k <= 60 sum to num / 60!, and the
    # rest to less than 1 / (60 * 60!)
    f = math.factorial(60)
    num = sum(f // math.factorial(k) for k in range(61))
    lo = (num << bits) // f
    hi = -(-((60 * num + 1) << bits) // (60 * f))
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


def ceil_e_times(t: int) -> int:
    """ceil(e * t), exactly; ArithmeticError if the enclosure of e cannot decide it."""
    e_lo, e_hi = _e_enclosure()
    lo = math.ceil(t * e_lo)
    hi = math.ceil(t * e_hi)
    if lo != hi:
        raise ArithmeticError(f"e*{t} too close to an integer to round")
    return hi


def _check_nested(h: int, t: int) -> None:
    if h * math.log2(t) > _NESTED_LIMIT_BITS:
        raise ValueError(f"t**h for t={t}, h={h} exceeds the nested-log range")


def n_h_t_recursive(h: int, t: int) -> BigBound:
    """Recursive tree-threshold: start at ceil(e*t), then at each level
    j = 2..h apply x -> x^k exactly k times with k = 2*t^j, which in log2
    form multiplies by k^k."""
    if h < 1:
        raise ValueError("height must be >= 1")
    if t < 2:
        raise ValueError("arity must be >= 2")
    base = ceil_e_times(t)
    if h == 1:
        return BigBound.from_exact(base)
    _check_nested(h, t)
    with decimal.localcontext(_CTX):
        lo, hi = _log2_interval_of_int(base)
        for j in range(2, h + 1):
            k = 2 * t**j
            mult = decimal.Decimal(k) ** k
            lo = _pad_down(lo * _pad_down(mult))
            hi = _pad_up(hi * _pad_up(mult))
        return BigBound.from_log2(lo, hi)


def n_h_t_closed(h: int, t: int) -> BigBound:
    """Closed-form tree-threshold (et)^(2^(4t^h) * t^(4h*t^h)), log2 form."""
    if h < 1:
        raise ValueError("height must be >= 1")
    if t < 2:
        raise ValueError("arity must be >= 2")
    _check_nested(h, t)
    th = t**h
    with decimal.localcontext(_CTX):
        # log2(e t) = (1 + ln t) / ln 2
        log2_et = (1 + decimal.Decimal(t).ln()) / _LN2
        et_lo, et_hi = _pad_down(log2_et), _pad_up(log2_et)
        # E = 2^(4 t^h) * t^(4 h t^h); log2 E fits easily, E itself may
        # not.  2^x is exp(x ln 2), whose rounding the pad of log2 E,
        # 2^-90 of up to 2^61, dwarfs.
        log2_e_exp = 4 * th + 4 * h * th * _log2(t)
        exp_lo = _pad_down((_pad_down(log2_e_exp) * _LN2).exp())
        exp_hi = _pad_up((_pad_up(log2_e_exp) * _LN2).exp())
        return BigBound.from_log2(_pad_down(exp_lo * et_lo), _pad_up(exp_hi * et_hi))


def lll_degree_bound(t: int) -> float:
    """Color count e*t below which a local-lemma argument wins for
    graphs of maximum degree t-1."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return math.e * t
