"""Sequences, theta, and the closed-form bounds with sound comparisons."""

import decimal
import functools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, strategies as st

from hatcheck import bounds
from hatcheck.bounds import (
    _STR_BITS,
    _WORK_BITS,
    BigBound,
    circ_bound,
    decimal_text,
    lll_degree_bound,
    n_h_t_closed,
    n_h_t_recursive,
    sylvester,
    theta_estimate,
    two_guess_seq,
)
from hatcheck.cli import entry
from hatcheck.errors import IndeterminateComparisonError


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

def test_sylvester_values():
    assert [sylvester(n).exact for n in range(6)] == [1, 2, 3, 7, 43, 1807]


def test_two_guess_seq_values():
    assert [two_guess_seq(n).exact for n in range(5)] == [1, 3, 7, 43, 1807]


def test_sequence_recursion_identity():
    # a_{n+1} - 1 = 2 * prod(a_0..a_n), checked on exact values
    prod = 1
    for n in range(12):
        prod *= two_guess_seq(n).exact
        assert two_guess_seq(n + 1).exact - 1 == 2 * prod


def test_a_equals_shifted_sylvester():
    # a_n and s_{n+1} share the base a_1 = 3 = s_2 and the same
    # square recurrence x -> x^2 - x + 1, so they coincide for n >= 1
    # (in particular a_n < s_{n+1} never holds; it is equality)
    for n in range(1, 16):
        assert two_guess_seq(n).exact == sylvester(n + 1).exact
    s = sylvester(6).exact
    assert sylvester(7).exact == s * s - s + 1
    # whole values, so the log forms from a(23) on share one enclosure
    for n in range(1, 64):
        assert two_guess_seq(n) == sylvester(n + 1), n


def test_sequence_index_cap():
    assert two_guess_seq(64) is not None
    with pytest.raises(ValueError):
        two_guess_seq(65)
    with pytest.raises(ValueError):
        sylvester(-1)


def test_large_indices_leave_exact_range():
    small = two_guess_seq(20)
    assert small.is_exact  # ~2 * 10^5 digits, inside the digit guard
    big = two_guess_seq(40)
    assert not big.is_exact
    lo, hi = big.log2_interval()
    assert lo <= hi


def _plain_terms(multiplier: int, count: int) -> list:
    """x_0..x_{count-1} of x_{k+1} = 1 + multiplier * prod(x_0..x_k)."""
    terms, prod = [1], 1
    while len(terms) < count:
        terms.append(1 + multiplier * prod)
        prod *= terms[-1]
    return terms


@pytest.mark.parametrize("multiplier, fn", [(1, sylvester), (2, two_guess_seq)])
def test_switch_index_matches_plain_recurrence(monkeypatch, multiplier, fn):
    # a term is exact iff it and every earlier term fit under the guard;
    # guards at each term's bit length and one below it put the switch on
    # every index, with the product both under and over the working size
    terms = _plain_terms(multiplier, 18)
    guards = sorted({b for x in terms for b in (x.bit_length(), x.bit_length() - 1)})
    assert guards[0] < _WORK_BITS < guards[-1]
    for guard in guards:
        monkeypatch.setattr(bounds, "GUARD_BITS", guard)
        for n, x in enumerate(terms):
            got = fn(n)
            if all(t.bit_length() <= guard for t in terms[1 : n + 1]):
                assert got.exact == x, (guard, n)
            else:
                assert not got.is_exact, (guard, n)


def test_real_switch_index():
    assert two_guess_seq(22).is_exact and sylvester(23).is_exact
    assert not two_guess_seq(23).is_exact and not sylvester(24).is_exact


def test_enclosure_straddling_the_guard_raises(monkeypatch):
    # a guard inside the walked enclosure of sylvester(24) leaves the
    # exact/log switch undecided
    lo, hi = sylvester(24).log2_interval()
    # the ends are 40-digit Decimals; a context that traps Inexact holds
    # their half-sum exactly or raises
    exact = decimal.Context(prec=100, traps=[decimal.Inexact])
    mid = exact.divide(exact.add(lo, hi), 2)
    assert lo < mid < hi
    monkeypatch.setattr(bounds, "GUARD_BITS", mid)
    with pytest.raises(IndeterminateComparisonError):
        sylvester(24)
    with pytest.raises(IndeterminateComparisonError):
        two_guess_seq(23)


def test_log_form_terms_enclose_independent_log2():
    # log2 a(n) at 300 bits from the exact a(12) alone: a(n+1) =
    # a(n)^2 - a(n) + 1 = a(n)^2 (1 - 1/a(n) + 1/a(n)^2); s(n+1) = a(n)
    a12 = 3
    for _ in range(11):
        a12 = a12 * a12 - a12 + 1
    with mpmath.workprec(300):
        lg = {12: mpmath.log(mpmath.mpf(a12), 2)}
        for n in range(12, 64):
            x = lg[n]
            lg[n + 1] = 2 * x + mpmath.log(1 - mpmath.mpf(2) ** -x + mpmath.mpf(2) ** (-2 * x), 2)
        checked = 0
        for fn, shift, first in ((two_guess_seq, 0, 23), (sylvester, 1, 24)):
            for n in range(first, 65):
                value = fn(n)
                assert not value.is_exact
                lo, hi = map(mpmath.mpf, map(str, value.log2_interval()))
                assert lo <= lg[n - shift] <= hi, (fn.__name__, n)
                assert hi - lo <= lo * mpmath.mpf(2) ** -50, (fn.__name__, n)
                checked += 1
    assert checked == 42 + 41


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def test_theta_contains_paper_constant():
    lo, hi = theta_estimate(128)
    assert float(lo) <= 2.5533 + 5e-5
    assert float(hi) >= 2.5533 - 5e-5
    assert float(lo) >= 2.5
    assert float(hi) <= 2.56
    assert float(hi) - float(lo) <= 2.0 ** (-64)


def test_theta_upper_bounds_sequence():
    # a_n <= theta_hi^(2^(n-1)) + 1/2 for n <= 20, compared in log2.
    # The binding slack is at n = 6 where the estimate's upper pad
    # (2^-66) contributes about 2.6e-19; margin 1e-25 sits between that
    # and the 200-bit rounding error (~1e-54 at these magnitudes).
    _, hi = theta_estimate(128)
    with mpmath.workprec(200):
        log2_hi = mpmath.log(
            mpmath.mpf(hi.numerator) / mpmath.mpf(hi.denominator), 2
        )
        for n in range(1, 21):
            a_n = two_guess_seq(n).exact
            lhs = mpmath.log(mpmath.mpf(2 * a_n - 1), 2) - 1
            rhs = (2 ** (n - 1)) * log2_hi
            assert lhs <= rhs - mpmath.mpf(1e-25)


def test_theta_terms_strictly_increasing():
    # b_n = (a_n - 1/2)^(1/2^(n-1)) increases: raising both sides of
    # b_{n+1} > b_n to the 2^n gives x_{n+1} > x_n^2 for x_n = a_n - 1/2,
    # which the recursion x_{n+1} = x_n^2 + 1/4 settles exactly
    for n in range(1, 21):
        x_n = two_guess_seq(n).exact - Fraction(1, 2)
        x_next = two_guess_seq(n + 1).exact - Fraction(1, 2)
        assert x_next == x_n * x_n + Fraction(1, 4)
        assert x_next > x_n * x_n


# ---------------------------------------------------------------------------
# bounded-circumference bound
# ---------------------------------------------------------------------------

def test_circ_bound_c3_exact():
    value = circ_bound(3)
    assert value.is_exact
    assert value.exact == Fraction(64, 25) ** 8 + Fraction(1, 2)
    assert value >= two_guess_seq(4)


def test_circ_bound_c4_log_form():
    lo, hi = circ_bound(4).log2_interval()
    expected = 128 * math.log2(2.56)
    assert abs(float(lo) - expected) < 1e-6
    assert abs(float(hi) - expected) < 1e-6


def test_circ_bound_dominates_packaged_sequence():
    for c in (3, 4, 5):
        d = (c * c) // 2
        packaged = two_guess_seq(d).exact - Fraction(1, 2)
        assert circ_bound(c) > BigBound.from_exact(packaged)


def test_circ_bounds_enclose_independent_log2():
    # log2 of (64/25)^N + 1/2 with N = 2^(floor(c*c/2) - 1) is N log2(64/25)
    # plus less than 2^-2700 from c = 5 on, far under 300-bit resolution
    with mpmath.workprec(300):
        for c in [*range(5, 41), 100, 65536]:
            expected = mpmath.ldexp(1, (c * c) // 2 - 1) * mpmath.log(mpmath.mpf(64) / 25, 2)
            lo, hi = map(mpmath.mpf, map(str, circ_bound(c).log2_interval()))
            assert lo <= expected <= hi, c
            assert hi - lo <= lo * mpmath.mpf(2) ** -50, c


def test_circ_bound_domain():
    with pytest.raises(ValueError):
        circ_bound(2)
    assert circ_bound(2 ** 16) is not None
    with pytest.raises(ValueError):
        circ_bound(2 ** 16 + 1)


# ---------------------------------------------------------------------------
# t-ary bounds
# ---------------------------------------------------------------------------

def test_n_1_t_base():
    assert n_h_t_recursive(1, 2).exact == 6  # ceil(2e) with 2e ~ 5.437
    assert n_h_t_recursive(1, 3).exact == 9
    assert n_h_t_recursive(1, 6).exact == 17


def test_n_2_2_unrolled():
    # N(2,2) = f^k(N(1,2)) with f(x) = x^8 and k = 8: log2 = 8^8 log2(6)
    lo, hi = n_h_t_recursive(2, 2).log2_interval()
    expected = 8 ** 8 * math.log2(6)
    assert abs(float(lo) - expected) < 1
    assert abs(float(hi) - expected) < 1


def test_closed_form_h2_t2():
    # log2 of (et)^(2^(4t^h) t^(4ht^h)) at h = t = 2: 2^16 * 2^32 * log2(2e)
    lo, hi = n_h_t_closed(2, 2).log2_interval()
    expected = (2 ** 16) * (2 ** 32) * math.log2(2 * math.e)
    assert abs(float(lo) / expected - 1) < 1e-9
    assert abs(float(hi) / expected - 1) < 1e-9


def test_e_enclosure_is_one_step_around_e():
    # ceil(e * t) reads this enclosure of e, from the series sum of 1/k!
    lo, hi = bounds._e_enclosure()
    assert hi - lo == Fraction(1, 2**180)
    with mpmath.workprec(400):
        assert mpmath.mpf(lo.numerator) / lo.denominator < mpmath.e < mpmath.mpf(hi.numerator) / hi.denominator


# h log2 t up to the nested-log cap of 53, the boundary pairs included
_TARY_PAIRS = [(h, t) for h in range(1, 8) for t in (2, 3, 4, 5, 7, 10)] + [
    (53, 2), (33, 3), (26, 4), (17, 8), (13, 16), (10, 32), (8, 64), (7, 128),
    (6, 256), (5, 1024), (2, 2**26), (1, 2**53),
]


def test_tary_bounds_enclose_independent_log2():
    with mpmath.workprec(300):
        for h, t in _TARY_PAIRS:
            assert h * math.log2(t) <= 53
            base = int(mpmath.ceil(mpmath.e * t))
            recursive = mpmath.log(base, 2)
            for j in range(2, h + 1):
                k = 2 * t**j
                recursive *= mpmath.mpf(k) ** k
            th = t**h
            closed = mpmath.power(2, 4 * th + 4 * h * th * mpmath.log(t, 2)) * mpmath.log(mpmath.e * t, 2)
            # the closed form pads log2 E, up to 2^61, by 2^-90 of itself,
            # so its enclosure is about 2^-29 wide in relative terms
            for fn, expected, width in (
                (n_h_t_recursive, recursive, -50), (n_h_t_closed, closed, -27),
            ):
                value = fn(h, t)
                if value.is_exact:
                    assert (h, value.exact) == (1, base)
                    continue
                lo, hi = map(mpmath.mpf, map(str, value.log2_interval()))
                assert lo <= expected <= hi, (fn.__name__, h, t)
                assert hi - lo <= lo * mpmath.mpf(2) ** width, (fn.__name__, h, t)


def test_recursive_below_closed():
    for h in (1, 2):
        for t in (2, 3):
            assert n_h_t_recursive(h, t) <= n_h_t_closed(h, t)


def test_n_h_t_domain():
    with pytest.raises(ValueError):
        n_h_t_recursive(0, 2)
    with pytest.raises(ValueError):
        n_h_t_recursive(1, 1)
    with pytest.raises(ValueError, match="height must be >= 1"):
        n_h_t_closed(0, 2)
    with pytest.raises(ValueError, match="arity must be >= 2"):
        n_h_t_closed(1, 1)


# ---------------------------------------------------------------------------
# LLL numeric bound
# ---------------------------------------------------------------------------

def test_lll_values():
    assert lll_degree_bound(1) == pytest.approx(math.e)
    assert lll_degree_bound(2) == pytest.approx(5.4366, abs=1e-4)
    assert lll_degree_bound(6) == pytest.approx(16.3097, abs=1e-3)


# ---------------------------------------------------------------------------
# BigBound comparisons
# ---------------------------------------------------------------------------

def test_comparisons_mixed_forms():
    small = BigBound.from_exact(1807)
    huge = two_guess_seq(40)
    assert small < huge and small <= huge
    assert huge > small and huge >= small
    assert BigBound.from_exact(7) <= BigBound.from_exact(7)
    assert not BigBound.from_exact(8) <= BigBound.from_exact(7)


def test_comparisons_reject_overlap():
    a = BigBound.from_log2(mpmath.mpf(1.0), mpmath.mpf(2.0))
    b = BigBound.from_log2(mpmath.mpf(1.5), mpmath.mpf(2.5))
    with pytest.raises(IndeterminateComparisonError):
        a < b  # noqa: B015


def test_comparisons_of_touching_intervals():
    # [1, 2] and [2, 3] share only an endpoint: a <= b holds, a < b and
    # b <= a are undecided
    a = BigBound.from_log2(mpmath.mpf(1), mpmath.mpf(2))
    b = BigBound.from_log2(mpmath.mpf(2), mpmath.mpf(3))
    assert a <= b and b >= a
    with pytest.raises(IndeterminateComparisonError):
        a < b  # noqa: B015
    with pytest.raises(IndeterminateComparisonError):
        b > a  # noqa: B015
    with pytest.raises(IndeterminateComparisonError):
        b <= a  # noqa: B015


def test_fraction_normalization():
    assert BigBound.from_exact(Fraction(14, 2)).exact == 7
    with pytest.raises(ValueError):
        BigBound.from_exact(-1)


@given(
    st.integers(1, 10**40 - 1),
    # exponents near the fixed-point range, and up to the t-ary range
    st.one_of(st.integers(-400, 40), st.integers(-400, 585670424961447822)),
    st.booleans(),
    st.sampled_from([12, 17]),
)
# both ends of the fixed-point range, a cut before the rounding, a
# rounding up past a half, and a carry into the exponent
@example(1234, -4, False, 12)
@example(1234, -5, False, 12)
@example(123456789012, 11, False, 12)
@example(123456789012, 12, False, 12)
@example(1234567890124995, 0, False, 12)
@example(1234567890125001, 0, False, 12)
@example(99999999999999999999, 3, True, 17)
def test_number_text_matches_mpmath_nstr(mantissa, exponent, negative, n):
    # the printed 12- and 17-digit fields keep mpmath's layout.  mpmath
    # reads x rounded to binary, and cuts its digits at about 2^-57 of
    # its value, so within 10^-4 of a unit of the n-th digit from a
    # half-way point it may round either way there; such values are
    # left out
    digits = str(mantissa)
    x = decimal.Decimal((int(negative), tuple(map(int, digits)), exponent - len(digits) + 1))
    assert x.adjusted() == exponent
    assume(digits[n : n + 4].ljust(4, "0") not in ("5000", "4999"))
    with mpmath.workprec(300):
        assert bounds._nstr(x, n) == mpmath.nstr(mpmath.mpf(str(x)), n)


def test_to_text_forms():
    assert BigBound.from_exact(1807).to_text() == "1807"
    assert BigBound.from_exact(Fraction(3, 2)).to_text() == "3/2"
    assert two_guess_seq(40).to_text().startswith("2^")


# ---------------------------------------------------------------------------
# decimal rendering of exact values
# ---------------------------------------------------------------------------

_EDGE_INTS = (
    [0, 1, 2**128 - 1, 2**128, 2**128 + 1, 2**_STR_BITS - 1, 2**_STR_BITS, 2**_STR_BITS + 1]
    + [10**k - d for k in range(595, 606) for d in (0, 1)]
    + [-(10**600), -(2**200000 - 1)]
)


@given(
    st.one_of(
        st.sampled_from(_EDGE_INTS),
        # random ints up to 2^200000, their bit length drawn per octave
        st.builds(
            lambda bits, seed: random.Random(seed).getrandbits(bits),
            st.integers(0, 17).flatmap(lambda e: st.integers(2**e, min(2 ** (e + 1), 200000))),
            st.integers(0, 2**32),
        ),
    )
)
def test_decimal_text_matches_str(v):
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = str(v)
    finally:
        sys.set_int_max_str_digits(saved)
    assert decimal_text(v) == expected


@functools.lru_cache(maxsize=None)
def _plain_str(v: int) -> str:
    """str(v) with the int-to-str limit lifted; quadratic, so once per value."""
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        return str(v)
    finally:
        sys.set_int_max_str_digits(saved)


@functools.lru_cache(maxsize=None)
def _plain_seq(multiplier: int) -> tuple:
    # up to the last exact terms, a(22) = sylvester(23)
    return tuple(_plain_terms(multiplier, 25 - multiplier))


# Decimal arithmetic with no rounding: its multiplication and str() are
# fast where str() of a large int is quadratic
_EXACT_DECIMAL = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])


@functools.lru_cache(maxsize=None)
def _product_digits(multiplier: int, n: int) -> str:
    """Decimal text of x_n of x_{k+1} = 1 + multiplier * prod(x_0..x_k),
    from the product form run on exact Decimal."""
    with decimal.localcontext(_EXACT_DECIMAL):
        x = prod = decimal.Decimal(1)
        for _ in range(n):
            x = 1 + multiplier * prod
            prod *= x
        return str(x)


# terms up to this size are also printed by str(), which cross-checks
# _product_digits and _circ_digits; the larger ones would spend seconds in it
_STR_REFERENCE_BITS = 2**19


@pytest.mark.parametrize(
    "fn, multiplier, n",
    [(two_guess_seq, 2, n) for n in (11, 15, 19, 21, 22)]
    + [(sylvester, 1, n) for n in (20, 21, 23)],
)
def test_large_terms_print_their_plain_digits(fn, multiplier, n):
    # the digits of a term past _STR_BITS (all but a(11)) come from a
    # Decimal run of the recurrence; the reference is the product form,
    # as an int and as Decimal digits
    value = fn(n)
    expected = _plain_seq(multiplier)[n]
    assert value.exact == expected
    assert (value.digits is not None) == (expected.bit_length() >= _STR_BITS)
    digits = _product_digits(multiplier, n)
    if expected.bit_length() <= _STR_REFERENCE_BITS:
        assert digits == _plain_str(expected)
    assert value.to_text() == digits


def _circ_digits(e: int) -> str:
    """Decimal text of (2 * 64^e + 25^e) / (2 * 25^e), from powers of 4
    and 5 on exact Decimal."""
    with decimal.localcontext(_EXACT_DECIMAL):
        p, q = decimal.Decimal(4) ** (3 * e), decimal.Decimal(5) ** (2 * e)
        return f"{2 * p + q}/{2 * q}"


@pytest.mark.parametrize("c", [5, 6])
def test_large_circ_bounds_print_their_plain_digits(c):
    e = 2 ** ((c * c) // 2 - 1)
    value = circ_bound(c)
    numerator, denominator = 2 * 64**e + 25**e, 2 * 25**e
    # the numerator is odd and prime to 5, so this fraction is in lowest
    # terms as it stands
    assert (value.exact.numerator, value.exact.denominator) == (numerator, denominator)
    assert value.digits is not None
    digits = _circ_digits(e)
    if numerator.bit_length() <= _STR_REFERENCE_BITS:
        assert digits == f"{_plain_str(numerator)}/{_plain_str(denominator)}"
    assert value.to_text() == digits


def test_digits_leave_equality_and_hash_alone():
    term = two_guess_seq(21)
    plain = BigBound.from_exact(term.exact)
    assert term.digits is not None and plain.digits is None
    assert term == plain
    assert hash(term) == hash(plain)
    # the power-of-two split renders the same int to the same text
    assert plain.to_text() == term.to_text()


def test_bound_reports_never_build_exact_values(monkeypatch, capsys):
    # `hatcheck bound` prints a large exact value from its digits; the
    # binary value is built only when .exact is read, once
    builds = []
    for name in ("_sylvester_steps", "_circ_fraction"):
        def spy(*args, _build=getattr(bounds, name)):
            builds.append(args)
            return _build(*args)

        monkeypatch.setattr(bounds, name, spy)
    for query in (["--seq", "a", "--n", "21"], ["--seq", "sylvester", "--n", "21"], ["--circ", "6"]):
        assert entry(["bound", *query]) == 0
    assert "value_approx: 6.7411401255e+53508" in capsys.readouterr().out
    assert builds == []

    e = 2 ** ((6 * 6) // 2 - 1)
    for value, expected in (
        (two_guess_seq(21), _plain_seq(2)[21]),
        (sylvester(21), _plain_seq(1)[21]),
        (circ_bound(6), (2 * 64**e + 25**e, 2 * 25**e)),
    ):
        assert value.is_exact and builds == []
        got = value.exact
        assert len(builds) == 1 and value.exact is got
        builds.clear()
        if isinstance(expected, tuple):
            assert (got.numerator, got.denominator) == expected
        else:
            assert type(got) is int and got == expected


def test_to_text_leaves_int_str_limit_alone():
    # a(15) has 6,671 digits, over the default limit of 4300; a(21) and
    # circ_bound(6) take theirs from the Decimal chain, and a(15) passed
    # to from_exact goes through the power-of-two split
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        # a fresh decimal context, so that a change an earlier call left
        # behind cannot hide one made here
        with decimal.localcontext(decimal.Context()):
            ctx = decimal.getcontext()
            before = (ctx.prec, ctx.Emax, ctx.traps[decimal.Inexact])
            text = two_guess_seq(15).to_text()
            split = BigBound.from_exact(two_guess_seq(15).exact).to_text()
            big = two_guess_seq(21).to_text()
            fraction = circ_bound(6).to_text()
            ctx = decimal.getcontext()
            after = (ctx.prec, ctx.Emax, ctx.traps[decimal.Inexact])
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)
    assert after == before
    assert len(text) == 6671
    assert split == text
    assert len(big) == 426881
    assert fraction.count("/") == 1


def test_theta_convergence_script_prints_large_terms():
    root = Path(__file__).resolve().parent.parent
    env = {"PYTHONPATH": str(root / "src"), "PATH": ""}
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "theta_convergence.py"), "--terms", "16", "--margin-terms", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "n=16  digits(a_n)= 13341" in done.stdout


def test_theta_convergence_script_runs_from_a_plain_checkout(tmp_path):
    # no PYTHONPATH, and another working directory: the script puts the
    # checkout's src on its import path itself
    script = Path(__file__).resolve().parent.parent / "scripts" / "theta_convergence.py"
    done = subprocess.run(
        [sys.executable, str(script), "--terms", "3", "--margin-terms", "2"],
        capture_output=True, text=True, env={"PATH": ""}, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "b_n ladder:" in done.stdout
