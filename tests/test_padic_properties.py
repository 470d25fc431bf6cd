"""Property tests: p-adic arithmetic against exact Fractions, and certified
digits that do not change when the precision rises."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from qpl import (PadicNumber, QContext, fraction_valuation, iwasawa_log,
                 padic_exp, rstar_threshold, volkenborn_beta_poly)
from qpl.padic import int_valuation

from helpers import assert_agree

PRIMES = st.sampled_from((2, 3, 5, 7, 13))
RATIONALS = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                      st.integers(1, 10 ** 6))
DIGITS = st.integers(1, 30)
# no example database; hypothesis still caches the constants of local
# modules in ./.hypothesis, which .gitignore lists
PROPERTY = settings(database=None, deadline=None)


def naive_valuation(n, p):
    """The p-adic valuation of a nonzero integer, one division at a time."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@PROPERTY
@given(st.sampled_from((2, 3, 5, 7)), st.integers(0, 600),
       st.integers(-10 ** 40, 10 ** 40).filter(bool))
def test_int_valuation_matches_the_naive_loop(p, v, m):
    n = m * p ** v
    assert int_valuation(n, p) == naive_valuation(n, p)


def test_int_valuation_at_every_exponent_to_600():
    for p in (2, 3, 5, 7):
        for unit in (1, -1, p + 1, -(p * p - 1) * (p + 1)):
            for v in range(601):
                n = unit * p ** v
                assert int_valuation(n, p) == naive_valuation(n, p) == v


def series_argument(p, v, unit, prec):
    """p^(threshold + v) * unit known modulo p^prec, exact zero when it is 0
    there: an argument of exp, and x - 1 for an argument x of log."""
    v += rstar_threshold(p)
    n = p ** v * unit % p ** prec
    if n == 0:
        return PadicNumber.exact_zero(p, prec)
    return PadicNumber.from_int(n, p, prec - v)


# v above the threshold, unit, absolute precision; below two digits a
# zero x - 1 is not provably in R* at p = 2
SERIES_ARG = st.tuples(st.integers(0, 5), st.integers(1, 10 ** 400),
                       st.integers(2, 400))


@PROPERTY
@given(PRIMES, SERIES_ARG, SERIES_ARG)
def test_log_is_additive_and_exp_multiplicative(p, a, b):
    x = series_argument(p, *a)
    y = series_argument(p, *b)
    # log(xy) = log x + log y and exp(x + y) = exp x exp y, each to the
    # precision of the less precise side
    left, right = iwasawa_log((1 + x) * (1 + y)), iwasawa_log(1 + x) + iwasawa_log(1 + y)
    assert_agree(left, right, min(left.prec, right.prec))
    left, right = padic_exp(x + y), padic_exp(x) * padic_exp(y)
    assert_agree(left, right, min(left.prec, right.prec))


def assert_holds(x, exact):
    """x agrees with the exact rational on every digit it certifies."""
    v = fraction_valuation(exact, x.p) if exact else 0
    ref = PadicNumber.from_fraction(exact, x.p, max(x.prec - v, 1))
    assert_agree(x, ref, x.prec)


@PROPERTY
@given(PRIMES, RATIONALS, RATIONALS, DIGITS)
def test_arithmetic_matches_fractions(p, a, b, k):
    x = PadicNumber.from_fraction(a, p, k)
    y = PadicNumber.from_fraction(b, p, k)
    assert_holds(x + y, a + b)
    assert_holds(x * y, a * b)
    if b:
        assert_holds(x / y, a / b)


@PROPERTY
@given(PRIMES, RATIONALS, RATIONALS, DIGITS, st.integers(1, 20))
def test_certified_digits_stable_as_precision_rises(p, a, b, k, extra):
    assume(b)

    def chain(digits):
        x = PadicNumber.from_fraction(a, p, digits)
        y = PadicNumber.from_fraction(b, p, digits)
        return (x * y + x - y) / y

    low, high = chain(k), chain(k + extra)
    assert high.prec >= low.prec
    assert_agree(low, high, low.prec)


@PROPERTY
@given(st.sampled_from((3, 5, 7)), st.integers(0, 12),
       st.sampled_from((0, 1, 4, Fraction(1, 2))), st.integers(2, 16),
       st.integers(1, 10))
def test_carlitz_digits_stable_as_precision_rises(p, n, x, k, extra):
    low = volkenborn_beta_poly(QContext(p, Fraction(1 + p), k), n, 1, x)
    high = volkenborn_beta_poly(QContext(p, Fraction(1 + p), k + extra), n,
                                1, x)
    assert low.prec >= k
    assert_agree(low, high, low.prec)
