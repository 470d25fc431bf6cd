"""Exact rational Bernoulli apparatus: numbers, polynomials, multiple
orders, generalized variants, Stirling numbers."""

import itertools
import math
from fractions import Fraction

import pytest

from qpl import (
    PadicNumber,
    bernoulli_number,
    char_build,
    forward_diff,
    fraction_valuation,
    multi_gen_bernoulli_poly,
    norlund_number,
    norlund_poly,
    omega_pow,
    pochhammer,
    principal_char,
    stirling_expansion,
    stirling_first,
    sum_counts,
)
from qpl.characters import eta_order

from helpers import assert_agree, residue


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(7) == 0
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_numbers_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(61):
        want = sympy.bernoulli(n)
        # sympy >= 1.12 takes B_1 = +1/2; qpl takes t/(e^t - 1), B_1 = -1/2
        if n == 1:
            want = -abs(want)
        assert bernoulli_number(n) == Fraction(int(want.p), int(want.q)), n


def test_bernoulli_poly_values():
    # B_n(z) is the order-1 Norlund polynomial
    assert norlund_poly(1, 1, Fraction(1, 2)) == 0
    assert norlund_poly(0, 1, Fraction(7, 3)) == 1
    for n in range(9):
        assert norlund_poly(n, 1, 0) == bernoulli_number(n)


def test_bernoulli_poly_difference_equation():
    for n in range(1, 9):
        for x in (Fraction(0), Fraction(1, 2), Fraction(-2), Fraction(5, 3)):
            assert (norlund_poly(n, 1, x + 1) - norlund_poly(n, 1, x)
                    == n * x ** (n - 1))


def test_norlund_reduces_to_classical():
    for n in range(8):
        assert norlund_number(n, 1) == bernoulli_number(n)
        # B_n(x) = sum_k C(n, k) B_k x^(n-k)
        x = Fraction(1, 3)
        assert norlund_poly(n, 1, x) == sum(
            math.comb(n, k) * bernoulli_number(k) * x ** (n - k)
            for k in range(n + 1))


def test_norlund_small_values():
    assert norlund_number(0, 3) == 1
    assert norlund_number(1, 2) == -1
    assert norlund_poly(3, 2, Fraction(2)) == Fraction(1, 2)


def test_norlund_numbers_match_sympy_series():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    for r in (1, 2, 3):
        series = sympy.series((t / (sympy.exp(t) - 1)) ** r, t, 0, 11)
        series = series.removeO()
        for n in range(11):
            want = series.coeff(t, n) * math.factorial(n)
            assert norlund_number(n, r) == Fraction(int(want.p),
                                                    int(want.q)), (n, r)


def test_norlund_convolution():
    # order r splits as (r-1) + 1 under the generating-function product
    for n in range(7):
        for r in (2, 3):
            for x in (Fraction(0), Fraction(1, 2)):
                for y in (Fraction(0), Fraction(1), Fraction(-2)):
                    lhs = norlund_poly(n, r, x + y)
                    rhs = sum(math.comb(n, k)
                              * norlund_poly(k, r - 1, x)
                              * norlund_poly(n - k, 1, y)
                              for k in range(n + 1))
                    assert lhs == rhs


def test_gen_bernoulli_principal():
    one = principal_char(5)
    # modulus-1 sum runs over a = 1, shifting the argument by 1
    assert multi_gen_bernoulli_poly(1, 1, one) == Fraction(1, 2)
    for n in range(7):
        for z in (0, 2, Fraction(1, 2)):
            assert multi_gen_bernoulli_poly(n, 1, one, z) == norlund_poly(
                n, 1, Fraction(z) + 1)


def test_gen_bernoulli_quadratic():
    half = eta_order(5) // 2
    chi3 = char_build(3, {2: half}, 5)
    assert multi_gen_bernoulli_poly(1, 1, chi3) == Fraction(-1, 3)
    assert isinstance(multi_gen_bernoulli_poly(2, 1, chi3), Fraction)
    # odd character: even-index values vanish
    assert multi_gen_bernoulli_poly(2, 1, chi3) == 0


def test_gen_bernoulli_padic_values():
    w = omega_pow(5, 1)
    with pytest.raises(ValueError):
        multi_gen_bernoulli_poly(1, 1, w)
    v = multi_gen_bernoulli_poly(1, 1, w, prec=6)
    x = multi_gen_bernoulli_poly(1, 1, w, prec=10)
    assert residue(x, 6) == residue(v, 6)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_gen_bernoulli_prec_is_absolute_at_every_order(p):
    # prec is absolute precision whether the character values are rational
    # (order <= 2, where the value is the exact Fraction's) or p-adic; at
    # p = 5, B_{2, omega^2} = 4/5 kept 9 digits when prec meant significant
    # digits for order <= 2
    if p == 5:
        value = multi_gen_bernoulli_poly(2, 1, omega_pow(5, 2), 0, prec=10)
        assert (value.val, value.prec) == (-1, 10)
    for k in range(max(p - 1, 2)):
        chi = omega_pow(p, k) if k else principal_char(p)
        for r, n, z in itertools.product((1, 2), range(7),
                                         (0, Fraction(1, 2), 3)):
            for prec in (1, 4, 10):
                value = multi_gen_bernoulli_poly(n, r, chi, z, prec)
                assert value.prec == prec, (k, r, n, z, prec)
                if chi.order <= 2:
                    exact = multi_gen_bernoulli_poly(n, r, chi, z)
                    assert_agree(value, PadicNumber.from_fraction(
                        exact, p, 40), prec)


def test_multi_gen_reduces_to_gen():
    # order 1 is the generalized Bernoulli polynomial
    # f^(n-1) * sum_{a=1..f} chi(a) B_n((a+z)/f), here at f = 3, z = 2
    half = eta_order(5) // 2
    chi3 = char_build(3, {2: half}, 5)
    values = {1: 1, 2: -1, 3: 0}
    for n in range(6):
        want = Fraction(3) ** (n - 1) * sum(
            chi * norlund_poly(n, 1, Fraction(a + 2, 3))
            for a, chi in values.items())
        assert multi_gen_bernoulli_poly(n, 1, chi3, 2) == want


def test_multi_gen_principal_is_shifted_norlund():
    one = principal_char(5)
    assert multi_gen_bernoulli_poly(3, 2, one) == Fraction(1, 2)
    for n in range(6):
        for r in (1, 2, 3):
            for z in (0, 1, Fraction(1, 2)):
                assert multi_gen_bernoulli_poly(n, r, one, z) == norlund_poly(
                    n, r, Fraction(z) + r)


def test_stirling_first_values():
    assert stirling_first(0, 0) == 1
    assert stirling_first(3, 3) == 1
    assert stirling_first(2, 3) == 0
    assert stirling_first(3, 1) == 2
    assert stirling_first(3, 2) == -3
    assert stirling_first(4, 2) == 11


def test_stirling_recurrence():
    for n in range(8):
        for k in range(1, n + 2):
            assert stirling_first(n + 1, k) == stirling_first(
                n, k - 1) - n * stirling_first(n, k)


def test_stirling_expansion_matches_binomial():
    # n! C(x, n) expands through signed Stirling numbers
    for n in range(13):
        terms = stirling_expansion(n)
        assert terms == tuple((m, stirling_first(n, m)) for m in range(n + 1))
        for x in range(-3, 4):
            falling = math.prod(x - i for i in range(n))
            assert falling == sum(s * x ** m for m, s in terms)


def test_pochhammer():
    assert pochhammer(7, 0) == 1
    assert pochhammer(2, 3) == 24
    for r in range(6):
        assert pochhammer(1, r) == math.factorial(r)
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)


def test_sum_counts():
    counts = sum_counts(3, 2)
    # pairs from [1,3]^2 by total: 2..6 -> 1,2,3,2,1
    assert counts[2:7] == (1, 2, 3, 2, 1)
    assert sum(counts) == 9


def test_classical_kummer_invariant():
    # v_p of the k-th forward difference of B_n/n grows at least like k
    for p in (5, 7):
        for n in range(2, 11, 2):
            if n % (p - 1) == 0:
                continue
            for k in (1, 2):
                if n <= k:
                    continue
                seq = lambda m: bernoulli_number(m) / m
                d = forward_diff(seq, n, p - 1, k)
                assert fraction_valuation(d, p) >= k
