"""Exact-rational Bernoulli apparatus: the trusted reference layer.

Everything here is computed in Fraction arithmetic; p-adic rounding happens
only at the boundary, when a caller asks for a PadicNumber at a stated
precision.  Characters of order one or two have integer values and keep the
whole computation rational; higher-order characters force genuinely p-adic
values and require an explicit precision.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .characters import DirichletCharacter, eta_order, eta_power
from .errors import BudgetExceeded
from .padic import PadicNumber, fraction_valuation

__all__ = [
    "bernoulli_number",
    "norlund_poly",
    "norlund_number",
    "multi_gen_bernoulli_poly",
    "stirling_first",
    "pochhammer",
    "residue_sums",
    "sum_counts",
]

#: ceiling on the r*F rows of a grouped sum over residue vectors in [1,F]^r
TERM_BUDGET = 10 ** 7
#: entries of the sum_counts cache, one per (window, order) pair
COUNTS_CACHE_CAP = 16

# Unbounded on purpose, like the recursive memos _egf_coeff and
# stirling_first below: B_m is built from every B_k below it.
_BERNOULLI = [Fraction(1)]


def bernoulli_number(n: int) -> Fraction:
    """B_n with the B_1 = -1/2 convention (EGF t/(e^t - 1))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        if m > 2 and m % 2 == 1:
            _BERNOULLI.append(Fraction(0))
            continue
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * _BERNOULLI[k]
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


# The recursive memos _egf_coeff and stirling_first stay unbounded: each
# entry is built from entries below it, so evicting one would redo its
# whole recursion on the next call.
@lru_cache(maxsize=None)
def _egf_coeff(r: int, n: int) -> Fraction:
    """Coefficient of t^n in (t/(e^t - 1))^r."""
    if r == 0:
        return Fraction(1 if n == 0 else 0)
    if r == 1:
        return bernoulli_number(n) / math.factorial(n)
    return sum(_egf_coeff(r - 1, k) * _egf_coeff(1, n - k) for k in range(n + 1))


def norlund_number(n: int, r: int) -> Fraction:
    """Higher-order Bernoulli number B_n^(r)."""
    if n < 0 or r < 0:
        raise ValueError("need n >= 0 and r >= 0")
    return _egf_coeff(r, n) * math.factorial(n)


def norlund_poly(n: int, r: int, z) -> Fraction:
    """B_n^(r)(z) = sum C(n,k) B_k^(r) z^(n-k)."""
    z = Fraction(z)
    return sum(
        math.comb(n, k) * norlund_number(k, r) * z ** (n - k)
        for k in range(n + 1)
    )


# Unbounded, as a recursive memo; see _egf_coeff.
@lru_cache(maxsize=None)
def stirling_first(n: int, k: int) -> int:
    """Signed Stirling numbers of the first kind.

    Defined by n! C(x, n) = sum_k s(n, k) x^k, equivalently the recurrence
    s(n+1, k) = s(n, k-1) - n s(n, k).
    """
    if n < 0 or k < 0:
        raise ValueError("need n >= 0 and k >= 0")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return stirling_first(n - 1, k - 1) - (n - 1) * stirling_first(n - 1, k)


def pochhammer(x, r: int):
    """Rising factorial (x)_r = x (x+1) ... (x+r-1); (x)_0 = 1."""
    if r < 0:
        raise ValueError("r must be >= 0")
    result = 1
    for i in range(r):
        result = result * (x + i)
    return result


# Not recursive, so an eviction costs one rebuild; a run asks for a few
# (window, order) pairs, at most five on any perfbench workload, and every
# character on a window reuses its table, so the cap evicts nothing.
@lru_cache(maxsize=COUNTS_CACHE_CAP)
def sum_counts(f: int, r: int) -> tuple:
    """counts[t] = #{(a_1..a_r) in [1,f]^r : sum a_i = t}, t = 0..r*f."""
    counts = [1]
    for _ in range(r):
        # next[t] = counts[t-f] + ... + counts[t-1], read off prefix sums so
        # that the table costs O(r^2 f), not O(r^2 f^2)
        prefix = list(itertools.accumulate(counts, initial=0))
        n = len(counts)
        counts = [prefix[min(t, n)] - prefix[max(t - f, 0)]
                  for t in range(n + f)]
    return tuple(counts)


def residue_sums(F: int, r: int, chi: DirichletCharacter, p: int = None) -> list:
    """Rows of a sum over residue vectors (a_1..a_r) in [1,F]^r grouped by
    t = a_1+...+a_r: the pairs (t, count) for t in [r, rF] with chi(t)
    nonzero (and, with p given, t prime to p), count being the number of
    vectors with sum t.  Raises BudgetExceeded, before the count table is
    built, when the r*F rows exceed TERM_BUDGET."""
    if r * F > TERM_BUDGET:
        raise BudgetExceeded("grouped sum has %d rows, budget is %d"
                             % (r * F, TERM_BUDGET))
    counts = sum_counts(F, r)
    return [(t, counts[t]) for t in range(r, r * F + 1)
            if chi.exponent(t) is not None and (p is None or t % p != 0)]


def _grouped_to_value(groups: dict, chi: DirichletCharacter, prec):
    """Assemble sum_e coeff_e * eta^e from exact grouped coefficients.

    groups maps eta-exponents to Fractions.  With prec None, a Fraction,
    which needs rational character values (order <= 2).  With prec given,
    a PadicNumber certified to absolute precision prec, whatever the order.
    """
    if prec is None:
        if chi.order > 2:
            raise ValueError("character of order %d has p-adic values; "
                             "pass prec" % chi.order)
        # order <= 2 forces every exponent to 0 or eta_order/2: +1 or -1
        total = Fraction(0)
        eta_ord = eta_order(chi.p)
        half = eta_ord // 2
        for e, coeff in groups.items():
            total += coeff if e % eta_ord == 0 else -coeff
            assert e % eta_ord in (0, half)
        return total
    p = chi.p
    vmin = 0
    for coeff in groups.values():
        if coeff != 0:
            vmin = min(vmin, fraction_valuation(coeff, p))
    work = prec - vmin
    acc = PadicNumber.exact_zero(p, work)
    for e, coeff in groups.items():
        if coeff != 0:
            acc = acc + eta_power(p, e, work) * coeff
    # each term holds at least absolute precision prec; report exactly prec
    return acc if acc.is_exact_zero else acc + PadicNumber.zero_at(p, prec)


def multi_gen_bernoulli_poly(n: int, r: int, chi: DirichletCharacter,
                             z=0, prec=None):
    """Multiple generalized Bernoulli polynomial at the modulus f of chi:

        f^(n-r) * sum_{a_1..a_r=1..f} chi(a_1+...+a_r)
                   B_n^(r)((z+a_1+...+a_r)/f).

    The inner sums are grouped by a_1+...+a_r, so the cost is r*f terms,
    not f^r.  With prec None the value is an exact Fraction, for a
    character of order <= 2 only; with prec given it is a PadicNumber to
    absolute precision prec (so fewer significant digits at a negative
    valuation) at every order.  At r = 1 this is the generalized Bernoulli
    polynomial f^(n-1) * sum_{a=1..f} chi(a) B_n((a+z)/f); for the modulus-1
    principal character it is B_n(z+1), so B_{1,principal} = +1/2.
    """
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    f = chi.modulus
    z = Fraction(z)
    scale = Fraction(f) ** (n - r)
    groups = {}
    for t, count in residue_sums(f, r, chi):
        e = chi.exponent(t)
        term = count * scale * norlund_poly(n, r, Fraction(z + t, f))
        groups[e] = groups.get(e, Fraction(0)) + term
    return _grouped_to_value(groups, chi, prec)
