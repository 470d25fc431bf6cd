"""Shared assertion helpers for the test suite."""

import io
import math
from fractions import Fraction


def bound_of(x):
    """Certified lower valuation bound of x, ignoring exactness."""
    bound, _ = x.valuation_bound()
    return bound


def residue(x, k):
    """x as an integer modulo p^k; requires v(x) >= 0 and k certified digits."""
    assert x.prec >= k, "only %d digits certified, %d asked" % (x.prec, k)
    if x.is_exact_zero or x.unit == 0:
        return 0
    assert x.val >= 0
    return x.unit * x.p ** x.val % x.p ** k


def assert_agree(x, y, digits):
    d = x - y
    bound = bound_of(d)
    assert bound >= digits, "agree only to %s digits, need %d: %r vs %r" % (
        bound, digits, x, y)


def assert_exact_zero(x):
    bound, exact = x.valuation_bound()
    assert exact and bound == math.inf, "expected exact zero, got %r" % (x,)


def digits_of(x):
    """(val, unit, prec): equal triples are bit-for-bit equal PadicNumbers."""
    return (x.val, x.unit, x.prec)


def sample_qs(p):
    """Values of q = 1 (mod R*): an integer, one with a denominator prime
    to p, and a negative one with v_p(q - 1) one above the minimum."""
    ps = 4 if p == 2 else p
    return (Fraction(1 + ps), 1 + Fraction(ps, 3 if p == 2 else 2),
            Fraction(1 - ps * p))


class Recording(io.StringIO):
    """A text stream that keeps each write in writes."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)
