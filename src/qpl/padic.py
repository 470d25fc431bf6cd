"""Fixed-precision p-adic arithmetic and the analytic primitives built on it.

A nonzero value is stored as p^val * unit with unit coprime to p and reduced
modulo p^(prec - val); prec is the absolute precision, i.e. the value is
known modulo p^prec.  Two zeros are distinguished: an exact zero (val is
None, provably zero) and a zero at precision (unit == 0, val == prec, only
known to vanish modulo p^prec).  All operations are pure; precision
propagates pessimistically so a reported digit is always a certified digit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DivisionByZero,
    DomainError,
    NotAUnit,
    PrecisionExhausted,
)

__all__ = [
    "PadicNumber",
    "QContext",
    "padic_from_rational",
    "padic_arith",
    "teichmuller",
    "teichmuller_int",
    "iwasawa_log",
    "padic_exp",
    "q_pow",
    "q_bracket",
    "angle_q",
    "padic_power",
    "binom_padic",
    "in_R",
    "in_Rstar",
    "in_D",
    "p_star",
    "rstar_threshold",
    "int_valuation",
    "fraction_valuation",
]


#: entries kept by the power cache, by the Teichmuller lift cache and by
#: each QContext's memo; about three to four times the peaks of the
#: perfbench workloads (1,408 powers, 268 lifts, 234 context entries), so
#: that none of them evicts
PPOW_CACHE_CAP = 4096
TEICH_CACHE_CAP = 1024
CONTEXT_CACHE_CAP = 1024


@lru_cache(maxsize=PPOW_CACHE_CAP)
def _ppow(p: int, e: int) -> int:
    return p ** e


def _memoized(cache: dict, cap: int, key, build):
    """cache[key], built by build() on a miss and stored after evicting the
    oldest entry if cap are held: the one eviction policy of the keyed
    stores of the library."""
    got = cache.get(key)
    if got is None:
        if len(cache) >= cap:
            del cache[next(iter(cache))]
        got = cache[key] = build()
    return got


def int_valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def fraction_valuation(x, p: int) -> int:
    """p-adic valuation of a nonzero int or Fraction."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def p_star(p: int) -> int:
    """The modulus on which Teichmuller lifting is defined: 4 for p=2, else p."""
    return 4 if p == 2 else p


def rstar_threshold(p: int) -> int:
    """Least integer valuation strictly beating 1/(p-1): 2 for p=2, else 1."""
    return 2 if p == 2 else 1


def _ceil_log(p: int, n: int) -> int:
    """Smallest e >= 0 with p^e >= n (n >= 1)."""
    e = 0
    t = 1
    while t < n:
        t *= p
        e += 1
    return e


class PadicNumber:
    """An element of Q_p known modulo p^prec."""

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val, unit: int, prec: int):
        # val is None for an exact zero; unit == 0 with val == prec marks a
        # zero at precision.  Callers go through the factory methods below.
        self.p = p
        self.val = val
        self.unit = unit
        self.prec = prec

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact_zero(cls, p: int, prec: int) -> "PadicNumber":
        return cls(p, None, 0, prec)

    @classmethod
    def zero_at(cls, p: int, prec: int) -> "PadicNumber":
        """The class O(p^prec): zero as far as this precision can tell."""
        return cls(p, prec, 0, prec)

    @classmethod
    def from_int(cls, n: int, p: int, prec: int) -> "PadicNumber":
        """Exact integer carried to prec significant digits."""
        if n == 0:
            return cls.exact_zero(p, prec)
        v = int_valuation(n, p)
        unit = (n // _ppow(p, v)) % _ppow(p, prec)
        return cls(p, v, unit, v + prec)

    @classmethod
    def from_fraction(cls, x, p: int, prec: int) -> "PadicNumber":
        x = Fraction(x)
        if x == 0:
            return cls.exact_zero(p, prec)
        num, den = x.numerator, x.denominator
        a = int_valuation(num, p)
        b = int_valuation(den, p)
        mod = _ppow(p, prec)
        unit = (num // _ppow(p, a)) * pow(den // _ppow(p, b), -1, mod) % mod
        return cls(p, a - b, unit, a - b + prec)

    # -- inspection --------------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.val is None

    @property
    def is_zero(self) -> bool:
        """True when the value is indistinguishable from zero at its precision."""
        return self.unit == 0

    @property
    def rel(self) -> int:
        """Significant digits carried by the unit part."""
        if self.unit == 0:
            return 0
        return self.prec - self.val

    def valuation_ge(self, k: int) -> bool:
        """True when the valuation is provably >= k."""
        if self.val is None:
            return True
        return self.val >= k

    def valuation_bound(self):
        """(bound, exact): the valuation if exact, else a certified lower bound."""
        if self.val is None:
            return (math.inf, True)
        if self.unit == 0:
            return (self.val, False)
        return (self.val, True)

    def _shifted(self, base: int, prec: int) -> int:
        """Integer m with self = m * p^base, reduced modulo p^(prec-base)."""
        if self.unit == 0:
            return 0
        return self.unit * _ppow(self.p, self.val - base) % _ppow(self.p, prec - base)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "PadicNumber":
        if isinstance(other, PadicNumber):
            if other.p != self.p:
                raise ValueError("mixed primes %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            # from_int gives what from_fraction gives at denominator 1
            if other == 0:
                return PadicNumber.exact_zero(self.p, self.prec)
            v = int_valuation(other, self.p)
            digits = max(self.rel, self.prec - v, 1)
            return PadicNumber.from_int(other, self.p, digits)
        if isinstance(other, Fraction):
            if other == 0:
                return PadicNumber.exact_zero(self.p, self.prec)
            v = fraction_valuation(other, self.p)
            digits = max(self.rel, self.prec - v, 1)
            return PadicNumber.from_fraction(other, self.p, digits)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_exact_zero:
            return self
        if self.is_exact_zero:
            return other
        prec = min(self.prec, other.prec)
        base = min(self.val, other.val, prec)
        m = self._shifted(base, prec) + other._shifted(base, prec)
        return _normalize(self.p, m, base, prec)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        unit = -self.unit % _ppow(self.p, self.rel)
        return PadicNumber(self.p, self.val, unit, self.prec)

    def __sub__(self, other):
        if other is self:
            return PadicNumber.exact_zero(self.p, self.prec)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_exact_zero or other.is_exact_zero:
            return PadicNumber.exact_zero(self.p, min(self.prec, other.prec))
        if self.unit == 0 or other.unit == 0:
            return PadicNumber.zero_at(self.p, self.val + other.val)
        v = self.val + other.val
        reln = min(self.rel, other.rel)
        unit = self.unit * other.unit % _ppow(self.p, reln)
        return PadicNumber(self.p, v, unit, v + reln)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_exact_zero:
            raise DivisionByZero("division by exact zero")
        if other.unit == 0:
            raise DivisionByZero(
                "divisor is zero at its precision O(%d^%d)" % (other.p, other.prec)
            )
        if self.is_exact_zero:
            return self
        if self.unit == 0:
            return PadicNumber.zero_at(self.p, self.val - other.val)
        v = self.val - other.val
        reln = min(self.rel, other.rel)
        mod = _ppow(self.p, reln)
        unit = self.unit * pow(other.unit, -1, mod) % mod
        return PadicNumber(self.p, v, unit, v + reln)

    def __rtruediv__(self, other):
        lifted = self._coerce(other)
        if lifted is NotImplemented:
            return NotImplemented
        return lifted.__truediv__(self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return PadicNumber.from_int(1, self.p, max(self.rel, 1))
        if self.is_exact_zero:
            if n < 0:
                raise DivisionByZero("negative power of exact zero")
            return self
        if self.unit == 0:
            if n < 0:
                raise DivisionByZero("negative power of zero at precision")
            return PadicNumber.zero_at(self.p, self.val * n)
        mod = _ppow(self.p, self.rel)
        unit = pow(self.unit, n, mod)
        v = self.val * n
        return PadicNumber(self.p, v, unit, v + self.rel)

    def __eq__(self, other):
        if other is self:
            return True
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_exact_zero and other.is_exact_zero:
            return True
        return (self - other).is_zero

    __hash__ = None

    def __repr__(self):
        if self.is_exact_zero:
            return "PadicNumber(p=%d, 0 exact, prec=%d)" % (self.p, self.prec)
        if self.unit == 0:
            return "PadicNumber(p=%d, O(%d^%d))" % (self.p, self.p, self.prec)
        return "PadicNumber(p=%d, %d^%d * %d + O(%d^%d))" % (
            self.p, self.p, self.val, self.unit, self.p, self.prec,
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON form: base-p little-endian digits of the unit part."""
        if self.is_exact_zero:
            return {"p": self.p, "val": "inf", "digits": [], "prec": self.prec}
        digits = []
        u = self.unit
        for _ in range(self.rel):
            u, d = divmod(u, self.p)
            digits.append(d)
        return {"p": self.p, "val": self.val, "digits": digits, "prec": self.prec}

    @classmethod
    def from_dict(cls, d: dict) -> "PadicNumber":
        p = d["p"]
        if d["val"] == "inf":
            return cls.exact_zero(p, d["prec"])
        unit = 0
        for dig in reversed(d["digits"]):
            unit = unit * p + dig
        if unit == 0:
            return cls.zero_at(p, d["prec"])
        return cls(p, d["val"], unit, d["prec"])


def _normalize(p: int, m: int, base: int, prec: int) -> PadicNumber:
    """Canonicalize m * p^base known modulo p^prec."""
    if prec <= base:
        return PadicNumber.zero_at(p, prec)
    m %= _ppow(p, prec - base)
    if m == 0:
        return PadicNumber.zero_at(p, prec)
    t = int_valuation(m, p)
    val = base + t
    unit = (m // _ppow(p, t)) % _ppow(p, prec - val)
    return PadicNumber(p, val, unit, prec)


def padic_from_rational(num: int, den: int, p: int, prec: int) -> PadicNumber:
    """num/den with exact valuation and prec significant digits."""
    if den == 0:
        raise DivisionByZero("zero denominator")
    return PadicNumber.from_fraction(Fraction(num, den), p, prec)


def padic_arith(op: str, x: PadicNumber, y: PadicNumber) -> PadicNumber:
    """Named dispatch for the four field operations."""
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        return x / y
    raise ValueError("unknown operation %r" % op)


# -- domain predicates -----------------------------------------------------

def in_R(x: PadicNumber) -> bool:
    """x lies in the valuation ring (v >= 0), provably."""
    return x.valuation_ge(0)


def in_Rstar(x: PadicNumber) -> bool:
    """x is small enough for log/exp territory: v >= 1 (odd p), v >= 2 (p=2)."""
    return x.valuation_ge(rstar_threshold(x.p))


def in_D(s: PadicNumber) -> bool:
    """s lies in the open series convergence disk
    |s|_p < |p*|_p^(-1) p^(-1/(p-1)) (Washington, Thm 5.11).

    The bound is v(s) > 1/(p-1) - v_p(p*); for integer valuations that is
    v(s) >= floor(1/(p-1)) - v_p(p*) + 1, which is v >= 0 at every p.
    """
    p = s.p
    return s.valuation_ge(1 // (p - 1) - int_valuation(p_star(p), p) + 1)


# -- Teichmuller lifting ---------------------------------------------------

def teichmuller_int(a: int, p: int, prec: int) -> int:
    """Integer lift of the Teichmuller representative of a modulo p^prec.

    For odd p this is the root of x^p = x congruent to a modulo p, found by
    Newton iteration from x = a (mod p), which doubles the precision each
    step (Brent & Zimmermann, Modern Computer Arithmetic, 4.2).  The step
    x - (x^p - x)/(p - 1) divides by p - 1, the derivative of x^p - x at
    the root; at an x correct modulo p^k the derivative differs from it by
    a multiple of p^k, so the step is still correct modulo p^(2k).  The
    root is unique (Hensel), so this is the integer the iteration x -> x^p
    converges to (Washington, GTM 83, 5.1).
    """
    if math.gcd(a, p) != 1:
        raise NotAUnit("%d is not a unit modulo %d" % (a, p))
    mod = _ppow(p, prec)
    if p == 2:
        return 1 if a % 4 == 1 else mod - 1
    steps = []
    while prec > 1:
        steps.append(prec)
        prec = (prec + 1) // 2
    x = a % p
    inv = pow(p - 1, -1, mod)
    for k in reversed(steps):
        m = _ppow(p, k)
        x = (x - (pow(x, p, m) - x) * inv) % m
    return x % mod


@lru_cache(maxsize=TEICH_CACHE_CAP)
def _teich_lift(p: int, a: int, prec: int) -> int:
    """teichmuller_int(a, p, prec) for a residue 0 < a < p*: the one cache
    of lifts, shared by the angle projections and the character values."""
    return teichmuller_int(a, p, prec)


def teichmuller(a: int, ctx) -> PadicNumber:
    """The root of unity congruent to a modulo p*.

    ctx is a QContext (or anything with .p and .prec).
    """
    t = teichmuller_int(a, ctx.p, ctx.prec)
    return PadicNumber(ctx.p, 0, t, ctx.prec)


# -- log and exp -----------------------------------------------------------

def iwasawa_log(x: PadicNumber) -> PadicNumber:
    """log(x) for x = 1 + u with u in R*; series sum_{k>=1} (-1)^(k+1) u^k / k.

    Term k = kmax ends the series: k v(u) - v_p(k) never decreases on R*,
    so the tail lies at or above target = x.prec.  The sum is formed in
    integers for the representative p^v(u) * unit of u, in Horner form
    (Brent & Zimmermann, Modern Computer Arithmetic, 4.4): with e =
    ceil(log_p kmax) >= v_p(k), p^e log x = u H_1, H_kmax+1 = 0 and H_k =
    (-1)^(k+1) p^e/k + u H_(k+1), where p^e/k is p-integral.  H_k enters
    u H_1 times u^k, so it is kept modulo p^(target + e - k v(u)), and
    u H_1 / p^e is exact modulo p^target.  These are the digits a chain of
    PadicNumber operations gives, since each of its terms is the exact
    term modulo a power of p at or above target.
    """
    p = x.p
    u = x - 1
    if u.is_exact_zero:
        return u
    if not in_Rstar(u):
        raise DomainError("log requires x = 1 (mod R*); got v(x-1) outside range")
    if u.unit == 0:
        return PadicNumber.zero_at(p, u.prec)
    target = x.prec
    vu = u.val
    kmax = 1
    while kmax * vu - _ceil_log(p, kmax) < target:
        kmax += 1
    e = _ceil_log(p, kmax)
    scale = _ppow(p, e)
    step = u.unit * _ppow(p, vu)
    acc = 0
    for k in range(kmax, 0, -1):
        digits = target + e - k * vu
        if digits <= 0:
            continue
        mod = _ppow(p, digits)
        if k % p:
            c = scale * pow(k, -1, mod)
        else:
            t = _ppow(p, int_valuation(k, p))
            c = scale // t * pow(k // t, -1, mod)
        acc = ((c if k % 2 else -c) + step * acc) % mod
    return _normalize(p, step * acc // scale, 0, target)


def padic_exp(x: PadicNumber) -> PadicNumber:
    """exp(x) for v(x) >= 1 (odd p) or >= 2 (p=2).

    The series ends at n = kmax: v_p(k!) <= (k-1)/(p-1), so k v(x) -
    (k-1)/(p-1) bounds the term valuation from below and increases on the
    exp domain.  With N = n! and the representative p^v(x) * unit of x,
    N * sum_{k<=n} x^k/k! is summed in Horner form, G_n = 1 and G_k =
    N/k! + x G_(k+1), in integers modulo p^(target + v_p(N)), target =
    x.prec; G_0 / N is then exact modulo p^target.  These are the digits a
    chain of PadicNumber operations gives, since each of its terms is the
    exact term modulo a power of p at or above target.
    """
    p = x.p
    if x.is_exact_zero:
        return PadicNumber.from_int(1, p, x.prec)
    if not in_Rstar(x):
        raise DomainError("exp requires v(x) >= %d for p=%d" % (rstar_threshold(p), p))
    if x.unit == 0:
        return PadicNumber(p, 0, 1, x.prec)
    target = x.prec
    vx = x.val
    n = 1
    while (n * vx - target) * (p - 1) < n - 1:
        n += 1
    vfact = 0       # v_p(n!), by Legendre's formula
    t = p
    while t <= n:
        vfact += n // t
        t *= p
    wide = _ppow(p, target + vfact)
    step = x.unit * _ppow(p, vx)
    total = 1
    ratio = 1
    for k in range(n, 0, -1):
        ratio = ratio * k % wide
        total = (ratio + step * total) % wide
    shift = _ppow(p, vfact)
    mod = _ppow(p, target)
    return _normalize(p, total // shift * pow(ratio // shift, -1, mod), 0, target)


# -- exact exponents ---------------------------------------------------------

def _scaled_exponent(d: int, x):
    """The exact exponent d*x, as an int whenever it is integral, else a
    Fraction or a PadicNumber."""
    if isinstance(x, PadicNumber):
        return x * d
    if not isinstance(x, (int, Fraction)):
        raise TypeError("unsupported exponent %r" % (x,))
    e = d * x
    if isinstance(e, Fraction) and e.denominator == 1:
        return e.numerator
    return e


def _valuation_at_least(x, p: int, k: int) -> bool:
    """v_p(x) >= k, provably, for an int, Fraction or PadicNumber x; 0 passes."""
    if isinstance(x, PadicNumber):
        return x.valuation_ge(k)
    x = Fraction(x)
    return x == 0 or fraction_valuation(x, p) >= k


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # past trial division n > 37^2 or prime; the witness set below is
    # deterministic for everything under 3.3e24
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class QContext:
    """Shared evaluation context: the prime, the exact rational q, the working
    precision, and the convention flag for the k=0 multiple-beta entry.

    q must satisfy q = 1 (mod R*), i.e. v_p(q-1) >= 1 for odd p and >= 2 for
    p = 2; this is the condition every congruence result below relies on.
    Values of q are materialized on demand at any internal precision, so
    helpers may boost precision without rebuilding the context.
    """

    CONVENTIONS = ("pure_sum", "carlitz")

    def __init__(self, p: int, q, prec: int, convention: str = "pure_sum"):
        if not _is_probable_prime(p):
            raise ValueError("p must be prime, got %d" % p)
        if prec < 1:
            raise ValueError("working precision must be >= 1")
        if convention not in self.CONVENTIONS:
            raise ValueError("unknown convention %r" % convention)
        q = Fraction(q)
        if q == 1:
            raise DomainError("q = 1 is degenerate (division by q-1 everywhere)")
        if int_valuation(q.denominator, p) != 0:
            raise DomainError("q must lie in Z_p")
        self.p = p
        self.p_star = p_star(p)
        self.q = q
        self.prec = prec
        self.convention = convention
        self.v_q1 = fraction_valuation(q - 1, p)
        if self.v_q1 < rstar_threshold(p):
            raise DomainError(
                "q - 1 must have valuation >= %d for p = %d"
                % (rstar_threshold(p), p)
            )
        self._cache = {}
        self._coeff_tables = {}

    def with_precision(self, prec: int) -> "QContext":
        """A view of this context at a different working precision.

        The memo and the coefficient tables are shared: their keys name the
        precision, and each beta table keeps the highest target asked of it.
        """
        clone = object.__new__(QContext)
        clone.p = self.p
        clone.p_star = self.p_star
        clone.q = self.q
        clone.prec = prec
        clone.convention = self.convention
        clone.v_q1 = self.v_q1
        clone._cache = self._cache
        clone._coeff_tables = self._coeff_tables
        return clone

    def _memo(self, key, build):
        """The value under key in the memo the context's precision views
        share, built by build() on a miss; at most CONTEXT_CACHE_CAP
        entries are kept.  The only access to the memo."""
        return _memoized(self._cache, CONTEXT_CACHE_CAP, key, build)

    # -- materialization ---------------------------------------------------

    def q_int(self, prec: int = None) -> int:
        """Integer lift of q modulo p^prec."""
        prec = self.prec if prec is None else prec
        return self._memo(("qint", prec), lambda: self.q.numerator * pow(
            self.q.denominator, -1, _ppow(self.p, prec)) % _ppow(self.p, prec))

    def log_q(self, prec: int = None) -> PadicNumber:
        prec = self.prec if prec is None else prec
        return self._memo(("logq", prec), lambda: self._log_q(prec))

    def _log_q(self, prec: int) -> PadicNumber:
        got = iwasawa_log(PadicNumber(self.p, 0, self.q_int(prec), prec))
        assert got.val == self.v_q1
        return got

    # -- q-powers and brackets ----------------------------------------------

    def q_power(self, d: int, x, prec: int = None):
        """(q^d)^x = q^(d*x) for an int, Fraction or PadicNumber exponent x.

        d*x is formed exactly, so x = (z + a)/F at d = F is never rounded:
        an integral d*x is a modular power, any other d*x must lie in Z_p
        and gives exp(d*x log q).
        """
        prec = self.prec if prec is None else prec
        e = _scaled_exponent(d, x)
        if isinstance(e, int):
            mod = _ppow(self.p, prec)
            return PadicNumber(self.p, 0, pow(self.q_int(prec), e, mod), prec)
        if isinstance(e, Fraction):
            if int_valuation(e.denominator, self.p) != 0:
                raise DomainError("exponent %s is not p-adically integral" % e)
            e = PadicNumber.from_fraction(e, self.p, prec)
        if not e.valuation_ge(0):
            raise DomainError("exponent has negative valuation")
        return padic_exp(e * self.log_q(prec + self.v_q1))

    def one_minus_q_pow(self, e: int, rel: int) -> PadicNumber:
        """1 - q^e for an integer e, with rel significant digits.

        Its valuation is v_p(q - 1) + v_p(e) by the lifting-the-exponent
        lemma (q = 1 mod R* clears the lemma's threshold, also at p = 2), so
        q^e is formed modulo p^(valuation + rel) and nothing cancels.
        """
        if e == 0:
            return PadicNumber.exact_zero(self.p, rel)
        v = self.v_q1 + int_valuation(e, self.p)
        mod = _ppow(self.p, v + rel)
        m = (1 - pow(self.q_int(v + rel), e, mod)) % mod
        return PadicNumber(self.p, v, m // _ppow(self.p, v), v + rel)

    def q_bracket(self, d: int, x, prec: int = None) -> PadicNumber:
        """[x]_{q^d} = (1 - q^(d*x)) / (1 - q^d) for an int, Fraction or
        PadicNumber exponent x, with d*x formed exactly as in q_power.

        Integral d*x takes both factors from one_minus_q_pow, so the
        cancellation of their valuations costs no digits.
        """
        prec = self.prec if prec is None else prec
        e = _scaled_exponent(d, x)
        if isinstance(e, int):
            return self.one_minus_q_pow(e, prec) / self.one_minus_q_pow(d, prec)
        vden = self.v_q1 + int_valuation(d, self.p)
        num = 1 - self.q_power(1, e, prec + vden + 1)
        return num / self.one_minus_q_pow(d, max(num.rel, 1))

    def one(self, prec: int = None) -> PadicNumber:
        prec = self.prec if prec is None else prec
        return PadicNumber.from_int(1, self.p, prec)


def q_pow(ctx: QContext, x) -> PadicNumber:
    """q^x; for integer x this is plain modular exponentiation."""
    return ctx.q_power(1, x)


def q_bracket(ctx: QContext, base_power: int, x) -> PadicNumber:
    """[x] in base q^base_power."""
    return ctx.q_bracket(base_power, x)


def angle_q(ctx: QContext, a: int, z=0, prec: int = None) -> PadicNumber:
    """The principal-unit projection w(a)^(-1) * [a + p* z]_q.

    a must be a unit; z is an int, Fraction or PadicNumber in the valuation
    ring, and the exponent a + p* z is formed exactly.  The result is
    congruent to 1 modulo p* R.
    """
    p = ctx.p
    if math.gcd(a, p) != 1:
        raise NotAUnit("%d is not a unit modulo %d" % (a, p))
    prec = ctx.prec if prec is None else prec
    if not _valuation_at_least(z, p, 0):
        raise DomainError("z must lie in the valuation ring")
    return _angle_of_bracket(ctx, a, ctx.q_bracket(1, a + ctx.p_star * z, prec),
                             prec)


def _angle_of_bracket(ctx: QContext, a: int, bracket: PadicNumber,
                      prec: int) -> PadicNumber:
    """w(a)^(-1) * bracket for bracket = [a + p* z]_q: angle_q past its
    checks, for a caller that needs the bracket as well."""
    p = ctx.p
    mod = _ppow(p, prec)
    inv_t = pow(_teich_lift(p, a % ctx.p_star, prec), -1, mod)
    result = bracket * PadicNumber(p, 0, inv_t, prec)
    assert (result - 1).valuation_ge(int_valuation(ctx.p_star, p)), \
        "angle projection left the principal-unit disk"
    return result


def padic_power(x: PadicNumber, s) -> PadicNumber:
    """x^s = exp(s * log x) for x = 1 (mod p* R) and s in the disk D.

    Integer s falls back to repeated multiplication, which agrees with the
    exp path on the common domain.
    """
    if isinstance(s, int):
        return x ** s
    p = x.p
    vstar = int_valuation(p_star(p), p)
    if not (x - 1).valuation_ge(vstar):
        raise DomainError("base must be = 1 (mod p* R)")
    if not in_D(s):
        raise DomainError("exponent outside the convergence disk D")
    return padic_exp(s * iwasawa_log(x))


def binom_padic(t, k: int) -> PadicNumber:
    """Binomial coefficient C(t, k) = t(t-1)...(t-k+1)/k! for p-adic t."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not isinstance(t, PadicNumber):
        raise TypeError("t must be a PadicNumber; coerce integers explicitly")
    if k == 0:
        return PadicNumber.from_int(1, t.p, max(t.rel, 1))
    acc = t
    for i in range(1, k):
        acc = acc * (t - i)
    acc = acc / math.factorial(k)
    if not acc.is_exact_zero and acc.unit != 0 and acc.rel < 1:
        raise PrecisionExhausted("binomial coefficient lost all digits")
    return acc
