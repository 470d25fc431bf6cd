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
)

__all__ = [
    "PadicNumber",
    "QContext",
    "teichmuller",
    "teichmuller_int",
    "iwasawa_log",
    "padic_exp",
    "angle_q",
    "padic_power",
    "in_Rstar",
    "in_D",
    "p_star",
    "rstar_threshold",
    "int_valuation",
    "fraction_valuation",
]


#: entries kept by the power cache, by the Teichmuller lift cache and by
#: each QContext's memo; several times the peaks of one round of each
#: perfbench workload at seed 1 (528 powers, 250 lifts, 261 context
#: entries, 12 of them power-sum records and 11 [F]_q units), so that none
#: of them evicts
PPOW_CACHE_CAP = 4096
TEICH_CACHE_CAP = 1024
CONTEXT_CACHE_CAP = 1024
#: primes kept by each prime-keyed cache (the prime check here, primitive
#: roots and eta in characters); a workload or the whole test suite asks
#: for at most six primes
PRIME_CACHE_CAP = 64


@lru_cache(maxsize=PPOW_CACHE_CAP)
def _ppow(p: int, e: int) -> int:
    return p ** e


def _memoized(cache: dict, cap: int, key, build):
    """cache[key], built by build() on a miss and stored after evicting the
    oldest entries while cap are held: the one eviction policy of the keyed
    stores of the library.  The eviction follows the build, which may store
    into the same cache."""
    got = cache.get(key)
    if got is None:
        got = build()
        while len(cache) >= cap:
            del cache[next(iter(cache))]
        cache[key] = got
    return got


def int_valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    # v = 0 and v = 1 are most calls, so they skip the table of powers
    if n % p:
        return 0
    n //= p
    if n % p:
        return 1
    # Strip p, p^2, p^4, ... while each divides, then step back down
    # through the same powers: O(log v) divisions, not v.
    powers = []
    pk = p
    while n % pk == 0:
        n //= pk
        powers.append(pk)
        pk *= pk
    v = 1 << len(powers)
    while powers:
        pk = powers.pop()
        if n % pk == 0:
            n //= pk
            v += 1 << len(powers)
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


# -- domain predicates -----------------------------------------------------

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

#: least precision at which padic_exp splits its argument; below it the
#: two series cost more than the one (per call, p = 2 to 13, v(x) at the
#: threshold)
_EXP_SPLIT_MIN = 40


def _log_series(p: int, w: int, v: int, target: int) -> int:
    """An integer congruent to log(1 + w) modulo p^target, for an integer w
    with v_p(w) = v at or above rstar_threshold(p).

    The series is sum_{k>=1} (-1)^(k+1) w^k / k.  Term k = kmax ends it:
    k v - v_p(k) never decreases on R*, so the tail lies at or above
    target.  It is summed in Horner form (Brent & Zimmermann, Modern
    Computer Arithmetic, 4.4): with e = ceil(log_p kmax) >= v_p(k), p^e
    log(1 + w) = w H_1, H_kmax+1 = 0 and H_k = (-1)^(k+1) p^e/k + w H_(k+1),
    where p^e/k is p-integral.  H_k enters w H_1 times w^k, so it is kept
    modulo p^(target + e - k v), and w H_1 / p^e is exact modulo p^target.
    """
    kmax = 1
    while kmax * v - _ceil_log(p, kmax) < target:
        kmax += 1
    e = _ceil_log(p, kmax)
    scale = _ppow(p, e)
    acc = 0
    for k in range(kmax, 0, -1):
        digits = target + e - k * v
        if digits <= 0:
            continue
        mod = _ppow(p, digits)
        if k % p:
            c = scale * pow(k, -1, mod)
        else:
            t = _ppow(p, int_valuation(k, p))
            c = scale // t * pow(k // t, -1, mod)
        acc = ((c if k % 2 else -c) + w * acc) % mod
    return w * acc // scale


def _exp_series(p: int, w: int, v: int, target: int) -> int:
    """An integer congruent to exp(w) modulo p^target, for an integer w
    with v_p(w) >= v, v at or above rstar_threshold(p).

    The series ends at k = n: v_p(k!) <= (k-1)/(p-1), so k v - (k-1)/(p-1)
    bounds the valuation of term k from below and increases on the exp
    domain.  With N = n!, N * sum_{k<=n} w^k/k! is summed in Horner form,
    G_n = 1 and G_k = N/k! + w G_(k+1), in integers modulo p^(target +
    v_p(N)); G_0 / N is then exact modulo p^target.  Each step multiplies
    by w, so a w of few digits makes every step cheap whatever target is.
    """
    n = 1
    while (n * v - target) * (p - 1) < n - 1:
        n += 1
    vfact = 0       # v_p(n!), by Legendre's formula
    t = p
    while t <= n:
        vfact += n // t
        t *= p
    wide = _ppow(p, target + vfact)
    total = 1
    ratio = 1
    for k in range(n, 0, -1):
        ratio = ratio * k % wide
        total = (ratio + w * total) % wide
    shift = _ppow(p, vfact)
    return total // shift * pow(ratio // shift, -1, _ppow(p, target))


def iwasawa_log(x: PadicNumber) -> PadicNumber:
    """log(x) for x = 1 + u with u in R*.

    The digits are those of log X modulo p^target, target = x.prec, for the
    integer representative X = 1 + p^v(u) * unit of x.  Past a few digits
    the argument is reduced first (Brent & Zimmermann, Modern Computer
    Arithmetic, 4.4): log X = p^(-m) log Y with Y = X^(p^m), and Y is taken
    modulo p^(target + m).  Why that is enough:

    - v(Y - 1) = v(u) + m.  For odd p and v(u) >= 1, (1 + u)^p - 1 is p u
      plus terms C(p, k) u^k (1 < k < p) and u^p, all of valuation above
      1 + v(u); for p = 2 and v(u) >= 2, u^2 lies above 1 + v(u) likewise.
      So each p-th power adds exactly one to v(u) and stays in R*.
    - Y + d with v(d) >= target + m has log(Y + d) - log Y = log(1 + d/Y),
      of valuation v(d); so log Y modulo p^(target + m) is fixed by Y modulo
      p^(target + m), and dividing by p^m leaves log X modulo p^target.  The
      representative does not matter either: (X + d)^(p^m) - X^(p^m) for
      v(d) >= target is a sum of C(p^m, k) X^(p^m - k) d^k with
      v(C(p^m, k)) = m - v_p(k), all at or above target + m.

    The series on Y - 1 then needs about (target + m)/(v(u) + m) terms in
    place of target/v(u).  m = isqrt(target / bits(p)) - v(u), at least 0,
    balances the m bits(p) squarings of the power against those terms; at
    small targets, or when v(u) is already that large, m = 0 and the series
    runs on u itself.  Either way these are the digits a chain of
    PadicNumber operations on x gives, one term at a time.
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
    w = u.unit * _ppow(p, vu)
    m = max(0, math.isqrt(target // p.bit_length()) - vu)
    if m:
        w = pow(1 + w, _ppow(p, m), _ppow(p, target + m)) - 1
    return _normalize(p, _log_series(p, w, vu + m, target + m), -m, target)


def padic_exp(x: PadicNumber) -> PadicNumber:
    """exp(x) for v(x) >= 1 (odd p) or >= 2 (p=2).

    The digits are those of exp w modulo p^target, target = x.prec, for the
    integer representative w = p^v(x) * unit of x: exp(w + d) = exp(w)
    exp(d) and exp(d) = 1 modulo p^v(d).  From _EXP_SPLIT_MIN digits on, w
    is split at p^c, c = v(x) + isqrt(target), into w0 = w mod p^c and
    w1 = w - w0, and exp w = exp(w0) exp(w1) (the series of a sum of
    commuting arguments in the exp domain multiply; Washington, GTM 83,
    5.1).  Both factors are units known modulo p^target, so their product
    is too.  w0 has v(w0) = v(x) and at most c digits, so each of its about
    target/v(x) Horner steps multiplies by a small integer; v(w1) >= c, so
    its series has only about target/c full-size steps.  The split is made
    only while 3 v(x) < isqrt(target): a larger v(x) leaves the single
    series so few terms that the second series costs more than it saves.
    Either way these are the digits a chain of PadicNumber operations on x
    gives, one term at a time.
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
    w = x.unit * _ppow(p, vx)
    s = math.isqrt(target)
    if target < _EXP_SPLIT_MIN or 3 * vx >= s:
        return _normalize(p, _exp_series(p, w, vx, target), 0, target)
    c = vx + s
    w1 = w - w % _ppow(p, c)
    got = _exp_series(p, w - w1, vx, target)
    if w1:
        got *= _exp_series(p, w1, c, target)
    return _normalize(p, got, 0, target)


# -- exact exponents ---------------------------------------------------------

def _scaled_exponent(d: int, x):
    """The exact exponent d*x, the one reader of exact arguments: an int
    whenever it is integral, an exact zero included (an int added to it
    would take its precision), else a Fraction or a PadicNumber."""
    if isinstance(x, PadicNumber):
        e = x if d == 1 else x * d
        return 0 if e.is_exact_zero else e
    if isinstance(x, int):
        return d * x
    if not isinstance(x, Fraction):
        raise TypeError("unsupported exponent %r" % (x,))
    e = d * x
    return e.numerator if e.denominator == 1 else e


def _valuation_at_least(x, p: int, k: int) -> bool:
    """v_p(x) >= k, provably, for an int, Fraction or PadicNumber x; 0 passes."""
    if isinstance(x, PadicNumber):
        return x.valuation_ge(k)
    if isinstance(x, int):
        return x == 0 or int_valuation(x, p) >= k
    x = Fraction(x)
    return x == 0 or fraction_valuation(x, p) >= k


def _require_integral(z, p: int) -> None:
    """Refuse a shift z outside the valuation ring Z_p, a PadicNumber of
    another prime included: the library's one check of its convention for
    z."""
    if (isinstance(z, PadicNumber) and z.p != p
            or not _valuation_at_least(z, p, 0)):
        raise DomainError("z must lie in the valuation ring")


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    # past trial division n > 41^2 or prime; Miller-Rabin to the primes up
    # to 41 is deterministic below 3,317,044,064,679,887,385,961,981, and
    # to 37 it passes 318665857834031151167461 = 399165290221 * 798330580441
    # (Sorenson and Webster, Math. Comp. 86, 2017)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
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


@lru_cache(maxsize=PRIME_CACHE_CAP)
def _require_prime(p: int) -> None:
    """ValueError unless p is prime: the one primality check of the library,
    made by QContext and by every character constructor that takes a p."""
    if not _is_probable_prime(p):
        raise ValueError("p must be prime, got %d" % p)


class QContext:
    """Shared evaluation context: the prime, the exact rational q, the working
    precision, and the convention flag, which picks the family of every
    series coefficient and of every closed special value of lfunctions
    (qbernoulli._series_family): pure_sum or, under carlitz, the integral
    family, whose closed forms hold at every r while lfunctions.Lpq_eval
    evaluates it at r = 1 only.

    q must satisfy q = 1 (mod R*), i.e. v_p(q-1) >= 1 for odd p and >= 2 for
    p = 2; this is the condition every congruence result below relies on.
    Values of q are materialized on demand at any internal precision, so
    helpers may boost precision without rebuilding the context.
    """

    CONVENTIONS = ("pure_sum", "carlitz")

    def __init__(self, p: int, q, prec: int, convention: str = "pure_sum"):
        _require_prime(p)
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
        The fields are copied one by one: on CPython 3.11, reading __dict__
        turns an instance's inline attributes into a dict, which slows every
        later attribute read of the context and of its views.
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
    _require_integral(z, p)
    bracket = ctx.q_bracket(1, a + _scaled_exponent(ctx.p_star, z), prec)
    inv_t = pow(_teich_lift(p, a % ctx.p_star, prec), -1, _ppow(p, prec))
    result = bracket * PadicNumber(p, 0, inv_t, prec)
    assert (result - 1).valuation_ge(int_valuation(ctx.p_star, p)), \
        "angle projection left the principal-unit disk"
    return result


def padic_power(x: PadicNumber, s) -> PadicNumber:
    """x^s = exp(s * log x) for x = 1 (mod p* R) and s in the disk D.

    Integer s falls back to repeated multiplication, which agrees with the
    exp path on the common domain.  Any other s must be a PadicNumber.
    """
    s = _scaled_exponent(1, s)
    if isinstance(s, int):
        return x ** s
    if not isinstance(s, PadicNumber):
        raise TypeError("s must be an integer or a PadicNumber")
    p = x.p
    vstar = int_valuation(p_star(p), p)
    if not (x - 1).valuation_ge(vstar):
        raise DomainError("base must be = 1 (mod p* R)")
    if not in_D(s):
        raise DomainError("exponent outside the convergence disk D")
    return padic_exp(s * iwasawa_log(x))
