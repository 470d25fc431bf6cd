"""q-Bernoulli numbers and polynomials over Z_p.

Two families of order-r polynomials at base Q = q^d are kept strictly
apart.  Both are (1 - Q)^(r-n) sum_i a_i Q^(ix) (1 - Q^i)^(-r) for an
integer vector a_i, evaluated from one coefficient table (_coeff_table):

* pure-sum, multi_q_beta_poly: the order-r generating-function
  coefficients, a_i = (-1)^(r+i-1) n!/(n-r)! C(n-r, i-1) for
  i = 1..n-r+1, and 0 for n < r;
* integral, volkenborn_beta_poly: a_i = (-1)^i C(n, i) i^r for i = 1..n,
  plus beta_0^r (1 - Q)^(-n).  This is the r-fold q-Volkenborn integral
  of [x + t_1+...+t_r]_Q^n (T. Kim, Russ. J. Math. Phys. 9, 2002 and 13,
  2006): expand [y]_Q^n = (1-Q)^(-n) sum_j C(n, j) (-1)^j Q^(jy), and
  each fold gives int Q^(jt) dmu_Q(t) = j/[j]_Q for j >= 1 and
  beta_0 = (Q - 1)/log Q for j = 0.

At r = 1 both vectors are (-1)^i i C(n, i), so the Carlitz single is
beta_n(x) = beta^(1)_n(x) + beta_0 (1 - Q)^(-n); the pure-sum r = 1 case
is NOT the Carlitz sequence.  The context convention flag decides which
family feeds series expansions; see series_beta.  Every closed special
value is a window sum of beta^(r) values over residue rows, which
_window_sum forms as one integer Horner sum over the rows, _horner_sum,
the same kernel that evaluates a single value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .characters import DirichletCharacter
from .classical import residue_sums
from .errors import NormalizationUnresolved, PrecisionExhausted
from .padic import (
    PadicNumber,
    QContext,
    _ceil_log,
    _memoized,
    _normalize,
    _ppow,
    int_valuation,
)

__all__ = [
    "QBernoulliTable",
    "beta_table",
    "carlitz_beta",
    "carlitz_beta_poly",
    "gen_q_beta_poly",
    "kim_sum_of_products",
    "multi_q_beta_poly",
    "multi_gen_q_beta_poly",
    "series_beta",
    "series_beta_floor",
    "set_convention_certificate",
    "convention_certificate",
    "volkenborn_beta_poly",
]

def _base_valuation(ctx: QContext, base_power: int) -> int:
    """v_p(q^base_power - 1); exact since v_p(q-1) clears the LTE threshold."""
    return ctx.v_q1 + int_valuation(base_power, ctx.p)


@dataclass
class QBernoulliTable:
    """Carlitz beta values for one base power q^d of one context."""

    ctx: QContext
    base_power: int
    target: int = 0
    entries: list = field(default_factory=list)

    def extend(self, n: int, target: int) -> None:
        """Entries up to index n at absolute precision target; only the
        missing ones are built unless target rises, into a new list."""
        if n < len(self.entries) and target <= self.target:
            return
        lo = len(self.entries) if target <= self.target else 0
        self.target = max(target, self.target)
        self.entries = self.entries[:lo] + _carlitz_run(
            self.ctx, lo, max(n, len(self.entries) - 1), self.base_power,
            self.target)


def _carlitz_constants(ctx: QContext, d: int, digits: int):
    """beta_0 = (Q - 1)/log Q and 1/(1 - Q) at base Q = q^d, each to digits
    significant digits; log q is taken once, at the precision they need."""
    one_minus_Q = ctx.one_minus_q_pow(d, digits)
    log_Q = ctx.log_q(digits + _base_valuation(ctx, d)) * d
    return -one_minus_Q / log_Q, 1 / one_minus_Q


def _carlitz_run(ctx: QContext, lo: int, n_max: int, d: int,
                 target: int) -> list:
    """beta_n = beta^(1)_n(0) + beta_0 (1 - Q)^(-n) at base Q = q^d for
    lo <= n <= n_max, each to absolute precision at least target."""
    beta_0, ratio = _carlitz_constants(
        ctx, d, target + n_max * _base_valuation(ctx, d) + 2)
    wctx = ctx.with_precision(target)
    entries = []
    term = beta_0 * ratio ** lo
    for n in range(lo, n_max + 1):
        b = multi_q_beta_poly(wctx, n, 1, 0, base_power=d) + term
        if b.prec < target:
            raise PrecisionExhausted(
                "beta_%d at base q^%d retains %d digits, need %d"
                % (n, d, b.prec, target)
            )
        entries.append(b)
        term = term * ratio
    return entries


def beta_table(ctx: QContext, base_power: int = 1) -> QBernoulliTable:
    return ctx._memo(("beta_table", base_power),
                     lambda: QBernoulliTable(ctx, base_power))


def carlitz_beta(ctx: QContext, n: int, base_power: int = 1) -> PadicNumber:
    """Carlitz q-Bernoulli number beta_n at base q^base_power."""
    if n < 0:
        raise ValueError("n must be >= 0")
    table = beta_table(ctx, base_power)
    table.extend(n, ctx.prec)
    return table.entries[n]


def _carlitz_term(ctx: QContext, n: int, r: int, d: int) -> PadicNumber:
    """beta_0^r (1 - Q)^(-n) at base Q = q^d, the x-independent term of the
    integral family (the j = 0 moment of each fold), to absolute precision
    at least ctx.prec."""
    beta_0, ratio = _carlitz_constants(
        ctx, d, ctx.prec + n * _base_valuation(ctx, d) + 2)
    return beta_0 ** r * ratio ** n


def carlitz_beta_poly(ctx: QContext, n: int, x,
                      base_power: int = 1) -> PadicNumber:
    """Carlitz q-Bernoulli polynomial beta_n(x) = int [x + t]_Q^n dmu_Q(t)
    at base Q = q^base_power, as beta^(1)_n(x) + beta_0 (1 - Q)^(-n) with
    the pure-sum single beta^(1)_n (0 at n = 0); see the module docstring.
    Certified to ctx.prec.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        # beta_0(x) does not depend on x, but x must still lie in the domain
        # of Q^x, as multi_q_beta_poly checks from n = 1 on
        ctx.q_power(base_power, x)
    return (multi_q_beta_poly(ctx, n, 1, x, base_power=base_power)
            + _carlitz_term(ctx, n, 1, base_power))


def gen_q_beta_poly(ctx: QContext, n: int, chi: DirichletCharacter,
                    z=0) -> PadicNumber:
    """Character-attached single q-Bernoulli polynomial, Carlitz convention,
    at the modulus f of chi and base Q = q^f:

        [f]_q^(n-1) sum_{a=1..f} chi(a) beta_{n,Q}((a+z)/f)
          = (r = 1 window sum) + [f]_q^(n-1) beta_0 (1-Q)^(-n) sum_a chi(a)

    by the closed form of carlitz_beta_poly; the second term is non-zero
    only for principal chi.  Certified to ctx.prec or PrecisionExhausted.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    f = chi.modulus
    rows = residue_sums(f, 1, chi)
    if n == 0:
        # the window sum is 0 at n = 0, but (a + z)/f must still lie in the
        # domain of Q^x, as in carlitz_beta_poly
        ctx.q_power(1, z + rows[0][0])
    value = _window_sum(ctx, n, 1, chi, z, f, rows)
    if chi.is_principal:
        # chi(a) = 1 on every row, so the character sum is the row count;
        # v([f]_q) = v_p(f), which [f]_q^(-1) at n = 0 costs
        wide = ctx.with_precision(ctx.prec + int_valuation(f, ctx.p) + 2)
        term = _carlitz_term(wide, n, 1, f)
        bracket = ctx.q_bracket(1, f, term.rel)
        value = value + len(rows) * bracket ** (n - 1) * term
    return _certified(value, ctx.prec, "gen_q_beta_poly")


# Coefficient tables kept per context, in a store of their own beside the
# context memo.  A k-series and a Carlitz run build one table per index and
# never return to it, and a table holds an integer per index, so a small
# cap bounds memory; a congruence grid revisits at most k' + 1 tables.
COEFF_TABLE_CAP = 32


def _unit_inverses(units: list, mod: int) -> list:
    """Inverses of units modulo mod with a single pow(-1), by prefix products."""
    prefix = [1]
    for w in units:
        prefix.append(prefix[-1] * w % mod)
    inv = pow(prefix[-1], -1, mod)
    out = [0] * len(units)
    for i in range(len(units) - 1, -1, -1):
        out[i] = prefix[i] * inv % mod
        inv = inv * units[i] % mod
    return out


def _pure_sum_a(n: int, r: int) -> list:
    """a_i = (-1)^(r+i-1) n!/(n-r)! C(n-r, i-1) for i = 1..n-r+1."""
    return [(-1) ** (r + i) * math.perm(n, r) * math.comb(n - r, i)
            for i in range(n - r + 1)]


def _integral_a(n: int, r: int) -> list:
    """a_i = (-1)^i C(n, i) i^r for i = 1..n."""
    return [(-1) ** i * math.comb(n, i) * i ** r for i in range(1, n + 1)]


def _coeff_table(ctx: QContext, family, n: int, r: int, d: int, rel: int):
    """The x-independent part of a family at base Q = q^d, to rel
    significant digits: (base, coeffs, pref) with pref = (1-Q)^(r-n) and

        coeffs[i-1] * p^base = a_i (1-Q^i)^(-r)   mod p^(base+rel)

    for the non-empty a = family(n, r).  v(1 - Q^i) = v(Q-1) + v_p(i) by
    lifting the exponent, so Q^i is formed modulo p^(rel + v(Q-1) +
    ceil(log_p(len a))).  The key names the family, since at n = r both
    families ask the same rel."""
    return _memoized(ctx._coeff_tables, COEFF_TABLE_CAP,
                     (family.__name__, n, r, d, rel),
                     lambda: _build_coeff_table(ctx, family(n, r), n, r, d,
                                                rel))


def _build_coeff_table(ctx: QContext, a: list, n: int, r: int, d: int,
                       rel: int):
    """The table of _coeff_table for the vector a = family(n, r)."""
    p = ctx.p
    vd = _base_valuation(ctx, d)
    k = rel + vd + _ceil_log(p, len(a))
    mod, wide = _ppow(p, rel), _ppow(p, k)
    Q = pow(ctx.q_int(k), d, wide)
    Qi = 1
    units, signed, vals = [], [], []
    for i, c in enumerate(a, 1):
        Qi = Qi * Q % wide
        v = vd + int_valuation(i, p)
        units.append((1 - Qi) % wide // _ppow(p, v) % mod)
        vc = int_valuation(c, p)
        signed.append(c // _ppow(p, vc))
        vals.append(vc - r * v)
    inv = _unit_inverses([pow(w, r, mod) for w in units], mod)
    base = min(vals)
    coeffs = [c * w * _ppow(p, v - base) % mod
              for c, w, v in zip(signed, inv, vals)]
    inv_w0 = pow(units[0], r - 1, mod) * inv[0] % mod     # (1-Q)'s unit, inverted
    pval = (r - n) * vd
    return (base, coeffs,
            PadicNumber(p, pval, pow(inv_w0, n - r, mod), pval + rel))


def _horner_sum(p: int, table, terms, digits: int = None) -> PadicNumber:
    """pref sum_{(w, u) in terms} w sum_i coeffs[i-1] u^i for a table
    (base, coeffs, pref) of _coeff_table: each u a unit PadicNumber, each
    w a nonzero integer, exact or, with digits given, known to that many
    significant digits.

    The module's one Horner loop, in integers modulo p^d for each row, d =
    min(rel, u.rel) with rel = pref.rel (Brent & Zimmermann, Modern
    Computer Arithmetic, 4.4).  One value is built, at the precision of the
    PadicNumber sum of the products w * pref m p^base: each is known
    modulo p^(v(pref) + base + v_p(w) + min(d, v(m) + digits)), reading
    v(m) as d where m = 0 modulo p^d.
    """
    base, coeffs, pref = table
    rel = pref.rel
    total, reach = 0, []
    for w, u in terms:
        d = min(rel, u.rel)
        mod = _ppow(p, d)
        m = 0
        for a in reversed(coeffs):
            m = (m + a) * u.unit % mod
        if digits is not None and m:
            d = min(d, int_valuation(m, p) + digits)
        reach.append(d + int_valuation(w, p))
        total += w * m
    # at the row of least v_p(w m) the sum keeps at most d - v(m) <= rel
    # significant digits, all of which the product with pref keeps
    return pref * _normalize(p, total, base, base + min(reach))


def _family_sum(ctx: QContext, family, n: int, r: int, x, d: int,
                rel: int) -> PadicNumber:
    """(1-Q)^(r-n) sum_i a_i Q^(ix) (1-Q^i)^(-r) at base Q = q^d, for
    a = family(n, r), as a Horner sum in u = Q^x modulo p^rel."""
    return _horner_sum(ctx.p, _coeff_table(ctx, family, n, r, d, rel),
                       [(1, ctx.q_power(d, x, rel))])


def multi_q_beta_poly(ctx: QContext, n: int, r: int, x,
                      base_power: int = 1) -> PadicNumber:
    """Multiple q-Bernoulli polynomial of order r at base Q = q^base_power,
    the pure-sum family, padded by the beta headroom to hold to ctx.prec:

        (-1)^r n!/(n-r)! (1-Q)^(r-n)
            sum_{j=0..n-r} C(n-r,j) (-1)^j Q^((j+1)x) (1-Q^(j+1))^(-r)

    and 0 for n < r (the order-r generating function starts at t^r).
    """
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    if n < r:
        return PadicNumber.exact_zero(ctx.p, ctx.prec)
    rel = ctx.prec + _beta_headroom(ctx, n, r, base_power) + 2
    return _family_sum(ctx, _pure_sum_a, n, r, x, base_power, rel)


def volkenborn_beta_poly(ctx: QContext, n: int, r: int, x,
                         base_power: int = 1) -> PadicNumber:
    """The integral family: the order-r q-Bernoulli polynomial at base
    Q = q^base_power as the r-fold q-Volkenborn integral

        int...int [x + t_1+...+t_r]_Q^n dmu_Q(t_1)...dmu_Q(t_r)
          = (1-Q)^(r-n) sum_{i=1..n} (-1)^i C(n,i) i^r Q^(ix) (1-Q^i)^(-r)
            + beta_0^r (1-Q)^(-n),

    with beta_0 = (Q - 1)/log Q; see the module docstring.  At r = 1 it is
    carlitz_beta_poly.  Exactly ctx.prec digits, or PrecisionExhausted.
    """
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    value = _carlitz_term(ctx, n, r, base_power)
    if n == 0:
        ctx.q_power(base_power, x)      # no sum, but x must be in the domain
    else:
        # term i has valuation v_p(C(n, i)) - n v(Q-1), as a_i carries i^r
        rel = ctx.prec + n * _base_valuation(ctx, base_power) + 2
        value = value + _family_sum(ctx, _integral_a, n, r, x, base_power,
                                    rel)
    return _certified(value, ctx.prec, "r-fold q-Volkenborn integral")


def _beta_headroom(ctx: QContext, m: int, r: int, F: int) -> int:
    """Certified bound on -v(beta^(r)_{k,q^F}) over k <= m; factors that
    multiply such a beta need this many extra digits to keep target
    absolute precision."""
    if m < r:
        return 0
    vd = _base_valuation(ctx, F)
    return (m - r) * vd + r * (vd + _ceil_log(ctx.p, m - r + 1))


def _certified(x: PadicNumber, prec: int, what: str) -> PadicNumber:
    """x truncated to absolute precision prec; PrecisionExhausted if x
    retains fewer digits than that.  An exact zero stays exact."""
    if x.is_exact_zero:
        return PadicNumber.exact_zero(x.p, min(x.prec, prec))
    if x.prec < prec:
        raise PrecisionExhausted("%s retains %d digits, %d requested"
                                 % (what, x.prec, prec))
    if x.prec == prec:
        return x
    return x + PadicNumber.zero_at(x.p, prec)


def _window_sum(ctx: QContext, n: int, r: int, chi: DirichletCharacter, z,
                F: int, rows) -> PadicNumber:
    """[F]_q^(n-r) sum_{(t, count) in rows} count chi(t)
                     beta^(r)_{n,q^F}((z+t)/F)

    The one sum over residue rows; rows are (t, count) pairs with count >= 1
    and chi(t) != 0, such as residue_sums(F, r, chi) for the sum over
    a_1..a_r = 1..F grouped by t = a_1+...+a_r.  Padded by the beta
    headroom, so the value is certified to ctx.prec or PrecisionExhausted
    is raised.

    All rows share one coefficient table, so this is one _horner_sum over
    u_t = q^(z+t), z + t being the exact exponent F (z+t)/F, with integer
    weights count chi(t), chi(t) lifted to work digits.  It keeps the
    precision of the per-row PadicNumber sum of count chi(t) beta_t, as
    lfunctions._horner_rows keeps that of its term-by-term sum: each row
    is known to its own q-power's digits (at most v(beta_t) + work) above
    p^v_p(count).  One precision for all rows, or one without v_p(count),
    loses digits at an exact zero z of few digits or a count divisible by
    p."""
    headroom = _beta_headroom(ctx, n, r, F)
    work = ctx.prec + headroom + 4
    wctx = ctx.with_precision(work)
    if not isinstance(z, PadicNumber):
        z = Fraction(z)
        if z.denominator == 1:
            z = z.numerator     # so each exponent z + t is a plain int
    if n < r:
        acc = PadicNumber.exact_zero(ctx.p, work)
    else:
        rel = work + headroom + 2       # multi_q_beta_poly's at wctx
        table = _coeff_table(wctx, _pure_sum_a, n, r, F, rel)
        terms = [(count * chi.lift(t, work), wctx.q_power(1, z + t, rel))
                 for t, count in rows]
        acc = _horner_sum(ctx.p, table, terms, work)
    return _certified(wctx.q_bracket(1, F) ** (n - r) * acc, ctx.prec,
                      "special value")


def multi_gen_q_beta_poly(ctx: QContext, n: int, r: int,
                          chi: DirichletCharacter, z=0) -> PadicNumber:
    """Character-attached multiple q-Bernoulli polynomial at the modulus f
    of chi (induce chi first to evaluate at a larger modulus):

        [f]_q^(n-r) sum_{a_1..a_r=1..f} chi(a_1+...+a_r)
                     beta^(r)_{n,q^f}((z+a_1+...+a_r)/f)

    certified to ctx.prec or PrecisionExhausted is raised.
    """
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    f = chi.modulus
    return _window_sum(ctx, n, r, chi, z, f, residue_sums(f, r, chi))


# -- convention certificate ---------------------------------------------------

_CERTIFICATE = [None]


def set_convention_certificate(cert: dict) -> None:
    """Install an oracle-produced resolution certificate for this process.

    Passing None clears the stored certificate.
    """
    if cert is None:
        _CERTIFICATE[0] = None
        return
    for key in ("normalization", "single_beta", "r_max"):
        if key not in cert:
            raise ValueError("certificate lacks %r" % key)
    if cert["normalization"] not in ("n", "n+r"):
        raise ValueError("bad normalization %r" % cert["normalization"])
    if cert["single_beta"] not in ("pure_sum", "carlitz"):
        raise ValueError("bad single_beta %r" % cert["single_beta"])
    _CERTIFICATE[0] = dict(cert)


def convention_certificate():
    return _CERTIFICATE[0]


def kim_sum_of_products(ctx: QContext, n: int, r: int, z_list) -> PadicNumber:
    """Kim's sums-of-products expansion over compositions of N = n+r,

        sum (N; i_1..i_r) prod_{j<r} S_j(N-i_1-...-i_j, i_j) beta_{i_r}(z_r),
        S_j(R, i) = sum_{k<=R} C(R, k) (q-1)^k beta_{k+i}(z_j),

    whose single betas the stored resolution certificate fixes; without one
    covering order r, NormalizationUnresolved is raised.  [a + b]_q =
    [a]_q + q^a [b]_q and q^a = 1 + (q-1)[a]_q make it the integral of
    [y_1 + ... + y_r]_q^N, y_j = z_j + t_j, over r single measures whose
    j = 0 moment is beta_0 (Carlitz) or 0 (pure sum).  So it is
    volkenborn_beta_poly at x = z_1 + ... + z_r under the Carlitz
    certificate, less its beta_0^r (1-q)^(-N) term under the pure-sum one.
    Each z_j must lie in the domain of q^(z_j).  Exactly ctx.prec digits.
    """
    cert = _CERTIFICATE[0]
    if cert is None:
        raise NormalizationUnresolved(
            "no convention certificate installed; run the oracle resolution"
        )
    if r > cert["r_max"]:
        raise NormalizationUnresolved(
            "certificate covers r <= %d, not r = %d" % (cert["r_max"], r)
        )
    if len(z_list) != r:
        raise ValueError("need exactly r shift arguments")
    for z in z_list:
        ctx.q_power(1, z)
    value = volkenborn_beta_poly(ctx, n + r, r, sum(z_list))
    if cert["single_beta"] == "carlitz":
        return value
    return _certified(value - _carlitz_term(ctx, n + r, r, 1), ctx.prec,
                      "sum of products")


def series_beta_floor(ctx: QContext, r: int):
    """A lower bound on v(series_beta(ctx, k, r, d)) that holds for every k
    and every base q^d, or None where none is proven.

    Carlitz singles: v(beta_k) >= -1.  beta_k at base Q = q^d is the
    q-Volkenborn integral of [x]_Q^k, which is p-integral on Z_p, and
    |int f dmu_Q| <= p ||f||_1 (T. Kim, "q-Volkenborn integration", Russ.
    J. Math. Phys. 9, 2002).  No bound is proven for the pure-sum multiples,
    which lose about v(Q - 1) of valuation per k, nor yet for the Carlitz
    convention at r >= 2, whose coefficients are the integral family.
    """
    if ctx.convention == "carlitz" and r == 1:
        return -1
    return None


def series_beta(ctx: QContext, k: int, r: int,
                base_power: int = 1) -> PadicNumber:
    """The coefficient beta^(r)_{k} at base q^base_power that series
    expansions consume, honoring the context convention flag.

    pure_sum: the order-r generating-function coefficients (0 for k < r).
    carlitz: for r = 1 the Carlitz sequence, from its table; for r >= 2 the
    integral family, the r-fold q-Volkenborn integral at x = 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if ctx.convention == "carlitz":
        if r == 1:
            return carlitz_beta(ctx, k, base_power)
        return volkenborn_beta_poly(ctx, k, r, 0, base_power)
    if k < r:
        return PadicNumber.exact_zero(ctx.p, ctx.prec)
    return multi_q_beta_poly(ctx, k, r, 0, base_power=base_power)
