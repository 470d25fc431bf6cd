"""q-Bernoulli numbers and polynomials over Z_p.

Two families of order-r polynomials at base Q = q^d, each with a code
path of its own.  Both are (1 - Q)^(r-n) sum_i a_i Q^(ix) (1 - Q^i)^(-r)
for an integer vector a_i, evaluated from one coefficient table
(_coeff_table), and each is one record (_Family) that every sum takes:

* _PURE_SUM, multi_q_beta_poly: the order-r generating-function
  coefficients, a_i = (-1)^(r+i-1) n!/(n-r)! C(n-r, i-1) for
  i = 1..n-r+1, and 0 for n < r;
* _INTEGRAL, volkenborn_beta_poly: a_i = (-1)^i C(n, i) i^r for
  i = 1..n, plus beta_0^r (1 - Q)^(-n).  This is the r-fold q-Volkenborn
  integral of [x + t_1+...+t_r]_Q^n (T. Kim, Russ. J. Math. Phys. 9, 2002
  and 13, 2006): expand [y]_Q^n = (1-Q)^(-n) sum_j C(n, j) (-1)^j Q^(jy),
  and each fold gives int Q^(jt) dmu_Q(t) = j/[j]_Q for j >= 1 and
  beta_0 = (Q - 1)/log Q for j = 0.

They are one finite identity apart.  With n_(k) = n!/(n-k)!, S(r, k) the
Stirling numbers of the second kind and N = n - k + i + r, for n >= r

    beta^int_n(x) = beta_0^r (1 - Q)^(-n)
        + sum_{k=1..r} sum_{i=0..k-1} S(r, k) (-1)^(k+r) C(k-1, i)
              (n_(k)/N_(r)) (1 - Q)^(r-k) (Q - 1)^i beta^pure_N(x),

from j^r = sum_k S(r, k) j!/(j-k)! in the integral vector and
Q^(ky) = Q^y (1 - (1 - Q)[y]_Q)^(k-1) in each weight.  At r = 1 both
vectors are (-1)^i i C(n, i), so the Carlitz polynomial beta_n(x) is
volkenborn_beta_poly at r = 1, the pure-sum single plus
beta_0 (1 - Q)^(-n); the pure-sum r = 1 case is NOT the Carlitz sequence,
whose numbers beta_n(0) have a table of their own (carlitz_beta).

The context convention flag (_series_family) picks the family of series
expansions and of the closed special values of lfunctions alike, carlitz
the integral one at every r, although lfunctions.Lpq_eval sums the
integral family only at r = 1.  The functions named for a family do not
read it: multi_q_beta_poly and multi_gen_q_beta_poly are pure-sum,
volkenborn_beta_poly and gen_q_beta_poly integral.  Every closed special
value is a window sum over residue rows (_window_sum), one dot product
of a coefficient table with the window's power sums (_PowerSums) in
_dot_sum, the kernel that also evaluates a single value (_family_sum);
it keeps every digit that its exact weights and power sums prove.

Only the integral family is a q-analogue of Norlund's B_n^(r)(x)
(classical.norlund_poly): as q -> 1 it tends to the r-fold Volkenborn
integral of (x + t_1+...+t_r)^n, which is B_n^(r)(x); the tests find
v(beta^int_n(x) - B_n^(r)(x)) >= m - 1 at q = 1 + p^m.  The pure-sum
single is the Carlitz polynomial minus beta_0 (1 - Q)^(-n), where beta_0
-> 1 and (1 - Q)^(-n) has no limit for n >= 1, so it has none either (the
identity above carries this to r >= 2).  The argument rests on Kim's
definitions; the body of the source paper was not available.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from .characters import DirichletCharacter
from .classical import residue_sums
from .errors import DomainError, NormalizationUnresolved, PrecisionExhausted
from .padic import (
    PadicNumber,
    QContext,
    _ceil_log,
    _memoized,
    _normalize,
    _ppow,
    _scaled_exponent,
    int_valuation,
)

__all__ = [
    "QBernoulliTable",
    "beta_table",
    "carlitz_beta",
    "gen_q_beta_poly",
    "kim_sum_of_products",
    "multi_q_beta_poly",
    "multi_gen_q_beta_poly",
    "series_beta",
    "series_beta_floor",
    "volkenborn_beta_poly",
]

def _require_base(base_power: int) -> None:
    """Refuse base_power 0 before any work, as QContext refuses q = 1."""
    if base_power == 0:
        raise DomainError("base q^0 = 1 is degenerate (division by 1 - Q "
                          "everywhere)")


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


class _PowerSums:
    """The power sums of one context's window rows (t, count), t ascending
    from t0, which no order, z or window F changes: sums[i-1] = sum_t count
    chi(t) q^(i(t-t0)), the exact weights count chi(t) lifted at digits
    digits, modulo p^(digits + vmin), vmin the least v_p(count).  A plain
    class, as a dataclass adds about 1 ms to each import (Python 3.11)."""

    def __init__(self, ctx: QContext, chi: DirichletCharacter, rows):
        self.ctx, self.chi, self.rows = ctx, chi, rows
        self.vmin = min(int_valuation(count, ctx.p) for _, count in rows)
        self.digits, self.sums = 0, []

    def extend(self, length: int, digits: int) -> None:
        """G_1..G_length to digits digits; a record short of either is
        rebuilt at the larger length and the larger digits."""
        if length <= len(self.sums) and digits <= self.digits:
            return
        p, rows = self.ctx.p, self.rows
        self.digits = digits = max(digits, self.digits)
        length = max(length, len(self.sums))
        mod, wide = _ppow(p, digits), _ppow(p, digits + self.vmin)
        q = self.ctx.q_int(digits)
        sums = [0] * length
        for t, count in rows:
            y = pow(q, t - rows[0][0], mod)
            w = count * self.chi.lift(t, digits)
            for i in range(length):
                w = w * y % wide
                sums[i] += w
        self.sums = [g % wide for g in sums]


def _carlitz_constants(ctx: QContext, d: int, digits: int):
    """beta_0 = (Q - 1)/log Q and 1/(1 - Q) at base Q = q^d, each to digits
    significant digits; log q is taken once, at the precision they need."""
    one_minus_Q = ctx.one_minus_q_pow(d, digits)
    log_Q = ctx.log_q(digits + _base_valuation(ctx, d)) * d
    return -one_minus_Q / log_Q, 1 / one_minus_Q


def _carlitz_run(ctx: QContext, lo: int, n_max: int, d: int,
                 target: int) -> list:
    """beta_n = beta^(1)_n(0) + beta_0 (1 - Q)^(-n) at base Q = q^d for
    lo <= n <= n_max, each to absolute precision at least target.

    beta^(1)_n(0) = (1-Q)^(1-n) sum_i (-1)^i C(n, i) i (1-Q^i)^(-1) is the
    r = 1 pure-sum single at x = 0, kept to the rel(n) significant digits
    multi_q_beta_poly keeps at precision target.  With w_i the unit of
    1 - Q^i, i (1-Q^i)^(-1) = p^(-v(Q-1)) J_i for the unit J_i =
    (i / p^v_p(i)) w_i^(-1), so the sum is p^(-v(Q-1)) m_n with m_n =
    sum_i (-1)^i C(n, i) J_i = (-1)^n Delta^n J(0), and one difference
    table gives m_n for every n.  The units are formed and inverted once,
    modulo p^rel(n_max), which every p^rel(n) divides.
    """
    p = ctx.p
    vd = _base_valuation(ctx, d)
    beta_0, ratio = _carlitz_constants(ctx, d, target + n_max * vd + 2)
    top = target + _beta_headroom(ctx, n_max, 1, d) + 2
    mod = _ppow(p, top)
    units, vals = _unit_vector(ctx, n_max, d, top)
    inv = _unit_inverses(units, mod)
    # after J_j, diag[k] = sum_i (-1)^i C(k, i) J_(j-k+i) for k <= j, and
    # the one it appends is m_j
    diag, m = [0], [0]
    for i, (w, v) in enumerate(zip(inv, vals), 1):
        cur = i // _ppow(p, v - vd) * w % mod
        for k, prev in enumerate(diag):
            diag[k] = cur
            cur = (prev - cur) % mod
        diag.append(cur)
        m.append(cur)
    entries = []
    term = beta_0 * ratio ** lo
    for n in range(lo, n_max + 1):
        b = term
        if n:
            rel = target + _beta_headroom(ctx, n, 1, d) + 2
            pval = (1 - n) * vd
            pref = PadicNumber(p, pval, pow(inv[0], n - 1, _ppow(p, rel)),
                               pval + rel)
            b = pref * _normalize(p, m[n], -vd, rel - vd) + term
        if b.prec < target:
            raise PrecisionExhausted(
                "beta_%d at base q^%d retains %d digits, need %d"
                % (n, d, b.prec, target)
            )
        entries.append(b)
        term = term * ratio
    return entries


def beta_table(ctx: QContext, base_power: int = 1) -> QBernoulliTable:
    _require_base(base_power)
    return ctx._memo(("beta_table", base_power),
                     lambda: QBernoulliTable(ctx, base_power))


def carlitz_beta(ctx: QContext, n: int, base_power: int = 1) -> PadicNumber:
    """Carlitz q-Bernoulli number beta_n at base q^base_power."""
    if n < 0:
        raise ValueError("n must be >= 0")
    table = beta_table(ctx, base_power)
    table.extend(n, ctx.prec)
    return table.entries[n]


def _carlitz_term(ctx: QContext, n: int, r: int, d: int,
                  digits: int) -> PadicNumber:
    """beta_0^r (1 - Q)^(-n) at base Q = q^d, the x-independent term of the
    integral family (the j = 0 moment of each fold), from beta_0 and
    1/(1 - Q) each to digits significant digits."""
    beta_0, ratio = _carlitz_constants(ctx, d, digits)
    return beta_0 ** r * ratio ** n


def gen_q_beta_poly(ctx: QContext, n: int, chi: DirichletCharacter,
                    z=0) -> PadicNumber:
    """Character-attached single q-Bernoulli polynomial, Carlitz convention,
    at the modulus f of chi and base Q = q^f:

        [f]_q^(n-1) sum_{a=1..f} chi(a) beta_{n,Q}((a+z)/f)

    the window sum of the integral family at r = 1.  Certified to ctx.prec
    or PrecisionExhausted.
    """
    f = chi.modulus
    return _window_sum(ctx, _INTEGRAL, n, 1, chi, z, f,
                       residue_sums(f, 1, chi))


# Coefficient tables kept per context, in a store of their own beside the
# context memo.  A pure-sum k-series builds one table per index and never
# returns to it (a Carlitz run keeps its units to itself and builds none),
# and a table holds an integer per index, so a small cap bounds memory; a
# congruence grid revisits at most k' + 1 tables.
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


def _beta_headroom(ctx: QContext, m: int, r: int, F: int) -> int:
    """Certified bound on -v(beta^(r)_{k,q^F}) over k <= m in the pure-sum
    family; factors that multiply such a beta need this many extra digits
    to keep target absolute precision."""
    if m < r:
        return 0
    vd = _base_valuation(ctx, F)
    return (m - r) * vd + r * (vd + _ceil_log(ctx.p, m - r + 1))


# A family of order-r polynomials at base Q = q^d: (1-Q)^(r-n) sum_i a_i
# Q^(ix) (1-Q^i)^(-r) for a = vector(n, r), plus term(ctx, n, r, d, digits)
# unless that is None.  pad(ctx, n, r, d) bounds -v of each part; floor(r)
# bounds v of its values at x = 0 from below for every n and base, or is
# None.  Both vectors are non-empty from n = r on.
_Family = namedtuple("_Family", "vector term pad floor")
_PURE_SUM = _Family(_pure_sum_a, None, _beta_headroom, lambda r: None)
# integral: term i has valuation v_p(C(n, i)) - n v(Q-1), as a_i carries
# i^r, and so has the beta_0^r term; the floor is series_beta_floor's
_INTEGRAL = _Family(_integral_a, _carlitz_term,
                    lambda ctx, n, r, d: n * _base_valuation(ctx, d),
                    lambda r: -1 if r == 1 else None)


def _coeff_table(ctx: QContext, family: _Family, n: int, r: int, d: int,
                 rel: int):
    """The x-independent part of a family at base Q = q^d, to rel
    significant digits: (base, coeffs, pref) with pref = (1-Q)^(r-n) and

        coeffs[i-1] * p^base = a_i (1-Q^i)^(-r)   mod p^(base+rel)

    for the non-empty a = family.vector(n, r).  v(1 - Q^i) = v(Q-1) +
    v_p(i) by lifting the exponent, so Q^i is formed modulo p^(rel +
    v(Q-1) + ceil(log_p(len a))).  The key names the vector, since at
    n = r both families ask the same rel."""
    return _memoized(ctx._coeff_tables, COEFF_TABLE_CAP,
                     (family.vector, n, r, d, rel),
                     lambda: _build_coeff_table(ctx, family.vector(n, r), n,
                                                r, d, rel))


def _unit_vector(ctx: QContext, count: int, d: int, rel: int):
    """(units, vals) for i = 1..count at base Q = q^d: vals[i-1] =
    v(1 - Q^i) = v(Q-1) + v_p(i) by lifting the exponent, and units[i-1] =
    (1 - Q^i) / p^vals[i-1] modulo p^rel, so Q^i is formed modulo
    p^(rel + v(Q-1) + ceil(log_p count)).  The module's one place that
    forms 1 - Q^i."""
    p = ctx.p
    vd = _base_valuation(ctx, d)
    k = rel + vd + _ceil_log(p, count)
    mod, wide = _ppow(p, rel), _ppow(p, k)
    Q = pow(ctx.q_int(k), d, wide)
    Qi = 1
    units, vals = [], []
    for i in range(1, count + 1):
        Qi = Qi * Q % wide
        v = vd + int_valuation(i, p)
        units.append((1 - Qi) % wide // _ppow(p, v) % mod)
        vals.append(v)
    return units, vals


def _build_coeff_table(ctx: QContext, a: list, n: int, r: int, d: int,
                       rel: int):
    """The table of _coeff_table for the vector a = family.vector(n, r)."""
    p = ctx.p
    mod = _ppow(p, rel)
    units, uvals = _unit_vector(ctx, len(a), d, rel)
    signed, vals = [], []
    for c, v in zip(a, uvals):
        vc = int_valuation(c, p)
        signed.append(c // _ppow(p, vc))
        vals.append(vc - r * v)
    inv = _unit_inverses([pow(w, r, mod) for w in units], mod)
    base = min(vals)
    coeffs = [c * w * _ppow(p, v - base) % mod
              for c, w, v in zip(signed, inv, vals)]
    inv_w0 = pow(units[0], r - 1, mod) * inv[0] % mod     # (1-Q)'s unit, inverted
    pval = (r - n) * _base_valuation(ctx, d)
    return (base, coeffs,
            PadicNumber(p, pval, pow(inv_w0, n - r, mod), pval + rel))


def _dot_sum(p: int, table, unit: int, k: int, sums,
             vmin: int) -> PadicNumber:
    """pref sum_i coeffs[i-1] U^i G_i for a table (base, coeffs, pref) of
    _coeff_table, U the unit of a q-power known modulo p^k and G_i =
    sums[i-1] the power sums of window rows (_PowerSums), divisible by
    p^vmin and known modulo p^(d + vmin), d = min(rel, k) with rel =
    pref.rel; all 1, with vmin 0, for a one-row window.  Each coeffs[i-1]
    U^i is known modulo p^d, so the sum is known modulo p^(d + vmin), the
    digits that the rows' exact weights prove.
    """
    base, coeffs, pref = table
    d = min(pref.rel, k)
    mod = _ppow(p, d)
    total, ui = 0, 1
    for c, g in zip(coeffs, sums):
        ui = ui * unit % mod
        total += c * ui * g
    # the sum keeps at most d <= rel significant digits, all of which the
    # product with pref keeps
    return pref * _normalize(p, total, base, base + d + vmin)


def _family_sum(ctx: QContext, family: _Family, n: int, r: int, x,
                d: int) -> PadicNumber:
    """The family's value at x and base Q = q^d: a one-row dot sum in u =
    Q^x modulo p^rel plus the term, each to rel = ctx.prec + pad + 2 digits.
    An empty vector sums to 0, but x must still lie in the domain of Q^x."""
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    _require_base(d)
    x = _scaled_exponent(1, x)
    rel = ctx.prec + family.pad(ctx, n, r, d) + 2
    if n < r and not family.vector(n, r):
        ctx.q_power(d, x)
        value = PadicNumber.exact_zero(ctx.p, ctx.prec)
    else:
        u = ctx.q_power(d, x, rel)
        table = _coeff_table(ctx, family, n, r, d, rel)
        value = _dot_sum(ctx.p, table, u.unit, u.rel,
                         [1] * len(table[1]), 0)
    if family.term:
        value = value + family.term(ctx, n, r, d, rel)
    return value


def multi_q_beta_poly(ctx: QContext, n: int, r: int, x,
                      base_power: int = 1) -> PadicNumber:
    """Multiple q-Bernoulli polynomial of order r at base Q = q^base_power,
    the pure-sum family, padded by the beta headroom to hold to ctx.prec:

        (-1)^r n!/(n-r)! (1-Q)^(r-n)
            sum_{j=0..n-r} C(n-r,j) (-1)^j Q^((j+1)x) (1-Q^(j+1))^(-r)

    and 0 for n < r (the order-r generating function starts at t^r), where
    x must still lie in the domain of Q^x.
    """
    return _family_sum(ctx, _PURE_SUM, n, r, x, base_power)


def volkenborn_beta_poly(ctx: QContext, n: int, r: int, x,
                         base_power: int = 1) -> PadicNumber:
    """The integral family: the order-r q-Bernoulli polynomial at base
    Q = q^base_power as the r-fold q-Volkenborn integral

        int...int [x + t_1+...+t_r]_Q^n dmu_Q(t_1)...dmu_Q(t_r)
          = (1-Q)^(r-n) sum_{i=1..n} (-1)^i C(n,i) i^r Q^(ix) (1-Q^i)^(-r)
            + beta_0^r (1-Q)^(-n),

    with beta_0 = (Q - 1)/log Q; at r = 1 the Carlitz polynomial beta_n(x).
    Exactly ctx.prec digits, or PrecisionExhausted.
    """
    return _certified(_family_sum(ctx, _INTEGRAL, n, r, x, base_power),
                      ctx.prec, "r-fold q-Volkenborn integral")


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


def _window_sum(ctx: QContext, family: _Family, n: int, r: int,
                chi: DirichletCharacter, z, F: int, rows,
                scale: Fraction = Fraction(1)) -> PadicNumber:
    """scale [F]_q^(n-r) sum_{(t, count) in rows} count chi(t)
                           beta^(r)_{n,q^F}((z+t)/F)

    for beta^(r) of the family and an exact nonzero scale.  The one sum
    over residue rows; rows are (t, count) pairs with count >= 1 and
    chi(t) != 0, t ascending, such as residue_sums(F, r, chi) for the sum
    over a_1..a_r = 1..F grouped by t = a_1+...+a_r.  The window sum is
    certified to ctx.prec - v_p(scale), padded by the family's bound and by
    the (r - n) v_p(F) digits [F]_q^(n-r) costs at n < r, so the value is
    certified to ctx.prec or PrecisionExhausted is raised.

    All rows share one coefficient table, so the sum over u_t = q^(z+t),
    z + t being the exact exponent F (z+t)/F, with weights count chi(t),
    is sum_i c_i U^i G_i: one q_power, at the first row, refuses a z
    outside the domain and gives U = u_t0, and G_i are the rows' power
    sums, kept in the context memo.  So it is one _dot_sum, known modulo
    p^(d + vmin) with d = min(rel, U.rel), the digits each row's own
    q_power keeps of the sum (a shift by an integer moves no digit of z),
    and vmin the least v_p(count): every weight is an exact integer times
    a root of unity, and the power sums hold it to d + vmin digits.

    The term does not depend on x, so it comes times sum_t count chi(t):
    the row count for a principal chi, and 0 for any other over the full
    residue sums, where the sum over a_1 alone runs over periods of chi.
    [F]_q^(n-r) and scale are exact, so they multiply the sum's unit in
    integers, modulo the digits the result keeps, and cost no digit of it.
    """
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    p = ctx.p
    vnum = int_valuation(scale.numerator, p)
    vden = int_valuation(scale.denominator, p)
    prec = ctx.prec + vden - vnum
    vF = int_valuation(F, p)
    rel = prec + family.pad(ctx, n, r, F) + max(r - n, 0) * vF + 6
    z = _scaled_exponent(1, z)
    t0 = rows[0][0]
    first = ctx.q_power(1, z + t0, rel)
    if n < r and not family.vector(n, r):
        acc = PadicNumber.exact_zero(p, rel)
    else:
        d = min(rel, first.rel)
        table = _coeff_table(ctx, family, n, r, F, rel)
        sums = ctx._memo(("power_sums", chi, tuple(rows)),
                         lambda: _PowerSums(ctx, chi, rows))
        sums.extend(len(table[1]), d)
        acc = _dot_sum(p, table, first.unit, d, sums.sums, sums.vmin)
    if family.term and chi.is_principal:
        acc = acc + (sum(count for _, count in rows)
                     * family.term(ctx, n, r, F, rel))
    if acc.is_exact_zero:
        return PadicNumber.exact_zero(p, ctx.prec)
    # [F]_q = p^v_p(F) b for an exact unit b, so the product
    # [F]_q^(n-r) acc keeps the acc.rel digits of acc; b modulo
    # p^(prec - val) depends only on F and those digits, and is kept in
    # the context memo
    val = vF * (n - r) + acc.val
    kept = val + acc.rel
    if kept < prec:
        raise PrecisionExhausted("special value retains %d digits, %d "
                                 "requested" % (kept, prec))
    if acc.unit == 0 or val >= prec:
        return PadicNumber.zero_at(p, ctx.prec)
    mod = _ppow(p, prec - val)
    b = ctx._memo(("Fq_unit", F, prec - val),
                  lambda: ctx.one_minus_q_pow(F, prec - val).unit
                  * pow(ctx.one_minus_q_pow(1, prec - val).unit, -1, mod))
    unit = (acc.unit * pow(b, n - r, mod) * (scale.numerator // _ppow(p, vnum))
            * pow(scale.denominator // _ppow(p, vden), -1, mod))
    return PadicNumber(p, val + vnum - vden, unit % mod, ctx.prec)


def multi_gen_q_beta_poly(ctx: QContext, n: int, r: int,
                          chi: DirichletCharacter, z=0) -> PadicNumber:
    """Character-attached multiple q-Bernoulli polynomial at the modulus f
    of chi (induce chi first to evaluate at a larger modulus):

        [f]_q^(n-r) sum_{a_1..a_r=1..f} chi(a_1+...+a_r)
                     beta^(r)_{n,q^f}((z+a_1+...+a_r)/f)

    with beta^(r) the pure-sum family under either convention flag (the
    integral one at r = 1 is gen_q_beta_poly), certified to ctx.prec or
    PrecisionExhausted is raised.
    """
    f = chi.modulus
    return _window_sum(ctx, _PURE_SUM, n, r, chi, z, f,
                       residue_sums(f, r, chi))


def kim_sum_of_products(ctx: QContext, n: int, r: int, z_list,
                        certificate: dict) -> PadicNumber:
    """Kim's sums-of-products expansion over compositions of N = n+r,

        sum (N; i_1..i_r) prod_{j<r} S_j(N-i_1-...-i_j, i_j) beta_{i_r}(z_r),
        S_j(R, i) = sum_{k<=R} C(R, k) (q-1)^k beta_{k+i}(z_j),

    whose single betas the resolution certificate fixes: a dict such as
    oracle_resolve_conventions' result, of which this reads "single_beta"
    ("pure_sum" or "carlitz") and "r_max".  A missing key or a bad value
    raises ValueError, and an order r above r_max, which the certificate
    does not cover, NormalizationUnresolved.  Its "normalization" is not
    read: it picks the order of the oracle's left side, while this right
    side is the sum over compositions of N = n+r under either reading.
    [a + b]_q = [a]_q + q^a [b]_q and q^a = 1 + (q-1)[a]_q make it the
    integral of [y_1 + ... + y_r]_q^N, y_j = z_j + t_j, over r single
    measures whose j = 0 moment is beta_0 (Carlitz) or 0 (pure sum).  So it
    is volkenborn_beta_poly at x = z_1 + ... + z_r under the Carlitz
    certificate, and its sum over i >= 1 alone, without the beta_0^r
    (1-q)^(-N) term, under the pure-sum one.  Each z_j must lie in the
    domain of q^(z_j).  Exactly ctx.prec digits.
    """
    for key in ("single_beta", "r_max"):
        if key not in certificate:
            raise ValueError("certificate lacks %r" % key)
    if certificate["single_beta"] not in ("pure_sum", "carlitz"):
        raise ValueError("bad single_beta %r" % certificate["single_beta"])
    if r > certificate["r_max"]:
        raise NormalizationUnresolved(
            "certificate covers r <= %d, not r = %d"
            % (certificate["r_max"], r))
    if len(z_list) != r:
        raise ValueError("need exactly r shift arguments")
    z_list = [_scaled_exponent(1, z) for z in z_list]
    for z in z_list:
        ctx.q_power(1, z)
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    family = (_INTEGRAL if certificate["single_beta"] == "carlitz"
              else _INTEGRAL._replace(term=None))
    return _certified(_family_sum(ctx, family, n + r, r, sum(z_list), 1),
                      ctx.prec, "r-fold q-Volkenborn integral")


def _series_family(ctx: QContext) -> _Family:
    """The family series expansions consume; the one reading of the
    context convention flag."""
    return _INTEGRAL if ctx.convention == "carlitz" else _PURE_SUM


def series_beta_floor(ctx: QContext, r: int):
    """A lower bound on v(series_beta(ctx, k, r, d)) for every k and base
    q^d, the series family's, or None where none is proven.  Carlitz
    singles: v(beta_k) >= -1, as beta_k at base Q = q^d is the q-Volkenborn
    integral of [x]_Q^k, p-integral on Z_p, and |int f dmu_Q| <= p ||f||_1
    (T. Kim, "q-Volkenborn integration", Russ. J. Math. Phys. 9, 2002).
    None is proven for the pure-sum multiples, which lose about v(Q - 1)
    per k, nor yet for the integral family at r >= 2."""
    return _series_family(ctx).floor(r)


def series_beta(ctx: QContext, k: int, r: int,
                base_power: int = 1) -> PadicNumber:
    """The coefficient beta^(r)_{k} at base q^base_power of the series
    family at x = 0: under pure_sum multi_q_beta_poly's padded values (0
    for k < r), under carlitz the integral family, at r = 1 from the
    Carlitz table.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if _series_family(ctx) is _INTEGRAL:
        if r == 1:
            return carlitz_beta(ctx, k, base_power)
        return volkenborn_beta_poly(ctx, k, r, 0, base_power)
    if k < r:
        return PadicNumber.exact_zero(ctx.p, ctx.prec)
    return multi_q_beta_poly(ctx, k, r, 0, base_power=base_power)
