"""Special values and p-adic interpolation of the multiple q-L-series.

The module has three layers.  The closed-form layer (q_zeta_special,
partial_q_zeta_special, Lq_special, Lpq_special) returns negative-integer
special values as (-1)^r/(n+1)_r times one window sum of multiple
q-Bernoulli polynomials over residue rows (qbernoulli._window_sum).
The series layer (Lpq_eval, Lpq_at_r) evaluates the two-variable p-adic
q-L-function as a double sum: a finite outer sum over residue vectors,
grouped by their sum into rows, and an inner k-series that ends at an index
proven before the sum starts, from lower bounds on the valuations of its
factors that hold for every k (see _last_index).  Each row's weight
count chi(A) q^(w E), E = A + p* z, angle <E>_q and geometric factor
(_outer_rows) and each series coefficient t_k = c_k beta^(r)_k
(_series_terms, with c_k from _int_binomials or _padic_binomials) is
formed in integers modulo a power of p and built into a PadicNumber once,
with the (val, unit, prec) that the chain of PadicNumber operations for it
gives.  The two sums are swapped (_k_series): sum_k t_k geom^k is one
integer Horner evaluation per row.  The rows are summed in integers and
built into one PadicNumber at the precision the term-by-term sum keeps,
capped at the stop target, so the value is that sum's digit for digit.
Lpq_difference_rhs is the finite sum that a shift of z by r*F adds to the
function, the right side of the difference equation that test AC2 checks;
its rows are _outer_rows' at w = 1, where the series take w = 1 - r.

Both layers drop the same terms: the residue vectors whose sum is divisible
by p.  Lpq_special is the residue-sum closed form of Lpq_eval at s = -n; it
has no separate Euler factor, and the series has a single outer weight.

Conventions: s is an integer or a PadicNumber in the disk D, z lies in the
valuation ring, and characters should be primitive (an imprimitive modulus
changes Euler factors at its extra primes).  The context convention flag
picks one family of multiple q-Bernoulli polynomials for both layers: the
inner series coefficients beta^(r)_k (qbernoulli.series_beta) and the
window sums of the closed forms (qbernoulli._series_family).
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .characters import (
    DirichletCharacter,
    char_twist_omega,
    eta_order,
    induce,
    principal_char,
)
from .classical import pochhammer, residue_sums
from .errors import DivergenceDetected, DomainError, PoleError
from .padic import (
    PadicNumber,
    QContext,
    _ceil_log,
    _normalize,
    _ppow,
    _require_integral,
    _scaled_exponent,
    _teich_lift,
    in_D,
    int_valuation,
    iwasawa_log,
    p_star,
    padic_power,
)
from .qbernoulli import (
    _beta_headroom,
    _certified,
    _series_family,
    _unit_inverses,
    _window_sum,
    series_beta,
    series_beta_floor,
)


@dataclass(frozen=True)
class SeriesValue:
    """A series value and its number of terms.  The series ended at an index
    proven before the sum (or was finite), so the omitted tail, divided like
    the sum, has valuation >= value.prec, the requested precision."""

    value: PadicNumber
    terms_used: int


@dataclass(frozen=True)
class LParams:
    """Evaluation point of the two-variable p-adic q-L-function."""

    r: int
    chi: DirichletCharacter
    F: int
    z: object = 0
    s: object = 0

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("order r must be >= 1")
        if self.F < 1:
            raise ValueError("F must be a positive integer")

    def validate(self, ctx: QContext) -> None:
        chi = self.chi
        if chi.p != ctx.p:
            raise DomainError(
                "character belongs to p = %d, context has p = %d" % (chi.p, ctx.p)
            )
        base = math.lcm(chi.modulus, ctx.p_star)
        if self.F % base != 0:
            raise DomainError(
                "F = %d must be a multiple of lcm(modulus, p*) = %d"
                % (self.F, base)
            )
        _require_integral(self.z, ctx.p)
        _require_s(ctx, self.s)


def _require_s(ctx: QContext, s) -> None:
    """Refuse an s that is neither an int nor a PadicNumber in D, the
    points where Lpq_eval and Lpq_difference_rhs are defined."""
    if isinstance(s, PadicNumber):
        if s.p != ctx.p or not in_D(s):
            raise DomainError("s lies outside the convergence disk D")
    elif not isinstance(s, int):
        raise TypeError("s must be an integer or a PadicNumber")


def choose_F(f: int, p: int, r: int = 1, purpose: str = "interpolation") -> int:
    """Smallest F valid for the requested use.

    interpolation: a multiple of the conductor and of p*.
    difference: a multiple of p (p*)^(-1) r lcm(f, p*), the shift step
    the difference identity needs.
    """
    base = math.lcm(f, p_star(p))
    if purpose == "interpolation":
        return base
    if purpose == "difference":
        return p * r * base // p_star(p)
    raise ValueError("purpose must be 'interpolation' or 'difference'")


# -- closed-form special values ----------------------------------------------


def _special(ctx: QContext, n: int, r: int, chi: DirichletCharacter, z,
             F: int, rows) -> PadicNumber:
    """(-1)^r/(n+1)_r times the window sum of order n + r over rows, in
    the family the context convention flag picks, certified to ctx.prec."""
    return _window_sum(ctx, _series_family(ctx), n + r, r, chi, z, F, rows,
                       Fraction((-1) ** r, pochhammer(n + 1, r)))


def q_zeta_special(ctx: QContext, n: int, r: int, x) -> PadicNumber:
    """Multiple q-zeta value at s = -n: (-1)^r/(n+1)_r beta^(r)_{n+r}(x)."""
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    return _special(ctx, n, r, principal_char(ctx.p), x, 1, [(0, 1)])


def partial_q_zeta_special(ctx: QContext, n: int, r: int, a_list, F: int,
                           z=0) -> PadicNumber:
    """Partial multiple q-zeta value at s = -n for the residue vector a_list:

        [F]_q^n (-1)^r/(n+1)_r beta^(r)_{n+r, q^F}((z + sum a_i)/F)
    """
    a_list = list(a_list)
    if len(a_list) != r:
        raise ValueError("need exactly r residues")
    if any(a < 1 or a > F for a in a_list):
        raise DomainError("residues must satisfy 1 <= a_i <= F")
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    return _special(ctx, n, r, principal_char(ctx.p), z, F,
                    [(sum(a_list), 1)])


def Lq_special(ctx: QContext, n: int, r: int, chi: DirichletCharacter,
               z=0, F: int = None) -> PadicNumber:
    """Multiple Dirichlet q-L value at s = -n:

        (-1)^r/(n+1)_r [F]_q^n sum_{a_1..a_r=1..F} chi(a_1+...+a_r)
            beta^(r)_{n+r,q^F}((z+a_1+...+a_r)/F)

    over a window F that is a multiple of the modulus of chi.  F defaults
    to the modulus, where under pure_sum the sum is multi_gen_q_beta_poly
    at order n + r.
    The value does not depend on F, which the test suite checks.  It is
    certified to ctx.prec or PrecisionExhausted is raised.
    """
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    if F is None:
        F = chi.modulus
    if F % chi.modulus != 0:
        raise DomainError("F = %d is not a multiple of the modulus %d"
                          % (F, chi.modulus))
    return _special(ctx, n, r, chi, z, F, residue_sums(F, r, chi))


def _twisted_window(ctx: QContext, chi: DirichletCharacter, r: int, h: int):
    """The window of Lpq_special at orders n + r = h mod eta_order(p): chi
    times omega^(-h) induced to M = lcm(f, p*), M, and its residue rows."""
    chim = char_twist_omega(chi, h)
    M = math.lcm(chim.conductor, ctx.p_star)
    chim = induce(chim, M)
    return chim, M, residue_sums(M, r, chim)


def Lpq_special(ctx: QContext, n: int, r: int, chi: DirichletCharacter,
                z=0) -> PadicNumber:
    """Closed form of the p-adic q-L-function at s = -n: the multiple
    q-L value with the residue sums divisible by p taken out,

        (-1)^r/(n+1)_r [M]_q^n sum'_A chi_m(A) beta^(r)_{n+r,q^M}((p* z + A)/M)

    with chi_m the omega^(-(n+r)) twist of chi, M = lcm(f_m, p*), and A
    running over the sums a_1+...+a_r of residue vectors in [1, M]^r, with
    multiplicities, prime to p.  This is Lq_special for chi_m induced to
    modulus M, at argument p* z and window F = M; the induced character
    vanishes on the sums divisible by p, the terms Lpq_eval drops.  z must
    lie in the valuation ring (DomainError otherwise), as in Lpq_eval.  The
    value is certified to ctx.prec or PrecisionExhausted is raised.

    The window (chi_m induced to M, M and its residue rows) depends on n
    only through the residue class h = n + r mod eta_order(p), so it is
    built once per (chi, r, h) and kept in the context's memo.
    """
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    _require_integral(z, ctx.p)
    z = _scaled_exponent(ctx.p_star, z)
    h = (n + r) % eta_order(ctx.p)
    chim, M, rows = ctx._memo(("Lpq_window", chi, r, h),
                              lambda: _twisted_window(ctx, chi, r, h))
    return _special(ctx, n, r, chim, z, M, rows)


# -- the two-variable series -------------------------------------------------


def _pole_guard(r: int, s, chi: DirichletCharacter) -> None:
    hit = None
    if isinstance(s, int):
        if 1 <= s <= r:
            hit = s
    else:
        for j in range(1, r + 1):
            if (s - j).is_zero:
                hit = j
                break
    if hit is None:
        return
    if chi.is_principal:
        raise PoleError("simple pole at s = %d for the principal character" % hit)
    if hit == r:
        advice = "use Lpq_at_r for the value at s = r = %d" % r
    else:
        advice = "no function evaluates s = %d < r = %d yet" % (hit, r)
    raise PoleError(
        "s = %d is a removable point for a nonprincipal character, but the "
        "series form divides by (s - %d); %s" % (hit, hit, advice)
    )


def _outer_rows(ctx: QContext, chi: DirichletCharacter, r: int, F: int, z,
                v_div: int, m: int, w: int):
    """Working context, stop target, [F]_q and grouped outer-sum rows of a
    sum over residue vectors in [1, F]^r, divided by [F]_q^r and by a
    prefactor of valuation v_div, with beta headroom certified up to k = m.

    Each row belongs to one residue sum A prime to p, of multiplicity count,
    and holds the weight count chi(A) q^(w E), E = A + p* z, the
    principal-unit angle <E>_q and the geometric factor q^E [F]_q / [E]_q.
    The k-series pass w = 1 - r, the prefactor of the order-r expansion
    (q^0 = 1 at r = 1), and the difference sum passes w = 1.

    The rows are formed in integers, and each value is built once with the
    (val, unit, prec) that QContext.q_power, q_bracket and angle_q give it:

    - q^E, E = A + p* z, is q^(p* z) q^A modulo p^(work + v(q - 1)).  A
      Fraction p* z enters as its residue modulo p^work, a PadicNumber one
      as its integer representative.  Either is as good as the exact
      exponent, since q^(p^work) = 1 modulo p^(work + v(q - 1)) (lifting
      the exponent), and q_power's exponential gives the same power of q.
    - E is prime to p, so 1 - q^E and 1 - q both have valuation v(q - 1),
      and [E]_q is the quotient of their units.  One batched inverse serves
      every bracket, and q^(-E) at w < 0; q^(w E) at w > 0 is a power of
      q^E.  The angle is [E]_q omega(A^(-1)).
    - Every value carries work digits, except under a PadicNumber z whose
      E is known to R < work digits.  Then the angle and geom carry R, and
      the weight at w != 0 min(work, v_p(w) + v(q - 1) + R); at w = 0 it
      is count chi(A) q^0, whose exponent is the int 0."""
    p, pstar, vq = ctx.p, ctx.p_star, ctx.v_q1
    vF = int_valuation(F, p)
    # pad: r*vF for the 1/[F]^r division, v_div for the prefactor, headroom
    # for the negative beta valuations
    work = ctx.prec + r * vF + v_div + 4 + _beta_headroom(ctx, m, r, F)
    wctx = ctx.with_precision(work)
    sums = residue_sums(F, r, chi, p)
    br_F = wctx.q_bracket(1, F, work)
    mod, wide = _ppow(p, work), _ppow(p, work + vq)
    q = wctx.q_int(work + vq)
    e = _scaled_exponent(pstar, z)
    if isinstance(e, PadicNumber):
        digits = min(e.prec, work)
        shift = e.unit * _ppow(p, e.val) if e.unit else 0
    else:
        digits = work
        shift = e.numerator * pow(e.denominator, -1, mod)
    weight_digits = (work if w == 0 else
                     min(work, int_valuation(w, p) + vq + digits))
    q_shift = pow(q, shift, wide)
    powers = [q_shift * pow(q, total, wide) % wide for total, _ in sums]
    p_vq = _ppow(p, vq)
    nums = [(1 - qe) % wide // p_vq for qe in powers]
    den = (1 - q) % wide // p_vq
    inv = _unit_inverses(nums + [den] + (powers if w < 0 else []), mod)
    n = len(sums)
    # [E]_q = num/den, and [F]_q/[E]_q = [F]_q den/num
    bracket_scale = inv[n]
    geom_scale = br_F.unit * den % mod
    vstar = int_valuation(pstar, p)
    low, dmod, wmod = _ppow(p, vstar), _ppow(p, digits), _ppow(p, weight_digits)
    rows = []
    for i, (total, count) in enumerate(sums):
        angle = (nums[i] * bracket_scale
                 * _teich_lift(p, pow(total, -1, pstar), work) % dmod)
        # angle_q's check that the angle lies in 1 + p* Z_p, in integers
        assert digits >= vstar and (angle - 1) % low == 0, \
            "angle projection left the principal-unit disk"
        vc = int_valuation(count, p)
        weight = count // _ppow(p, vc) * chi.lift(total, work)
        if w:
            weight *= pow(inv[n + 1 + i] if w < 0 else powers[i], abs(w), wmod)
        rows.append((
            PadicNumber(p, vc, weight % wmod, vc + weight_digits),
            PadicNumber(p, 0, angle, digits),
            PadicNumber(p, vF, powers[i] * geom_scale * inv[i] % dmod,
                        vF + digits)))
    return wctx, ctx.prec + r * vF + v_div, br_F, rows


def _last_index(ctx: QContext, target: int, r: int, F: int, k: int,
                coeff_floor) -> int:
    """The last index a k-series from k needs for its value to hold to
    valuation target, proven before the sum starts.

    The series is sum_rows head sum_k c_k beta^(r)_{k,q^F} geom^k, and the
    terms of index k are its products head c_k beta_k geom^k, one per row.
    Each factor has a lower bound that holds for every k and every row:
    coeff_floor(k) for c_k,
    series_beta_floor for beta, 0 for head, and v_p(F) for geom, since
    [A + p* z]_q is a unit for A prime to p and v([F]_q) = v_p(F) by
    lifting the exponent.  Their sum k v_p(F) + floor + coeff_floor(k)
    never decreases (coeff_floor falls by at most 1 <= v_p(F) per step),
    so every product from the first k at which it reaches target on lies at
    or above target, and so does each row's polynomial tail past the last
    index (Washington, GTM 83, 5.3).  Raises DivergenceDetected
    where no bound on beta is proven.
    """
    floor = series_beta_floor(ctx, r)
    if floor is None:
        raise DivergenceDetected(
            "no lower bound on v(beta^(%d)_k) is proven under the %s "
            "convention, so the k-series has no proven truncation"
            % (r, ctx.convention))
    vF = int_valuation(F, ctx.p)
    while k * vF + floor + coeff_floor(k) < target:
        k += 1
    return k - 1


def _k_series(ctx: QContext, wctx: QContext, target: int, r: int, F: int,
              rows, heads, k: int, coeffs, coeff_floor, last, lead,
              divisor) -> SeriesValue:
    """(lead() + sum_rows head P(geom)) / divisor, with lead None for 0 and

        P(g) = sum_{j=k..last} t_j g^j,    t_j = c_j beta^(r)_{j,q^F},

    the k-series sum_j t_j sum_rows head geom^j with its two sums swapped.
    k starts at the given k, and coeffs yields c_j from there.  A series
    whose coefficients vanish past last gives it, and the sum is exact;
    otherwise last is None and _last_index proves it from coeff_floor, a
    lower bound on v(c_j), before any term or lead is computed.

    Each t_j is one integer product built into a PadicNumber
    (_series_terms), and a beta zero at its precision is skipped.  The
    rest is integer arithmetic (_horner_rows): one Horner
    evaluation of P per row, built into one value at the precision M that
    the term-by-term PadicNumber sum keeps, capped at target, where the
    value is certified.
    """
    if last is None:
        last = _last_index(wctx, target, r, F, k, coeff_floor)
    # top index first, so a Carlitz table is built once for the series
    betas = [series_beta(wctx, j, r, base_power=F)
             for j in range(last, k - 1, -1)][::-1]
    terms = _series_terms(ctx.p, k, coeffs, betas)
    acc = lead() if lead else PadicNumber.exact_zero(ctx.p, wctx.prec)
    lines = [(h, g) for h, (_, _, g) in zip(heads, rows)
             if not h.is_exact_zero]
    if terms and lines:
        acc = acc + _horner_rows(ctx.p, wctx.prec, target, terms, lines,
                                 int_valuation(F, ctx.p))
    value = _certified(acc / divisor, ctx.prec, "series evaluation")
    return SeriesValue(value, len(betas))


def _horner_rows(p: int, work: int, target: int, terms, lines,
                 vg: int) -> PadicNumber:
    """sum over lines (head, geom) of head sum_{(j, t) in terms} t geom^j
    modulo p^M, for _k_series; terms ascend in j, every geom has valuation
    vg, and geom^0 = 1 carries work digits.

    M is the absolute precision of the term-by-term PadicNumber sum,
    capped at target.  That sum adds t_j S_j, with S_j = sum_rows head
    geom^j known modulo p^P_j, P_j the least precision of the products
    head geom^j, so M is the least over j of min(v(t_j) + P_j, prec(t_j) +
    v(S_j)).  v(S_j) is at least the least v(head) + j vg; S_j itself is
    formed only where that bound leaves the term below the precision
    reached so far, as when rows cancel against a low-precision t_j.

    Scaled to integers at b = min v(t_j), P(g) = sum_j t_j g^j is evaluated
    in Horner form at each row's integer geom (Brent & Zimmermann, Modern
    Computer Arithmetic, 4.4), the partial sum from index j on kept modulo
    p^(M - b - v(head) - j vg), the digits it contributes below p^M.
    These are the digits of the PadicNumber sum, whose every product and
    sum is exact modulo a power of p at or above M.
    """
    assert all(g.val == vg for _, g in lines)
    k, last = terms[0][0], terms[-1][0]
    b = min(t.val for _, t in terms)
    hb = min(h.val for h, _ in lines)
    # P_j - j vg at j = 0 and at j >= 1
    p_at = (min(h.val + min(h.rel, work) for h, _ in lines),
            min(h.val + min(h.rel, g.rel) for h, g in lines))
    lifted = [(h.unit * _ppow(p, h.val - hb), h.val, g.unit * _ppow(p, vg))
              for h, g in lines]
    ints = [0] * (last - k + 1)
    M = target
    for j, t in terms:
        ints[j - k] = t.unit * _ppow(p, t.val - b)
        p_sum = p_at[j > 0] + j * vg
        bound = t.val + p_sum
        if t.prec + hb + j * vg < min(M, bound):
            top = min(p_sum, M - t.prec)
            mod = _ppow(p, top - hb)
            s = sum(h * pow(G, j, mod) for h, _, G in lifted) % mod
            bound = min(bound, t.prec + (hb + int_valuation(s, p) if s else top))
        M = min(M, bound)
    total = 0
    for h, vh, G in lifted:
        digits = M - b - vh
        if digits <= 0:
            continue
        acc = 0
        for j in range(last, k - 1, -1):
            need = digits - j * vg
            if need > 0:
                acc = (ints[j - k] + G * acc) % _ppow(p, need)
        if k:
            acc = acc * pow(G, k, _ppow(p, digits))
        total += h * acc
    return _normalize(p, total, b + hb, M)


def _series_terms(p: int, k: int, coeffs, betas) -> list:
    """The pairs (j, t_j), t_j = c_j beta_j, for j from k, of the betas not
    zero at their precision, each product formed in integers as
    PadicNumber.__mul__ forms it.

    c_j is an int, a Fraction or a PadicNumber.  An exact c_j = p^v n/d
    enters as its valuation v and its unit n/d modulo p^rel(beta), the
    digits PadicNumber._coerce gives it; a PadicNumber c_j keeps its own
    digits, and one zero at its precision gives a t_j zero at precision.
    """
    terms = []
    for j, (c, beta) in enumerate(zip(coeffs, betas), k):
        if beta.is_zero:
            continue
        if isinstance(c, PadicNumber):
            if c.unit == 0:
                terms.append((j, PadicNumber.zero_at(p, c.val + beta.val)))
                continue
            v, rel, unit = c.val + beta.val, min(c.rel, beta.rel), c.unit
        else:
            num, den = c.numerator, c.denominator
            a, b = int_valuation(num, p), int_valuation(den, p)
            v, rel = a - b + beta.val, beta.rel
            unit = num // _ppow(p, a)
            if den != 1:
                unit *= pow(den // _ppow(p, b), -1, _ppow(p, rel))
        terms.append((j, PadicNumber(p, v, unit * beta.unit % _ppow(p, rel),
                                     v + rel)))
    return terms


def _int_binomials(a: int):
    """C(a, j) for j = 0, 1, 2, ... and an integer a, also a negative one:
    C(a, j) = C(a, j - 1) (a - j + 1) / j, where the division is exact."""
    coeff = 1
    for j in itertools.count(1):
        yield coeff
        coeff = coeff * (a - j + 1) // j


def _padic_binomials(a: PadicNumber, digits: int):
    """C(a, j) for j = 0, 1, 2, ..., each with the (val, unit, prec) of the
    chain C(a, j) = C(a, j - 1) (a - (j - 1)) / j of PadicNumber operations
    from 1 at digits significant digits.

    The chain is followed in integers.  a - i is known modulo p^prec(a), so
    it has valuation v_i = min(v(A - i), prec(a)) for the representative A
    of a, and prec(a) - v_i digits.  So C(a, j) has valuation sum_{i<j} v_i
    - v_p(j!) and min(digits, min_{i<j} (prec(a) - v_i)) digits, and is zero
    at its precision from the first a - i that is.
    """
    p, top = a.p, a.prec
    rep = a.unit * _ppow(p, a.val)
    val, unit, rel = 0, 1, digits
    for j in itertools.count(1):
        yield (PadicNumber(p, val, unit, val + rel) if rel
               else PadicNumber.zero_at(p, val))
        x = (rep - (j - 1)) % _ppow(p, top)
        vx = int_valuation(x, p) if x else top
        vj = int_valuation(j, p)
        val += vx - vj
        rel = min(rel, top - vx)
        if rel:
            mod = _ppow(p, rel)
            unit = (unit * (x // _ppow(p, vx))
                    * pow(j // _ppow(p, vj), -1, mod) % mod)


def Lpq_eval(ctx: QContext, params: LParams) -> SeriesValue:
    """The p-adic q-L-function of two variables as a certified double sum:

        1/[F]_q^r 1/((s-1)...(s-r)) sum'_{A} chi(A) q^((1-r)(A+p*z))
            <A + p* z>_q^{r-s}
            sum_k C(r-s, k) beta^(r)_{k,q^F} q^(k(A+p*z)) ([F]_q/[A+p*z]_q)^k

    where A runs over residue sums in [r, rF] prime to p, with
    multiplicities.  For integer s <= 0 the k-series terminates at
    k = r - s and the result is exact to the reported precision.  For other
    s in D, C(r-s, k) is p-integral, and the series ends at the index
    _last_index proves from that and the beta floor; where no beta floor
    is proven (pure-sum) DivergenceDetected is raised before the first
    term.  At s = -n the value equals Lpq_special in the same context,
    whose family the convention flag picks as it picks the coefficients'.

    Under the Carlitz convention only r = 1 is evaluated: at r >= 2 the
    coefficients are the integral family, which the pure-sum row weight
    and prefactor above do not fit, so DivergenceDetected is raised before
    the first term at every s, finite series included, while the closed
    forms (Lpq_special and the others) give integral-family values there.
    """
    params.validate(ctx)
    r, chi, F, z = params.r, params.chi, params.F, params.z
    s = _scaled_exponent(1, params.s)
    _pole_guard(r, s, chi)
    if ctx.convention == "carlitz" and r >= 2:
        raise DivergenceDetected(
            "the carlitz series is evaluated at r = 1 only: the order-%d "
            "Carlitz coefficients are the integral family, for which the "
            "series weight and prefactor are not derived" % r)
    prod = math.prod(s - j for j in range(1, r + 1))
    if isinstance(s, int):
        v_prod = int_valuation(prod, ctx.p)
    else:
        v_prod = prod.valuation_bound()[0]
    last = r - s if isinstance(s, int) and r - s > 0 else None

    # headroom for negative beta valuations up to the finite degree, or for
    # an infinite series up to its start (series_beta_floor bounds the rest)
    wctx, target, br_F, rows = _outer_rows(
        ctx, chi, r, F, z, v_prod, r if last is None else last, 1 - r)
    coeffs = (_int_binomials(r - s) if isinstance(s, int)
              else _padic_binomials(r - s, wctx.prec))
    heads = [wt * padic_power(angle, r - s) for wt, angle, _ in rows]
    return _k_series(
        ctx, wctx, target, r, F, rows, heads, 0, coeffs,
        lambda k: 0, last, None, br_F ** r * prod)


def Lpq_at_r(ctx: QContext, r: int, chi: DirichletCharacter, z=0,
             F: int = None) -> SeriesValue:
    """Value of the p-adic q-L-function at s = r (nonprincipal chi only):

        1/[F]_q^r 1/(r-1)! sum'_A chi(A) q^((1-r)(A+p*z))
            { -beta^(r)_0 log_p<A + p* z>_q
              + sum_{k>=r} (-1)^k/k beta^(r)_{k,q^F} q^(k(A+p*z))
                ([F]_q/[A+p*z]_q)^k }

    The coefficients (-1)^k/k have valuation >= -floor(log_p k), from
    which _last_index proves where the series ends.  Only the Carlitz
    convention at r = 1 has a proven beta floor; elsewhere
    DivergenceDetected is raised before the first term.
    """
    if r < 1:
        raise ValueError("order r must be >= 1")
    if chi.is_principal:
        raise PoleError("the principal character has a genuine pole at s = r")
    if F is None:
        F = choose_F(chi.conductor, ctx.p, r, "interpolation")
    LParams(r=r, chi=chi, F=F, z=z, s=r).validate(ctx)
    fact = math.factorial(r - 1)
    wctx, target, br_F, rows = _outer_rows(
        ctx, chi, r, F, z, int_valuation(fact, ctx.p), r, 1 - r)

    def log_term():
        log_sum = PadicNumber.exact_zero(ctx.p, wctx.prec)
        for wt, angle, _ in rows:
            log_sum = log_sum + wt * iwasawa_log(angle)
        return -(series_beta(wctx, 0, r, base_power=F) * log_sum)

    coeffs = (Fraction((-1) ** k, k) for k in itertools.count(r))
    # v((-1)^k/k) >= -floor(log_p k) = 1 - ceil(log_p(k + 1))
    return _k_series(
        ctx, wctx, target, r, F, rows, [wt for wt, _, _ in rows], r, coeffs,
        lambda k: 1 - _ceil_log(ctx.p, k + 1), None, log_term,
        br_F ** r * fact)


def Lpq_difference_rhs(ctx: QContext, s, z, chi: DirichletCharacter, r: int,
                       F: int) -> PadicNumber:
    """The finite sum by which shifting z to z + rF changes the function:

        - sum'_{A in [r, r p* F]} chi_r(A) q^(A + p* z) <A + p* z>_q^(-s)

    over residue sums prime to p, with chi_r the omega^(-r) twist of chi.
    F must be a multiple of choose_F(f, p, r, "difference"),
    p (p*)^(-1) r lcm(f, p*).  The rows are _outer_rows' over the window
    p* F at weight exponent w = 1, each weight times its angle^(-s).
    """
    if r < 1:
        raise ValueError("order r must be >= 1")
    step = choose_F(chi.conductor, ctx.p, r, "difference")
    if F % step != 0:
        raise DomainError(
            "F = %d is not a multiple of p (p*)^(-1) r lcm(f, p*) = %d"
            % (F, step)
        )
    chir = char_twist_omega(chi, r)
    # _outer_rows reads only p* z: check z's type, then that z is in Z_p
    _scaled_exponent(ctx.p_star, z)
    _require_integral(z, ctx.p)
    _require_s(ctx, s)
    wctx, _, _, rows = _outer_rows(ctx, chir, r, ctx.p_star * F, z, 0, 0, 1)
    acc = PadicNumber.exact_zero(ctx.p, wctx.prec)
    for wt, angle, _ in rows:
        acc = acc + wt * padic_power(angle, -s)
    return _certified(-acc, ctx.prec, "difference sum")
