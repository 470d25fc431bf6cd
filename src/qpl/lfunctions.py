"""Special values and p-adic interpolation of the multiple q-L-series.

The module has three layers.  The closed-form layer (q_zeta_special,
partial_q_zeta_special, Lq_special, Lpq_special) returns negative-integer
special values as (-1)^r/(n+1)_r times one window sum of multiple
q-Bernoulli polynomials over residue rows (qbernoulli._window_sum).
The series layer (Lpq_eval, Lpq_at_r) evaluates the two-variable p-adic
q-L-function as a double sum: a finite outer sum over residue vectors,
grouped by their sum into rows, and an inner k-series that ends at an index
proven before the sum starts, from lower bounds on the valuations of its
factors that hold for every k (see _last_index).  The two sums are swapped
(_k_series): the series coefficients t_k = c_k beta^(r)_k are formed once,
and sum_k t_k geom^k is one integer Horner evaluation per row modulo a
power of p.  The rows are summed in integers and built into one
PadicNumber at the precision the term-by-term sum keeps, capped at the
stop target, so the value is that sum's digit for digit.
Lpq_difference_rhs is the finite sum that a shift of z by r*F adds to the
function, used by the congruence machinery.

Both layers drop the same terms: the residue vectors whose sum is divisible
by p.  Lpq_special is the residue-sum closed form of Lpq_eval at s = -n; it
has no separate Euler factor, and the series has a single outer weight.

Conventions: s is an integer or a PadicNumber in the disk D, z lies in the
valuation ring, and characters should be primitive (an imprimitive modulus
changes Euler factors at its extra primes).  The inner series coefficients
beta^(r)_k follow the context convention flag; see qbernoulli.series_beta.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .characters import (
    DirichletCharacter,
    char_twist_omega,
    induce,
    principal_char,
)
from .classical import pochhammer, residue_sums
from .errors import DivergenceDetected, DomainError, PoleError
from .padic import (
    PadicNumber,
    QContext,
    _angle_of_bracket,
    _ceil_log,
    _normalize,
    _ppow,
    _valuation_at_least,
    angle_q,
    in_D,
    int_valuation,
    iwasawa_log,
    p_star,
    padic_power,
)
from .qbernoulli import (
    _beta_headroom,
    _certified,
    _window_sum,
    series_beta,
    series_beta_floor,
)


@dataclass(frozen=True)
class SeriesValue:
    """A series evaluation together with its truncation certificate.

    The series was summed up to an index proven before the sum started (or
    it was finite), so converged is true and the omitted tail, divided like
    the sum, has valuation at least tail_valuation_bound, the requested
    precision at which the value is reported.
    """

    value: PadicNumber
    terms_used: int
    tail_valuation_bound: int
    converged: bool


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
        z = self.z
        if ((isinstance(z, PadicNumber) and z.p != ctx.p)
                or not _valuation_at_least(z, ctx.p, 0)):
            raise DomainError("z must lie in the valuation ring")
        s = self.s
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
    """(-1)^r/(n+1)_r times the window sum of order n + r over rows,
    padded once by v_p((n+1)_r) and certified to ctx.prec."""
    poch = pochhammer(n + 1, r)
    inner = ctx.with_precision(ctx.prec + int_valuation(poch, ctx.p))
    return _certified(_window_sum(inner, n + r, r, chi, z, F, rows)
                      * Fraction((-1) ** r, poch), ctx.prec, "special value")


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
    to the modulus, where the sum is multi_gen_q_beta_poly at order n + r.
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


def Lpq_special(ctx: QContext, n: int, r: int, chi: DirichletCharacter,
                z=0) -> PadicNumber:
    """Closed form of the p-adic q-L-function at s = -n: the multiple
    q-L value with the residue sums divisible by p taken out,

        (-1)^r/(n+1)_r [M]_q^n sum'_A chi_m(A) beta^(r)_{n+r,q^M}((p* z + A)/M)

    with chi_m the omega^(-(n+r)) twist of chi, M = lcm(f_m, p*), and A
    running over the sums a_1+...+a_r of residue vectors in [1, M]^r, with
    multiplicities, prime to p.  This is Lq_special for chi_m induced to
    modulus M, at argument p* z and window F = M; the induced character
    vanishes on the sums divisible by p, the terms Lpq_eval drops.  The
    value is certified to ctx.prec or PrecisionExhausted is raised.
    """
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    chim = char_twist_omega(chi, n + r)
    M = math.lcm(chim.conductor, ctx.p_star)
    return Lq_special(ctx, n, r, induce(chim, M), ctx.p_star * z, F=M)


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
    raise PoleError(
        "s = %d is a removable point for a nonprincipal character, but the "
        "series form divides by (s - %d); use Lpq_at_r for the value at s = r"
        % (hit, hit)
    )


def _outer_rows(ctx: QContext, chi: DirichletCharacter, r: int, F: int, z,
                v_div: int, m: int):
    """Working context, stop target, [F]_q and grouped outer-sum rows of a
    k-series whose sum is divided by [F]_q^r and by a prefactor of
    valuation v_div, with beta headroom certified up to k = m.

    Each row belongs to one residue sum A prime to p and holds the weight
    (multiplicity) chi(A) q^((1-r)(A + p* z)), the principal-unit angle, and
    the geometric factor q^(A + p* z) [F]_q / [A + p* z]_q.  The q-power in
    the weight is the prefactor the order-r expansion carries; it is 1 at
    r = 1."""
    vF = int_valuation(F, ctx.p)
    # pad: r*vF for the 1/[F]^r division, v_div for the prefactor, headroom
    # for the negative beta valuations
    work = ctx.prec + r * vF + v_div + 4 + _beta_headroom(ctx, m, r, F)
    wctx = ctx.with_precision(work)
    sums = residue_sums(F, r, chi, ctx.p)
    br_F = wctx.q_bracket(1, F, work)
    rows = []
    for total, count in sums:
        exponent = z * wctx.p_star + total
        weight = (count * chi.eval(total, work)
                  * wctx.q_power(1, exponent * (1 - r), work))
        bracket = wctx.q_bracket(1, exponent, work)
        angle = _angle_of_bracket(wctx, total, bracket, work)
        geom = wctx.q_power(1, exponent, work) * (br_F / bracket)
        rows.append((weight, angle, geom))
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

    Each t_j is one PadicNumber product, and a beta zero at its precision
    is skipped.  The rest is integer arithmetic (_horner_rows): one Horner
    evaluation of P per row, built into one value at the precision M that
    the term-by-term PadicNumber sum keeps, capped at target, where the
    value is certified.
    """
    if last is None:
        last = _last_index(wctx, target, r, F, k, coeff_floor)
    # top index first, so a Carlitz table is built once for the series
    betas = [series_beta(wctx, j, r, base_power=F)
             for j in range(last, k - 1, -1)][::-1]
    terms = [(j, coeff * beta)
             for j, (coeff, beta) in enumerate(zip(coeffs, betas), k)
             if not beta.is_zero]
    terms = [(j, t) for j, t in terms if not t.is_exact_zero]
    acc = lead() if lead else PadicNumber.exact_zero(ctx.p, wctx.prec)
    lines = [(h, g) for h, (_, _, g) in zip(heads, rows)
             if not h.is_exact_zero]
    if terms and lines:
        acc = acc + _horner_rows(ctx.p, wctx.prec, target, terms, lines,
                                 int_valuation(F, ctx.p))
    value = _certified(acc / divisor, ctx.prec, "series evaluation")
    return SeriesValue(value, len(betas), ctx.prec, True)


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


def _binomials(a, one):
    """C(a, k) for k = 0, 1, 2, ..., starting from one, the unit of the
    coefficient ring (Fraction or PadicNumber)."""
    coeff = one
    for k in itertools.count(1):
        yield coeff
        coeff = coeff * (a - (k - 1)) / k


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
    term.  At s = -n the value equals Lpq_special.

    Under the Carlitz convention only r = 1 is evaluated: at r >= 2 the
    coefficients are the integral family, which the pure-sum row weight
    and prefactor above do not fit, so DivergenceDetected is raised before
    the first term at every s, finite series included.
    """
    params.validate(ctx)
    r, chi, F, z, s = params.r, params.chi, params.F, params.z, params.s
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
        ctx, chi, r, F, z, v_prod, r if last is None else last)
    one = Fraction(1) if isinstance(s, int) else wctx.one(wctx.prec)
    heads = [wt * padic_power(angle, r - s) for wt, angle, _ in rows]
    return _k_series(
        ctx, wctx, target, r, F, rows, heads, 0, _binomials(r - s, one),
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
        ctx, chi, r, F, z, int_valuation(fact, ctx.p), r)

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
    p (p*)^(-1) r lcm(f, p*).
    """
    if r < 1:
        raise ValueError("order r must be >= 1")
    p, pstar = ctx.p, ctx.p_star
    step = choose_F(chi.conductor, p, r, "difference")
    if F % step != 0:
        raise DomainError(
            "F = %d is not a multiple of p (p*)^(-1) r lcm(f, p*) = %d"
            % (F, step)
        )
    chir = char_twist_omega(chi, r)
    work = ctx.prec + 4
    wctx = ctx.with_precision(work)
    acc = PadicNumber.exact_zero(p, work)
    for total, count in residue_sums(pstar * F, r, chir, p):
        exponent = z * pstar + total
        angle = angle_q(wctx, total, z, work)
        acc = acc + (count * chir.eval(total, work)
                     * wctx.q_power(1, exponent, work) * padic_power(angle, -s))
    return _certified(-acc, ctx.prec, "difference sum")
