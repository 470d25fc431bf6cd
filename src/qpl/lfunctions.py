"""Special values and p-adic interpolation of the multiple q-L-series.

The module has three layers.  The closed-form layer (q_zeta_special,
partial_q_zeta_special, Lq_special, Lpq_special) returns negative-integer
special values as finite combinations of multiple q-Bernoulli polynomials.
The series layer (Lpq_eval, Lpq_at_r) evaluates the two-variable p-adic
q-L-function as a double sum: a finite outer sum over residue vectors,
grouped by their sum, and an inner k-series whose truncation is certified
term by term.  Lpq_difference_rhs is the finite sum that a shift of z by
r*F adds to the function, used by the congruence machinery.

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

from .characters import DirichletCharacter, char_twist_omega, induce
from .classical import pochhammer, residue_sums
from .errors import DivergenceDetected, DomainError, PoleError
from .padic import (
    ExponentForm,
    PadicNumber,
    QContext,
    angle_q,
    fraction_valuation,
    in_D,
    in_R,
    int_valuation,
    iwasawa_log,
    p_star,
    padic_power,
)
from .qbernoulli import (
    _beta_headroom,
    _certified,
    _clamp,
    _window_sum,
    multi_q_beta_poly,
    series_beta,
)

# hard ceiling on monitored k-series length; the stop rule should fire or
# fail long before this
SERIES_CAP = 400


@dataclass(frozen=True)
class SeriesValue:
    """A series evaluation together with its truncation certificate.

    converged means the stop rule was satisfied (or the series was finite),
    in which case tail_valuation_bound is at least the requested precision
    and the value is reported at exactly that precision.
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
        if isinstance(z, PadicNumber):
            if z.p != ctx.p or not in_R(z):
                raise DomainError("z must lie in the valuation ring")
        elif Fraction(z) != 0 and fraction_valuation(Fraction(z), ctx.p) < 0:
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


def _neg_pochhammer(n: int, r: int):
    """(-1)^r / (n+1)_r as an exact Fraction, plus its p-content."""
    c = pochhammer(n + 1, r)
    return Fraction((-1) ** r, c), c


# -- closed-form special values ----------------------------------------------


def q_zeta_special(ctx: QContext, n: int, r: int, x) -> PadicNumber:
    """Multiple q-zeta value at s = -n: (-1)^r/(n+1)_r beta^(r)_{n+r}(x)."""
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    c, poch = _neg_pochhammer(n, r)
    inner = ctx.with_precision(ctx.prec + int_valuation(poch, ctx.p) + 2)
    return _clamp(multi_q_beta_poly(inner, n + r, r, x) * c, ctx.prec)


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
    c, poch = _neg_pochhammer(n, r)
    work = (ctx.prec + int_valuation(poch, ctx.p)
            + _beta_headroom(ctx, n + r, r, F) + 2)
    inner = ctx.with_precision(work)
    x = ExponentForm.wrap(z).add_int(sum(a_list)).over(F)
    beta = multi_q_beta_poly(inner, n + r, r, x, base_power=F)
    value = inner.q_bracket(1, F) ** n * beta * c
    return _clamp(value, ctx.prec)


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
    c, poch = _neg_pochhammer(n, r)
    inner = ctx.with_precision(ctx.prec + int_valuation(poch, ctx.p))
    return _clamp(_window_sum(inner, n + r, r, chi, z, F) * c, ctx.prec)


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


class _StopRule:
    """Truncation monitor for the k-series.

    Accepts at the first k >= floor where the last 5 term-valuation lower
    bounds all clear the target and the window trend is nondecreasing
    (last >= first; coefficient families oscillate within a climbing
    envelope, so the trend is measured across the window, not pairwise).
    Five bounds >= target already certify those terms ultrametrically; the
    trend clause guards against a tail that is about to sink.  Divergence
    is reported once the bounds have sunk well below target with no
    recovery.
    """

    WINDOW = 5

    def __init__(self, floor: int, target: int):
        self.floor = floor
        self.target = target
        self.bounds = []

    def accept(self, k: int, bound) -> bool:
        self.bounds.append(bound)
        w = self.bounds[-self.WINDOW:]
        return (
            k >= self.floor
            and len(w) == self.WINDOW
            and all(b >= self.target for b in w)
            and w[-1] >= w[0]
        )

    def diverging(self) -> bool:
        w = self.bounds[-12:]
        return (
            len(w) == 12
            and w[-1] < self.target - 8
            and w[0] > w[-1]
            and all(w[i] >= w[i + 1] for i in range(11))
        )


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
        exponent = ExponentForm.wrap(z).scale_int(wctx.p_star).add_int(total)
        weight = (count * chi.eval(total, work)
                  * wctx.q_power(1, exponent.scale_int(1 - r), work))
        angle = angle_q(wctx, total, z, work)
        geom = wctx.q_power(1, exponent, work) * (
            br_F / wctx.q_bracket(1, exponent, work)
        )
        rows.append((weight, angle, geom))
    return wctx, ctx.prec + r * vF + v_div, br_F, rows


def _k_series(ctx: QContext, wctx: QContext, target: int, r: int, F: int,
              rows, heads, k: int, coeffs, last, acc: PadicNumber,
              divisor, diverges: str) -> SeriesValue:
    """(acc + sum_k c_k beta^(r)_{k,q^F} sum_rows head geom^k) / divisor.

    k starts at the given k, and coeffs yields c_k from there.  With last
    given the sum ends at k = last and is exact to the reported precision;
    otherwise the stop rule certifies its truncation at target, and
    DivergenceDetected, worded with diverges, is raised when the term
    valuations sink or SERIES_CAP terms pass uncertified.
    """
    if not rows:
        return SeriesValue(PadicNumber.exact_zero(ctx.p, ctx.prec), 0,
                           ctx.prec, True)
    work = wctx.prec
    # geom ** 0 would carry only the digits of geom, not the working precision
    if k == 0:
        gpow = [wctx.one(work) for _ in rows]
    else:
        gpow = [geom ** k for _, _, geom in rows]
    rule = _StopRule(r + 5, target)
    terms = 0
    converged = last is not None
    ks = itertools.count(k) if last is None else range(k, last + 1)
    for k, coeff in zip(ks, coeffs):
        beta = series_beta(wctx, k, r, base_power=F)
        if not beta.is_zero:
            row_sum = PadicNumber.exact_zero(ctx.p, work)
            for head, g in zip(heads, gpow):
                row_sum = row_sum + head * g
            term = coeff * beta * row_sum
        else:
            term = PadicNumber.exact_zero(ctx.p, work)
        acc = acc + term
        terms += 1
        if last is None:
            if rule.accept(k, term.valuation_bound()[0]):
                converged = True
                break
            if rule.diverging():
                raise DivergenceDetected(
                    "term valuations sink below target near k = %d; %s"
                    % (k, diverges)
                )
            if terms >= SERIES_CAP:
                raise DivergenceDetected(
                    "no certified truncation within %d terms" % SERIES_CAP
                )
        gpow = [g * geom for g, (_, _, geom) in zip(gpow, rows)]
    value = _certified(acc / divisor, ctx.prec, "series evaluation")
    return SeriesValue(value, terms, ctx.prec, converged)


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
    k = r - s and the result is exact to the reported precision; for other
    s in D truncation is monitored by the stop rule and DivergenceDetected
    is raised if the term valuations fail to climb.  At s = -n the value
    equals Lpq_special.
    """
    params.validate(ctx)
    r, chi, F, z, s = params.r, params.chi, params.F, params.z, params.s
    _pole_guard(r, s, chi)
    prod = math.prod(s - j for j in range(1, r + 1))
    if isinstance(s, int):
        v_prod = int_valuation(prod, ctx.p)
    else:
        v_prod = prod.valuation_bound()[0]
    last = r - s if isinstance(s, int) and r - s > 0 else None

    # headroom for negative beta valuations up to the deepest k reached
    # (the finite degree, or the series start when truncation is monitored)
    wctx, target, br_F, rows = _outer_rows(
        ctx, chi, r, F, z, v_prod, r if last is None else last)
    one = Fraction(1) if isinstance(s, int) else wctx.one(wctx.prec)
    heads = [wt * padic_power(angle, r - s) for wt, angle, _ in rows]
    return _k_series(
        ctx, wctx, target, r, F, rows, heads, 0, _binomials(r - s, one), last,
        PadicNumber.exact_zero(ctx.p, wctx.prec), br_F ** r * prod,
        "the k-series does not converge at this point")


def Lpq_at_r(ctx: QContext, r: int, chi: DirichletCharacter, z=0,
             F: int = None) -> SeriesValue:
    """Value of the p-adic q-L-function at s = r (nonprincipal chi only):

        1/[F]_q^r 1/(r-1)! sum'_A chi(A) q^((1-r)(A+p*z))
            { -beta^(r)_0 log_p<A + p* z>_q
              + sum_{k>=r} (-1)^k/k beta^(r)_{k,q^F} q^(k(A+p*z))
                ([F]_q/[A+p*z]_q)^k }

    Under the pure-sum convention beta^(r)_0 = 0 and the logarithmic term
    drops; the context convention flag decides.
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
    acc = PadicNumber.exact_zero(ctx.p, wctx.prec)
    beta0 = series_beta(wctx, 0, r, base_power=F)
    if not beta0.is_zero:
        log_sum = PadicNumber.exact_zero(ctx.p, wctx.prec)
        for wt, angle, _ in rows:
            log_sum = log_sum + wt * iwasawa_log(angle)
        acc = -(beta0 * log_sum)
    coeffs = (Fraction((-1) ** k, k) for k in itertools.count(r))
    return _k_series(
        ctx, wctx, target, r, F, rows, [wt for wt, _, _ in rows], r, coeffs,
        None, acc, br_F ** r * fact,
        "the value series does not converge under this convention")


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
        exponent = ExponentForm.wrap(z).scale_int(pstar).add_int(total)
        angle = angle_q(wctx, total, z, work)
        acc = acc + (count * chir.eval(total, work)
                     * wctx.q_power(1, exponent, work) * padic_power(angle, -s))
    return _clamp(-acc, ctx.prec)
