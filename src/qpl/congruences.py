"""Difference-operator congruences with machine-checked valuation certificates.

The verifiers here test Kummer-type congruence claims for the two-variable
special values B_n^r(z, q, chi) on finite parameter grids.  Each check
produces a CongruenceReport: the claimed valuation bound, the observed
valuation of an explicit witness, and a pass verdict that is only issued
when the witness is certified strictly beyond the required depth.  Nothing
here proves a theorem; a report is evidence at one parameter point.

Character values lie in Z_p, so the coefficient ring R*[chi] collapses to
R* and every bound is a plain valuation; a CLI document of theorems 53, 54
or binop says so once (_NOTE_COLLAPSE), not in each report's notes.

Each operator is a list of (offset, exact weight) pairs, one pair per term
of its expansion: Delta_c^k is (m c, (-1)^(k-m) C(k, m)) for m = 0..k, and
the binomial-coefficient operator is the pairs of each Delta_c^m times
s(k, m) / (k! (p*)^m), left unmerged.  A witness op(z) - op(0) is one
integer sum over the pairs at z and the negated pairs at 0 (_padic_sum).
Its precision rule is the one of the PadicNumber chain sum_i x_i w_i: the
chain is known modulo p^M, M the least prec(x_i) + v_p(w_i) over the
values that are not exact zeros, and its digits are those of
sum_i w_i X_i modulo p^M for integer representatives X_i; so the kernel
returns the chain's value, digit for digit and at its precision.

Report theorem tokens match the CLI: "53" (k-th difference membership and
n-independence), "54" (agreement between two operator powers k = k' mod p-1),
"binop" (binomial-coefficient operator form), "classical" (exact-rational
Kummer baseline for B_n/n).
"""

from fractions import Fraction
from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial, inf, lcm

from .errors import InconclusivePrecision, PreconditionViolated
from .padic import (
    PadicNumber,
    QContext,
    _normalize,
    _require_prime,
    _scaled_exponent,
    _valuation_at_least,
    fraction_valuation,
    int_valuation,
    rstar_threshold,
)
from .characters import DirichletCharacter
from .classical import (
    bernoulli_number,
    multi_gen_bernoulli_poly,
    stirling_first,
)
from .lfunctions import Lpq_special, choose_F

# every pass verdict must be certified this many digits past the bound
CERT_MARGIN = 3

_NOTE_COLLAPSE = (
    "character values lie in Z_p, so the coefficient ring R*[chi] "
    "collapses to R* and all bounds are plain valuations"
)
_NOTE_SAMPLED = (
    "z is not a nonnegative integer multiple of the lattice step; the "
    "check is numerical at this sampled z only"
)


@dataclass(frozen=True)
class CongruenceReport:
    """One verified (or refuted, or inconclusive) congruence instance.

    observed_valuation is exact for a nonzero witness, a certified lower
    bound for a witness indistinguishable from zero, and math.inf for an
    exact zero.  passed and inconclusive are mutually exclusive: a verdict
    is only `passed` when the witness precision exceeds the requirement by
    CERT_MARGIN digits, and only a nonzero witness below the bound can
    conclusively fail.
    """

    theorem: str
    check: str
    point: dict
    required_valuation: int
    observed_valuation: object
    passed: bool
    inconclusive: bool
    witness: dict
    notes: tuple = ()

    def to_dict(self) -> dict:
        obs = self.observed_valuation
        return {
            "theorem": self.theorem,
            "check": self.check,
            "point": self.point,
            "required_valuation": self.required_valuation,
            "observed_valuation": None if obs == inf else obs,
            "pass": self.passed,
            "inconclusive": self.inconclusive,
            "witness": self.witness,
            "notes": list(self.notes),
        }


# -- operators --------------------------------------------------------------


def _diff_pairs(c: int, k: int) -> list:
    """Delta_c^k as (offset, weight) pairs: (m c, (-1)^(k-m) C(k, m)) for
    m = 0..k."""
    return [(m * c, -comb(k, m) if (k - m) % 2 else comb(k, m))
            for m in range(k + 1)]


def _binom_pairs(c: int, k: int, p_star: int) -> list:
    """((p*)^{-1} Delta_c choose k) as (offset, weight) pairs: the pairs of
    Delta_c^m times s(k, m) / (k! (p*)^m) for each m with s(k, m) != 0,
    unmerged, so that each pair is one term of the expansion."""
    kfact = factorial(k)
    return [(off, w * Fraction(s, kfact * p_star**m))
            for m, s in stirling_expansion(k) if s
            for off, w in _diff_pairs(c, m)]


def _kernel_weights(p: int, weights) -> tuple:
    """The kernel's form of exact nonzero weights w_i = p^v_i a_i / D, with
    D the least common unit denominator: ([(v_i, a_i)], D)."""
    den = 1
    split = []
    for w in weights:
        a, d = w.numerator, w.denominator
        va, vd = int_valuation(a, p), int_valuation(d, p)
        split.append((va - vd, a // p**va, d // p**vd))
        den = lcm(den, d // p**vd)
    return [(v, a * (den // d)) for v, a, d in split], den


def _padic_sum(values, weights, den: int) -> PadicNumber:
    """sum_i w_i x_i for PadicNumber values x_i and exact nonzero weights
    w_i in _kernel_weights' form: the digits and the precision p^M of the
    chain x_0 w_0 + x_1 w_1 + ... of PadicNumber operations (see the module
    docstring), formed in integers.  The chain reduces each product and
    each partial sum modulo p^M or a higher power of p, so the integer sum
    modulo p^M is its value.  Exact zeros drop out of the sum and of M;
    when every x_i is one, the chain returns the exact zero at the first
    value's precision.
    """
    p = values[0].p
    top = None
    terms = []
    for x, (v, a) in zip(values, weights):
        if x.val is None:
            continue
        if top is None or x.prec + v < top:
            top = x.prec + v
        if x.unit:
            terms.append((x.val + v, x.unit * a))
    if top is None:
        return PadicNumber.exact_zero(p, values[0].prec)
    base = min([top] + [e for e, _ in terms])
    m = sum(u * p**(e - base) for e, u in terms)
    if den != 1:
        m *= pow(den, -1, p**(top - base))
    return _normalize(p, m, base, top)


def _apply(pairs, seq, n: int):
    """sum_i w_i seq(n + offset_i) for pairs (offset_i, w_i), in exact
    arithmetic: on PadicNumber values this is the chain the kernel sums."""
    return sum(seq(n + off) * w for off, w in pairs)


def forward_diff(seq, n: int, c: int, k: int):
    """k-th forward difference with step c at index n:

        sum_{m=0..k} C(k,m) (-1)^(k-m) seq(n + m c).

    seq is any callable on integer indices; values may be PadicNumber or
    Fraction.  k = 0 is the identity.
    """
    if k < 0:
        raise ValueError("difference order k must be >= 0")
    if c < 1:
        raise ValueError("step c must be >= 1")
    return _apply(_diff_pairs(c, k), seq, n)


def stirling_expansion(k: int) -> tuple:
    """((m, s(k, m)) for m = 0..k): the audit trail for binom_operator."""
    return tuple((m, stirling_first(k, m)) for m in range(k + 1))


def binom_operator(seq, n: int, c: int, k: int, p_star: int):
    """Binomial-coefficient operator ((p*)^{-1} Delta_c choose k) at index n,
    through its Stirling-number expansion:

        (1/k!) sum_{m=0..k} s(k,m) (p*)^{-m} Delta_c^m seq(n).

    With p_star = 1 and seq(n) = t^n this reproduces the ordinary binomial
    coefficient C((t-1)... , k) polynomial identity, which the test suite
    uses as an exact cross-check.
    """
    if k < 0:
        raise ValueError("operator order k must be >= 0")
    if p_star < 1:
        raise ValueError("p_star must be a positive integer")
    return _apply(_binom_pairs(c, k, p_star), seq, n)


# -- the structure under test ----------------------------------------------


def Bnr_structure(ctx: QContext, n: int, r: int, chi: DirichletCharacter,
                  z=0) -> PadicNumber:
    """B_n^r(z, q, chi): the special value Lpq_special(ctx, n, r, chi, z)
    under its structural name, cached per context so grid verifications
    reuse the z = 0 baselines, which an exact-zero z shares.
    """
    if n < 1 or r < 1:
        raise PreconditionViolated("n and r must be >= 1")
    return ctx._memo(("Bnr", n, r, chi, _zdesc(z), ctx.prec),
                     lambda: Lpq_special(ctx, n, r, chi, z))


# -- report plumbing ---------------------------------------------------------


def _verdict(witness: PadicNumber, required: int):
    """(observed, passed, inconclusive) for a p-adic witness against a bound.

    Nonzero witnesses carry their exact valuation, so falling short of the
    bound is a conclusive failure.  A witness that is zero to its precision
    only certifies v >= prec; it can pass (with margin) or be inconclusive,
    never fail.
    """
    bound, exact = witness.valuation_bound()
    if bound == inf:
        return inf, True, False
    if not exact:
        ok = bound >= required + CERT_MARGIN
        return bound, ok, not ok
    if bound < required:
        return bound, False, False
    if witness.prec >= required + CERT_MARGIN:
        return bound, True, False
    return bound, False, True


def _value_doc(x) -> dict:
    """A PadicNumber's to_dict(), or an exact fraction's document."""
    if isinstance(x, PadicNumber):
        return x.to_dict()
    return {"fraction": str(x)}


def _zdesc(z) -> str:
    z = _scaled_exponent(1, z)
    return repr(z) if isinstance(z, PadicNumber) else str(z)


def _point(ctx: QContext, chi, **kw) -> dict:
    d = {"p": ctx.p, "q": str(ctx.q)}
    if chi is not None:
        d["chi"] = chi.to_dict()
    d.update(kw)
    return d


def _check_z(ctx: QContext, z, step: int):
    """Admissibility of z: v_p(z) >= v_p(step), i.e. z in step * Z_p.

    The congruence proofs extend from the positive integer points of
    step * Z by continuity, so integer multiples of the step (which have
    unit cofactor) are exactly the anchor points and must be admitted.
    Off those points the report notes say that z is a sample.
    """
    need = int_valuation(step, ctx.p)
    if not _valuation_at_least(z, ctx.p, need):
        raise PreconditionViolated(
            "z = %s is outside the admissible set %d*Z_p (need v_%d(z) >= %d)"
            % (_zdesc(z), step, ctx.p, need)
        )
    anchor = isinstance(z, int) and z >= 0 and z % step == 0
    return () if anchor else (_NOTE_SAMPLED,)


def uncertified_report(ctx: QContext, chi: DirichletCharacter, theorem: str,
                       exc: Exception, z, **point) -> CongruenceReport:
    """The report of a cell a verifier raised on (InconclusivePrecision or
    PreconditionViolated): inconclusive, with no witness, no observed
    valuation, and the error message as its note."""
    return CongruenceReport(
        theorem, "uncertified", _point(ctx, chi, z=_zdesc(z), **point),
        None, inf, False, True, {}, (str(exc),),
    )


# -- the verifier core -------------------------------------------------------


def _sorted_n_list(n_list) -> list:
    n_list = sorted(set(n_list))
    if not n_list or n_list[0] < 1:
        raise PreconditionViolated("n_list must contain positive integers")
    return n_list


class _Cell:
    """The steps the q-verifiers share at one parameter point.

    Construction reads z (an exact zero is the lattice point 0), checks
    that it lies on the lattice of step choose_F(f_chi, p, lattice_r)
    (PreconditionViolated otherwise) and that ctx.prec reaches depth +
    CERT_MARGIN (InconclusivePrecision otherwise).  An operator is a list
    of (offset, exact weight) pairs; its witness at n is the operator
    applied to m -> B_m^r(z) minus the operator applied to m -> B_m^r(0).
    Every report's point is the cell's head (p, q and chi, built once), r,
    n, c, k and extra.
    """

    def __init__(self, ctx: QContext, chi: DirichletCharacter, theorem: str,
                 r: int, z, lattice_r: int, depth: int, c: int, k, **extra):
        step = choose_F(chi.conductor, ctx.p, lattice_r, "difference")
        z = _scaled_exponent(1, z)
        self.notes = _check_z(ctx, z, step)
        if ctx.prec < depth + CERT_MARGIN:
            raise InconclusivePrecision(
                "working precision %d cannot certify this bound; need >= %d"
                % (ctx.prec, depth + CERT_MARGIN)
            )
        self.ctx, self.chi, self.r, self.z = ctx, chi, r, z
        self.theorem = theorem
        self.head = _point(ctx, chi)
        self.point = dict(c=c, k=k, z=_zdesc(z), **extra)

    def operator(self, pairs) -> tuple:
        """pairs in the form witness takes: the offsets, and the kernel
        weights of the pairs at z followed by the negated pairs at 0."""
        weights = [w for _, w in pairs]
        return ([off for off, _ in pairs],
                _kernel_weights(self.ctx.p, weights + [-w for w in weights]))

    def witness(self, op, n: int) -> PadicNumber:
        """The one place a cell reads its values: B_{n+off}^r(z) for each
        offset of op (from operator) in order, then B_{n+off}^r(0), summed
        by one kernel call."""
        offsets, weights = op
        ctx, r, chi = self.ctx, self.r, self.chi
        values = [Bnr_structure(ctx, n + off, r, chi, z0)
                  for z0 in (self.z, 0) for off in offsets]
        return _padic_sum(values, *weights)

    def report(self, check: str, n, w: PadicNumber,
               required: int) -> CongruenceReport:
        obs, ok, inc = _verdict(w, required)
        return CongruenceReport(
            self.theorem, check, dict(self.head, r=self.r, n=n, **self.point),
            required, obs, ok, inc, _value_doc(w), self.notes,
        )

    def families(self, pairs, n_list, req_member: int, req_indep: int,
                 scale=None) -> list:
        """A membership report per n, then an n-independence report per
        pair of n, on the witnesses times scale (unscaled when None)."""
        op = self.operator(pairs)
        reports = []
        values = {}
        for n in n_list:
            w = self.witness(op, n)
            reports.append(self.report("membership", n, w, req_member))
            values[n] = w if scale is None else w * scale
        for na, nb in combinations(n_list, 2):
            reports.append(self.report("n-independence", (na, nb),
                                       values[na] - values[nb], req_indep))
        return reports


# -- verifiers ---------------------------------------------------------------


def verify_thm53(ctx: QContext, chi: DirichletCharacter, r: int,
                 n_list, c: int, k: int, z) -> list:
    """k-th difference congruence for B_n^r(z) - B_n^r(0).

    Two families of checks, one report each:
      membership:      v( Delta_c^k B_n^r(z) - Delta_c^k B_n^r(0) )
                         >= k v(p*) + rstar_threshold   for every n;
      n-independence:  the (p*)^{-k}-scaled quantities agree pairwise to
                         v >= v(p*) + rstar_threshold   across n_list.
    """
    if r < 1 or c < 1 or k < 0:
        raise PreconditionViolated("need r >= 1, c >= 1, k >= 0")
    n_list = _sorted_n_list(n_list)
    ps_val = int_valuation(ctx.p_star, ctx.p)
    thr = rstar_threshold(ctx.p)
    req_member = k * ps_val + thr
    req_indep = ps_val + thr
    cell = _Cell(ctx, chi, "53", r, z, lattice_r=r,
                 depth=max(req_member, req_indep + k * ps_val), c=c, k=k)
    return cell.families(_diff_pairs(c, k), n_list, req_member, req_indep,
                         Fraction(1, ctx.p_star**k))


def verify_thm54(ctx: QContext, chi: DirichletCharacter, r: int, n: int,
                 c: int, k: int, k_prime: int, z) -> CongruenceReport:
    """Agreement of two operator powers with k = k' (mod p-1):

        v( [(p*)^{-k} Delta_c^k - (p*)^{-k'} Delta_c^{k'}]
             (B_n^r(z) - B_n^r(0)) )  >=  1 + rstar_threshold.
    """
    if r < 1 or n < 1 or c < 1 or k < 1 or k_prime < 1:
        raise PreconditionViolated("need r, n, c, k, k' >= 1")
    if (k - k_prime) % (ctx.p - 1) != 0:
        raise PreconditionViolated(
            "k = %d and k' = %d differ mod p - 1 = %d" % (k, k_prime, ctx.p - 1)
        )
    ps_val = int_valuation(ctx.p_star, ctx.p)
    required = 1 + rstar_threshold(ctx.p)
    cell = _Cell(ctx, chi, "54", r, z, lattice_r=r,
                 depth=required + max(k, k_prime) * ps_val,
                 c=c, k=(k, k_prime))

    def scaled_quantity(j):
        op = cell.operator(_diff_pairs(c, j))
        return cell.witness(op, n) * Fraction(1, ctx.p_star**j)

    w = scaled_quantity(k) - scaled_quantity(k_prime)
    return cell.report("k-pair", n, w, required)


def verify_binom_op_thm(ctx: QContext, chi: DirichletCharacter, r: int,
                        n_list, c: int, k: int, z) -> list:
    """Binomial-coefficient operator congruence:

      membership:      v( ((p*)^{-1}Delta_c choose k) B_n^r(z) - same at 0 )
                         >= rstar_threshold;
      n-independence:  pairwise to v >= v(p*) + rstar_threshold.

    The admissible z lattice here omits the factor r (the two operator
    statements are printed with different hypotheses; both are implemented
    as stated).  Each report carries the Stirling expansion used.
    """
    if r < 1 or c < 1 or k < 0:
        raise PreconditionViolated("need r >= 1, c >= 1, k >= 0")
    n_list = _sorted_n_list(n_list)
    ps_val = int_valuation(ctx.p_star, ctx.p)
    thr = rstar_threshold(ctx.p)
    req_member = thr
    req_indep = ps_val + thr
    depth = (max(req_member, req_indep) + k * ps_val
             + int_valuation(factorial(k), ctx.p))
    cell = _Cell(ctx, chi, "binop", r, z, lattice_r=1, depth=depth, c=c, k=k,
                 stirling_terms=[[m, s] for m, s in stirling_expansion(k)])
    return cell.families(_binom_pairs(c, k, ctx.p_star), n_list,
                         req_member, req_indep)


def _is_prime_power_of(f: int, p: int) -> bool:
    while f % p == 0:
        f //= p
    return f == 1


def verify_classical_kummer(p: int, n: int, c: int, k: int,
                            chi: DirichletCharacter = None) -> CongruenceReport:
    """Exact-rational Kummer baseline: p^{-k} Delta_c^k (B_n / n) lies in Z_p.

    With chi given (order <= 2 so values are rational, conductor not a power
    of p), the sequence is B_{n,chi}/n instead.  The whole computation is in
    Q, so the verdict is unconditional.
    """
    _require_prime(p)
    if n < 1 or c < 1 or k < 0:
        raise PreconditionViolated("need n >= 1, c >= 1, k >= 0")
    if chi is None:
        if c % (p - 1) != 0:
            raise PreconditionViolated("c must be divisible by p - 1")
        if n % 2 != 0:
            raise PreconditionViolated("n must be even")
        if n % (p - 1) == 0:
            raise PreconditionViolated("n must not be divisible by p - 1")
        if n <= k:
            raise PreconditionViolated("need n > k")

        def seq(m):
            return bernoulli_number(m) / m
    else:
        if chi.order > 2:
            raise PreconditionViolated(
                "exact rational evaluation needs a character of order <= 2"
            )
        if _is_prime_power_of(chi.conductor, p):
            raise PreconditionViolated(
                "conductor must not be a power of p (including 1)"
            )

        def seq(m):
            return multi_gen_bernoulli_poly(m, 1, chi) / m

    w = forward_diff(seq, n, c, k) / Fraction(p**k)
    if w == 0:
        obs = inf
    else:
        obs = fraction_valuation(w, p)
    point = {"p": p, "n": n, "c": c, "k": k}
    if chi is not None:
        point["chi"] = chi.to_dict()
    return CongruenceReport(
        "classical", "integrality", point, 0, obs, obs >= 0, False,
        _value_doc(w), ("exact rational arithmetic; no precision bound",),
    )
