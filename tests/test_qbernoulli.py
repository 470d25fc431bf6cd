"""Carlitz and pure-sum q-Bernoulli families: closed forms, expansion
identities, convention plumbing."""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from qpl import (
    DomainError,
    Lpq_special,
    Lq_special,
    NormalizationUnresolved,
    PadicNumber,
    PrecisionExhausted,
    QContext,
    QplError,
    carlitz_beta,
    char_build,
    gen_q_beta_poly,
    induce,
    iwasawa_log,
    kim_sum_of_products,
    multi_gen_q_beta_poly,
    multi_q_beta_poly,
    omega_pow,
    principal_char,
    volkenborn_beta_poly,
)
from qpl.characters import DirichletCharacter, eta_order
from qpl.classical import norlund_poly, pochhammer, residue_sums
from qpl.padic import (
    _ceil_log,
    _normalize,
    _ppow,
    _require_integral,
    _scaled_exponent,
    int_valuation,
)
from qpl import lfunctions, padic, qbernoulli
from qpl.qbernoulli import beta_table, series_beta, series_beta_floor

from helpers import (
    assert_agree,
    assert_exact_zero,
    bound_of,
    digits_of,
    sample_qs,
)

CTX = QContext(5, Fraction(6), 14)


def certificate(single_beta, r_max):
    return {"normalization": "n+r", "single_beta": single_beta,
            "r_max": r_max}


def qp(x):
    return PadicNumber.from_fraction(Fraction(x), 5, 20)


def test_beta_zero_closed_form():
    # (q - 1) / log q, checked cross-multiplied to avoid the division
    b0 = carlitz_beta(CTX, 0)
    logq = iwasawa_log(qp(6))
    assert_agree(b0 * logq, qp(5), 14)


def test_beta_one_closed_form():
    b1 = carlitz_beta(CTX, 1)
    rhs = qp(Fraction(1, 5)) - 1 / iwasawa_log(qp(6))
    assert_agree(b1, rhs, 13)


def test_pure_multiple_diagonal():
    # beta^(r)_r = (-1)^r r! / (1-q)^r
    for r in (1, 2, 3):
        got = multi_q_beta_poly(CTX, r, r, 0)
        want = qp(Fraction((-1) ** r * math.factorial(r), (1 - 6) ** r))
        assert_agree(got, want, 12)


def test_pure_multiple_below_order_vanishes():
    for r in (1, 2, 3):
        for n in range(r):
            assert_exact_zero(multi_q_beta_poly(CTX, n, r, 0))


def test_second_order_second_index():
    assert_agree(multi_q_beta_poly(CTX, 2, 2, 0), qp(Fraction(2, 25)), 12)


def test_carlitz_recurrence():
    # beta_0 log Q = Q - 1 and (Q beta + 1)^n - beta_n = [n = 1] for n >= 1
    # fix the Carlitz numbers at base Q = q^d, apart from the closed form
    # they are computed from
    for p in (2, 3, 5, 7, 11, 13):
        pstar = 4 if p == 2 else p
        ctx = QContext(p, sample_qs(p)[0], 14)
        for d in (1, pstar, 3 * pstar):
            Q = PadicNumber.from_fraction(ctx.q ** d, p, 40)
            carlitz_beta(ctx, 30, d)       # top index first: one build
            betas = [carlitz_beta(ctx, k, d) for k in range(31)]
            assert_agree(betas[0] * iwasawa_log(Q), Q - 1, 14)
            for n in range(1, 31):
                acc = -betas[n]
                for k in range(n + 1):
                    acc = acc + betas[k] * math.comb(n, k) * Q ** k
                target = 1 if n == 1 else 0
                assert bound_of(acc - target) >= 14, (p, d, n)


def test_carlitz_poly_expansion():
    # beta_n(x) = sum C(n,k) Q^(kx) beta_k [x]_Q^(n-k) at base Q = q^d
    for ctx in (CTX, QContext(7, Fraction(8), 14)):
        p = ctx.p
        for d in (1, p):
            for n in range(7):
                for x in (1, 2, Fraction(1, 2), Fraction(5, 3)):
                    lhs = volkenborn_beta_poly(ctx, n, 1, x, d)
                    rhs = PadicNumber.exact_zero(p, 20)
                    for k in range(n + 1):
                        rhs = rhs + (carlitz_beta(ctx, k, d) * math.comb(n, k)
                                     * ctx.q_power(d, k * x, 20)
                                     * ctx.q_bracket(d, x, 20) ** (n - k))
                    assert_agree(lhs, rhs, 12)
    # the exponent of q^(1/2) is not 2-adically integral; this holds at
    # n = 0 too, where beta_0(x) does not depend on x
    ctx = QContext(2, Fraction(5), 10)
    for n in (0, 3):
        with pytest.raises(DomainError):
            volkenborn_beta_poly(ctx, n, 1, Fraction(1, 2))


def test_pure_multiple_expansion():
    # same shape with an extra q^((1-r) z) prefactor on the sum
    for r in (2, 3):
        for n in range(5):
            for z in (1, 2):
                lhs = multi_q_beta_poly(CTX, n, r, z)
                rhs = PadicNumber.exact_zero(5, 20)
                for k in range(n + 1):
                    rhs = rhs + (multi_q_beta_poly(CTX, k, r, 0)
                                 * math.comb(n, k)
                                 * CTX.q_power(1, k * z, 24)
                                 * CTX.q_bracket(1, z, 24) ** (n - k))
                rhs = rhs * CTX.q_power(1, (1 - r) * z, 24)
                assert_agree(lhs, rhs, 12)


def test_multi_q_beta_poly_checks_domain_below_order():
    # the value is 0 for n < r, but x must lie in the domain of Q^x there
    # too, as from n = r on and in the other families at n = 0
    ctx = QContext(2, Fraction(5), 6)
    for n, r in ((0, 1), (1, 2), (2, 2)):
        with pytest.raises(DomainError, match="not p-adically integral"):
            multi_q_beta_poly(ctx, n, r, Fraction(1, 2))
    assert multi_q_beta_poly(ctx, 1, 2, Fraction(1, 3)).is_exact_zero


def exact_multi_q_beta_poly(ctx, n, r, x, d):
    """The docstring formula of multi_q_beta_poly with exact-rational
    coefficients, each reduced by PadicNumber.from_fraction, at the
    working precision multi_q_beta_poly documents; also returns u = Q^x."""
    p = ctx.p
    vd = ctx.v_q1 + int_valuation(d, p)
    vmin = (r - n) * vd - r * (vd + _ceil_log(p, n - r + 1))
    rel = ctx.prec - vmin + 2
    u = ctx.q_power(d, x, rel)
    Q = ctx.q ** d
    acc = PadicNumber.exact_zero(p, ctx.prec)
    for j in range(n - r + 1):
        coeff = Fraction(math.comb(n - r, j) * (-1) ** j) / (1 - Q ** (j + 1)) ** r
        acc = acc + PadicNumber.from_fraction(coeff, p, rel) * u ** (j + 1)
    pref = (-1) ** r * math.perm(n, r) * (1 - Q) ** (r - n)
    return PadicNumber.from_fraction(pref, p, rel) * acc, u.rel > rel


def test_multi_q_beta_poly_matches_exact_rationals():
    # Bit for bit against the exact-rational formula: p in {2,3,5,7,13},
    # q integer, with a denominator prime to p and negative, x in
    # {0, integer, a/d, 1/2}, n <= 40, r <= 4, d <= 14, prec 1..40.
    rng = random.Random(20061)
    wide_u = 0
    for case in range(240):
        p = (2, 3, 5, 7, 13)[case % 5]
        q = sample_qs(p)[case // 5 % 3]
        ctx = QContext(p, q, rng.randint(1, 40))
        r = rng.randint(1, 4)
        n = rng.randint(r, 40)
        d = rng.randint(1, 14)
        x = (0, rng.randint(1, 9), Fraction(rng.randint(1, 3 * d), d),
             Fraction(1, 2))[case // 15 % 4]
        try:
            want, wide = exact_multi_q_beta_poly(ctx, n, r, x, d)
        except DomainError:
            # q^(d/2) at p = 2 and odd d has no 2-adically integral exponent
            with pytest.raises(DomainError):
                multi_q_beta_poly(ctx, n, r, x, base_power=d)
            continue
        got = multi_q_beta_poly(ctx, n, r, x, base_power=d)
        assert digits_of(got) == digits_of(want), (p, q, ctx.prec, n, r, d, x)
        wide_u += wide
    # padic_exp hands back one digit more than asked at x = 1/2
    assert wide_u > 0


def test_gen_q_beta_modulus_one():
    one = principal_char(5)
    for n in range(5):
        for z in (0, 1, 3):
            assert_agree(gen_q_beta_poly(CTX, n, one, z),
                         volkenborn_beta_poly(CTX, n, 1, z + 1), 12)


def test_multi_gen_reduces_to_gen():
    w2 = omega_pow(5, 2)
    for n in (1, 2, 3):
        assert_agree(multi_gen_q_beta_poly(CTX, n, 1, w2, 2),
                     gen_q_beta_poly(CTX, n, w2, 2), 14)


def test_gen_q_beta_matches_definition():
    # [f]_q^(n-1) sum_a chi(a) beta_{n,q^f}((a+z)/f) term by term at f = 5,
    # with exactly ctx.prec digits, with and without the Carlitz term
    wide = CTX.with_precision(30)
    for chi in (omega_pow(5, 1), induce(principal_char(5), 5)):
        for n in (0, 1, 2, 3, 6, 10):
            for z in (0, 2):
                want = PadicNumber.exact_zero(5, 30)
                for a in range(1, 6):
                    if chi.exponent(a) is not None:
                        want = want + chi.eval(a, 30) * volkenborn_beta_poly(
                            wide, n, 1, Fraction(a + z, 5), 5)
                want = want * wide.q_bracket(1, 5) ** (n - 1)
                got = gen_q_beta_poly(CTX, n, chi, z)
                assert got.prec == CTX.prec, (chi, n, z)
                assert_agree(got, want, CTX.prec)
    # z must lie in the domain of q^z at n = 0 too, as in volkenborn_beta_poly
    ctx = QContext(2, Fraction(5), 10)
    for n in (0, 3):
        with pytest.raises(DomainError):
            gen_q_beta_poly(ctx, n, principal_char(2), Fraction(1, 2))


def test_measured_valuations_carlitz():
    vals = []
    for n in range(12):
        b, _ = carlitz_beta(CTX, n).valuation_bound()
        vals.append(b)
    assert vals == [0, 0, 0, 0, -1, 2, 0, 0, -1, 2, 1, 0]


def test_carlitz_beta_floor():
    # The floor the k-series truncation rests on: v(beta_k) >= -1 for every
    # k and base q^F, attained at every p.
    for p in (2, 3, 5, 7, 11, 13):
        pstar = 4 if p == 2 else p
        for q in ((5, 13) if p == 2 else (1 + p, 1 + p * p)):
            ctx = QContext(p, Fraction(q), 6, convention="carlitz")
            assert series_beta_floor(ctx, 1) == -1
            for F in (1, pstar, 3 * pstar):
                carlitz_beta(ctx, 40, F)       # top index first: one build
                vals = [carlitz_beta(ctx, k, F).valuation_bound()
                        for k in range(41)]
                assert all(exact for _, exact in vals)
                assert min(v for v, _ in vals) == -1, (p, q, F)
    carl = QContext(5, Fraction(6), 6, convention="carlitz")
    assert series_beta_floor(carl, 2) is None
    assert series_beta_floor(CTX, 1) is None


def test_measured_valuations_pure_base_power():
    vals = [bound_of(series_beta(CTX, k, 1, base_power=5)) for k in range(1, 8)]
    assert vals == [-2 * k for k in range(1, 8)]
    assert series_beta(CTX, 0, 1, base_power=5).is_exact_zero


def test_series_beta_conventions():
    carl = QContext(CTX.p, CTX.q, CTX.prec, convention="carlitz")
    assert_agree(series_beta(carl, 1, 1), carlitz_beta(CTX, 1), 14)
    b0 = carlitz_beta(CTX, 0)
    assert_agree(series_beta(carl, 0, 2), b0 * b0, 14)
    # order 2 under carlitz is the integral family, (b0^2 - 1)/(1 - q) at k = 1
    b12 = series_beta(carl, 1, 2)
    assert_agree(b12, volkenborn_beta_poly(CTX, 1, 2, 0), 14)
    assert_agree(b12, (b0 * b0 - 1) / (1 - qp(6)), 12)
    assert series_beta(CTX, 1, 2).is_exact_zero          # pure: k < r
    assert_agree(series_beta(CTX, 3, 2), multi_q_beta_poly(CTX, 3, 2, 0), 14)


def test_precision_honesty():
    wide = CTX.with_precision(24)
    for (n, r, z) in ((3, 1, 0), (4, 2, 1), (5, 2, 0)):
        narrow = multi_q_beta_poly(CTX, n, r, z)
        reference = multi_q_beta_poly(wide, n, r, z)
        assert_agree(narrow, reference, narrow.prec)


def test_beta_table_caching():
    ctx = QContext(5, Fraction(6), 10)
    t1 = beta_table(ctx, 1)
    t2 = beta_table(ctx, 1)
    assert t1 is t2
    # precision variants share tables; independent contexts do not
    assert beta_table(ctx.with_precision(16), 1) is t1
    assert beta_table(QContext(5, Fraction(6), 10), 1) is not t1


def test_beta_table_extends_only_missing(monkeypatch):
    # an ascending caller builds each index once, and gets the values of a
    # build that asks the top index first
    built = []
    run = qbernoulli._carlitz_run

    def counting(ctx, lo, n_max, d, target):
        built.extend(range(lo, n_max + 1))
        return run(ctx, lo, n_max, d, target)

    monkeypatch.setattr(qbernoulli, "_carlitz_run", counting)
    ctx = QContext(5, Fraction(6), 12)
    ascending = [carlitz_beta(ctx, k) for k in range(31)]
    assert built == list(range(31))
    top = QContext(5, Fraction(6), 12)
    carlitz_beta(top, 30)
    for k, b in enumerate(ascending):
        assert b.prec >= 12
        assert_agree(b, carlitz_beta(top, k), 12)
    # a higher target rebuilds every entry
    built.clear()
    carlitz_beta(ctx.with_precision(16), 3)
    assert built == list(range(31))


def _carlitz_run_loop(ctx, lo, n_max, d, target):
    """The per-index loop that _carlitz_run replaced: one r = 1
    multi_q_beta_poly value, so one coefficient table, per index."""
    beta_0, ratio = qbernoulli._carlitz_constants(
        ctx, d, target + n_max * qbernoulli._base_valuation(ctx, d) + 2)
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


def _run_outcome(run, *args):
    try:
        return [digits_of(b) + (b.is_exact_zero,) for b in run(*args)]
    except QplError as exc:
        return (type(exc).__name__, str(exc))


def test_carlitz_run_matches_per_index_tables(monkeypatch):
    # Every (p, q, d, run) of the grid, the target cycling through its
    # values, against the transcribed loop on a fresh context each
    targets = (1, 5, 12, 40, 90)
    runs = ((0, 0), (0, 1), (0, 30), (0, 60), (7, 19), (31, 31))
    cases = 0
    for p in (2, 3, 5, 7, 11, 13):
        ps = 4 if p == 2 else p
        for q in sample_qs(p)[:2]:          # an integer and a Fraction
            for d in (1, 2, ps, 3 * ps, ps * ps):
                for lo, n_max in runs:
                    target = targets[cases % len(targets)]
                    args = (lo, n_max, d, target)
                    got = _run_outcome(qbernoulli._carlitz_run,
                                       QContext(p, q, 7), *args)
                    assert got == _run_outcome(
                        _carlitz_run_loop, QContext(p, q, 7), *args), \
                        (p, q, args)
                    cases += 1
    # a table extended past its end, then rebuilt at a higher target
    tables = []
    for run in (qbernoulli._carlitz_run, _carlitz_run_loop):
        monkeypatch.setattr(qbernoulli, "_carlitz_run", run)
        table = qbernoulli.QBernoulliTable(QContext(7, Fraction(8), 7), 7)
        steps = []
        for n, target in ((0, 12), (12, 12), (20, 12), (20, 30), (25, 20)):
            table.extend(n, target)
            steps.append([digits_of(b) for b in table.entries])
        tables.append(steps)
    assert tables[0] == tables[1]
    assert [len(step) for step in tables[0]] == [1, 13, 21, 21, 26]


def test_carlitz_run_builds_no_coefficient_tables(monkeypatch):
    # One unit vector for the whole run, inverted once; the loop built a
    # coefficient table, with its own inversion, for every index
    ctx = QContext(5, Fraction(6), 12)
    multi_q_beta_poly(ctx, 4, 2, 0)
    tables = list(ctx._coeff_tables.items())
    calls = {"_unit_inverses": 0, "multi_q_beta_poly": 0}

    def counted(name):
        fn = getattr(qbernoulli, name)

        def wrapper(*a, **k):
            calls[name] += 1
            return fn(*a, **k)
        return wrapper

    for name in calls:
        monkeypatch.setattr(qbernoulli, name, counted(name))
    assert len(qbernoulli._carlitz_run(ctx, 0, 59, 5, 40)) == 60
    assert calls == {"_unit_inverses": 1, "multi_q_beta_poly": 0}, calls
    assert list(ctx._coeff_tables.items()) == tables


def test_base_power_zero_is_refused():
    # q^0 = 1 divides by 1 - Q = 0: refused before any work, and no beta
    # table is left in the context memo
    ctx = QContext(5, Fraction(6), 12)
    memo = dict(ctx._cache)
    for f, args in ((carlitz_beta, (3, 0)),
                    (multi_q_beta_poly, (3, 1, 0, 0)),
                    (multi_q_beta_poly, (0, 1, 0, 0)),
                    (volkenborn_beta_poly, (3, 2, 0, 0)),
                    (beta_table, (0,))):
        with pytest.raises(DomainError, match="base q\\^0 = 1 is degenerate"):
            f(ctx, *args)
    assert ctx._cache == memo and not ctx._coeff_tables


def test_kim_matches_resolved_normalization():
    cert = certificate("pure_sum", 1)
    for n in range(4):
        for z in (0, 1, 2):
            got = kim_sum_of_products(CTX, n, 1, [z], cert)
            want = multi_q_beta_poly(CTX, n + 1, 1, z)
            assert_agree(got, want, 12)
    with pytest.raises(ValueError):
        kim_sum_of_products(CTX, 2, 1, [0, 0], cert)
    with pytest.raises(ValueError, match="need n >= 0 and r >= 1"):
        kim_sum_of_products(CTX, -1, 1, [0], cert)


def _kim_reference(ctx, n, r, z_list, convention):
    """The composition walk over i_1+...+i_r = n+r with exact multinomials,
    independent of the convolution order kim_sum_of_products uses."""
    p, N = ctx.p, n + r

    def single(m, z):
        if convention == "carlitz":
            return volkenborn_beta_poly(ctx, m, 1, z)
        if m == 0:
            return PadicNumber.exact_zero(p, ctx.prec)
        return multi_q_beta_poly(ctx, m, 1, z)

    total = PadicNumber.exact_zero(p, ctx.prec)
    for comp in itertools.product(range(N + 1), repeat=r):
        if sum(comp) != N:
            continue
        multinom = math.factorial(N)
        for i in comp:
            multinom //= math.factorial(i)
        term = PadicNumber.from_int(multinom, p, ctx.prec)
        running = N
        for j in range(r - 1):
            running -= comp[j]
            inner = PadicNumber.exact_zero(p, ctx.prec)
            for k in range(running + 1):
                w = math.comb(running, k) * (ctx.q - 1) ** k
                inner = inner + PadicNumber.from_fraction(w, p, ctx.prec) \
                    * single(k + comp[j], z_list[j])
            term = term * inner
        total = total + term * single(comp[-1], z_list[-1])
    return total


@pytest.mark.parametrize("convention", ("pure_sum", "carlitz"))
def test_kim_matches_composition_walk(convention):
    wide = CTX.with_precision(40)
    for r in (2, 3):
        for n in range(4):
            for z_list in ([0] * r, [1, 2, 3][:r]):
                got = kim_sum_of_products(CTX, n, r, z_list,
                                          certificate(convention, 3))
                want = _kim_reference(wide, n, r, z_list, convention)
                assert got.prec == CTX.prec, (r, n, z_list)
                assert want.prec >= CTX.prec
                assert_agree(got, want, CTX.prec)


def test_kim_checks_every_shift():
    # q^(1/2) has no 2-adically integral exponent, so both lists are
    # refused, although their sums 1 and 2 lie in the domain
    ctx = QContext(2, Fraction(5), 10)
    for convention in ("pure_sum", "carlitz"):
        for z_list in ([Fraction(1, 2)] * 2,
                       [Fraction(1, 2), Fraction(3, 2)]):
            with pytest.raises(DomainError):
                kim_sum_of_products(ctx, 1, 2, z_list,
                                    certificate(convention, 2))
            assert volkenborn_beta_poly(ctx, 3, 2, sum(z_list)).prec == 10


def test_volkenborn_matches_riemann_sums():
    # The r-fold q-Volkenborn integral against its unweighted Riemann sums
    # [p^m]_Q^(-r) sum_{t in [0, p^m)^r} [x + t_1+...+t_r]_Q^N in exact
    # rationals, the tuples grouped by their sum; independent of the
    # expansion in powers of Q^x.  The sums approach it to valuation m.
    for p in (3, 5):
        ctx = QContext(p, Fraction(1 + p), 12)
        for d in (1, p):
            Q = (1 + p) ** d

            def bracket(y):
                return (Q ** y - 1) // (Q - 1)

            for m in (1, 2, 3):
                M = p ** m
                counts = [1]
                for r in (1, 2, 3):
                    # counts[s]: r-tuples in [0, M)^r with sum s
                    counts = [sum(counts[max(0, s - M + 1):s + 1])
                              for s in range(len(counts) + M - 1)]
                    for N in (1, 2, 4):
                        for x in (0, 2):
                            total = sum(c * bracket(x + s) ** N
                                        for s, c in enumerate(counts))
                            riemann = PadicNumber.from_fraction(
                                Fraction(total, bracket(M) ** r), p, 40)
                            got = volkenborn_beta_poly(ctx, N, r, x, d)
                            assert got.prec == ctx.prec
                            assert bound_of(got - riemann) >= m, \
                                (p, d, m, r, N, x)


def test_volkenborn_order_one_is_carlitz():
    # At r = 1 the integral vector is the pure-sum one: the family is the
    # Carlitz polynomial, and without beta_0 (the pure-sum certificate's
    # Kim value) it is the pure-sum single.
    for p in (2, 3, 5, 7):
        pstar = 4 if p == 2 else p
        for q in sample_qs(p):
            ctx = QContext(p, q, 12)
            for d, x, n in itertools.product(
                    (1, pstar), (0, 1, Fraction(1, 2), Fraction(5, 3)),
                    range(10)):
                try:
                    pure = multi_q_beta_poly(ctx, n, 1, x, base_power=d)
                except DomainError:
                    with pytest.raises(DomainError):
                        volkenborn_beta_poly(ctx, n, 1, x, d)
                    continue
                # the Carlitz closed form: the pure-sum single plus
                # beta_0 (1 - Q)^(-n), with two guard digits
                vd = ctx.v_q1 + int_valuation(d, p)
                term = qbernoulli._carlitz_term(ctx, n, 1, d,
                                                ctx.prec + n * vd + 2)
                want = pure + term
                assert want.prec >= ctx.prec
                got = volkenborn_beta_poly(ctx, n, 1, x, d)
                assert got.prec == ctx.prec
                assert_agree(got, want, ctx.prec)
                assert_agree(got - term, pure, ctx.prec)
                if x == 0:
                    assert_agree(got, carlitz_beta(ctx, n, d), ctx.prec)
                if d == 1 and n >= 1:
                    kim = kim_sum_of_products(ctx, n - 1, 1, [x],
                                              certificate("pure_sum", 1))
                    assert kim.prec == ctx.prec
                    assert_agree(kim, pure, ctx.prec)


def _stirling2(r, k):
    """Stirling numbers of the second kind, by inclusion-exclusion."""
    return sum((-1) ** (k - j) * math.comb(k, j) * j ** r
               for j in range(k + 1)) // math.factorial(k)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_integral_family_is_a_finite_pure_sum_combination(p):
    # For n >= r, with N = n - k + i + r and n_(k) = n!/(n-k)!,
    #   beta^int_n(x) = beta_0^r (1-Q)^(-n) + sum_{k<=r} sum_{i<k} S(r,k)
    #     (-1)^(k+r) C(k-1,i) (n_(k)/N_(r)) (1-Q)^(r-k) (Q-1)^i beta^pure_N(x)
    # at base Q = q^d, beta_0 = (Q - 1)/log Q, to ctx.prec in every cell
    ctx = QContext(p, Fraction(1 + p), 40)
    for d in (1, 2, p):
        Q = PadicNumber.from_fraction(ctx.q ** d, p, 80)
        beta_0 = (Q - 1) / iwasawa_log(Q)
        for r, x in itertools.product((1, 2, 3), (0, 1, p)):
            for n in range(r, 8):
                want = beta_0 ** r / (1 - Q) ** n
                for k in range(1, r + 1):
                    for i in range(k):
                        N = n - k + i + r
                        c = Fraction(_stirling2(r, k) * (-1) ** (k + r)
                                     * math.comb(k - 1, i) * math.perm(n, k),
                                     math.perm(N, r))
                        want = want + c * (1 - Q) ** (r - k) * (Q - 1) ** i \
                            * multi_q_beta_poly(ctx, N, r, x, d)
                assert want.prec >= ctx.prec, (d, r, x, n)
                assert_agree(volkenborn_beta_poly(ctx, n, r, x, d), want,
                             ctx.prec)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_integral_window_sum_adds_the_beta0_term(p):
    # The integral family's window sum, whose beta_0^r (1 - Q)^(-n) term is
    # added for a principal character only, against the sum over residue
    # vectors of volkenborn_beta_poly values, which carry the term each: it
    # sums to 0 over the full periods of any other character
    ps = 4 if p == 2 else p
    ctx = QContext(p, Fraction(1 + ps), 10)
    wide = ctx.with_precision(30)
    w = omega_pow(p, 1)
    one = principal_char(p)
    half = Fraction(1, 3 if p == 2 else 2)
    for chi, r in itertools.product(
            (one, induce(one, ps), induce(one, 2 * ps), w, induce(w, 2 * ps)),
            (1, 2, 3)):
        F = chi.modulus
        sums = Counter(map(sum, itertools.product(range(1, F + 1), repeat=r)))
        for n, z in itertools.product(range(6), (0, 2, half)):
            want = PadicNumber.exact_zero(p, 30)
            for t, count in sums.items():
                if chi.exponent(t) is not None:
                    want = want + count * chi.eval(t, 30) * \
                        volkenborn_beta_poly(wide, n, r, Fraction(z + t, F), F)
            want = want * wide.q_bracket(1, F) ** (n - r)
            got = qbernoulli._window_sum(ctx, qbernoulli._INTEGRAL, n, r, chi,
                                         z, F, residue_sums(F, r, chi))
            assert got.prec == ctx.prec, (chi, r, n, z)
            assert_agree(got, want, ctx.prec)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_no_digit_claimed_beyond_an_approximate_z(p):
    # z known modulo p^K: every digit a value function claims must hold for
    # each exact z0 + c p^K its unknown digits allow, taken at precision 40.
    # One failing perturbation disproves a claim; a refusal claims nothing.
    ps = 4 if p == 2 else p
    w = omega_pow(p, 1)
    functions = (
        lambda ctx, z: multi_q_beta_poly(ctx, 4, 2, z),
        lambda ctx, z: volkenborn_beta_poly(ctx, 4, 2, z),
        lambda ctx, z: volkenborn_beta_poly(ctx, 3, 1, z),
        lambda ctx, z: gen_q_beta_poly(ctx, 3, w, z),
        lambda ctx, z: gen_q_beta_poly(ctx, 3, induce(principal_char(p), ps),
                                       z),
        lambda ctx, z: multi_gen_q_beta_poly(ctx, 3, 2, w, z),
        lambda ctx, z: Lpq_special(ctx, 2, 1, w, z),
        lambda ctx, z: Lpq_special(ctx, 1, 2, w, z),
    )
    claimed = refused = 0
    for q in (1 + ps, 1 + ps * p):
        ctx, ref = QContext(p, q, 14), QContext(p, q, 40)
        for z0, K in itertools.product((1, p), (6, 10, 14, 18, 22)):
            z = PadicNumber.from_fraction(z0, p, K - int_valuation(z0, p))
            assert z.prec == K
            for f in functions:
                try:
                    got = f(ctx, z)
                except PrecisionExhausted:
                    refused += 1
                    continue
                claimed += 1
                for c in (1, 2, -1, 7):
                    assert_agree(got, f(ref, z0 + c * p ** K), got.prec)
    assert claimed and refused


def test_coeff_tables_keep_families_apart():
    # At n = r both families ask the table cache for the same (n, r, d,
    # rel).  Interleaved on one context, every value is the fresh one.
    shared = QContext(5, Fraction(6), 12)
    calls = []
    for n, r, d in ((2, 2, 1), (3, 3, 5), (4, 2, 1), (5, 3, 5)):
        for x in (0, Fraction(1, 2)):
            calls.append((multi_q_beta_poly, n, r, x, d))
            calls.append((volkenborn_beta_poly, n, r, x, d))
    for f, n, r, x, d in calls + calls[::-1]:
        fresh = QContext(5, Fraction(6), 12)
        assert digits_of(f(shared, n, r, x, d)) == \
            digits_of(f(fresh, n, r, x, d)), (f.__name__, n, r, x, d)


def _pure_window(ctx, n, r, chi, z, F, rows):
    return qbernoulli._window_sum(ctx, qbernoulli._PURE_SUM, n, r, chi, z, F,
                                  rows)


def _window_sum_loop(ctx, n, r, chi, z, F, rows):
    """The per-row PadicNumber loop that _window_sum replaced: one
    multi_q_beta_poly value and two products per row.  An exact zero z
    is the int 0: the loop would coerce each t at the zero's precision."""
    if isinstance(z, PadicNumber) and z.is_exact_zero:
        z = 0
    work = ctx.prec + qbernoulli._beta_headroom(ctx, n, r, F) + 4
    wctx = ctx.with_precision(work)
    if not isinstance(z, PadicNumber):
        z = Fraction(z)
    acc = PadicNumber.exact_zero(ctx.p, work)
    for t, count in rows:
        beta = multi_q_beta_poly(wctx, n, r, (z + t) / F, base_power=F)
        acc = acc + count * chi.eval(t, work) * beta
    return qbernoulli._certified(wctx.q_bracket(1, F) ** (n - r) * acc,
                                 ctx.prec, "special value")


def _outcome(f, *args):
    try:
        return digits_of(f(*args))
    except QplError as exc:
        return (type(exc).__name__, str(exc))


def _window_shifts(p, prec, rng):
    """z of every kind _window_sum takes, several with fewer digits than
    prec, z + t then carrying the precision of z, and exact zeros, which
    are the int 0."""
    den = 3 if p == 2 else 2
    return (rng.randrange(3 * p),
            Fraction(rng.randrange(1, 30, den), den),
            Fraction(1, p),                           # outside Z_p
            PadicNumber.from_fraction(Fraction(rng.randrange(1, 90), 7), p,
                                      prec + 20),
            PadicNumber.from_fraction(Fraction(rng.randrange(1, 90), 7), p,
                                      rng.randrange(1, prec + 1)),
            PadicNumber.from_int(p * rng.randrange(1, p * p), p,
                                 rng.randrange(1, 4)),
            PadicNumber.zero_at(p, rng.randrange(1, 4)),
            PadicNumber.exact_zero(p, rng.randrange(1, 3)))


def _mixed_rows(p, more):
    """Rows at F = 1 whose counts are divisible by p, beside rows with
    p | t of count prime to p, so that a sum that drops v_p(count) keeps
    fewer digits."""
    rows = [(1, p), (p, 1), (2, p)]
    if more:
        rows += ([(t, p * t) for t in range(3, 40)]
                 + [(p * t, t) for t in range(2, 20)])
    return rows


# The per-row kernel of the closed values before the window power sums,
# kept as the reference that _dot_sum must match digit for digit on exact
# weights, and as the kernel of the PadicNumber chain below.

def _horner_sum(p: int, table, rows, digits: int = None) -> PadicNumber:
    """pref sum_{(w, u, k) in rows} w sum_i coeffs[i-1] u^i for a table
    (base, coeffs, pref) of _coeff_table: each u the integer unit of a
    q-power known modulo p^k, each w a nonzero integer, exact or, with
    digits given, known to that many significant digits.

    The module's one Horner loop, in integers modulo p^d for each row, d =
    min(rel, k) with rel = pref.rel (Brent & Zimmermann, Modern Computer
    Arithmetic, 4.4).  One value is built, at the precision of the
    PadicNumber sum of the products w * pref m p^base: each is known
    modulo p^(v(pref) + base + v_p(w) + min(d, v(m) + digits)), reading
    v(m) as d where m = 0 modulo p^d.
    """
    base, coeffs, pref = table
    rel = pref.rel
    total, reach = 0, []
    for w, u, k in rows:
        d = min(rel, k)
        mod = _ppow(p, d)
        m = 0
        for a in reversed(coeffs):
            m = (m + a) * u % mod
        if digits is not None and m:
            d = min(d, int_valuation(m, p) + digits)
        reach.append(d + int_valuation(w, p))
        total += w * m
    # at the row of least v_p(w m) the sum keeps at most d - v(m) <= rel
    # significant digits, all of which the product with pref keeps
    return pref * _normalize(p, total, base, base + min(reach))


def _as_window(p, rows, length):
    """(U, sums, vmin) for _dot_sum of rows (w, u, k) that share one k:
    u = U y for U the first row's u, G_i = sum w y^i and vmin the least
    v_p(w)."""
    k = rows[0][2]
    mod, unit = p ** k, rows[0][1]
    vmin = min(int_valuation(w, p) for w, _, _ in rows)
    sums = [0] * length
    for w, u, _ in rows:
        y = u * pow(unit, -1, mod) % mod
        for i in range(length):
            sums[i] += w * pow(y, i + 1, mod)
    return unit, [g % p ** (k + vmin) for g in sums], vmin


def test_horner_sum_is_the_padic_sum_of_its_rows():
    # One sum over rows equals the PadicNumber sum of weight times each
    # row's one-row sum, digit for digit, for q-powers of different
    # precision, weights divisible by p, and weights known exactly or to
    # so few digits that they bound a row's precision.  On rows of exact
    # weights that share one precision k, the dot sum over the rows' power
    # sums is the Horner sum, digit for digit, and keeps the d + vmin
    # digits they prove, d = min(k, rel) and vmin the least v_p(weight)
    p, rng = 5, random.Random(5)
    ctx = QContext(p, Fraction(6), 12)
    table = qbernoulli._coeff_table(ctx, qbernoulli._PURE_SUM, 6, 2, 5, 20)
    base, _, pref = table
    for _ in range(60):
        rows = []
        for _ in range(rng.randrange(1, 6)):
            u = ctx.q_power(1, rng.randrange(50), rng.randrange(1, 25))
            rows.append((rng.randrange(1, 200), u.unit, u.rel))
        for digits in (None, 1, 3, 30):
            want = PadicNumber.exact_zero(p, 100)
            for w, u, k in rows:
                weight = w if digits is None else PadicNumber.from_int(
                    w, p, digits)
                want = want + weight * _horner_sum(p, table, [(1, u, k)])
            assert digits_of(_horner_sum(p, table, rows, digits)) \
                == digits_of(want), (rows, digits)
        k, scale = rng.randrange(1, 25), p ** rng.randrange(3)
        shared = [(w * scale, ctx.q_power(1, rng.randrange(50), k).unit, k)
                  for w, _, _ in rows]
        unit, sums, vmin = _as_window(p, shared, len(table[1]))
        got = qbernoulli._dot_sum(p, table, unit, k, sums, vmin)
        assert digits_of(got) == digits_of(
            _horner_sum(p, table, shared)), shared
        assert got.prec == pref.val + base + min(k, pref.rel) + vmin, shared


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_window_sum_matches_row_loop(p):
    # Residue rows of every kind of character, with counts divisible by p
    # once r >= 2 and F >= p, and the mixed rows, where a sum that takes
    # one precision for every row, or drops v_p(count), keeps fewer digits
    rng = random.Random(p)
    omega = omega_pow(p, 1)
    chars = (principal_char(p), omega, omega_pow(p, 2),
             induce(omega, omega.modulus * 3))       # imprimitive
    multiple_counts = certified = 0
    for prec in range(1, 31):
        ctx = QContext(p, rng.choice(sample_qs(p)), prec)
        r = rng.randrange(1, 4)
        n = rng.choice((r - 1, r, rng.randrange(r, 13)))
        chi = rng.choice(chars)
        F = chi.modulus * rng.choice((1, 2, p))
        rows = residue_sums(F, r, chi)
        multiple_counts += any(c % p == 0 for _, c in rows)
        for chi, F, rows in ((chi, F, rows),
                             (chars[0], 1, _mixed_rows(p, False))):
            for z in _window_shifts(p, prec, rng):
                args = (ctx, n, r, chi, z, F, rows)
                got = _outcome(_pure_window, *args)
                assert got == _outcome(_window_sum_loop, *args), \
                    (prec, n, r, chi, F, z)
                certified += not isinstance(got[0], str)
    assert multiple_counts > 0 and certified > 0


def _special_chain(ctx, n, r, chi, z, F, rows):
    """The closed form as a chain of PadicNumber operations, the reference
    for its one integer pass: a q_power per row, then [F]_q^(n-r), the
    certification at ctx.prec + v_p((n+1)_r), the Pochhammer scale and the
    certification at ctx.prec."""
    poch = pochhammer(n + 1, r)
    inner = ctx.with_precision(ctx.prec + int_valuation(poch, ctx.p))
    n += r
    work = inner.prec + qbernoulli._beta_headroom(ctx, n, r, F) + 4
    wctx = ctx.with_precision(work)
    z = _scaled_exponent(1, z)
    rel = work + 2
    table = qbernoulli._coeff_table(wctx, qbernoulli._PURE_SUM, n, r, F, rel)
    terms = []
    for t, count in rows:
        u = wctx.q_power(1, z + t, rel)
        terms.append((count * chi.lift(t, work), u.unit, u.rel))
    acc = _horner_sum(ctx.p, table, terms, work)
    window = qbernoulli._certified(wctx.q_bracket(1, F) ** (n - r) * acc,
                                  inner.prec, "special value")
    return qbernoulli._certified(window * Fraction((-1) ** r, poch),
                                 ctx.prec, "special value")


def _Lpq_chain(ctx, n, r, chi, z):
    _require_integral(z, ctx.p)
    h = (n + r) % eta_order(ctx.p)
    chim, M, rows = lfunctions._twisted_window(ctx, chi, r, h)
    return _special_chain(ctx, n, r, chim, _scaled_exponent(ctx.p_star, z), M,
                          rows)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_special_values_match_padic_chain(p):
    # Lq_special and Lpq_special, digit for digit and refusal for
    # refusal, against the PadicNumber chain: at every kind of z and
    # precision 1-30, and on a grid at precision 1-3, where values that
    # are zero at their precision occur
    rng = random.Random(100 + p)
    omega = omega_pow(p, 1)
    chars = (principal_char(p), omega, omega_pow(p, 2),
             induce(omega, omega.modulus * 3))
    points = []
    for prec in range(1, 31):
        ctx = QContext(p, rng.choice(sample_qs(p)), prec)
        n, r, chi = rng.randrange(9), rng.randrange(1, 4), rng.choice(chars)
        F = chi.modulus * rng.choice((1, 2, p))
        points += [(ctx, n, r, chi, z, F)
                   for z in _window_shifts(p, prec, rng)]
    for prec, n, r, chi, z in itertools.product(
            (1, 2, 3), range(6), (1, 2), chars, (0, 1, p)):
        points.append((QContext(p, sample_qs(p)[0], prec), n, r, chi, z,
                       chi.modulus))
    seen = Counter()
    for ctx, n, r, chi, z, F in points:
        for got, want in (
                ((Lq_special, ctx, n, r, chi, z, F),
                 (_special_chain, ctx, n, r, chi, z, F,
                  residue_sums(F, r, chi))),
                ((Lpq_special, ctx, n, r, chi, z),
                 (_Lpq_chain, ctx, n, r, chi, z))):
            got = _outcome(*got)
            assert got == _outcome(*want), (ctx.prec, n, r, chi, F, z)
            seen[got[0] if isinstance(got[0], str)
                 else "zero" if got[1] == 0 else "value"] += 1
    assert all(seen[kind] for kind in ("value", "zero", "PrecisionExhausted",
                                       "DomainError")), seen


def test_power_sums_lift_each_row_once_per_window(monkeypatch):
    # The power sums of a window do not depend on the order, z or F: a
    # second Lpq_special call at the same (chi, r, h), at an order no
    # higher and another z, lifts no character value
    ctx = QContext(5, Fraction(6), 14)
    chi = omega_pow(5, 2)
    lifts = []
    monkeypatch.setattr(DirichletCharacter, "lift",
                        lambda self, a, prec, lift=DirichletCharacter.lift:
                        lifts.append(a) or lift(self, a, prec))
    first = Lpq_special(ctx, 6, 2, chi, 0)
    assert lifts
    lifts.clear()
    for n, z in ((2, 3), (6, Fraction(1, 2)), (2, 0)):
        Lpq_special(ctx, n, 2, chi, z)
    assert lifts == []
    assert digits_of(Lpq_special(ctx, 6, 2, chi, 0)) == digits_of(first)


@pytest.mark.parametrize("p", (5, 7))
def test_special_values_do_not_depend_on_call_order(p):
    # A record built for a high order serves the lower ones, and one
    # built low is rebuilt for the higher ones, also where a z known to
    # few digits asks for fewer digits than the record holds but more
    # power sums: n ascending and n descending, each on a fresh context,
    # give the same digits and the same refusals
    chars = (principal_char(p), omega_pow(p, 1), omega_pow(p, 2))
    for prec in (3, 14):
        short = PadicNumber.from_fraction(Fraction(1, 3), p, prec + 8)
        points = [(n, r, chi, z) for n in range(12) for r in (1, 2, 3)
                  for chi in chars for z in (short, 0, 1, Fraction(1, 2))]
        runs = []
        for step in (1, -1):
            ctx = QContext(p, Fraction(1 + p), prec)
            runs.append([_outcome(Lpq_special, ctx, *point)
                         for point in points[::step]][::step])
        assert runs[0] == runs[1]


@pytest.mark.parametrize("p", (5, 7))
def test_integral_family_tends_to_norlund_as_q_tends_to_one(p):
    # At q = 1 + p^m the integral family is B_n^(r)(0) to within m - 1
    # digits at every order (least 3 and 7 at m = 4 and 8); the pure-sum
    # family moves away as m grows, the counterexample the module
    # docstring gives.  volkenborn_beta_poly at r = 1 is _family_sum's
    # one-row window at r = 1 as at r >= 2.
    least = {}
    for m in (4, 8):
        ctx = QContext(p, Fraction(1 + p ** m), 40)
        for r, n in itertools.product((1, 2, 3), range(9)):
            want = norlund_poly(n, r, 0)
            assert bound_of(volkenborn_beta_poly(ctx, n, r, 0) - want) \
                >= m - 1, (m, r, n)
        least[m] = min(bound_of(multi_q_beta_poly(ctx, n, r, 0)
                                - norlund_poly(n, r, 0))
                       for r, n in itertools.product((1, 2, 3), range(9)))
    assert least[8] < least[4] < 0, least
    if p == 5:
        assert least == {4: -34, 8: -66}


def test_window_sum_makes_no_per_row_padic_operations(monkeypatch):
    # At an integral z, one PadicNumber operation per window, whatever its
    # row count; the loop makes several per row.  At an exact
    # zero z, the digits at z = 0, on the mixed rows.
    ctx = QContext(5, Fraction(6), 1)
    one = principal_char(5)
    windows = (_mixed_rows(5, False), _mixed_rows(5, True))
    for rows in windows:
        args = (ctx, 2, 2, one, PadicNumber.exact_zero(5, 1), 1, rows)
        assert digits_of(_pure_window(*args)) == \
            digits_of(_window_sum_loop(*args)) == \
            digits_of(_pure_window(ctx, 2, 2, one, 0, 1, rows))
    counts = {"ops": 0}

    def counted(fn):
        def wrapper(*a):
            counts["ops"] += 1
            return fn(*a)
        return wrapper

    for name in ("__add__", "__radd__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__pow__"):
        monkeypatch.setattr(PadicNumber, name,
                            counted(getattr(PadicNumber, name)))
    ops = []
    for rows in windows:
        counts["ops"] = 0
        _pure_window(ctx, 2, 2, one, 3, 1, rows)
        ops.append(counts["ops"])
    assert len(windows[1]) > 15 * len(windows[0])
    assert ops == [1, 1], ops
    counts["ops"] = 0
    _window_sum_loop(ctx, 2, 2, one, 3, 1, windows[1])
    assert counts["ops"] > 2 * len(windows[1]), counts["ops"]
    # at a non-integral z, one exponential per window, not one per row
    exps = []
    monkeypatch.setattr(padic, "padic_exp",
                        lambda x, exp=padic.padic_exp: exps.append(x)
                        or exp(x))
    _pure_window(ctx, 2, 2, one, Fraction(1, 2), 1,
                 [(t, 1) for t in range(1, 41)])
    assert len(exps) == 1, len(exps)


def test_certificate_validation():
    # kim_sum_of_products reads its certificate afresh at every call: each
    # refusal below comes from the argument alone, and a good certificate
    # given after a bad one is read as given
    good = certificate("carlitz", 2)
    refusals = [({k: v for k, v in good.items() if k != key}, ValueError,
                 "certificate lacks '%s'" % key)
                for key in ("single_beta", "r_max")]
    refusals += [
        (dict(good, single_beta="bad"), ValueError, "bad single_beta 'bad'"),
        (dict(good, r_max=1), NormalizationUnresolved,
         "certificate covers r <= 1, not r = 2"),
    ]
    want = volkenborn_beta_poly(CTX, 4, 2, 0)
    for cert, error, message in refusals:
        with pytest.raises(error, match=message):
            kim_sum_of_products(CTX, 2, 2, [0, 0], cert)
        assert_agree(kim_sum_of_products(CTX, 2, 2, [0, 0], good), want,
                     CTX.prec)
    # "normalization" chooses the oracle's left side; the right side is the
    # same sum over compositions of n + r under either reading or none
    without = {k: v for k, v in good.items() if k != "normalization"}
    for cert in (dict(good, normalization="n"), without):
        assert digits_of(kim_sum_of_products(CTX, 2, 2, [0, 0], cert)) \
            == digits_of(kim_sum_of_products(CTX, 2, 2, [0, 0], good))


def test_q_to_one_degeneration_fixture(pytestconfig):
    from qpl import bernoulli_number
    path = pytestconfig.rootpath / "tests" / "fixtures" / "q_degeneration.json"
    fixture = json.loads(path.read_text())
    for p in (5, 7):
        block = fixture["p%d" % p]
        ctx = QContext(p, Fraction(1 + p ** 8), fixture["working_precision"])
        for n in range(fixture["n_max"] + 1):
            diff = carlitz_beta(ctx, n) - bernoulli_number(n)
            assert bound_of(diff) == block["observed_valuation"][n]
