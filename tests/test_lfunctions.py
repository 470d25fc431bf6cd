"""Two-variable p-adic q-L-function: special values, the interpolation and
difference identities, and the near-pole series."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from qpl import (
    BudgetExceeded,
    DivergenceDetected,
    DomainError,
    Lpq_at_r,
    Lpq_difference_rhs,
    Lpq_eval,
    Lpq_special,
    Lq_special,
    LParams,
    PadicNumber,
    PoleError,
    QContext,
    choose_F,
    gen_q_beta_poly,
    induce,
    multi_gen_q_beta_poly,
    multi_q_beta_poly,
    omega_pow,
    partial_q_zeta_special,
    pochhammer,
    principal_char,
    q_zeta_special,
)

from qpl import QplError, classical, lfunctions
from qpl.classical import TERM_BUDGET
from qpl.padic import int_valuation
from qpl.qbernoulli import _certified

from helpers import assert_agree, bound_of, digits_of, sample_qs


@pytest.fixture(scope="module")
def ctx():
    return QContext(5, Fraction(6), 14)


def test_choose_F_values():
    assert choose_F(1, 5, 1) == 5
    assert choose_F(1, 5, 2, "difference") == 10
    assert choose_F(1, 5, 3, "difference") == 15
    assert choose_F(1, 7, 2, "difference") == 14
    assert choose_F(3, 5, 1) == 15
    assert choose_F(5, 2, 1) == 20


def test_q_zeta_from_pure_multiples(ctx):
    # zeta_q(-n) carries (-1)^r / (n+1)_r against the order-r pure value.
    for r in (1, 2, 3):
        for n in range(4):
            for z in (1, 6):
                lhs = q_zeta_special(ctx, n, r, z)
                scale = Fraction((-1) ** r, pochhammer(n + 1, r))
                rhs = multi_q_beta_poly(ctx, n + r, r, z) * scale
                assert bound_of(lhs - rhs) >= ctx.prec - 2


def test_q_zeta_domain(ctx):
    with pytest.raises(ValueError):
        q_zeta_special(ctx, -1, 1, 1)
    with pytest.raises(ValueError):
        q_zeta_special(ctx, 2, 0, 1)


def test_partial_sums_reassemble(ctx):
    # Summing the residue-class pieces over a full window recovers the
    # global value shifted by the window order.
    F = 10
    for r in (1, 2):
        for n in (1, 2):
            for z in (0, 5):
                if r == 1:
                    pieces = [partial_q_zeta_special(ctx, n, 1, [a], F, z)
                              for a in range(1, F + 1)]
                else:
                    pieces = [partial_q_zeta_special(ctx, n, 2, [a, b], F, z)
                              for a in range(1, F + 1)
                              for b in range(1, F + 1)]
                total = pieces[0]
                for piece in pieces[1:]:
                    total = total + piece
                whole = q_zeta_special(ctx, n, r, z + r)
                assert bound_of(total - whole) >= ctx.prec


def test_partial_length_checked(ctx):
    with pytest.raises(ValueError):
        partial_q_zeta_special(ctx, 2, 2, [1], 10, 0)
    with pytest.raises(ValueError):
        partial_q_zeta_special(ctx, -1, 1, [1], 10, 0)


def test_Lq_special_order_one(ctx):
    chi = omega_pow(5, 2)
    # 1/(n + 1) costs v_p(n + 1) digits, one at n = 4
    wide = ctx.with_precision(ctx.prec + 1)
    for n in (1, 2, 4):
        for z in (0, 5):
            lhs = Lq_special(ctx, n, 1, chi, z)
            rhs = gen_q_beta_poly(wide, n + 1, chi, z) * Fraction(-1, n + 1)
            assert bound_of(lhs - rhs) >= ctx.prec


def test_Lq_window_independent(ctx):
    chi = omega_pow(5, 2)
    base = Lq_special(ctx, 2, 2, chi, 5)
    widened = Lq_special(ctx, 2, 2, chi, 5, F=choose_F(5, 5, 2) * 3)
    assert bound_of(base - widened) >= ctx.prec
    # The default window, the modulus, is certified to the full precision.
    for h in range(3):
        chi = induce(omega_pow(5, h), 5)
        for r in (1, 2, 3):
            for n in range(6):
                for z in (0, 1):
                    assert Lq_special(ctx, n, r, chi, z).prec == ctx.prec


def test_budget_counts_rows(ctx, monkeypatch):
    # 250^3 residue vectors, but only 3 * 250 grouped rows.
    LParams(r=3, chi=omega_pow(5, 1), F=250).validate(ctx)

    def no_table(f, r):
        raise AssertionError("count table built for F = %d" % f)

    monkeypatch.setattr(classical, "sum_counts", no_table)
    F = 5 * (TERM_BUDGET // 5 + 1)
    with pytest.raises(BudgetExceeded):
        Lpq_eval(ctx, LParams(r=1, chi=omega_pow(5, 1), F=F, s=-1))
    with pytest.raises(BudgetExceeded):
        Lq_special(ctx, 1, 1, omega_pow(5, 1), F=F)


def test_Lpq_special_precision_and_values(ctx):
    chi = omega_pow(5, 2)
    expected_val = {1: -3, 5: -7, 9: -12}
    for n, val in expected_val.items():
        x = Lpq_special(ctx, n, 1, chi, 5)
        assert x.prec == ctx.prec
        assert x.valuation_bound() == (val, True)
        for r in (2, 3):
            assert Lpq_special(ctx, n, r, chi, 5).prec == ctx.prec


def test_interpolation_identity_order_one(ctx):
    # The series at s = -n reproduces the closed special value.
    p = ctx.p
    for chi in (principal_char(p), omega_pow(p, 1), omega_pow(p, 2)):
        F = choose_F(chi.conductor, p, 1)
        for n in range(3):
            for z in (0, p):
                closed = Lpq_special(ctx, n, 1, chi, z)
                params = LParams(r=1, chi=chi, F=F, z=z, s=-n)
                got = Lpq_eval(ctx, params).value
                assert bound_of(got - closed) >= ctx.prec - 4


def test_difference_identity_order_one(ctx):
    chi = omega_pow(5, 2)
    F = choose_F(chi.conductor, ctx.p, 1, "difference")
    for n in (0, 1, 2):
        for z in (0, 5):
            left = Lpq_eval(ctx, LParams(r=1, chi=chi, F=F,
                                         z=z + F, s=-n)).value \
                - Lpq_eval(ctx, LParams(r=1, chi=chi, F=F, z=z, s=-n)).value
            right = Lpq_difference_rhs(ctx, -n, z, chi, 1, F)
            assert bound_of(left - right) >= ctx.prec - 4


def test_eval_returns_series_diagnostics(ctx):
    chi = omega_pow(5, 2)
    params = LParams(r=1, chi=chi, F=5, z=0, s=-2)
    out = Lpq_eval(ctx, params)
    assert out.converged
    assert out.terms_used > 0
    assert out.tail_valuation_bound >= ctx.prec - 4
    again = Lpq_eval(ctx, params)
    assert bound_of(out.value - again.value) >= ctx.prec


def test_eval_rejects_poles(ctx):
    one = principal_char(5)
    with pytest.raises(PoleError):
        Lpq_eval(ctx, LParams(r=1, chi=one, F=5, z=0, s=1))
    with pytest.raises(PoleError):
        Lpq_eval(ctx, LParams(r=2, chi=one, F=10, z=0, s=2))
    # Nonprincipal s = 1 is removable but the series form divides by s - 1.
    with pytest.raises(PoleError):
        Lpq_eval(ctx, LParams(r=1, chi=omega_pow(5, 1), F=5, z=0, s=1))
    # A p-adic s indistinguishable from the pole is rejected too.
    s_close = PadicNumber.from_int(2, 5, 8)
    with pytest.raises(PoleError):
        Lpq_eval(ctx, LParams(r=2, chi=one, F=10, z=0, s=s_close))


def test_near_pole_series_carlitz():
    # The expansion about s = r converges only in the carlitz convention
    # at order one; elsewhere the term ratios blow up and the evaluator
    # reports divergence instead of returning garbage.
    p, prec = 5, 12
    cctx = QContext(p, Fraction(1 + p), prec, convention="carlitz")
    for chi in (omega_pow(p, 1), omega_pow(p, 2)):
        F = choose_F(chi.conductor, p, 1)
        at_r = Lpq_at_r(cctx, 1, chi, 0, F)
        s_probe = PadicNumber.from_int(1 + p ** 5, p, prec + 6)
        near = Lpq_eval(cctx, LParams(r=1, chi=chi, F=F, z=0, s=s_probe))
        assert at_r.converged and near.converged
        assert_agree(at_r.value, near.value, 5)

    with pytest.raises(DivergenceDetected):
        Lpq_at_r(cctx, 2, omega_pow(p, 1))


def test_near_pole_diverges_in_pure_sum(ctx):
    with pytest.raises(DivergenceDetected):
        Lpq_at_r(ctx, 1, omega_pow(5, 2))


def test_near_pole_principal_rejected(ctx):
    with pytest.raises(PoleError):
        Lpq_at_r(ctx, 1, principal_char(5))


def test_outer_row_valuations():
    # The other factors of the truncation bound: v(geom) = v_p(F) exactly
    # and the row weights are p-integral.
    for p, h, F, z in ((5, 1, 5, 0), (5, 0, 25, 3), (7, 2, 7, Fraction(1, 2)),
                       (2, 0, 8, 1)):
        ctx = QContext(p, Fraction(5 if p == 2 else 1 + p), 10)
        chi = omega_pow(p, h)
        _, _, _, rows = lfunctions._outer_rows(ctx, chi, 1, F, z, 0, 1)
        vF = int_valuation(F, p)
        for weight, angle, geom in rows:
            assert geom.valuation_bound() == (vF, True)
            assert weight.valuation_ge(0) and angle.valuation_ge(0)


def test_series_without_beta_floor_raises_before_first_term(monkeypatch):
    def no_beta(*args, **kwargs):
        raise AssertionError("a term was computed")

    monkeypatch.setattr(lfunctions, "series_beta", no_beta)
    pure = QContext(5, Fraction(6), 12)
    started = time.time()
    with pytest.raises(DivergenceDetected, match="pure_sum"):
        Lpq_eval(pure, LParams(r=3, chi=principal_char(5), F=5,
                               z=Fraction(1, 2), s=5))
    assert time.time() - started < 1
    with pytest.raises(DivergenceDetected, match="pure_sum"):
        Lpq_eval(pure, LParams(r=1, chi=omega_pow(5, 1), F=5, z=0,
                               s=PadicNumber.from_int(5 ** 4, 5, 18)))
    carl = QContext(5, Fraction(6), 12, convention="carlitz")
    with pytest.raises(DivergenceDetected, match="beta\\^\\(2\\)"):
        Lpq_at_r(carl, 2, omega_pow(5, 1))
    # Carlitz above order 1, also where the series is finite (s = -n)
    for r, s in ((2, -2), (3, 0), (2, PadicNumber.from_int(-2 + 5 ** 4, 5, 18))):
        with pytest.raises(DivergenceDetected, match="order-%d Carlitz" % r):
            Lpq_eval(carl, LParams(r=r, chi=omega_pow(5, 1), F=5, z=0, s=s))


def test_proven_truncation_digits_stable_under_precision():
    P = 12
    for p in (3, 5, 7):
        low, high = (QContext(p, Fraction(1 + p), prec, convention="carlitz")
                     for prec in (P, P + 10))
        for h, n, m in ((0, 1, 3), (1, 2, 4)):
            chi = omega_pow(p, h)
            params = LParams(r=1, chi=chi, F=choose_F(chi.conductor, p), z=p,
                             s=PadicNumber.from_int(-n + p ** m, p, P + 20))
            a, b = Lpq_eval(low, params).value, Lpq_eval(high, params).value
            assert a.prec == P
            assert_agree(a, b, P)
        a = Lpq_at_r(low, 1, omega_pow(p, 1)).value
        b = Lpq_at_r(high, 1, omega_pow(p, 1)).value
        assert a.prec == P
        assert_agree(a, b, P)


def test_p2_boundary_of_D_rejected():
    # v(1/2) = -1 lies on the boundary of the open disk D at p = 2.
    ctx = QContext(2, Fraction(5), 12, convention="carlitz")
    s = PadicNumber.from_fraction(Fraction(1, 2), 2, 12)
    for F in (8, 4):
        with pytest.raises(DomainError, match="outside the convergence disk"):
            Lpq_eval(ctx, LParams(r=1, chi=principal_char(2), F=F, z=0, s=s))


@pytest.mark.parametrize("p", [3, 5])
def test_padic_shift_matches_rational_shift(p):
    # A PadicNumber z reaches the window sum, the closed form, the k-series
    # and the difference sum as the same exact exponents as the equal
    # rational z, so every value has the same repr.
    ctx = QContext(p, Fraction(1 + p), 8)
    for chi in (principal_char(p), omega_pow(p, 1)):
        wide = induce(chi, p * chi.modulus)
        for z in (Fraction(0), Fraction(p), Fraction(2 * p, 7), Fraction(3)):
            zp = PadicNumber.from_fraction(z, p, 60)
            for r in (1, 2):
                F = choose_F(chi.conductor, p, r)
                step = choose_F(chi.conductor, p, r, "difference")
                for value in (
                    lambda z: multi_gen_q_beta_poly(ctx, 3, r, wide, z),
                    lambda z: Lpq_special(ctx, 2, r, chi, z),
                    lambda z: Lpq_eval(
                        ctx, LParams(r=r, chi=chi, F=F, z=z, s=-2)).value,
                    lambda z: Lpq_difference_rhs(ctx, -2, z, chi, r, step),
                ):
                    assert repr(value(zp)) == repr(value(z)), (chi, z, r)


# The k-series as the term-by-term PadicNumber loop over rows and terms: the
# reference the integer Horner kernel must match digit for digit.

def _k_series_loop(ctx, wctx, target, r, F, rows, heads, k, coeffs,
                   coeff_floor, last, lead, divisor):
    if last is None:
        last = lfunctions._last_index(wctx, target, r, F, k, coeff_floor)
    betas = [lfunctions.series_beta(wctx, j, r, base_power=F)
             for j in range(last, k - 1, -1)][::-1]
    work = wctx.prec
    acc = lead() if lead else PadicNumber.exact_zero(ctx.p, work)
    if k == 0:
        gpow = [wctx.one(work) for _ in rows]
    else:
        gpow = [geom ** k for _, _, geom in rows]
    for coeff, beta in zip(coeffs, betas):
        if not beta.is_zero:
            row_sum = PadicNumber.exact_zero(ctx.p, work)
            for head, g in zip(heads, gpow):
                row_sum = row_sum + head * g
            acc = acc + coeff * beta * row_sum
        gpow = [g * geom for g, (_, _, geom) in zip(gpow, rows)]
    value = _certified(acc / divisor, ctx.prec, "series evaluation")
    return lfunctions.SeriesValue(value, len(betas), ctx.prec, True)


def _series_outcome(f):
    try:
        out = f()
    except QplError as exc:
        return (type(exc).__name__, str(exc))
    return digits_of(out.value) + (out.terms_used,)


def _kernel_and_loop(monkeypatch, f):
    """f's outcome with the kernel and with the reference loop."""
    got = _series_outcome(f)
    with monkeypatch.context() as m:
        m.setattr(lfunctions, "_k_series", _k_series_loop)
        want = _series_outcome(f)
    return got, want


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_k_series_matches_padic_loop(p, monkeypatch):
    # Integer s <= 0 is a finite series under both conventions; p-adic s
    # and s = r run only under carlitz at r = 1, where s with 5 digits is
    # short enough for the precision to rest on row sums that cancel.
    rng = random.Random(p)
    order = 2 if p == 2 else p - 1
    values = 0
    for convention in ("pure_sum", "carlitz"):
        ctx = QContext(p, rng.choice(sample_qs(p)), 8, convention=convention)
        for r in ((1, 2, 3) if convention == "pure_sum" else (1,)):
            for h in sorted({0, 1, 2 % order}):
                chi = omega_pow(p, h)
                F = choose_F(chi.conductor, p, r)
                den = 3 if p == 2 else 2
                for z in (rng.randrange(2 * p),
                          Fraction(rng.randrange(1, 9, den), den),
                          PadicNumber.from_fraction(
                              Fraction(rng.randrange(1, 50), 7), p, 40)):
                    points = [0, -1, -3]
                    if convention == "carlitz":
                        u = rng.randrange(1, p)
                        points += [PadicNumber.from_int(-2 + u * p ** 2, p, 28),
                                   PadicNumber.from_int(-2 + u * p ** 3, p, 5)]
                    for s in points:
                        params = LParams(r=r, chi=chi, F=F, z=z, s=s)
                        got, want = _kernel_and_loop(
                            monkeypatch, lambda: Lpq_eval(ctx, params))
                        assert got == want, (convention, r, h, z, s)
                        values += not isinstance(got[0], str)
                    if convention == "carlitz" and h:
                        got, want = _kernel_and_loop(
                            monkeypatch, lambda: Lpq_at_r(ctx, r, chi, z, F))
                        assert got == want, ("at_r", h, z)
    assert values > 0


def _series_args(p, prec, k, last=None):
    """_k_series arguments for a series from k at r = 1, chi = omega, z = 0
    under carlitz, with the coefficients (-1)^j/j of Lpq_at_r (1 at j = 0)
    and no lead; with last given, the series ends there.  Returns a
    function of the heads and rows, and the rows with their weights as
    heads."""
    ctx = QContext(p, Fraction(1 + p), prec, convention="carlitz")
    chi = omega_pow(p, 1)
    F = choose_F(chi.conductor, p)
    wctx, target, br_F, rows = lfunctions._outer_rows(ctx, chi, 1, F, 0, 0,
                                                      last or 1)

    def args(heads, rows=rows):
        coeffs = (Fraction((-1) ** j, j) if j else Fraction(1)
                  for j in itertools.count(k))
        return (ctx, wctx, target, 1, F, rows, heads, k, coeffs,
                lambda j: -lfunctions._ceil_log(p, j + 1), last, None, br_F)
    return args, [wt for wt, _, _ in rows], rows


def test_k_series_zero_head_and_zero_beta(monkeypatch):
    # Heads zero at precision, of positive valuation or with few digits, a
    # geom with few digits, and betas zero at a low precision, which the
    # sum skips: the kernel keeps
    # the loop's digits and precision, also at j = 0, where the loop's
    # power of geom is 1 at the working precision.
    p = 5
    real_beta = lfunctions.series_beta
    for k in (0, 1):
        args, heads, rows = _series_args(p, 12, k)
        zero = PadicNumber.zero_at(p, heads[1].prec)
        short = PadicNumber(p, 0, heads[3].unit % p ** 6, 6)
        wt, angle, geom = rows[2]
        short_geom = PadicNumber(p, geom.val, geom.unit % p ** 9,
                                 geom.val + 9)
        cases = [(heads, rows),
                 ([heads[0], zero, heads[2], heads[3]], rows),
                 ([heads[0], heads[1] * p, zero, heads[3] * p ** 2], rows),
                 ([heads[0], heads[1], heads[2], short], rows),
                 ([zero] * 4, rows),
                 (heads, rows[:2] + [(wt, angle, short_geom)] + rows[3:])]
        for vanish in ((), (1,), (2, 3), (0, 1, 2, 3, 4, 5)):
            def beta(ctx, j, r, base_power=1):
                got = real_beta(ctx, j, r, base_power=base_power)
                return PadicNumber.zero_at(p, 2) if j in vanish else got

            monkeypatch.setattr(lfunctions, "series_beta", beta)
            for hs, rs in cases:
                got = _series_outcome(
                    lambda: lfunctions._k_series(*args(hs, rs)))
                want = _series_outcome(lambda: _k_series_loop(*args(hs, rs)))
                assert got == want, (k, vanish, hs, rs)


def test_k_series_makes_no_per_row_term_padic_operations(monkeypatch):
    # One PadicNumber product per term and a few for the whole sum; the
    # loop over rows and terms makes several per (row, term) pair.
    args, heads, _ = _series_args(5, 40, 1, last=40)
    rows, terms = len(heads), 40
    lfunctions._k_series(*args(heads))     # fills the beta table
    counts = {"ops": 0}

    def counted(fn):
        def wrapper(*a):
            counts["ops"] += 1
            return fn(*a)
        return wrapper

    for name in ("__add__", "__radd__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(PadicNumber, name,
                            counted(getattr(PadicNumber, name)))
    assert rows >= 4
    lfunctions._k_series(*args(heads))
    assert counts["ops"] <= terms + rows + 4, counts["ops"]
    counts["ops"] = 0
    _k_series_loop(*args(heads))
    assert counts["ops"] > rows * terms, counts["ops"]
