"""Two-variable p-adic q-L-function: special values, the interpolation and
difference identities, and the near-pole series."""

import itertools
import math
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
    angle_q,
    char_twist_omega,
    choose_F,
    gen_q_beta_poly,
    induce,
    kim_sum_of_products,
    multi_gen_q_beta_poly,
    multi_q_beta_poly,
    omega_pow,
    padic_power,
    partial_q_zeta_special,
    pochhammer,
    principal_char,
    q_zeta_special,
    verify_thm53,
    volkenborn_beta_poly,
)

from qpl import QplError, classical, lfunctions, padic
from qpl.classical import TERM_BUDGET
from qpl.characters import eta_order
from qpl.padic import (
    _scaled_exponent,
    int_valuation,
    p_star,
    teichmuller_int,
)
from qpl.qbernoulli import _beta_headroom, _certified

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


@pytest.mark.parametrize("p", (3, 5, 7))
def test_eval_window_independent_at_order_one(p):
    # The function does not depend on the window F.  Under carlitz every
    # point converges; under pure_sum only s = -2, where the series is
    # finite, and at the other points DivergenceDetected is raised for
    # every window.
    windows = (p, 2 * p, p * p, 3 * p)
    chis = [omega_pow(p, h) for h in (1, 2) if h % (p - 1)]
    agreed = 0
    for convention in ("carlitz", "pure_sum"):
        ctx = QContext(p, Fraction(1 + p), 10, convention)
        for chi, z, s in itertools.product(chis, (0, 2),
                                           (-2, -2 + p ** 3, 7 * p)):
            def at(F):
                return Lpq_eval(ctx, LParams(r=1, chi=chi, F=F, z=z, s=s))
            if convention == "pure_sum" and s != -2:
                for F in windows:
                    with pytest.raises(DivergenceDetected):
                        at(F)
                continue
            values = [at(F).value for F in windows]
            for value in values[1:]:
                assert digits_of(value) == digits_of(values[0]), \
                    (convention, chi, z, s)
            agreed += 1
    assert agreed == 4 * len(chis) * 2


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


def _special_outcome(special, *args):
    """special(*args)'s (val, unit, prec), or its error's type and
    message."""
    try:
        x = special(*args)
    except QplError as exc:
        return type(exc).__name__, str(exc)
    return x.val, x.unit, x.prec


def _Lpq_special_by_Lq_special(ctx, n, r, chi, z):
    """Lpq_special as its docstring defines it: Lq_special for chi
    omega^(-(n+r)) induced to M = lcm(f, p*), at p* z and F = M."""
    chim = char_twist_omega(chi, n + r)
    M = math.lcm(chim.conductor, ctx.p_star)
    return Lq_special(ctx, n, r, induce(chim, M), ctx.p_star * z, F=M)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_z_outside_the_valuation_ring_is_refused(p):
    # one rule for z in every entry point that reads it: Lpq_special (and
    # so Bnr_structure and lp-table), Lpq_eval and angle_q
    ps = 4 if p == 2 else p
    ctx = QContext(p, Fraction(1 + ps), 10)
    w = omega_pow(p, 1)
    F = choose_F(w.conductor, p)
    other = 3 if p == 2 else 2
    for z in (Fraction(1, p), Fraction(3, p * p),
              PadicNumber.from_fraction(Fraction(1, p), p, 5),
              PadicNumber.from_int(1, other, 5)):
        for f in (lambda: Lpq_special(ctx, 2, 1, w, z),
                  lambda: Lpq_special(ctx, 1, 2, w, z),
                  lambda: Lpq_eval(ctx, LParams(1, w, F, z, -1)),
                  lambda: angle_q(ctx, 1, z)):
            with pytest.raises(DomainError,
                               match="z must lie in the valuation ring"):
                f()


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_Lpq_special_builds_one_window_per_residue_class(p):
    # chi omega^(-(n+r)) induced to M = lcm(f, p*) and its residue rows
    # depend on n only through h = (n + r) mod eta_order(p): a context's
    # memo holds one window per (chi, r, h), and the order of the calls
    # that fill it changes no value and no error; each value is the
    # defining Lq_special's
    ps, eta = p_star(p), eta_order(p)
    omega = omega_pow(p, 1)
    chars = (principal_char(p), induce(principal_char(p), ps), omega,
             omega_pow(p, 2) if eta > 2 else induce(omega, 2 * ps))
    zs = (0, ps, Fraction(1, 3 if p == 2 else 2),
          PadicNumber.from_fraction(Fraction(3, 11), p, 10))
    ns = range(2 * (p - 1) + 2)
    q = sample_qs(p)[0]
    for r in (1, 2, 3):
        up, down = QContext(p, q, 6), QContext(p, q, 6)
        for chi, z in itertools.product(chars, zs):
            ascending = [_special_outcome(Lpq_special, up, n, r, chi, z)
                         for n in ns]
            descending = [_special_outcome(Lpq_special, down, n, r, chi, z)
                          for n in reversed(ns)][::-1]
            fresh = [_special_outcome(Lpq_special, QContext(p, q, 6), n, r,
                                      chi, z) for n in ns]
            defined = [_special_outcome(_Lpq_special_by_Lq_special,
                                        QContext(p, q, 6), n, r, chi, z)
                       for n in ns]
            assert ascending == descending == fresh == defined, \
                (r, chi.to_dict(), z)
        classes = {(chi, r, (n + r) % eta) for chi in chars for n in ns}
        for ctx in (up, down):
            windows = [key[1:] for key in ctx._cache
                       if key[0] == "Lpq_window"]
            assert len(windows) == len(classes) == len(set(windows))
            assert set(windows) == classes


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


@pytest.mark.parametrize("p", (5, 7))
def test_carlitz_series_is_its_closed_form(p):
    # The convention flag picks the family of the closed form too, so the
    # carlitz series at s = -n is the integral-family Lpq_special, every
    # digit, in AC1's cells at r = 1 (q = 1 + p, prec 12): at the cells
    # where chi omega^-(n+1) is principal the integral family carries
    # beta_0 (1 - Q)^(-n) times the row count, which the pure sum lacks
    ctx = QContext(p, Fraction(1 + p), 12, convention="carlitz")
    for chi in (principal_char(p), omega_pow(p, 1), omega_pow(p, 2)):
        F = choose_F(chi.conductor, p, 1)
        for n in range(5):
            for z in (0, p):
                got = Lpq_eval(ctx, LParams(r=1, chi=chi, F=F, z=z, s=-n))
                closed = Lpq_special(ctx, n, 1, chi, z)
                assert digits_of(got.value) == digits_of(closed), (chi, n, z)


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


# v(left - right) of AC2's difference identity at r >= 2 (q = 1 + p, prec
# 12), per character (1, omega, omega^2) and n = 0..4; z = 0 and z = p give
# the same valuation in every cell.  Every cell falls short of 8.
AC2_DEFECT = {
    (2, 5): ((2, 2, -2, 2, 2), (2, 1, 1, -3, 0), (0, 1, 1, 1, -5)),
    (2, 7): ((2, 3, 2, 2, -4), (2, 1, 1, 1, 1), (0, 1, 1, 1, 1)),
    (3, 5): ((2, -2, 1, 2, 2), (2, 1, -3, 0, 1), (2, 1, 1, -3, 0)),
    (3, 7): ((2, 2, 2, -4, 1), (2, 1, 1, 1, -5), (2, 1, 1, 1, 1)),
}


@pytest.mark.parametrize("r,p", sorted(AC2_DEFECT))
def test_ac2_defect_at_higher_order(r, p):
    # The acceptance test checks only that these cells fail; a change to
    # the series or to the difference sum that moves a valuation is a
    # change to the mathematics, to be recorded with its old and new value
    ctx = QContext(p, Fraction(1 + p), 12)
    got = []
    for h in (0, 1, 2):
        chi = omega_pow(p, h)
        F = choose_F(chi.conductor, p, r, "difference")
        cells = []
        for n in range(5):
            vals = set()
            for z in (0, p):
                left = Lpq_eval(ctx, LParams(r=r, chi=chi, F=F,
                                             z=z + r * F, s=-n)).value \
                    - Lpq_eval(ctx, LParams(r=r, chi=chi, F=F,
                                            z=z, s=-n)).value
                right = Lpq_difference_rhs(ctx, -n, z, chi, r, F)
                vals.add((left - right).valuation_bound())
            assert len(vals) == 1, (h, n, vals)
            v, exact = vals.pop()
            assert exact, (h, n)
            cells.append(v)
        got.append(tuple(cells))
    assert tuple(got) == AC2_DEFECT[r, p]


def test_eval_returns_series_diagnostics(ctx):
    chi = omega_pow(5, 2)
    params = LParams(r=1, chi=chi, F=5, z=0, s=-2)
    out = Lpq_eval(ctx, params)
    assert out.terms_used > 0
    # the omitted tail lies below the reported precision, the requested one
    assert out.value.prec == ctx.prec
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
    # Lpq_at_r gives the value at a removable point only at s = r.
    w = omega_pow(5, 1)
    with pytest.raises(PoleError, match=r"; use Lpq_at_r for the value at "
                                        r"s = r = 3$"):
        Lpq_eval(ctx, LParams(r=3, chi=w, F=5, z=0, s=3))
    for s in (2, s_close):
        with pytest.raises(PoleError, match=r"^s = 2 is a removable point "
                           r"for a nonprincipal character, but the series "
                           r"form divides by \(s - 2\); no function "
                           r"evaluates s = 2 < r = 3 yet$"):
            Lpq_eval(ctx, LParams(r=3, chi=w, F=5, z=0, s=s))


def test_evaluation_points_refused(ctx):
    w = omega_pow(5, 1)
    with pytest.raises(ValueError, match=r"^order r must be >= 1$"):
        LParams(r=0, chi=w, F=5)
    with pytest.raises(ValueError, match=r"^F must be a positive integer$"):
        LParams(r=1, chi=w, F=0)
    with pytest.raises(DomainError, match=r"^character belongs to p = 7, "
                                          r"context has p = 5$"):
        LParams(r=1, chi=omega_pow(7, 1), F=7).validate(ctx)
    with pytest.raises(DomainError, match=r"^F = 7 must be a multiple of "
                                          r"lcm\(modulus, p\*\) = 5$"):
        LParams(r=1, chi=w, F=7).validate(ctx)
    with pytest.raises(TypeError, match=r"^s must be an integer or a "
                                        r"PadicNumber$"):
        LParams(r=1, chi=w, F=5, s=Fraction(-1)).validate(ctx)
    with pytest.raises(ValueError, match=r"^order r must be >= 1$"):
        Lpq_difference_rhs(ctx, -1, 0, w, 0, 5)
    with pytest.raises(DomainError, match=r"^F = 5 is not a multiple of p "
                       r"\(p\*\)\^\(-1\) r lcm\(f, p\*\) = 10$"):
        Lpq_difference_rhs(ctx, -1, 0, w, 2, 5)


def test_difference_sum_refuses_s_as_the_series_does(ctx):
    # The difference sum is defined at the points of the series: an s
    # that Lpq_eval refuses, the difference sum refuses with the same
    # exception and message, before any row is built
    w = omega_pow(5, 1)
    for s in (Fraction(-1), Fraction(1, 2), 2.0, "1",
              PadicNumber.from_int(3, 7, 10),
              PadicNumber.from_fraction(Fraction(1, 5), 5, 10)):
        refusals = []
        for call in (lambda: Lpq_eval(ctx, LParams(r=1, chi=w, F=5, s=s)),
                     lambda: Lpq_difference_rhs(ctx, s, 0, w, 1, 5)):
            with pytest.raises((TypeError, DomainError)) as info:
                call()
            refusals.append((info.type, str(info.value)))
        assert refusals[0] == refusals[1], (s, refusals)


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
        assert at_r.value.prec == near.value.prec == prec
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
        _, _, _, rows = lfunctions._outer_rows(ctx, chi, 1, F, z, 0, 1, 0)
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
        gpow = [PadicNumber.from_int(1, ctx.p, work) for _ in rows]
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
    return lfunctions.SeriesValue(value, len(betas))


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
                                                      last or 1, 0)

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


# The outer rows and the series coefficients as chains of PadicNumber
# operations: the references the integer rows and coefficients must match
# in (val, unit, prec).

def _outer_rows_loop(ctx, chi, r, F, z, v_div, m, w):
    p = ctx.p
    vF = int_valuation(F, p)
    work = ctx.prec + r * vF + v_div + 4 + _beta_headroom(ctx, m, r, F)
    wctx = ctx.with_precision(work)
    br_F = wctx.q_bracket(1, F, work)
    rows = []
    for total, count in classical.residue_sums(F, r, chi, p):
        exponent = z * wctx.p_star + total
        weight = (count * chi.eval(total, work)
                  * wctx.q_power(1, exponent * w, work))
        bracket = wctx.q_bracket(1, exponent, work)
        inv_t = pow(teichmuller_int(total % wctx.p_star, p, work), -1,
                    p ** work)
        angle = bracket * PadicNumber(p, 0, inv_t, work)
        assert (angle - 1).valuation_ge(int_valuation(wctx.p_star, p)), \
            "angle projection left the principal-unit disk"
        geom = wctx.q_power(1, exponent, work) * (br_F / bracket)
        rows.append((weight, angle, geom))
    return wctx, ctx.prec + r * vF + v_div, br_F, rows


def _binomials_chain(a, one):
    coeff = one
    for k in itertools.count(1):
        yield coeff
        coeff = coeff * (a - (k - 1)) / k


def _rows_outcome(f):
    try:
        wctx, target, br_F, rows = f()
    except Exception as exc:
        # the first line: pytest appends its own report to a bare assert here
        return (type(exc).__name__, str(exc).split("\n")[0])
    return (wctx.prec, target, digits_of(br_F),
            [tuple(digits_of(x) for x in row) for row in rows])


def _shifts(p):
    """z as an int, a Fraction (1/2, or 1/3 at p = 2, where 1/2 is not
    integral), PadicNumbers with few digits, of positive valuation, zero
    at precision and exact zero, each in the valuation ring.  An exact
    zero is the int 0, whatever its precision."""
    half = Fraction(1, 3 if p == 2 else 2)
    return (0, p + 1, half, Fraction(2 * p, 7),
            PadicNumber.from_fraction(Fraction(3, 11), p, 2),
            PadicNumber.from_fraction(Fraction(p + 1, 11), p, 40),
            PadicNumber(p, 1, 4 % p or 1, 3),
            PadicNumber.zero_at(p, 1), PadicNumber.exact_zero(p, 2),
            PadicNumber.exact_zero(p, 1))


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
def test_outer_rows_match_padic_loop(p):
    # each case takes one of the three q and of two paddings in turn
    ps = 4 if p == 2 else p
    order = 2 if p == 2 else p - 1
    ctxs = [QContext(p, q, 6) for q in sample_qs(p)]
    case = 0
    for chi in (principal_char(p), omega_pow(p, 1), omega_pow(p, 2 % order)):
        for F in (ps, 3 * ps, ps * ps):
            # r F rows: the widest window only at r = 1 at p = 13
            for r in ((1,) if F > 100 else (1, 2, 3)):
                for z in _shifts(p):
                    case += 1
                    ctx = ctxs[case % 3]
                    v_div, m = (0, 1) if case % 2 else (2, r + 3)
                    # the k-series' weight exponent and the difference sum's
                    for w in (1 - r, 1):
                        args = (ctx, chi, r, F, z, v_div, m, w)
                        got = _rows_outcome(
                            lambda: lfunctions._outer_rows(*args))
                        # the loop coerces A at an exact zero's precision
                        plain = (0 if isinstance(z, PadicNumber)
                                 and z.is_exact_zero else z)
                        want = _rows_outcome(lambda: _outer_rows_loop(
                            ctx, chi, r, F, plain, v_div, m, w))
                        assert got == want, (ctx.q, chi, F, r, z, v_div, m, w)


def test_outer_rows_make_no_per_row_padic_operations(monkeypatch):
    # The rows are integers built into PadicNumbers once: a few operations
    # per call (z * p*, [F]_q), where the loop makes several per row.
    ctx = QContext(5, Fraction(6), 20)
    chi = omega_pow(5, 1)
    counts = {"ops": 0}

    def counted(fn):
        def wrapper(*a):
            counts["ops"] += 1
            return fn(*a)
        return wrapper

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__pow__"):
        monkeypatch.setattr(PadicNumber, name,
                            counted(getattr(PadicNumber, name)))
    for r, z in ((1, 0), (2, 5), (3, Fraction(1, 2)),
                 (2, PadicNumber.from_int(3, 5, 9))):
        counts["ops"] = 0
        _, _, _, rows = lfunctions._outer_rows(ctx, chi, r, 25, z, 0, 1,
                                               1 - r)
        assert len(rows) >= 20
        assert counts["ops"] <= 2, (r, z, counts["ops"])
    counts["ops"] = 0
    _outer_rows_loop(ctx, chi, 2, 25, 5, 0, 1, -1)
    assert counts["ops"] > 2 * len(rows), counts["ops"]


# The difference sum as the per-row PadicNumber loop it was before its rows
# came from _outer_rows: the reference it must match in repr, and in the
# type and message of every refusal, in the same order.  An s is refused
# where the loop's padic_power refused it, but as Lpq_eval refuses it.

def _difference_rhs_loop(ctx, s, z, chi, r, F):
    if r < 1:
        raise ValueError("order r must be >= 1")
    p, pstar = ctx.p, ctx.p_star
    step = choose_F(chi.conductor, p, r, "difference")
    if F % step != 0:
        raise DomainError(
            "F = %d is not a multiple of p (p*)^(-1) r lcm(f, p*) = %d"
            % (F, step))
    chir = char_twist_omega(chi, r)
    shift = _scaled_exponent(pstar, z)
    work = ctx.prec + 4
    wctx = ctx.with_precision(work)
    acc = PadicNumber.exact_zero(p, work)
    for total, count in classical.residue_sums(pstar * F, r, chir, p):
        angle = angle_q(wctx, total, z, work)
        lfunctions._require_s(ctx, s)
        acc = acc + (count * chir.eval(total, work) * padic_power(angle, -s)
                     * wctx.q_power(1, shift + total, work))
    return _certified(-acc, ctx.prec, "difference sum")


def _repr_outcome(f):
    try:
        return repr(f())
    except Exception as exc:
        return (type(exc).__name__, str(exc).split("\n")[0])


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_difference_rhs_matches_padic_loop(p):
    # each case takes one of the three q and of three precisions in turn;
    # z integral, a Fraction, a short or long PadicNumber, zero at
    # precision or exact zero; s integer or p-adic, short or long; and
    # r F p* <= 400
    order = 2 if p == 2 else p - 1
    ctxs = [QContext(p, q, prec) for q in sample_qs(p) for prec in (4, 10, 20)]
    points = (0, -1, -3, 2, PadicNumber.from_int(-2 + p ** 3, p, 5),
              PadicNumber.from_fraction(Fraction(-3, 11), p, 30))
    shifts = ((0, p) + _shifts(p)[2:6]
              + (PadicNumber.zero_at(p, 1), PadicNumber.exact_zero(p, 2)))
    case, outcomes = 0, set()
    for chi in (principal_char(p), omega_pow(p, 1), omega_pow(p, 2 % order)):
        for r in (1, 2, 3):
            F = choose_F(chi.conductor, p, r, "difference")
            if r * F * p_star(p) > 400:
                continue
            for z in shifts:
                for s in points:
                    case += 1
                    ctx = ctxs[case % len(ctxs)]
                    got = _repr_outcome(
                        lambda: Lpq_difference_rhs(ctx, s, z, chi, r, F))
                    want = _repr_outcome(
                        lambda: _difference_rhs_loop(ctx, s, z, chi, r, F))
                    assert got == want, (ctx.q, ctx.prec, chi, r, z, s)
                    outcomes.add(want[0] if isinstance(want, tuple) else "")
    assert outcomes == {"", "PrecisionExhausted"}
    # refusals: z outside Z_p or of another prime, a str or float z, a
    # Fraction s, s outside D, r = 0 and a bad F, alone and together
    ctx = ctxs[1]
    w = omega_pow(p, 1)
    F = choose_F(w.conductor, p, 1, "difference")
    other = PadicNumber.from_int(3, 11, 5)
    bad_s = PadicNumber.from_fraction(Fraction(1, p), p, 8)
    for s, z, r, F in ((0, Fraction(1, p), 1, F), (0, Fraction(1, p * p), 1, F),
                       (0, other, 1, F), (0, "1/2", 1, F), (-1, 0.5, 1, F),
                       (Fraction(1, 2), 1, 1, F), (bad_s, 0, 1, F),
                       (-1, 0, 0, F), (-1, 0, 1, F + 1),
                       (-1, Fraction(1, p), 1, F + 1),
                       (Fraction(1, 2), Fraction(1, p), 1, F),
                       (bad_s, "1/2", 1, F), (-1, "1/2", 0, F)):
        got = _repr_outcome(lambda: Lpq_difference_rhs(ctx, s, z, w, r, F))
        want = _repr_outcome(lambda: _difference_rhs_loop(ctx, s, z, w, r, F))
        assert isinstance(want, tuple) and got == want, (s, z, r, F)


def test_difference_rhs_forms_no_per_row_power(monkeypatch):
    # The rows come from _outer_rows' integer pass: no q-power and no
    # exponential per row at s = -1, where the loop makes one q-power per
    # row, and at z = 1/2 one more and two exponentials
    ctx = QContext(5, Fraction(6), 12)
    chi = omega_pow(5, 1)
    counts = {"q_power": 0, "padic_exp": 0}

    def counted(name, fn):
        def wrapper(*a, **k):
            counts[name] += 1
            return fn(*a, **k)
        return wrapper

    monkeypatch.setattr(QContext, "q_power",
                        counted("q_power", QContext.q_power))
    monkeypatch.setattr(padic, "padic_exp",
                        counted("padic_exp", padic.padic_exp))
    for z, loop in ((5, (20, 0)), (Fraction(1, 2), (40, 40))):
        for f, want in ((Lpq_difference_rhs, (0, 0)),
                        (_difference_rhs_loop, loop)):
            counts.update(q_power=0, padic_exp=0)
            f(ctx, -1, z, chi, 1, 5)
            assert (counts["q_power"], counts["padic_exp"]) == want, (f, z)


def _padic_points(p):
    """p-adic s in D: few digits, s - j divisible by p^2 for a small j (so a
    factor r - s - i of the binomial has valuation 2, or is zero at its
    precision), and a long unit."""
    return (PadicNumber.from_int(-2 + p ** 3, p, 5),
            PadicNumber.from_int(-2 + 3 * p ** 2, p, 2),
            PadicNumber.from_int(-2 + 3 * p ** 2, p, 12),
            PadicNumber.from_int(5 + p ** 2, p, 3),
            PadicNumber.from_int(1 + p, p, 12),
            PadicNumber.from_fraction(Fraction(-3, 11), p, 30))


def _betas(p):
    """Series coefficients beta of assorted valuations and digits, one zero
    at its precision (skipped by the sum)."""
    return [PadicNumber.from_fraction(Fraction(5 * j - 2, 7 * j + 3), p, 8 + j)
            if j % 5 else PadicNumber(p, -j // 5, (3 * j + 1) % p or 1, 4)
            for j in range(1, 24)] + [PadicNumber.zero_at(p, 3)]


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
def test_series_coefficients_match_padic_chain(p):
    betas = _betas(p)
    n = len(betas)
    for r in (1, 2, 3):
        for digits in (3, 14, 40):
            for s in _padic_points(p):
                a = r - s
                got = list(itertools.islice(
                    lfunctions._padic_binomials(a, digits), n))
                one = PadicNumber.from_int(1, p, digits)
                want = list(itertools.islice(_binomials_chain(a, one), n))
                assert ([digits_of(c) for c in got]
                        == [digits_of(c) for c in want]), (r, s, digits)
                for k in (0, 2):
                    terms = lfunctions._series_terms(p, k, got, betas)
                    ref = [(j, c * b) for j, (c, b)
                           in enumerate(zip(want, betas), k) if not b.is_zero]
                    assert ([(j, digits_of(t)) for j, t in terms]
                            == [(j, digits_of(t)) for j, t in ref]), (r, s, k)
        # integer s: the finite series stops at j = r - s, the last
        # nonzero C(r - s, j)
        for s in (-3, 0, r + 1, r + 4):
            count = n if s > r else r - s + 1
            got = list(itertools.islice(lfunctions._int_binomials(r - s),
                                        count))
            want = list(itertools.islice(
                _binomials_chain(r - s, Fraction(1)), count))
            assert got == want, (r, s)
            terms = lfunctions._series_terms(p, 0, got, betas)
            ref = [(j, c * b) for j, (c, b) in enumerate(zip(want, betas))
                   if not b.is_zero]
            assert ([(j, digits_of(t)) for j, t in terms]
                    == [(j, digits_of(t)) for j, t in ref]), (r, s)
    # Lpq_at_r's coefficients (-1)^j/j
    at_r = [Fraction((-1) ** j, j) for j in range(1, n + 1)]
    terms = lfunctions._series_terms(p, 1, at_r, betas)
    ref = [(j, c * b) for j, (c, b) in enumerate(zip(at_r, betas), 1)
           if not b.is_zero]
    assert ([(j, digits_of(t)) for j, t in terms]
            == [(j, digits_of(t)) for j, t in ref])


def _z_outcome(f, z):
    """(val, unit, prec) and terms_used of f(z), the documents of a list of
    reports, or the error."""
    try:
        value = f(z)
    except Exception as exc:
        # the first line: pytest appends its own report to a bare assert
        return (type(exc).__name__, str(exc).split("\n")[0])
    if isinstance(value, list):
        return [rep.to_dict() for rep in value]
    return (digits_of(getattr(value, "value", value)),
            getattr(value, "terms_used", None))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_exact_zero_z_is_zero(p):
    # An exact-zero PadicNumber z, exponent or point s, of any precision, is
    # the int 0 in every value function and every p-adic entry point: its
    # precision must not cap the exponents z + t
    ps = 4 if p == 2 else p
    ctx = QContext(p, Fraction(1 + ps), 12)
    carl = QContext(p, Fraction(1 + ps), 12, convention="carlitz")
    w = omega_pow(p, 1)
    one = induce(principal_char(p), ps)
    F = choose_F(w.conductor, p)
    step = choose_F(w.conductor, p, 1, "difference")
    base = PadicNumber.from_int(1 + ps, p, 12)
    functions = {
        "q_power": lambda z: ctx.q_power(1, z),
        "q_power at q^3": lambda z: ctx.q_power(3, z),
        "q_bracket": lambda z: ctx.q_bracket(1, z),
        "angle_q": lambda z: angle_q(ctx, ps - 1, z),
        "padic_power at s": lambda s: padic_power(base, s),
        "Lpq_eval at s": lambda s: Lpq_eval(ctx, LParams(1, w, F, 0, s)),
        "Lpq_eval carlitz at s": lambda s: Lpq_eval(
            carl, LParams(1, w, F, 0, s)),
        "kim_sum_of_products": lambda z: kim_sum_of_products(
            ctx, 2, 2, [z, 2],
            {"normalization": "n", "single_beta": "carlitz", "r_max": 2}),
        "verify_thm53": lambda z: verify_thm53(
            ctx, w, 1, [1, 2], p - 1 or 1, 1, z),
        "multi_q_beta_poly": lambda z: multi_q_beta_poly(ctx, 4, 2, z),
        "volkenborn_beta_poly": lambda z: volkenborn_beta_poly(ctx, 4, 2, z),
        "gen_q_beta_poly": lambda z: gen_q_beta_poly(ctx, 3, w, z),
        "gen_q_beta_poly principal": lambda z: gen_q_beta_poly(ctx, 3, one, z),
        "multi_gen_q_beta_poly": lambda z: multi_gen_q_beta_poly(
            ctx, 4, 2, w, z),
        "q_zeta_special": lambda z: q_zeta_special(ctx, 2, 2, z),
        "partial_q_zeta_special": lambda z: partial_q_zeta_special(
            ctx, 2, 2, [1, 2], ps, z),
        "Lq_special": lambda z: Lq_special(ctx, 2, 1, w, z),
        "Lpq_special": lambda z: Lpq_special(ctx, 2, 1, w, z),
        "Lpq_eval": lambda z: Lpq_eval(ctx, LParams(1, w, F, z, -1)),
        "Lpq_at_r": lambda z: Lpq_at_r(carl, 1, w, z),
        "Lpq_difference_rhs": lambda z: Lpq_difference_rhs(
            ctx, -1, z, w, 1, step),
    }
    for name, f in functions.items():
        want = _z_outcome(f, 0)
        assert not isinstance(want[0], str), (name, want)
        for digits in (1, 3):
            got = _z_outcome(f, PadicNumber.exact_zero(p, digits))
            assert got == want, (name, digits)
