"""Acceptance suite: one pass/fail line per criterion (parametrized where a
criterion spans several independent cells).

Every tolerance here is pinned; no test loosens a bound to pass.  Cells
where the implemented mathematics genuinely falls short of the target bound
fail, and stay failing, by design: the suite is the honest scorecard, and
the per-cell diagnostics in the failure messages are the evidence.
"""

import json
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from helpers import assert_agree

from qpl import (
    DivergenceDetected,
    Lpq_at_r,
    Lpq_difference_rhs,
    Lpq_eval,
    Lpq_special,
    LParams,
    PadicNumber,
    QContext,
    bernoulli_number,
    carlitz_beta,
    choose_F,
    closed_multi_beta,
    kim_sum_of_products,
    multi_q_beta_poly,
    omega_pow,
    oracle_multi_beta,
    oracle_resolve_conventions,
    principal_char,
    run_suites,
    verify_binom_op_thm,
    verify_classical_kummer,
    verify_thm53,
    verify_thm54,
)

FIXTURES = Path(__file__).parent / "fixtures"

AC1_AC2_LIMIT = 300.0
AC3_LIMIT = 30.0
AC5_LIMIT = 600.0


def _chars(p):
    return (principal_char(p), omega_pow(p, 1), omega_pow(p, 2))


# -- criterion 1: series interpolation matches closed special values ---------


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("r", (1, 2, 3))
def test_ac1_interpolation(p, r):
    started = time.time()
    ctx = QContext(p, Fraction(1 + p), 12)
    bad = []
    for chi in _chars(p):
        F = choose_F(chi.conductor, p, r)
        for n in range(5):
            for z in (0, p):
                closed = Lpq_special(ctx, n, r, chi, z)
                got = Lpq_eval(ctx, LParams(r=r, chi=chi, F=F, z=z,
                                            s=-n)).value
                if not (got - closed).valuation_ge(8):
                    vb = (got - closed).valuation_bound()[0]
                    bad.append((chi.conductor, n, z, vb))
    assert time.time() - started < AC1_AC2_LIMIT
    assert not bad, ("%d/30 cells disagree mod %d^8; worst rows "
                     "(conductor, n, z, valuation): %s"
                     % (len(bad), p, bad[:4]))


# -- criterion 2: lattice-shift difference equation ---------------------------


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("r", (1, 2, 3))
def test_ac2_difference_equation(p, r):
    started = time.time()
    ctx = QContext(p, Fraction(1 + p), 12)
    bad = []
    for chi in _chars(p):
        F = choose_F(chi.conductor, p, r, "difference")
        for n in range(5):
            for z in (0, p):
                left = Lpq_eval(ctx, LParams(r=r, chi=chi, F=F,
                                             z=z + r * F, s=-n)).value \
                    - Lpq_eval(ctx, LParams(r=r, chi=chi, F=F,
                                            z=z, s=-n)).value
                right = Lpq_difference_rhs(ctx, -n, z, chi, r, F)
                if not (left - right).valuation_ge(8):
                    vb = (left - right).valuation_bound()[0]
                    bad.append((chi.conductor, n, z, vb))
    assert time.time() - started < AC1_AC2_LIMIT
    assert not bad, ("%d/30 cells disagree mod %d^8; worst rows "
                     "(conductor, n, z, valuation): %s"
                     % (len(bad), p, bad[:4]))


# -- criterion 3: float oracle agrees with the closed form -------------------


def test_ac3_oracle_closed_form_agreement():
    started = time.time()
    worst = 0.0
    for q in (0.2, 0.3, 0.5):
        for r in (1, 2, 3):
            for n in range(r, 9):
                for z in (0.0, 0.5, 1.0):
                    diff = abs(oracle_multi_beta(q, n, r, z)
                               - closed_multi_beta(q, n, r, z))
                    worst = max(worst, diff)
    elapsed = time.time() - started
    assert worst < 1e-9, worst
    assert elapsed < AC3_LIMIT


# -- criterion 4: convention certificate and the sum-of-products form --------


def test_ac4_certificate_residuals():
    cert = oracle_resolve_conventions(r_max=1)
    passing = [row for row in cert["residuals"] if row["passes"]]
    assert len(passing) == 1
    assert len(passing[0]["worst_residual_per_q"]) == 2
    assert all(res < 1e-8 for res in passing[0]["worst_residual_per_q"])


@pytest.mark.parametrize("r", (1, 2, 3))
def test_ac4_sum_of_products(r):
    # The certificate must cover order r before the sum-of-products form
    # is defined; resolution itself fails for r >= 2.
    cert = oracle_resolve_conventions(r_max=r)
    ctx = QContext(5, Fraction(6), 14)
    bad = []
    for n in range(5):
        for z in (0, 5):
            got = kim_sum_of_products(ctx, n, r, [z] * r, cert)
            want = multi_q_beta_poly(ctx, n + r, r, z)
            if not (got - want).valuation_ge(8):
                bad.append((n, z, (got - want).valuation_bound()[0]))
    assert not bad, bad


# -- criterion 5: congruence theorem grids ------------------------------------


def _grid_cells(p, r, with_r_step):
    for chi in (principal_char(p), omega_pow(p, 2)):
        step = p * (r if with_r_step else 1) * lcm(chi.conductor, p) // p
        for c in (p - 1, 2 * (p - 1)):
            for k in (1, 2, 3):
                for z in (step, 2 * step):
                    yield chi, c, k, z


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("r", (1, 2))
def test_ac5_thm53_grid(p, r):
    started = time.time()
    ctx = QContext(p, Fraction(1 + p), 14)
    bad = []
    for chi, c, k, z in _grid_cells(p, r, True):
        for rep in verify_thm53(ctx, chi, r, [1, 2, 3, 4, 5], c, k, z):
            if not rep.passed or rep.inconclusive:
                bad.append((chi.conductor, c, k, z, rep.check,
                            rep.point["n"], rep.observed_valuation))
    assert time.time() - started < AC5_LIMIT
    assert not bad, "%d failing reports; first rows: %s" % (len(bad), bad[:4])


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("r", (1, 2))
def test_ac5_thm54_grid(p, r):
    started = time.time()
    ctx = QContext(p, Fraction(1 + p), 14)
    bad = []
    for chi, c, k, z in _grid_cells(p, r, True):
        rep = verify_thm54(ctx, chi, r, 2, c, k, k + (p - 1), z)
        if not rep.passed or rep.inconclusive:
            bad.append((chi.conductor, c, k, z, rep.observed_valuation))
    assert time.time() - started < AC5_LIMIT
    assert not bad, "%d failing reports; first rows: %s" % (len(bad), bad[:4])


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("r", (1, 2))
def test_ac5_binop_grid(p, r):
    started = time.time()
    ctx = QContext(p, Fraction(1 + p), 14)
    bad = []
    for chi, c, k, z in _grid_cells(p, r, False):
        for rep in verify_binom_op_thm(ctx, chi, r, [1, 2, 3, 4, 5], c, k, z):
            if not rep.passed or rep.inconclusive:
                bad.append((chi.conductor, c, k, z, rep.check,
                            rep.point["n"], rep.observed_valuation))
    assert time.time() - started < AC5_LIMIT
    assert not bad, "%d failing reports; first rows: %s" % (len(bad), bad[:4])


@pytest.mark.parametrize("p", (5, 7))
def test_ac5_classical_grid(p):
    bad = []
    for n in range(2, 11, 2):
        if n % (p - 1) == 0:
            continue
        for c in (p - 1, 2 * (p - 1)):
            for k in (1, 2):
                if n <= k:
                    continue
                rep = verify_classical_kummer(p, n, c, k)
                if not rep.passed:
                    bad.append((n, c, k, rep.observed_valuation))
    assert not bad, bad


# -- criterion 6: q -> 1 degeneration to classical numbers -------------------


def test_ac6_degeneration_to_classical():
    fixture = json.loads((FIXTURES / "q_degeneration.json").read_text())
    for p in (5, 7):
        entry = fixture["p%d" % p]
        ctx = QContext(p, Fraction(1 + p ** 8),
                       fixture["working_precision"])
        observed = []
        for n in range(fixture["n_max"] + 1):
            diff = carlitz_beta(ctx, n) - bernoulli_number(n)
            vb, _ = diff.valuation_bound()
            observed.append(vb)
        assert observed == entry["observed_valuation"]
        delta = entry["delta"]
        assert delta == sorted(delta), "loss profile must be monotone"
        assert delta[0] == 0
        envelope = 0
        for n, vb in enumerate(observed):
            envelope = max(envelope, 8 - vb)
            assert delta[n] == envelope
            assert vb >= 8 - delta[n]


# -- criterion 7: value at s = r against a nearby regular point --------------


@pytest.mark.parametrize("r", (1, 2))
def test_ac7_near_pole_agreement(r):
    p, prec = 5, 12
    ctx = QContext(p, Fraction(1 + p), prec, convention="carlitz")
    for chi in (omega_pow(p, 1), omega_pow(p, 2)):
        F = choose_F(chi.conductor, p, r)
        at_r = Lpq_at_r(ctx, r, chi, 0, F)
        s_probe = PadicNumber.from_int(r + p ** 5, p, prec + 6)
        near = Lpq_eval(ctx, LParams(r=r, chi=chi, F=F, z=0, s=s_probe))
        assert_agree(at_r.value, near.value, 5)


# -- criterion 8: randomized invariant suites ---------------------------------


@pytest.mark.parametrize("suite", ("teichmuller", "logexp", "qpow",
                                   "precision", "operators"))
def test_ac8_invariant_suites(suite):
    result = run_suites([suite], cases=1000, seed=0)[0]
    assert result.cases == 1000
    assert result.failures == 0, result.first_failure
