"""Kummer-type congruence verification: the difference operators, the
classical baseline, and the three q-theorem checkers with their
valuation certificates."""

import contextlib
import io
import json
from fractions import Fraction
from math import factorial, inf

import pytest

from qpl import (
    Bnr_structure,
    InconclusivePrecision,
    PadicNumber,
    PreconditionViolated,
    QContext,
    bernoulli_number,
    char_build,
    omega_pow,
    principal_char,
    verify_binom_op_thm,
    verify_classical_kummer,
    verify_thm53,
    verify_thm54,
)
from qpl.characters import eta_order
from qpl import congruences
from qpl.cli import main
from qpl.congruences import binom_operator, forward_diff, stirling_expansion


@pytest.fixture(scope="module")
def ctx():
    return QContext(5, Fraction(6), 14)


@pytest.fixture(scope="module")
def w2():
    return omega_pow(5, 2)


# -- operators ---------------------------------------------------------------


def test_forward_diff_basics():
    square = lambda m: Fraction(m * m)
    assert forward_diff(square, 0, 1, 2) == 2
    assert forward_diff(square, 7, 1, 0) == 49
    b_over_n = lambda m: bernoulli_number(m) / m
    assert forward_diff(b_over_n, 2, 4, 1) == Fraction(-5, 63)
    with pytest.raises(ValueError):
        forward_diff(square, 0, 1, -1)
    with pytest.raises(ValueError):
        forward_diff(square, 0, 0, 1)


def test_binom_operator_polynomial_identity():
    # On a geometric sequence the Stirling expansion collapses to
    # t^n C((t^c - 1)/p*, k), an exact rational identity.
    for t, n, c, k in [(2, 2, 4, 1), (2, 2, 4, 2), (3, 1, 4, 3)]:
        seq = lambda m: Fraction(t) ** m
        got = binom_operator(seq, n, c, k, 5)
        x = Fraction(t ** c - 1, 5)
        falling = Fraction(1)
        for j in range(k):
            falling *= x - j
        assert got == Fraction(t) ** n * falling / factorial(k)


def test_binom_operator_order_zero_is_identity():
    seq = lambda m: Fraction(3) ** m
    assert binom_operator(seq, 4, 2, 0, 5) == 81


def test_stirling_expansion_audit_trail():
    rows = stirling_expansion(3)
    assert rows == ((0, 0), (1, 2), (2, -3), (3, 1))


# -- classical baseline ------------------------------------------------------


def test_classical_kummer_values():
    rep = verify_classical_kummer(5, 2, 4, 1)
    assert rep.passed and not rep.inconclusive
    assert rep.observed_valuation == 0
    assert rep.witness == {"fraction": "-1/63"}
    assert verify_classical_kummer(7, 2, 6, 1).witness == {"fraction": "-1/80"}
    assert verify_classical_kummer(7, 4, 6, 1).witness == {"fraction": "1/440"}


def test_classical_kummer_even_character():
    chi8 = char_build(8, {3: eta_order(5) // 2, 5: eta_order(5) // 2}, 5)
    rep = verify_classical_kummer(5, 2, 4, 1, chi=chi8)
    assert rep.passed
    assert rep.witness == {"fraction": "72"}


def test_classical_kummer_odd_character_parity():
    chi3 = char_build(3, {2: eta_order(5) // 2}, 5)
    rep = verify_classical_kummer(5, 3, 4, 1, chi=chi3)
    assert rep.passed
    assert rep.witness == {"fraction": "8/9"}
    # Parity mismatch: every generalized number in the window vanishes,
    # so the congruence holds with an exact-zero witness.
    zero = verify_classical_kummer(5, 2, 4, 1, chi=chi3)
    assert zero.passed
    assert zero.observed_valuation == inf
    assert zero.witness == {"fraction": "0"}
    assert zero.to_dict()["observed_valuation"] is None


def test_classical_kummer_guards():
    with pytest.raises(PreconditionViolated):
        verify_classical_kummer(5, 3, 4, 1)
    with pytest.raises(PreconditionViolated):
        verify_classical_kummer(5, 4, 4, 1)
    with pytest.raises(PreconditionViolated):
        verify_classical_kummer(5, 2, 3, 1)
    with pytest.raises(PreconditionViolated):
        verify_classical_kummer(5, 2, 4, 3)
    with pytest.raises(PreconditionViolated):
        verify_classical_kummer(5, 2, 4, 1, chi=omega_pow(5, 1))
    with pytest.raises(PreconditionViolated):
        verify_classical_kummer(5, 2, 4, 1, chi=omega_pow(5, 2))
    # p = 4 reported a failed congruence
    for p in (1, 4, 9):
        with pytest.raises(ValueError, match="p must be prime, got %d" % p):
            verify_classical_kummer(p, 2, 3, 1)


@pytest.mark.parametrize("witness, required, verdict", (
    # an exact zero passes at any bound, with valuation infinity
    (PadicNumber.exact_zero(5, 2), 7, (inf, True, False)),
    # a nonzero witness below the bound fails, at any precision
    (PadicNumber(5, 1, 2, 3), 2, (1, False, False)),
    # at or above the bound it passes only with CERT_MARGIN digits past it
    (PadicNumber(5, 2, 1, 4), 2, (2, False, True)),
    (PadicNumber(5, 3, 1, 4), 2, (3, False, True)),
    (PadicNumber(5, 2, 1, 5), 2, (2, True, False)),
    # a zero at precision certifies only v >= prec
    (PadicNumber.zero_at(5, 4), 2, (4, False, True)),
    (PadicNumber.zero_at(5, 5), 2, (5, True, False)),
))
def test_verdict_branches(witness, required, verdict):
    assert congruences.CERT_MARGIN == 3
    assert congruences._verdict(witness, required) == verdict


# -- theorem 53 --------------------------------------------------------------


def test_thm53_order_one(ctx, w2):
    reps = verify_thm53(ctx, w2, 1, [1, 2, 3], 4, 1, 5)
    assert [r.check for r in reps] == ["membership"] * 3 + ["n-independence"] * 3
    assert [r.point["n"] for r in reps[:3]] == [1, 2, 3]
    assert [r.point["n"] for r in reps[3:]] == [(1, 2), (1, 3), (2, 3)]
    for r in reps:
        assert r.theorem == "53"
        assert r.passed and not r.inconclusive
    assert [r.required_valuation for r in reps] == [2] * 6
    assert [r.observed_valuation for r in reps] == [3, 3, 3, 2, 2, 2]


def test_thm53_order_two_nonprincipal(ctx, w2):
    reps = verify_thm53(ctx, w2, 2, [1, 2, 3], 4, 1, 10)
    assert all(r.passed for r in reps)
    assert [r.observed_valuation for r in reps] == [2] * 6


def test_thm53_order_two_principal_defect(ctx):
    # Rows whose omega^-(n+r) twist is principal break the congruence;
    # the checker reports the negative valuations instead of hiding them.
    reps = verify_thm53(ctx, principal_char(5), 2, [1, 2, 3], 4, 1, 10)
    outcome = [(r.passed, r.observed_valuation) for r in reps]
    assert outcome == [
        (True, 2), (False, -6), (True, 2),
        (False, -7), (True, 2), (False, -7),
    ]


def test_thm53_z_guards(ctx, w2):
    with pytest.raises(PreconditionViolated):
        verify_thm53(ctx, w2, 1, [1], 4, 1, 3)
    reps = verify_thm53(ctx, w2, 1, [1], 4, 1, Fraction(35, 2))
    assert reps[0].passed
    assert any("sampled z" in note for note in reps[0].notes)


def test_thm53_inconclusive_at_low_precision(w2):
    with pytest.raises(InconclusivePrecision):
        verify_thm53(QContext(5, Fraction(6), 3), w2, 1, [1], 4, 1, 5)


# -- theorem 54 --------------------------------------------------------------


def test_thm54_passing_cell(ctx, w2):
    rep = verify_thm54(ctx, w2, 1, 2, 4, 1, 5, 5)
    assert rep.theorem == "54"
    assert rep.passed and not rep.inconclusive
    assert rep.required_valuation == 2
    assert rep.observed_valuation == 2


def test_thm54_equal_orders_trivial(ctx, w2):
    rep = verify_thm54(ctx, w2, 1, 2, 4, 1, 1, 5)
    assert rep.passed
    assert rep.observed_valuation == 13


def test_thm54_order_gap_guard(ctx, w2):
    with pytest.raises(PreconditionViolated):
        verify_thm54(ctx, w2, 1, 2, 4, 1, 2, 5)


def test_thm54_failure_loci(ctx, w2):
    # The higher-order-in-k statement holds only at k = 1 for a
    # nonprincipal twist; these cells fall one valuation short.
    rep = verify_thm54(ctx, principal_char(5), 1, 2, 4, 1, 5, 5)
    assert not rep.passed and rep.observed_valuation == 1
    for k in (2, 3):
        rep = verify_thm54(ctx, w2, 1, 2, 4, k, k + 4, 5)
        assert not rep.passed and rep.observed_valuation == 1
    rep = verify_thm54(ctx, w2, 2, 2, 4, 1, 5, 10)
    assert not rep.passed and rep.observed_valuation == 1
    rep = verify_thm54(ctx, principal_char(5), 2, 2, 4, 1, 5, 10)
    assert not rep.passed and rep.observed_valuation == -27


# failing r = 1 reports of `qpl kummer-verify --grid default --jobs 1` per
# (p, q) and theorem (53, binop, 54), at prec 14 (16 at p = 2), of 120, 120
# and 8 reports; none is inconclusive
GRID_FAILURES = {
    (3, "1+p"): (0, 0, 4), (3, "1+p^2"): (0, 0, 0),
    (5, "1+p"): (0, 0, 6), (5, "1+p^2"): (0, 0, 0), (5, "1+p^3"): (0, 0, 0),
    (7, "1+p"): (0, 0, 6), (7, "1+p^2"): (0, 0, 0), (7, "1+p^3"): (0, 0, 0),
    (2, "1+p^2"): (22, 48, 6), (2, "1+p^3"): (0, 24, 4),
    (2, "1+p^4"): (12, 18, 2),
}


@pytest.mark.parametrize("p,q", sorted(GRID_FAILURES))
def test_default_grid_failures_off_the_acceptance_grid(p, q):
    # At odd p theorem 54's failures go once v(q - 1) >= 2; at p = 2 the
    # failures are not monotone in v(q - 1).  A change to any count is a
    # change to the mathematics or to a verifier requirement.
    got = []
    for theorem in ("53", "binop", "54"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["kummer-verify", "--theorem", theorem, "--grid", "default",
                  "--jobs", "1", "--p", str(p), "--q", q,
                  "--prec", str(16 if p == 2 else 14)])
        reports = [rep for rep in json.loads(buf.getvalue())["reports"]
                   if rep["point"]["r"] == 1]
        assert len(reports) == (8 if theorem == "54" else 120)
        assert not any(rep["inconclusive"] for rep in reports)
        got.append(sum(not rep["pass"] for rep in reports))
    assert tuple(got) == GRID_FAILURES[p, q]


# -- binomial-operator theorem ----------------------------------------------


def test_binop_order_one(ctx, w2):
    reps = verify_binom_op_thm(ctx, w2, 1, [1, 2, 3], 4, 2, 5)
    assert all(r.passed and not r.inconclusive for r in reps)
    assert [r.required_valuation for r in reps] == [1, 1, 1, 2, 2, 2]
    assert [r.observed_valuation for r in reps] == [1, 1, 1, 2, 2, 2]
    assert reps[0].theorem == "binop"
    single = verify_binom_op_thm(ctx, w2, 1, [1], 4, 1, 5)
    assert single[0].passed and single[0].observed_valuation == 2


def test_binop_order_two(ctx, w2):
    reps = verify_binom_op_thm(ctx, w2, 2, [1, 2, 3], 4, 1, 5)
    assert all(r.passed for r in reps)
    assert [r.observed_valuation for r in reps] == [1, 1, 1, 2, 2, 2]
    reps = verify_binom_op_thm(ctx, principal_char(5), 2, [1, 2, 3], 4, 1, 5)
    outcome = [(r.passed, r.observed_valuation) for r in reps]
    assert outcome == [
        (True, 1), (False, -7), (True, 1),
        (False, -7), (True, 2), (False, -7),
    ]


# -- structure cache ---------------------------------------------------------


def test_Bnr_structure_cached_per_context(ctx, w2):
    a = Bnr_structure(ctx, 2, 1, w2, 5)
    b = Bnr_structure(ctx, 2, 1, w2, 5)
    assert a is b
    assert a.prec == ctx.prec
    # the memo key is the value of z, not its type: 5 and Fraction(5) share
    # an entry, the p-adic 5 has its own (one digit above ctx.prec, since at
    # ctx.prec the special value keeps only ctx.prec - 1 digits)
    assert Bnr_structure(ctx, 2, 1, w2, Fraction(5)) is a
    padic_z = PadicNumber.from_int(5, 5, ctx.prec + 1)
    c = Bnr_structure(ctx, 2, 1, w2, padic_z)
    assert c is not a
    assert Bnr_structure(ctx, 2, 1, w2, padic_z) is c
    with pytest.raises(PreconditionViolated):
        Bnr_structure(ctx, 0, 1, w2, 5)
    # an exact-zero z is the baseline z = 0, under its memo key
    zero = Bnr_structure(ctx, 2, 1, w2, 0)
    assert Bnr_structure(ctx, 2, 1, w2, PadicNumber.exact_zero(5, 1)) is zero


def test_reports_serialize(ctx, w2):
    d = verify_thm53(ctx, w2, 1, [1], 4, 1, 5)[0].to_dict()
    assert d["theorem"] == "53"
    assert d["pass"] is True
    assert isinstance(d["notes"], list)
