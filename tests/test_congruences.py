"""Kummer-type congruence verification: the difference operators, the
classical baseline, and the three q-theorem checkers with their
valuation certificates."""

import contextlib
import io
import json
import random
from fractions import Fraction
from math import comb, factorial, inf

import pytest

from qpl import (
    Bnr_structure,
    InconclusivePrecision,
    PadicNumber,
    PrecisionExhausted,
    PreconditionViolated,
    QContext,
    bernoulli_number,
    char_build,
    choose_F,
    omega_pow,
    p_star,
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


# -- the operators as weight pairs --------------------------------------------
#
# The chains below are how forward_diff and binom_operator summed PadicNumber
# values term by term; they are the reference that the integer kernel must
# match in every digit and in its precision.


def _chain_sum(values, weights):
    """sum x_i w_i as a chain of PadicNumber *, unary - and +."""
    acc = None
    for x, w in zip(values, weights):
        term = x * abs(w)
        if w < 0:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _chain_diff(seq, n, c, k):
    acc = None
    for m in range(k + 1):
        term = seq(n + m * c) * comb(k, m)
        if (k - m) % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _chain_binom(seq, n, c, k, ps):
    acc = None
    for m, s in stirling_expansion(k):
        if s:
            weight = Fraction(s, factorial(k) * ps**m)
            term = _chain_diff(seq, n, c, m) * weight
            acc = term if acc is None else acc + term
    return acc


def _random_value(rng, p):
    """Values at mixed precisions and valuations, zeros at precision and
    exact zeros."""
    kind = rng.randrange(8)
    if kind == 0:
        return PadicNumber.exact_zero(p, rng.randrange(-3, 15))
    if kind == 1:
        return PadicNumber.zero_at(p, rng.randrange(-3, 15))
    x = Fraction(rng.choice((1, -1)) * rng.randrange(1, p**12)
                 * p**rng.randrange(3),
                 rng.randrange(1, 50) * p**rng.randrange(3))
    return PadicNumber.from_fraction(x, p, rng.randrange(1, 15))


def _same(got, want):
    return ((got.val, got.unit, got.prec) == (want.val, want.unit, want.prec)
            and repr(got) == repr(want))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_kernel_is_the_padic_chain(p):
    # weights with powers of p in numerator and denominator, of both signs
    rng = random.Random(p)
    for _ in range(400):
        count = rng.randrange(1, 7)
        values = [_random_value(rng, p) for _ in range(count)]
        weights = [Fraction(rng.choice((1, -1)) * rng.randrange(1, 30)
                            * p**rng.randrange(4),
                            rng.randrange(1, 30) * p**rng.randrange(4))
                   for _ in range(count)]
        got = congruences._padic_sum(
            values, *congruences._kernel_weights(p, weights))
        want = _chain_sum(values, weights)
        assert _same(got, want), (values, weights, got, want)


def test_kernel_of_exact_zeros_is_the_chains_exact_zero():
    values = [PadicNumber.exact_zero(5, prec) for prec in (7, 3, 11)]
    weights = [Fraction(1, 25), -3, Fraction(10, 7)]
    got = congruences._padic_sum(values,
                                 *congruences._kernel_weights(5, weights))
    assert got.is_exact_zero and _same(got, _chain_sum(values, weights))
    assert got.prec == 7


def test_operators_refuse_mixed_primes():
    mixed = [PadicNumber.from_int(3, 5, 6), PadicNumber.from_int(3, 7, 6)]
    with pytest.raises(ValueError, match="mixed primes"):
        forward_diff(mixed.__getitem__, 0, 1, 1)
    with pytest.raises(ValueError, match="mixed primes"):
        binom_operator(mixed.__getitem__, 0, 1, 1, 5)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_operator_pairs_are_the_padic_chain(monkeypatch, p):
    # forward_diff and binom_operator at k <= 4 against the chains they
    # replaced, and a cell's witness against the chain at z minus the
    # chain at 0, on values served in place of the special values
    rng = random.Random(10 + p)
    ps = p_star(p)
    ctx = QContext(p, Fraction(1 + ps), 30)
    chi = principal_char(p)
    z = choose_F(1, p, 1, "difference")
    table = {}
    monkeypatch.setattr(congruences, "Bnr_structure",
                        lambda ctx, m, r, chi, z0: table[m, z0])
    for _ in range(60):
        c, n = rng.randrange(1, 5), rng.randrange(1, 4)
        table.clear()
        table.update(((m, z0), _random_value(rng, p))
                     for z0 in (z, 0) for m in range(n, n + 4 * c + 1))
        at_z, at_0 = (lambda m: table[m, z]), (lambda m: table[m, 0])
        for k in range(5):
            for seq in (at_z, at_0):
                assert _same(forward_diff(seq, n, c, k),
                             _chain_diff(seq, n, c, k))
                assert _same(binom_operator(seq, n, c, k, ps),
                             _chain_binom(seq, n, c, k, ps))
            cell = congruences._Cell(ctx, chi, "53", 1, z, 1, 1, c, k)
            diff = cell.operator(congruences._diff_pairs(c, k))
            binop = cell.operator(congruences._binom_pairs(c, k, ps))
            assert _same(cell.witness(diff, n),
                         _chain_diff(at_z, n, c, k)
                         - _chain_diff(at_0, n, c, k))
            assert _same(cell.witness(binop, n),
                         _chain_binom(at_z, n, c, k, ps)
                         - _chain_binom(at_0, n, c, k, ps))


@pytest.mark.parametrize("theorem, first", (("53", "n=9 at z=5"),
                                             ("54", "n=6 at z=5"),
                                             ("binop", "n=9 at z=5")))
def test_cell_raises_where_the_chain_raises(monkeypatch, w2, theorem, first):
    # Special values that cannot be certified raise at the first of them
    # that the chain read: every value at z before any value at 0, in the
    # order of the operator's terms
    ctx = QContext(5, Fraction(6), 14)
    real = congruences.Lpq_special
    bad = {(2, 0), (5, 0), (6, 5), (9, 5)}

    def special(ctx, n, r, chi, z):
        if (n, z) in bad:
            raise PrecisionExhausted("value n=%d at z=%s" % (n, z))
        return real(ctx, n, r, chi, z)

    monkeypatch.setattr(congruences, "Lpq_special", special)
    seq = lambda z0: lambda m: Bnr_structure(ctx, m, 1, w2, z0)
    if theorem == "54":
        call = lambda: verify_thm54(ctx, w2, 1, 2, 4, 1, 5, 5)
        chain = lambda: (_chain_diff(seq(5), 2, 4, 1)
                         - _chain_diff(seq(0), 2, 4, 1))
    else:
        verify = verify_thm53 if theorem == "53" else verify_binom_op_thm
        call = lambda: verify(ctx, w2, 1, [1, 2], 4, 2, 5)
        op = (_chain_diff if theorem == "53"
              else lambda seq, n, c, k: _chain_binom(seq, n, c, k, 5))
        chain = lambda: [op(seq(5), n, 4, 2) - op(seq(0), n, 4, 2)
                         for n in (1, 2)]
    with pytest.raises(PrecisionExhausted) as want:
        chain()
    with pytest.raises(PrecisionExhausted) as got:
        call()
    assert str(got.value) == str(want.value) == "value " + first


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
