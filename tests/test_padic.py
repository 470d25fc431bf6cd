"""Exact behavior of the fixed-precision p-adic arithmetic layer."""

import math
from fractions import Fraction

import pytest

from qpl import (
    DivisionByZero,
    DomainError,
    NotAUnit,
    PadicNumber,
    QContext,
    angle_q,
    binom_padic,
    fraction_valuation,
    in_D,
    in_R,
    in_Rstar,
    int_valuation,
    iwasawa_log,
    p_star,
    padic_arith,
    padic_exp,
    padic_from_rational,
    padic_power,
    q_bracket,
    q_pow,
    rstar_threshold,
    teichmuller,
    teichmuller_int,
)
from qpl import characters, oracles, padic
from qpl.padic import _ceil_log

from helpers import (
    assert_agree,
    assert_exact_zero,
    bound_of,
    digits_of,
    residue,
    sample_qs,
)

CTX = QContext(5, Fraction(6), 8)


def test_from_rational_half():
    x = padic_from_rational(1, 2, 5, 3)
    assert x.val == 0
    assert residue(x, 3) == 63


def test_from_rational_with_valuation():
    x = padic_from_rational(5, 3, 5, 3)
    assert x.val == 1
    assert x.unit % 125 == 42


def test_from_rational_geometric_series():
    # -1/4 = 1/(1-5) = 1 + 5 + 25 + ...
    x = padic_from_rational(-1, 4, 5, 3)
    assert residue(x, 3) == 31


def test_from_rational_negative_valuation():
    x = padic_from_rational(1, 5, 5, 3)
    assert x.val == -1


def test_addition_example():
    x = PadicNumber.from_int(6, 5, 6) + 5
    assert residue(x, 3) == 11


def test_arith_dispatch_matches_operators():
    x = PadicNumber.from_int(6, 5, 8)
    y = PadicNumber.from_int(35, 5, 8)
    for op, direct in (("add", x + y), ("sub", x - y),
                       ("mul", x * y), ("div", x / y)):
        assert_agree(padic_arith(op, x, y), direct, direct.prec)
    with pytest.raises(ValueError):
        padic_arith("pow", x, y)


def test_sub_same_object_is_exact_zero():
    x = padic_from_rational(7, 3, 5, 6)
    z = x - x
    assert_exact_zero(z)
    assert z.prec == x.prec


def test_inexact_zero_bound():
    x = PadicNumber.from_int(6, 5, 4)
    z = x - PadicNumber.from_int(6, 5, 4)
    bound, exact = z.valuation_bound()
    assert bound == 4 and not exact


def test_nonzero_bound_is_exact():
    x = padic_from_rational(50, 1, 5, 4)
    bound, exact = x.valuation_bound()
    assert bound == 2 and exact


def test_mul_keeps_relative_precision():
    x = PadicNumber(5, 1, 7, 10)   # 9 relative digits
    y = PadicNumber(5, 0, 3, 4)    # 4 relative digits
    z = x * y
    assert z.val == 1
    assert z.prec == z.val + 4


def test_division_round_trip():
    x = padic_from_rational(7, 3, 5, 8)
    y = padic_from_rational(4, 9, 5, 8)
    assert_agree((x / y) * y, x, 8)


def test_division_by_zero():
    x = PadicNumber.from_int(1, 5, 8)
    inexact_zero = PadicNumber(5, 8, 0, 8)
    with pytest.raises(DivisionByZero):
        x / inexact_zero
    with pytest.raises(DivisionByZero):
        x / PadicNumber.exact_zero(5, 8)


def test_teichmuller_of_two():
    t = teichmuller(2, QContext(5, Fraction(6), 3))
    assert residue(t, 3) == 57


def test_teichmuller_of_minus_one_class():
    t = teichmuller(4, CTX)
    assert residue(t + 1, 8) == 0
    assert bound_of(t + 1) >= 8


def test_teichmuller_fixed_points():
    assert residue(teichmuller(1, CTX), 8) == 1
    with pytest.raises(NotAUnit):
        teichmuller(5, CTX)


def test_teichmuller_int_order():
    for p in (2, 3, 5, 7):
        phi = 2 if p == 2 else p - 1
        mod = p ** 9
        for a in range(1, 10):
            if math.gcd(a, p) != 1:
                continue
            t = teichmuller_int(a, p, 9)
            assert pow(t, phi, mod) == 1
            assert (t - a) % p_star(p) == 0


def test_iwasawa_log_of_six():
    x = PadicNumber.from_int(6, 5, 3)
    L = iwasawa_log(x)
    assert L.val == 1
    assert residue(L, 3) == 55


def test_log_multiplicative():
    x = PadicNumber.from_int(6, 5, 12)
    assert_agree(iwasawa_log(x * x), iwasawa_log(x) * 2, 11)


def test_log_domain():
    # only principal units 1 + p* R are accepted
    with pytest.raises(DomainError):
        iwasawa_log(PadicNumber.from_int(5, 5, 8))
    with pytest.raises(DomainError):
        iwasawa_log(PadicNumber.from_int(2, 5, 8))


def test_exp_of_five():
    x = padic_from_rational(5, 1, 5, 3)
    assert residue(padic_exp(x), 3) == 81


def test_exp_log_round_trip():
    x = PadicNumber.from_int(6, 5, 8)
    assert_agree(padic_exp(iwasawa_log(x)), x, 8)


def test_exp_domain():
    with pytest.raises(DomainError):
        padic_exp(PadicNumber.from_int(1, 5, 8))


# The log and exp series as chains of PadicNumber operations, one term at a
# time: the references the integer kernels must match digit for digit.

def _log_chain(x):
    p = x.p
    u = x - 1
    if u.is_exact_zero:
        return u
    if not in_Rstar(u):
        raise DomainError("log requires x = 1 (mod R*); got v(x-1) outside range")
    if u.unit == 0:
        return PadicNumber.zero_at(p, u.prec)
    target = x.prec
    vu = u.val
    kmax = 1
    while kmax * vu - _ceil_log(p, kmax) < target:
        kmax += 1
    acc = PadicNumber.exact_zero(p, target)
    power = u
    for k in range(1, kmax + 1):
        term = power / k
        if k % 2 == 0:
            term = -term
        acc = acc + term
        if k < kmax:
            power = power * u
    return acc


def _exp_chain(x):
    p = x.p
    if x.is_exact_zero:
        return PadicNumber.from_int(1, p, x.prec)
    if not in_Rstar(x):
        raise DomainError("exp requires v(x) >= %d for p=%d" % (rstar_threshold(p), p))
    if x.unit == 0:
        return PadicNumber(p, 0, 1, x.prec)
    target = x.prec
    vx = x.val
    kmax = 1
    while kmax * vx - Fraction(kmax - 1, p - 1) < target:
        kmax += 1
    acc = PadicNumber.from_int(1, p, target)
    term = PadicNumber.from_int(1, p, target)
    for k in range(1, kmax + 1):
        term = term * x / k
        acc = acc + term
    return acc


def _outcome(f, x):
    try:
        return digits_of(f(x))
    except DomainError as exc:
        return ("DomainError", str(exc))


def _series_inputs(p, prec, v):
    """Arguments of valuation v at absolute precision prec: from an int,
    from a fraction, and one whose unit carries a third of the digits, as
    a product with a low-precision factor does."""
    unit = (7 ** (prec + 3) + 3) % p ** (prec + 2)
    unit += unit % p == 0
    short = max(prec // 3, 1)
    return (PadicNumber.from_int(p ** v * unit, p, prec),
            PadicNumber.from_fraction(Fraction(-(p ** v) * unit, 1 + 2 * p), p, prec),
            PadicNumber(p, v, unit % p ** short, v + short))


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_log_exp_match_padic_chain(p):
    th = rstar_threshold(p)
    for prec in (1, 2, 3, 12, 40, 100, 300):
        for v in range(th, th + 4):
            for u in _series_inputs(p, prec, v):
                at = (p, prec, v, digits_of(u))
                assert _outcome(padic_exp, u) == _outcome(_exp_chain, u), at
                for x in (1 + u, 1 - u):
                    assert _outcome(iwasawa_log, x) == _outcome(_log_chain, x), at
    # exact zero, zero at precision, and the domain errors
    for prec in (1, 12):
        edge = (PadicNumber.exact_zero(p, prec), PadicNumber.zero_at(p, prec),
                PadicNumber.from_int(1, p, prec), PadicNumber.from_int(p, p, prec),
                PadicNumber.from_int(2 * p + 1, p, prec),
                PadicNumber.from_fraction(Fraction(1, p), p, prec))
        for x in edge:
            assert _outcome(padic_exp, x) == _outcome(_exp_chain, x), (prec, x)
            assert _outcome(iwasawa_log, x) == _outcome(_log_chain, x), (prec, x)
    assert _outcome(padic_exp, PadicNumber.from_int(1, p, 8))[0] == "DomainError"
    assert _outcome(iwasawa_log, PadicNumber.from_int(3, p, 8))[0] == "DomainError"


def test_teichmuller_int_is_the_root_of_unity_lift():
    for p in (2, 3, 5, 7, 11, 13):
        for prec in (1, 2, 3, 12, 40, 100, 300):
            mod = p ** prec
            for a in (1, 2, p - 1, p + 2, 3 * p - 1, -1, -p - 4, 10 ** 9 + 7):
                if a % p == 0:
                    continue
                t = teichmuller_int(a, p, prec)
                assert 0 <= t < mod, (p, prec, a)
                if p == 2:
                    assert t == (1 if a % 4 == 1 else mod - 1)
                    assert t * t % mod == 1
                else:
                    assert t == pow(a, p ** (prec - 1), mod), (p, prec, a)
                    assert pow(t, p - 1, mod) == 1 and (t - a) % p == 0


def test_log_exp_make_no_per_term_padic_operations(monkeypatch):
    # The kernels sum in integers: a return to one PadicNumber operation per
    # term (about 300 per call here) fails this count.
    counts = {"ops": 0}

    def counted(fn):
        def wrapper(*args):
            counts["ops"] += 1
            return fn(*args)
        return wrapper

    for name in ("__add__", "__radd__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(PadicNumber, name,
                            counted(getattr(PadicNumber, name)))
    p, prec = 5, 300
    x = PadicNumber.from_int(1 + p * 123456789, p, prec)
    e = PadicNumber.from_int(p * 987654321, p, prec)
    for fn, arg in ((iwasawa_log, x), (padic_exp, e)):
        counts["ops"] = 0
        fn(arg)
        assert counts["ops"] <= 2, (fn.__name__, counts["ops"])
    counts["ops"] = 0
    _log_chain(x)
    assert counts["ops"] > 300


def test_int_operand_coerces_like_its_fraction():
    for p in (2, 3, 5):
        for x in (PadicNumber.from_fraction(Fraction(7, 3), p, 6),
                  PadicNumber(p, 2, 1, 5), PadicNumber(p, -1, 2, 4),
                  PadicNumber.zero_at(p, 5), PadicNumber.exact_zero(p, 5)):
            for n in (1, -1, p, -3 * p ** 4, 10 ** 12 + 1, p ** 9, True):
                got = x._coerce(n)
                want = x._coerce(Fraction(n))
                assert digits_of(got) == digits_of(want), (p, x, n)


def test_q_bracket_of_three():
    b = q_bracket(CTX, 1, 3)
    assert bound_of(b - 43) >= 8       # 1 + q + q^2 at q = 6
    assert bound_of(q_bracket(CTX, 1, 0)) >= 8


def test_q_bracket_integer_matches_exact_quotient():
    # Bit for bit against (1 - q^e)/(1 - q^d) reduced from exact rationals,
    # including e = 0 (an exact zero) and e < 0.
    for p in (2, 3, 5, 7, 13):
        for q in sample_qs(p):
            ctx = QContext(p, q, 8)
            for d in (1, 2, p, 3 * p, 14):
                for e in (0, 1, -1, 2, p, -p, p * p + 1, -3 * p * d, 41):
                    for prec in (1, 9, 40):
                        want = PadicNumber.from_fraction(
                            (1 - q ** e) / (1 - q ** d), p, prec)
                        got = ctx.q_bracket(d, Fraction(e, d), prec)
                        assert digits_of(got) == digits_of(want), (p, q, d, e)


def test_q_bracket_cocycle():
    for a, b in ((1, 2), (3, 4), (2, 7)):
        lhs = q_bracket(CTX, 1, a + b)
        rhs = q_bracket(CTX, 1, a) + q_pow(CTX, a) * q_bracket(CTX, 1, b)
        assert_agree(lhs, rhs, 8)


def test_q_bracket_exponent_form():
    # [a + p* z] at a p-adic z (the exp/log path) agrees with the int path
    e = PadicNumber.from_int(2, 5, 8) * 5 + 3
    assert_agree(q_bracket(CTX, 1, e), q_bracket(CTX, 1, 13), 8)


def test_integral_fraction_exponent_takes_int_path():
    # d*x that is integral is an int exponent, bit for bit, also when x is
    # a non-integral Fraction
    for p in (2, 3, 5, 7):
        for q in sample_qs(p):
            ctx = QContext(p, q, 8)
            for d in (1, 2, p, 3 * p):
                for e in (0, 1, -1, p, -3 * p * d, 41):
                    for prec in (1, 9, 40):
                        at = (p, q, d, e, prec)
                        assert digits_of(ctx.q_power(d, Fraction(e, d), prec)) \
                            == digits_of(ctx.q_power(1, e, prec)), at
                        assert digits_of(ctx.q_power(d, Fraction(e), prec)) \
                            == digits_of(ctx.q_power(d, e, prec)), at
                        assert digits_of(ctx.q_bracket(d, Fraction(e), prec)) \
                            == digits_of(ctx.q_bracket(d, e, prec)), at


def test_q_pow_integer_exact():
    assert bound_of(q_pow(CTX, 3) - 216) >= 8


def test_q_pow_fractional_root():
    half = q_pow(CTX, Fraction(1, 2))
    assert_agree(half * half, q_pow(CTX, 1), 7)


def test_q_pow_padic_exponent():
    e = PadicNumber.from_int(3, 5, 6)
    assert bound_of(q_pow(CTX, e) - 216) >= 6


def test_angle_of_two():
    ctx = QContext(5, Fraction(6), 3)
    a = angle_q(ctx, 2)
    assert residue(a, 3) == pow(57, -1, 125) * 7 % 125


def test_angle_is_principal_unit():
    assert bound_of(angle_q(CTX, 1) - 1) >= 8
    for a in (2, 3, 4, 6, 7):
        assert bound_of(angle_q(CTX, a) - 1) >= 1
    with pytest.raises(NotAUnit):
        angle_q(CTX, 10)


def test_angle_with_shift():
    # <a + p* z> built from the shifted bracket
    direct = angle_q(CTX, 2, 3)
    bracket = q_bracket(CTX, 1, 2 + 5 * 3)
    t_inv = teichmuller(2, CTX)
    assert_agree(direct * t_inv, bracket, 8)


def test_padic_power_integer_consistency():
    x = angle_q(CTX, 2)
    assert bound_of(padic_power(x, 0) - 1) >= 8
    assert_agree(padic_power(x, 3), x * x * x, 8)


def test_padic_power_additive_in_exponent():
    x = angle_q(CTX, 3)
    s = PadicNumber.from_int(2, 5, 8)
    t = PadicNumber.from_int(5, 5, 8)
    assert_agree(padic_power(x, s) * padic_power(x, t),
                 padic_power(x, s + t), 7)


def test_padic_power_domain():
    x = angle_q(CTX, 2)
    with pytest.raises(DomainError):
        padic_power(x, PadicNumber(5, -1, 1, 7))
    with pytest.raises(DomainError):
        padic_power(PadicNumber.from_int(2, 5, 8), PadicNumber.from_int(1, 5, 8))


def test_binom_padic_negative_one():
    m1 = PadicNumber.from_int(-1, 5, 8)
    for k in range(6):
        assert residue(binom_padic(m1, k) - (-1) ** k, 7) == 0


def test_binom_padic_integers():
    t = PadicNumber.from_int(7, 5, 10)
    assert bound_of(binom_padic(t, 3) - math.comb(7, 3)) >= 8
    assert bound_of(binom_padic(t, 0) - 1) >= 1


def test_binom_padic_type_guard():
    with pytest.raises(TypeError):
        binom_padic(3, 2)


def test_region_predicates():
    assert in_R(PadicNumber(5, 0, 1, 8))
    assert not in_R(PadicNumber(5, -1, 1, 7))
    assert in_Rstar(PadicNumber(5, 1, 1, 8))
    assert not in_Rstar(PadicNumber(5, 0, 1, 8))
    assert in_D(PadicNumber(5, 0, 1, 8))
    assert not in_D(PadicNumber(5, -1, 1, 7))
    # p = 2: R* needs v >= 2; D is open, so its boundary v = -1 is outside
    assert in_Rstar(PadicNumber(2, 2, 1, 8))
    assert not in_Rstar(PadicNumber(2, 1, 1, 8))
    assert not in_D(PadicNumber(2, -1, 1, 7))
    assert not in_D(PadicNumber(2, -2, 1, 6))


def test_constants():
    assert p_star(2) == 4 and p_star(5) == 5
    assert rstar_threshold(2) == 2 and rstar_threshold(5) == 1
    assert int_valuation(50, 5) == 2
    assert fraction_valuation(Fraction(3, 25), 5) == -2


def test_serialization_round_trip():
    for x in (padic_from_rational(7, 3, 5, 6),
              PadicNumber(5, 6, 0, 6),
              PadicNumber.exact_zero(5, 6)):
        d = x.to_dict()
        y = PadicNumber.from_dict(d)
        assert x.p == y.p and x.prec == y.prec
        assert_exact_zero(x - y) if x.is_exact_zero else None
        assert (x - y).valuation_bound()[0] >= x.prec


def test_serialization_shape():
    # N significant digits above the valuation: absolute precision val + N
    x = padic_from_rational(50, 1, 5, 4)
    d = x.to_dict()
    assert d["p"] == 5 and d["val"] == 2 and d["prec"] == 6
    value = sum(dig * 5 ** i for i, dig in enumerate(d["digits"]))
    assert value == x.unit
    assert PadicNumber.exact_zero(5, 6).to_dict()["val"] == "inf"


def test_context_precision_switch():
    wide = CTX.with_precision(20)
    assert wide.p == 5 and wide.q == CTX.q and wide.prec == 20
    assert wide.convention == CTX.convention


@pytest.mark.parametrize("p, q, prec, convention, error, message", (
    # composites past trial division that only the Miller-Rabin loop
    # rejects; 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7
    (1763, 1764, 4, "pure_sum", ValueError, "p must be prime, got 1763"),
    (3215031751, 3215031752, 4, "pure_sum", ValueError,
     "p must be prime, got 3215031751"),
    (2 ** 61 - 1, 2 ** 61, 4, "pure_sum", None, None),
    (5, 6, 0, "pure_sum", ValueError, "working precision must be >= 1"),
    (5, 6, 4, "naive", ValueError, "unknown convention 'naive'"),
    (5, 1, 4, "pure_sum", DomainError, "q = 1 is degenerate"),
    (5, Fraction(1, 5), 4, "pure_sum", DomainError, "q must lie in Z_p"),
    (2, 3, 4, "pure_sum", DomainError,
     "q - 1 must have valuation >= 2 for p = 2"),
    (5, 2, 4, "carlitz", DomainError,
     "q - 1 must have valuation >= 1 for p = 5"),
))
def test_context_input_checks(p, q, prec, convention, error, message):
    if error is None:
        ctx = QContext(p, q, prec, convention)
        assert (ctx.p, ctx.v_q1) == (p, 1)
        return
    with pytest.raises(error) as info:
        QContext(p, q, prec, convention)
    assert type(info.value) is error
    assert str(info.value).startswith(message)


def test_equality_and_powers_of_zeros():
    x = PadicNumber.from_fraction(Fraction(1, 3), 5, 4)
    assert x == Fraction(1, 3) and x == Fraction(1, 3) + 5 ** 4
    assert x != Fraction(1, 3) + 5 ** 3
    y = PadicNumber.from_int(7, 5, 3)
    assert y == 7 and y == 7 + 5 ** 3 and y != 8
    exact = PadicNumber.exact_zero(5, 3)
    at_prec = PadicNumber.zero_at(5, 3)
    assert exact == PadicNumber.exact_zero(5, 7) and exact == 0
    assert exact == at_prec and at_prec == exact
    assert PadicNumber.from_int(5, 5, 3) != 0
    assert PadicNumber.__hash__ is None
    with pytest.raises(TypeError):
        hash(x)
    assert (exact ** 3).is_exact_zero
    cube = at_prec ** 3
    assert cube.is_zero and not cube.is_exact_zero and cube.prec == 9
    for zero, message in ((exact, "negative power of exact zero"),
                          (at_prec, "negative power of zero at precision")):
        with pytest.raises(DivisionByZero, match=message):
            zero ** -2


def test_caches_stay_within_their_caps():
    # Asked at more precisions than its memo holds, a context evicts its
    # oldest entries and recomputes them to the same values.
    p, q = 7, Fraction(10, 3)
    cap = padic.CONTEXT_CACHE_CAP
    ctx = QContext(p, q, 5)
    first = {}
    for prec in range(1, cap + 40):
        view = ctx.with_precision(prec)
        mod = p ** prec
        first[prec] = view.q_int()
        assert first[prec] == 10 * pow(3, -1, mod) % mod, prec
        if prec % 97 == 0 and prec < cap // 2:
            assert digits_of(view.log_q()) == digits_of(
                QContext(p, q, prec).log_q()), prec
        assert len(ctx._cache) <= cap
    assert len(ctx._cache) == cap
    for prec in (1, 2, 3, cap // 2):
        assert ctx.with_precision(prec).q_int() == first[prec]
        assert len(ctx._cache) <= cap
    assert padic._ppow.cache_info().maxsize == padic.PPOW_CACHE_CAP
    for memo, cap in ((padic._teich_lift, padic.TEICH_CACHE_CAP),
                      (characters._primitive_root_mod_prime,
                       characters.PRIME_CACHE_CAP),
                      (characters._eta_base, characters.PRIME_CACHE_CAP),
                      (oracles._carlitz_beta_seq, oracles.ORACLE_CACHE_CAP),
                      (oracles._sum_count_row, oracles.ORACLE_CACHE_CAP)):
        assert memo.cache_info().maxsize == cap, memo.__name__


@pytest.mark.parametrize("p, q", ((2, 5), (7, 8)))
def test_angle_and_character_lift_share_one_cache_entry(p, q):
    # w(a) in the angle projection and omega(a) of the Teichmuller
    # character are one lift of the residue a mod p*, cached once.
    ctx = QContext(p, Fraction(q), 9)
    omega = characters.omega_pow(p, 1)
    a = p_star(p) + 3
    lifts = padic._teich_lift
    lifts.cache_clear()
    angle_q(ctx, a)
    info = lifts.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
    assert omega.lift(a, 9) == teichmuller_int(a, p, 9)
    assert omega.eval(3, 9).unit == teichmuller_int(3, p, 9)
    info = lifts.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
