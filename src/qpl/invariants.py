"""Randomized self-check suites over the core layers.

Each suite draws seeded pseudo-random instances and counts violations; a
healthy build reports zero failures.  The suites back both the acceptance
tests and the `identity-check` CLI subcommand, so a deployment can re-run
them in the field with any case count and seed.
"""

import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import QplError
from .padic import (
    PadicNumber,
    QContext,
    iwasawa_log,
    p_star,
    padic_exp,
    rstar_threshold,
    teichmuller_int,
)
from .characters import euler_phi
from .congruences import binom_operator, forward_diff

_ODD_PRIMES = (3, 5, 7, 11, 13)
_PRIMES = (2,) + _ODD_PRIMES


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failures: int
    first_failure: str = ""

    def to_dict(self) -> dict:
        d = {"name": self.name, "cases": self.cases, "failures": self.failures}
        if self.first_failure:
            d["first_failure"] = self.first_failure
        return d


def _run(name: str, cases: int, seed: int, one_case) -> SuiteResult:
    rng = random.Random("%s/%d" % (name, seed))
    failures = 0
    first = ""
    for i in range(cases):
        msg = one_case(rng)
        if msg:
            failures += 1
            if not first:
                first = "case %d: %s" % (i, msg)
    return SuiteResult(name, cases, failures, first)


def _drift(a: PadicNumber, b: PadicNumber):
    """a - b when it is not zero to min(a.prec, b.prec), the precision both
    certify; None when it is."""
    diff = a - b
    bound, _ = diff.valuation_bound()
    return diff if bound < min(a.prec, b.prec) else None


def suite_teichmuller(cases: int = 1000, seed: int = 0) -> SuiteResult:
    """omega(a)^phi(p*) = 1 exactly at working precision, and
    omega(a) = a (mod p*)."""
    prec = 12

    def one_case(rng):
        p = rng.choice(_PRIMES)
        ps = p_star(p)
        a = rng.randrange(1, 10**9)
        while a % p == 0:
            a += 1
        w = teichmuller_int(a, p, prec)
        mod = p**prec
        if pow(w, euler_phi(ps), mod) != 1 % mod:
            return "omega(%d) mod %d**%d is not a root of unity" % (a, p, prec)
        if (w - a) % ps != 0:
            return "omega(%d) != %d mod %d" % (a, a, ps)
        return ""

    return _run("teichmuller", cases, seed, one_case)


def suite_logexp(cases: int = 1000, seed: int = 0) -> SuiteResult:
    """exp(log x) = x for x = 1 (mod p*), and log(exp y) = y for y in p*R,
    both to the guaranteed output precision."""
    prec = 14

    def one_case(rng):
        p = rng.choice(_PRIMES)
        ps = p_star(p)
        t = rng.randrange(1, p ** (prec - rstar_threshold(p)))
        x = PadicNumber.from_int(1 + ps * t, p, prec)
        diff = _drift(padic_exp(iwasawa_log(x)), x)
        if diff is not None:
            return "exp(log(1+%d*%d)) drifted at p=%d: %r" % (ps, t, p, diff)
        y = PadicNumber.from_fraction(Fraction(ps * t), p, prec)
        diff = _drift(iwasawa_log(padic_exp(y)), y)
        if diff is not None:
            return "log(exp(%d*%d)) drifted at p=%d: %r" % (ps, t, p, diff)
        return ""

    return _run("logexp", cases, seed, one_case)


def suite_qpow(cases: int = 1000, seed: int = 0) -> SuiteResult:
    """q_power at integer exponents is the exact rational power, and base
    powers compose: (q^d)^x = q^(dx)."""
    prec = 12

    def one_case(rng):
        p = rng.choice(_ODD_PRIMES)
        m = rng.randrange(1, 3)
        q = Fraction(1 + p**m)
        if rng.random() < 0.3:
            q = 1 + Fraction(p**m, 1 + p * rng.randrange(1, 50))
        ctx = QContext(p, q, prec)
        x = rng.randrange(-20, 21)
        d = rng.randrange(1, 4)
        direct = ctx.q_power(d, x, prec)
        exact = PadicNumber.from_fraction(q ** (d * x), p, prec)
        if _drift(direct, exact) is not None:
            return "q_power(%d, %d) != q^%d at p=%d q=%s" % (d, x, d * x, p, q)
        if _drift(direct, ctx.q_power(1, d * x, prec)) is not None:
            return "base-power composition broke at p=%d d=%d x=%d" % (p, d, x)
        return ""

    return _run("qpow", cases, seed, one_case)


def suite_precision(cases: int = 1000, seed: int = 0) -> SuiteResult:
    """Recomputing at higher precision never changes the digits already
    certified: results at prec and prec+6 agree on the overlap."""
    prec = 10

    def one_case(rng):
        p = rng.choice(_PRIMES)

        def rand_fraction():
            num = rng.randrange(-10**6, 10**6)
            den = rng.randrange(1, 10**4)
            while den % p == 0:
                den += 1
            return Fraction(num, den)

        a, b = rand_fraction(), rand_fraction()
        for op, fn in (("add", operator.add), ("mul", operator.mul),
                       ("div", operator.truediv)):
            vals = []
            for pr in (prec, prec + 6):
                x = PadicNumber.from_fraction(a, p, pr)
                y = PadicNumber.from_fraction(b, p, pr)
                vals.append(x if op == "div" and b == 0 else fn(x, y))
            # hi carries 6 more digits than lo, so the overlap is lo.prec
            lo, hi = vals
            if _drift(lo, hi) is not None:
                return "%s(%s, %s) changed below prec %d at p=%d" % (
                    op, a, b, lo.prec, p)
        return ""

    return _run("precision", cases, seed, one_case)


def suite_operators(cases: int = 400, seed: int = 0) -> SuiteResult:
    """Difference-operator algebra on random exact sequences:
    Delta_c^k = Delta_c(Delta_c^{k-1}), and the Stirling expansion of the
    binomial-coefficient operator matches C(t^c - 1, k) t^n on powers."""

    def one_case(rng):
        c = rng.randrange(1, 5)
        k = rng.randrange(0, 5)
        n = rng.randrange(0, 5)
        table = {i: Fraction(rng.randrange(-999, 1000), rng.randrange(1, 60))
                 for i in range(n, n + k * c + 1)}
        seq = table.__getitem__
        direct = forward_diff(seq, n, c, k)
        if k == 0:
            if direct != seq(n):
                return "k=0 is not the identity"
        else:
            def inner(m):
                return forward_diff(seq, m, c, k - 1)

            recursive = inner(n + c) - inner(n)
            if direct != recursive:
                return "Delta_%d^%d != Delta(Delta^%d) at n=%d" % (c, k, k - 1, n)
        t = rng.randrange(2, 7)
        powers = lambda m: Fraction(t) ** m
        got = binom_operator(powers, n, c, k, 1)
        x = t**c - 1
        want = Fraction(t) ** n
        for j in range(k):
            want *= Fraction(x - j, j + 1)
        if got != want:
            return "Stirling expansion != C(%d,%d)*%d^%d" % (x, k, t, n)
        return ""

    return _run("operators", cases, seed, one_case)


SUITES = {
    "teichmuller": suite_teichmuller,
    "logexp": suite_logexp,
    "qpow": suite_qpow,
    "precision": suite_precision,
    "operators": suite_operators,
}


def run_suites(names=None, cases: int = 1000, seed: int = 0) -> list:
    """Run the named suites (all by default) and return their results."""
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise QplError("unknown suite %r; have %s" % (name, sorted(SUITES)))
        results.append(SUITES[name](cases=cases, seed=seed))
    return results
