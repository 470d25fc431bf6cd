"""padic-kernels: the p-adic layer beneath everything else.

One round: 25 cases of each of the five invariant suites, each case one
``invariants.run_suites([suite], cases=1, seed=...)`` call; and for each
p in {2, 3, 5, 7, 13} and each size of 20, 100 and 300 digits, 40 each of
PadicNumber add, mul and div, plus one iwasawa_log, one padic_exp and one
teichmuller_int.  Operands come from seeded random fractions of fixed
size; log and exp take p* times a seeded unit, so every seed sums the same
number of terms.  One operation is one suite case or one kernel call.
Arithmetic outnumbers the rest nine to one, so the latency quantiles are
kernel times that do not depend on which suite cases the seed drew.

Checks: the suites report zero failures; every kernel result equals the
exact result, computed here with Fractions and integers modulo p^k and not
with qpl, to the result's certified precision, and certifies at least the
precision its operands support.
"""

import time
from fractions import Fraction

from common import alter_doc, from_doc, valuation

PRIMES = (2, 3, 5, 7, 13)
SIZES = (20, 100, 300)
ARITH_PER_SIZE = 40
CASES_PER_SUITE = 25
SUITES = ("teichmuller", "logexp", "qpow", "precision", "operators")


def _p_star(p):
    return 4 if p == 2 else p


def _floor_log(k, p):
    """The largest e with p^e <= k."""
    e = 0
    while p ** (e + 1) <= k:
        e += 1
    return e


def log_reference(u, p, n):
    """log(1 + u) modulo p^n for an integer u with v(u) >= 1 (>= 2 at p=2):
    the sum of (-1)^(k+1) u^k / k over the k whose term can fall below p^n."""
    v = valuation(u, p)
    k_max = 1
    while k_max * v - _floor_log(k_max, p) < n:
        k_max += 1
    extra = _floor_log(k_max, p) + 1
    mod = p ** (n + extra)
    out = p ** n
    acc = 0
    upow = 1
    for k in range(1, k_max):
        upow = upow * u % mod
        e = valuation(k, p)
        term = (upow // p ** e) * pow(k // p ** e, -1, out)
        acc += term if k % 2 else -term
    return acc % out


def exp_reference(y, p, n):
    """exp(y) modulo p^n for an integer y with v(y) >= 1 (>= 2 at p=2)."""
    v = valuation(y, p)
    k_max = 1
    while k_max * v - Fraction(k_max - 1, p - 1) < n:
        k_max += 1
    extra = k_max // (p - 1) + 1
    mod = p ** (n + extra)
    out = p ** n
    acc = 1
    ypow = 1
    fact_unit, fact_val = 1, 0
    for k in range(1, k_max):
        ypow = ypow * y % mod
        e = valuation(k, p)
        fact_val += e
        fact_unit = fact_unit * (k // p ** e) % out
        acc += (ypow // p ** fact_val) * pow(fact_unit, -1, out)
    return acc % out


def teichmuller_reference(a, p, n):
    """The root of unity congruent to a mod p* (mod 4 at p = 2), mod p^n."""
    if p == 2:
        return 1 if a % 4 == 1 else 2 ** n - 1
    return pow(a, p ** (n - 1), p ** n)


class PadicKernels:
    name = "padic-kernels"

    def __init__(self, qpl, rng):
        self.qpl = qpl
        PadicNumber = qpl.padic.PadicNumber
        ops = []
        for name in SUITES:
            for _ in range(CASES_PER_SUITE):
                ops.append(("suite", name, rng.randrange(10 ** 9)))
        for p in PRIMES:
            ps = _p_star(p)
            for digits in SIZES:
                for kind in ("add", "mul", "div"):
                    for _ in range(ARITH_PER_SIZE):
                        a, b = self._fraction(rng, p), self._fraction(rng, p)
                        ops.append((kind, p, digits, a, b,
                                    PadicNumber.from_fraction(a, p, digits),
                                    PadicNumber.from_fraction(b, p, digits)))
                u = ps * self._unit(rng, p, p ** digits)
                ops.append(("log", p, digits, u,
                            PadicNumber.from_int(1 + u, p, digits)))
                y = ps * self._unit(rng, p, p ** digits)
                ops.append(("exp", p, digits, y,
                            PadicNumber.from_int(y, p, digits)))
                ops.append(("teich", p, digits, self._unit(rng, p, 10 ** 9)))
        self.ops = ops

    @staticmethod
    def _unit(rng, p, bound):
        """A random integer below bound and prime to p."""
        a = rng.randrange(1, bound)
        return a if a % p else a + 1

    @staticmethod
    def _fraction(rng, p):
        """A nonzero fraction with up to 64-bit numerator and 32-bit
        denominator, sometimes with p in the numerator or denominator."""
        num = rng.randrange(1, 2 ** 64) * rng.choice((1, -1))
        den = rng.randrange(1, 2 ** 32)
        shift = rng.choice((-2, -1, 0, 0, 0, 1, 2))
        if shift > 0:
            num *= p ** shift
        else:
            den *= p ** -shift
        return Fraction(num, den)

    def run_round(self):
        padic = self.qpl.padic
        invariants = self.qpl.invariants
        outputs = []
        latencies = []
        clock = time.perf_counter
        for op in self.ops:
            kind = op[0]
            t0 = clock()
            if kind == "suite":
                result = invariants.run_suites([op[1]], cases=1, seed=op[2])
            elif kind == "add":
                result = op[5] + op[6]
            elif kind == "mul":
                result = op[5] * op[6]
            elif kind == "div":
                result = op[5] / op[6]
            elif kind == "log":
                result = padic.iwasawa_log(op[4])
            elif kind == "exp":
                result = padic.padic_exp(op[4])
            else:
                result = padic.teichmuller_int(op[3], op[1], op[2])
            latencies.append(clock() - t0)
            if kind == "suite":
                outputs.append([r.to_dict() for r in result])
            elif kind == "teich":
                outputs.append(result)
            else:
                outputs.append(result.to_dict())
        return outputs, latencies, latencies

    # -- checks ---------------------------------------------------------------

    def evaluate(self, outputs):
        problems = []
        for op, out in zip(self.ops, outputs):
            problem = self._problem(op, out)
            if problem:
                problems.append("%s %s: %s" % (op[0], op[1:3], problem))
        return len(self.ops), 0, problems

    @staticmethod
    def _problem(op, out):
        kind = op[0]
        if kind == "suite":
            if [r["cases"] for r in out] != [1] or out[0]["failures"]:
                return "suite result %s" % out
            return ""
        p, digits = op[1], op[2]
        if kind == "teich":
            want = teichmuller_reference(op[3], p, digits)
            return "" if out == want else "got %d, want %d" % (out, want)
        got = from_doc(out)
        if kind in ("add", "mul", "div"):
            a, b = op[3], op[4]
            va, vb = valuation(a, p), valuation(b, p)
            exact = {"add": a + b, "mul": a * b, "div": a / b}[kind]
            floor = {"add": min(va, vb), "mul": va + vb,
                     "div": va - vb}[kind] + digits
        elif kind == "log":
            floor = digits
            exact = log_reference(op[3], p, got.prec) if got.prec > 0 else 0
        else:
            floor = valuation(op[3], p) + digits
            exact = exp_reference(op[3], p, got.prec) if got.prec > 0 else 0
        if got.prec < floor:
            return "certifies %d digits, operands support %d" % (got.prec, floor)
        rep = got.rep if got.rep is not None else 0
        if rep != exact and valuation(rep - Fraction(exact), p) < got.prec:
            return "%s differs from the exact value %s below p^%d" % (
                got, exact, got.prec)
        return ""

    def final_check(self, outputs):
        return []

    def alter(self, outputs):
        """Outputs with one certified digit of the first product changed."""
        outputs = list(outputs)
        i = next(i for i, op in enumerate(self.ops) if op[0] == "mul")
        outputs[i] = alter_doc(outputs[i])
        return outputs
