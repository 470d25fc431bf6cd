"""lseries: library calls into qpl.lfunctions.

One round, with one shared context per (p, r, convention) built afresh each
round so every round does the same work:

* 120 interpolation cells: Lpq_eval at s = -n against Lpq_special, for
  p in {5, 7}, r in {1, 2}, chi in {1, omega, omega^2}, n in 0..4 and
  z in {0, p}, under pure_sum at prec 12.  The value must equal the closed
  form mod p^8 (acceptance criterion 1).  Every r = 2 cell fails today
  (the Euler term and the series drop different residue tuples, and the
  "printed" weight lacks q^((1-r)(A + p* z))); these cells stay in the
  round and count as failed operations.
* 24 p-adic points: Lpq_eval at s = -n + u p^m with r = 1, carlitz,
  prec 40, for chi in {1, omega, omega^2}, (n, m) in (0,3), (1,4), (2,5),
  (3,6) and z = p (n mod 2); the seed draws the unit u in 1..p-1.  The
  value must agree with the terminating series at s = -n to m - c digits,
  where c = 1 + 2 v_p(n + 1) for the principal character (the pole factor
  1/(s - 1) at s - 1 = -(n+1) + u p^m) and c = 1 otherwise.
* 4 near-pole values: Lpq_at_r at r = 1 under carlitz, prec 40, z = 0, for
  chi in {omega, omega^2} per prime; the value must agree with Lpq_eval at
  s = 1 + p^5 to 5 digits (criterion 7).

The seed draws only the units u, which leave the work unchanged, so every
seed costs the same.  The near-pole characters are fixed: the character
sets the length of the series, and a drawn one moved the round's slow
operations from seed to seed.

One operation is one L-value together with its check.
"""

import time
from fractions import Fraction

from common import agree, alter_doc, from_doc, valuation

INTERP_PREC = 12
INTERP_DIGITS = 8
PADIC_PREC = 40
NEAR_POLE_DIGITS = 5
PRIMES = (5, 7)
NM_PAIRS = ((0, 3), (1, 4), (2, 5), (3, 6))
AT_R_POWERS = (1, 2)


def padic_s_digits(p, principal, n, m):
    """Digits the value at s = -n + p^m must share with the value at -n."""
    if principal:
        return m - 1 - 2 * valuation(n + 1, p)
    return m - 1


class LSeries:
    name = "lseries"

    def __init__(self, qpl, rng):
        self.qpl = qpl
        ops = []
        for p in PRIMES:
            for r in (1, 2):
                for h in (0, 1, 2):
                    for n in range(5):
                        for z in (0, p):
                            ops.append(("interp", p, r, h, n, z))
        for p in PRIMES:
            for h in (0, 1, 2):
                for n, m in NM_PAIRS:
                    ops.append(("padic_s", p, 1, h, n, m, p * (n % 2),
                                rng.randrange(1, p)))
            for h in AT_R_POWERS:
                ops.append(("at_r", p, 1, h, 0))
        self.ops = ops

    @staticmethod
    def known_fault(op):
        """The r = 2 interpolation cells, failing on every input today."""
        return op[0] == "interp" and op[2] == 2

    def run_round(self):
        qpl = self.qpl
        lf = qpl.lfunctions
        padic = qpl.padic
        contexts = {}
        outputs = []
        latencies = []
        clock = time.perf_counter
        for op in self.ops:
            kind, p, r, h = op[:4]
            convention = "pure_sum" if kind == "interp" else "carlitz"
            key = (p, r, convention)
            t0 = clock()
            try:
                ctx = contexts.get(key)
                if ctx is None:
                    prec = INTERP_PREC if kind == "interp" else PADIC_PREC
                    ctx = padic.QContext(p, Fraction(1 + p), prec, convention)
                    contexts[key] = ctx
                chi = qpl.characters.omega_pow(p, h)
                F = lf.choose_F(chi.conductor, p, r)
                if kind == "interp":
                    n, z = op[4:]
                    value = lf.Lpq_eval(ctx, lf.LParams(r=r, chi=chi, F=F, z=z,
                                                        s=-n)).value
                    ref = lf.Lpq_special(ctx, n, r, chi, z)
                elif kind == "padic_s":
                    n, m, z, u = op[4:]
                    s = padic.PadicNumber.from_int(-n + u * p ** m, p,
                                                   ctx.prec + 6)
                    value = lf.Lpq_eval(ctx, lf.LParams(r=1, chi=chi, F=F, z=z,
                                                        s=s)).value
                    ref = lf.Lpq_eval(ctx, lf.LParams(r=1, chi=chi, F=F, z=z,
                                                      s=-n)).value
                else:
                    z = op[4]
                    value = lf.Lpq_at_r(ctx, 1, chi, z, F).value
                    s = padic.PadicNumber.from_int(1 + p ** 5, p, ctx.prec + 6)
                    ref = lf.Lpq_eval(ctx, lf.LParams(r=1, chi=chi, F=F, z=z,
                                                      s=s)).value
                out = {"value": value.to_dict(), "ref": ref.to_dict()}
            except Exception as exc:  # an operation that raises is reported
                out = {"error": "%s: %s" % (type(exc).__name__, exc)}
            latencies.append(clock() - t0)
            outputs.append(out)
        return outputs, latencies, latencies

    # -- checks ---------------------------------------------------------------

    def evaluate(self, outputs):
        failed = 0
        problems = []
        for op, out in zip(self.ops, outputs):
            problem = self._problem(op, out)
            if not problem:
                continue
            if self.known_fault(op):
                failed += 1
            else:
                problems.append("%s: %s" % (op, problem))
        return len(self.ops), failed, problems

    @staticmethod
    def _digits(op):
        """Digits the operation's value must share with its reference."""
        kind, p, _, h = op[:4]
        if kind == "interp":
            return INTERP_DIGITS
        if kind == "padic_s":
            return padic_s_digits(p, h == 0, op[4], op[5])
        return NEAR_POLE_DIGITS

    @staticmethod
    def _problem(op, out):
        if "error" in out:
            return out["error"]
        value, ref = from_doc(out["value"]), from_doc(out["ref"])
        digits = LSeries._digits(op)
        if not agree(value, ref, digits):
            return "%s and %s do not agree to %d digits" % (value, ref, digits)
        return ""

    def final_check(self, outputs):
        return []

    def alter(self, outputs):
        """Outputs with one checked digit of a passing value changed."""
        outputs = list(outputs)
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            if (not self.known_fault(op) and "error" not in out
                    and out["value"]["digits"]
                    and out["value"]["val"] < self._digits(op)):
                outputs[i] = dict(out, value=alter_doc(out["value"]))
                return outputs
        raise AssertionError("no passing operation to alter")
