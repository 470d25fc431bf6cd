"""Shared pieces of the benchmark: loading qpl from source, the benchmark's
own p-adic decoding and comparison (independent of qpl's PadicNumber),
digests and summary statistics.
"""

import hashlib
import importlib
import json
import re
import statistics
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: a pass verdict must be certified this many digits past the required
#: valuation (the congruence reports' documented margin)
CERT_MARGIN = 3


class Qpl:
    """The qpl package and its submodules, loaded fresh from ``src``.

    Workloads reach every qpl function through these module attributes at
    call time, so the tracer's wrappers are seen once they are installed.
    """

    MODULES = ("padic", "characters", "classical", "qbernoulli",
               "lfunctions", "congruences", "invariants", "cli")

    def __init__(self):
        if not (SRC / "qpl" / "__init__.py").is_file():
            raise SystemExit("perfbench: no qpl sources under %s" % SRC)
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in [m for m in sys.modules
                     if m == "qpl" or m.startswith("qpl.")]:
            del sys.modules[name]
        self.pkg = importlib.import_module("qpl")
        for name in self.MODULES:
            setattr(self, name, importlib.import_module("qpl." + name))


# -- p-adic values as the benchmark reads them --------------------------------


class Value:
    """A certified p-adic value: rep is a rational representative, known
    modulo p^prec.  rep is None for an exact zero."""

    __slots__ = ("p", "rep", "prec")

    def __init__(self, p, rep, prec):
        self.p = p
        self.rep = rep
        self.prec = prec

    def __repr__(self):
        return "Value(p=%d, rep=%s, prec=%d)" % (self.p, self.rep, self.prec)


def valuation(x, p):
    """p-adic valuation of a nonzero int or Fraction."""
    x = Fraction(x)
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def from_doc(d):
    """Decode the JSON form {"p", "val", "digits", "prec"} (little-endian
    base-p digits of the unit part; val "inf" marks an exact zero)."""
    p = d["p"]
    if d["val"] == "inf":
        return Value(p, None, d["prec"])
    unit = 0
    for digit in reversed(d["digits"]):
        if not 0 <= digit < p:
            raise ValueError("digit %r out of range for p = %d" % (digit, p))
        unit = unit * p + digit
    return Value(p, Fraction(unit) * Fraction(p) ** d["val"], d["prec"])


_REPR = re.compile(
    r"PadicNumber\(p=(\d+), (?:(-?\d+)\^(-?\d+) \* (\d+) \+ O\((\d+)\^(-?\d+)\)"
    r"|O\((\d+)\^(-?\d+)\)|0 exact, prec=(-?\d+))\)$")


def from_repr(text):
    """Decode PadicNumber's repr, as printed in the lp-table CSV."""
    m = _REPR.match(text.strip())
    if m is None:
        raise ValueError("unreadable p-adic value %r" % text)
    p = int(m.group(1))
    if m.group(4) is not None:
        rep = Fraction(int(m.group(4))) * Fraction(p) ** int(m.group(3))
        return Value(p, rep, int(m.group(6)))
    if m.group(7) is not None:
        return Value(p, Fraction(0), int(m.group(8)))
    return Value(p, None, int(m.group(9)))


def diff_valuation(a, b):
    """Valuation of rep(a) - rep(b); infinite when the representatives are
    equal."""
    ra = a.rep if a.rep is not None else Fraction(0)
    rb = b.rep if b.rep is not None else Fraction(0)
    d = ra - rb
    if d == 0:
        return float("inf")
    return valuation(d, a.p)


def agree(a, b, digits=None):
    """True when a and b agree modulo p^digits and both certify that many
    digits; digits defaults to every digit both certify."""
    if a.p != b.p:
        return False
    shared = min(a.prec, b.prec)
    if digits is None:
        digits = shared
    return shared >= digits and diff_valuation(a, b) >= digits


def alter_doc(d):
    """A copy of a value's JSON form with one certified digit changed: the
    lowest listed digit (the next one at p = 2, where a unit's lowest digit
    is always 1), or for a value zero to its precision, a 1 placed at its
    highest certified position."""
    d = dict(d)
    if d["val"] == "inf" or not d["digits"]:
        d["val"] = d["prec"] - 1
        d["digits"] = [1]
        return d
    digits = list(d["digits"])
    i = 1 if d["p"] == 2 and len(digits) > 1 else 0
    digits[i] = (digits[i] + 1) % d["p"]
    d["digits"] = digits
    return d


# -- digests and statistics ---------------------------------------------------


def digest(items):
    """SHA-256 of a sequence of JSON-serialisable outputs."""
    h = hashlib.sha256()
    for item in items:
        if not isinstance(item, str):
            item = json.dumps(item, sort_keys=True, default=str)
        h.update(item.encode())
        h.update(b"\n")
    return h.hexdigest()


def p90(values):
    return statistics.quantiles(values, n=10)[8]
