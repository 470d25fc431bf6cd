"""Command-line front end: parsing, grid orchestration, JSON/CSV output.

Exit codes: 0 success, 1 computation error (with a machine-readable error
document on stdout), 2 usage error, 3 at least one congruence report has
pass = false (inconclusive reports alone do not fail the run).

All documents carry "schema": "qpl/2" and are emitted with sorted keys, as
the compact bytes of json.dumps(doc, sort_keys=True) and a newline, so
identical run specs produce byte-identical output; pipe them through
python -m json.tool to read them one key a line.  Numeric payloads are
serialized PadicNumbers (PadicNumber.to_dict: digits plus certified
precision) or exact fraction strings; there are no bare floating digits.
A document states each fact once (see README.md, "Command line").

The run spec is the argparse.Namespace that _parse returns: each option is
declared once, in its subcommand's parser, and a handler reads it from the
namespace; params echo the options a query sets (_params).  _parse fills in
the defaults that depend on QPL_PRECISION and --p, and _validate refuses
what argparse cannot check (missing or conflicting kummer-verify options,
values out of range) as a usage error.  Each kummer-verify mode is one row
of _MODES: what it needs, refuses and bounds, and a q-theorem's verifier.
"""

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import InconclusivePrecision, PreconditionViolated, QplError
from .padic import PadicNumber, QContext
from .characters import parse_char_spec
from .classical import bernoulli_number, multi_gen_bernoulli_poly
from .qbernoulli import multi_q_beta_poly, volkenborn_beta_poly
from .lfunctions import (
    LParams,
    Lpq_at_r,
    Lpq_eval,
    Lpq_special,
    choose_F,
)
from .congruences import (
    _NOTE_COLLAPSE,
    _value_doc,
    uncertified_report,
    verify_binom_op_thm,
    verify_classical_kummer,
    verify_thm53,
    verify_thm54,
)
from .oracles import oracle_resolve_conventions
from .invariants import SUITES, run_suites

SCHEMA = "qpl/2"
PRECISION_ENV = "QPL_PRECISION"
DEFAULT_PRECISION = 12


def _fraction(text: str) -> Fraction:
    """Fraction(text), with a zero denominator a ValueError like any other
    malformed number."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def parse_q(text: str, p: int) -> Fraction:
    """q given exactly: "1+p^m" (or "1+p"), "num/den", or an integer."""
    text = text.strip().replace(" ", "")
    if text.startswith("1+p"):
        rest = text[3:]
        if rest == "":
            return Fraction(1 + p)
        if rest.startswith("^") and rest[1:].isdigit():
            return Fraction(1 + p ** int(rest[1:]))
        raise ValueError("malformed q spec %r" % text)
    return _fraction(text)


def _parse_scalar(text):
    """An exact scalar: an int when integral, else a Fraction; 0 when text
    is None (an omitted --z)."""
    if text is None:
        return 0
    x = _fraction(text.strip())
    return x.numerator if x.denominator == 1 else x


def _context(spec: argparse.Namespace) -> QContext:
    q = parse_q(spec.q, spec.p)
    convention = vars(spec).get("convention") or "pure_sum"
    return QContext(spec.p, q, spec.prec, convention)


def _params(spec: argparse.Namespace) -> dict:
    """The options spec sets, as a document's params echo them."""
    return {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in vars(spec).items() if v is not None}


def _emit(doc: dict, stream) -> None:
    """Write doc with the schema tag as json.dumps(doc, sort_keys=True) and
    a newline, in one write."""
    stream.write(json.dumps(dict(doc, schema=SCHEMA), sort_keys=True) + "\n")


# -- subcommand bodies -------------------------------------------------------


def _cmd_bernoulli(spec: argparse.Namespace, stream) -> int:
    if spec.chi is not None:
        chi = parse_char_spec(spec.chi, spec.p)
        if chi.order > 2:
            raise ValueError(
                "qpl bernoulli gives exact rational values: --chi needs a "
                "character of order <= 2, %s has order %d"
                % (spec.chi, chi.order))
        value = multi_gen_bernoulli_poly(spec.n, 1, chi)
        desc = {"n": spec.n, "chi": chi.to_dict(), "p": spec.p}
    else:
        value = bernoulli_number(spec.n)
        desc = {"n": spec.n}
    _emit({"params": desc, "value": str(value), "precision": "exact"}, stream)
    return 0


def _cmd_qbernoulli(spec: argparse.Namespace, stream) -> int:
    ctx = _context(spec)
    z = _parse_scalar(spec.z)
    if spec.r is not None:
        value = multi_q_beta_poly(ctx, spec.n, spec.r, z)
        kind = "multiple"
    else:
        value = volkenborn_beta_poly(ctx, spec.n, 1, z)
        kind = "carlitz"
    params = _params(spec)
    params["q_exact"] = str(ctx.q)
    _emit({"params": params, "kind": kind, "value": _value_doc(value)}, stream)
    return 0


def _emit_series(params: dict, ctx: QContext, result, stream) -> int:
    _emit({
        "params": dict(params, q_exact=str(ctx.q)),
        "value": _value_doc(result.value),
        "terms_used": result.terms_used,
        "convention": ctx.convention,
    }, stream)
    return 0


def _cmd_lp(spec: argparse.Namespace, stream) -> int:
    ctx = _context(spec)
    chi = parse_char_spec(spec.chi, spec.p)
    F = spec.F
    if F is None:
        F = choose_F(chi.conductor, spec.p, spec.r, "interpolation")
    z = _parse_scalar(spec.z)
    s = _parse_scalar(spec.s)
    if not isinstance(s, int):
        s = PadicNumber.from_fraction(s, spec.p, ctx.prec)
    result = Lpq_eval(ctx, LParams(r=spec.r, chi=chi, F=F, z=z, s=s))
    return _emit_series(dict(_params(spec), F=F), ctx, result, stream)


def _cmd_lp_at_r(spec: argparse.Namespace, stream) -> int:
    ctx = _context(spec)
    chi = parse_char_spec(spec.chi, spec.p)
    z = _parse_scalar(spec.z)
    result = Lpq_at_r(ctx, spec.r, chi, z, spec.F)
    return _emit_series(_params(spec), ctx, result, stream)


def _cmd_lp_table(spec: argparse.Namespace, stream) -> int:
    ctx = _context(spec)
    chi = parse_char_spec(spec.chi, spec.p)
    z = _parse_scalar(spec.z)
    # every value first, so that a refusal prints its error document alone
    values = [Lpq_special(ctx, n, spec.r, chi, z)
              for n in range(spec.n_max + 1)]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["p", "q", "prec", "r", "chi", "z", "n",
                     "valuation", "digits", "value"])
    for n, value in enumerate(values):
        d = value.to_dict()
        writer.writerow([
            spec.p, str(ctx.q), spec.prec, spec.r, spec.chi, str(z), n,
            d["val"], " ".join(str(t) for t in d["digits"]), repr(value),
        ])
    return 0


def _grid_worker(cells: list) -> list:
    """The report documents of a run of kummer-verify cells, in order.

    The cells are run specs that differ only in chi, r, n_list, n, c, k,
    k2 and z, so they share one QContext and its Bnr_structure values.  A
    cell the verifier cannot certify becomes one inconclusive report
    instead of aborting the run.
    """
    ctx = _context(cells[0])
    docs = []
    for cell in cells:
        chi = parse_char_spec(cell.chi, cell.p)
        z = _parse_scalar(cell.z)
        mode = _MODES[cell.theorem]
        n, k = mode.nk(cell)
        try:
            reports = mode.verify(ctx, chi, cell.r, n, cell.c, k, z)
        except (InconclusivePrecision, PreconditionViolated) as exc:
            reports = [uncertified_report(ctx, chi, cell.theorem, exc, z,
                                          r=cell.r, c=cell.c, n=n, k=k)]
        docs.extend(r.to_dict() for r in reports)
    return docs


def _default_grid(spec: argparse.Namespace) -> list:
    """The stock verification grid at one prime: both characters used by the
    worked examples, r in {1,2}, k in {1,2}, two z samples per point."""
    cells = []
    for chi_spec in ("principal", "omega^2"):
        for r in (1, 2):
            chi = parse_char_spec(chi_spec, spec.p)
            step = choose_F(chi.conductor, spec.p, r, "difference")
            for k in (1, 2):
                for z in (step, 2 * step):
                    cells.append(argparse.Namespace(**dict(
                        vars(spec), chi=chi_spec, r=r, n_list=(1, 2, 3, 4, 5),
                        n=2, c=spec.p - 1, k=k, k2=k + (spec.p - 1), z=str(z),
                    )))
    return cells


def _cmd_kummer(spec: argparse.Namespace, stream) -> int:
    if spec.theorem == "classical":
        chi = parse_char_spec(spec.chi, spec.p) if spec.chi else None
        report = verify_classical_kummer(spec.p, spec.n, spec.c, spec.k, chi)
        reports = [report.to_dict()]
    else:
        cells = (_default_grid(spec) if spec.grid == "default"
                 else [argparse.Namespace(**dict(
                     vars(spec), r=1 if spec.r is None else spec.r))])
        jobs = min(spec.jobs or 1, len(cells), os.cpu_count() or 1)
        size = -(-len(cells) // jobs)
        chunks = [cells[i:i + size] for i in range(0, len(cells), size)]
        if len(chunks) > 1:
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                reports = [r for docs in pool.map(_grid_worker, chunks)
                           for r in docs]
        else:
            reports = _grid_worker(cells)
    doc = {
        "reports": reports,
        "total": len(reports),
        "passed": sum(1 for r in reports if r["pass"]),
        "inconclusive": sum(1 for r in reports if r["inconclusive"]),
        "failed": sum(1 for r in reports
                      if not r["pass"] and not r["inconclusive"]),
    }
    if spec.theorem != "classical":
        doc["notes"] = [_NOTE_COLLAPSE]
    _emit(doc, stream)
    return 3 if doc["failed"] else 0


def _cmd_oracle_certify(spec: argparse.Namespace, stream) -> int:
    cert = oracle_resolve_conventions(r_max=spec.r_max)
    _emit({"certificate": cert}, stream)
    return 0


def _cmd_identity_check(spec: argparse.Namespace, stream) -> int:
    names = list(spec.suites) if spec.suites else None
    results = run_suites(names, cases=spec.cases, seed=spec.seed)
    doc = {"suites": [r.to_dict() for r in results],
           "failures": sum(r.failures for r in results)}
    _emit(doc, stream)
    return 1 if doc["failures"] else 0


# -- argument plumbing -------------------------------------------------------


def _int_list(text: str) -> tuple:
    return tuple(int(t) for t in text.split(",") if t.strip())


def _add_context_args(sp, convention=False):
    sp.add_argument("--p", type=int, required=True, help="prime p")
    # None until _parse fills in 1 + p*, which depends on --p
    sp.add_argument("--q", default=None,
                    help='q as "1+p", "1+p^m", "num/den", or integer '
                         '(default 1 + p*: 1+p, or 1+p^2 = 5 at p = 2)')
    # None until _parse reads QPL_PRECISION, so that only a subcommand
    # with --prec reads it
    sp.add_argument("--prec", type=int, default=None,
                    help="working precision in p-adic digits")
    if convention:
        sp.add_argument("--convention", choices=("pure_sum", "carlitz"),
                        default=None,
                        help="family of the series coefficients")


def _bernoulli_args(sp):
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--chi", default=None, help="character spec (generalized)")
    sp.add_argument("--p", type=int, default=None,
                    help="prime (required with --chi)")


def _qbernoulli_args(sp):
    _add_context_args(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, default=None,
                    help="evaluate the r-fold value instead of the single")
    sp.add_argument("--z", default=None, help="polynomial argument (rational)")


def _lp_args(sp):
    _add_context_args(sp, convention=True)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--chi", required=True)
    sp.add_argument("--s", required=True, help="evaluation point (rational)")
    sp.add_argument("--z", default=None)
    sp.add_argument("--F", type=int, default=None)


def _lp_at_r_args(sp):
    _add_context_args(sp, convention=True)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--chi", required=True)
    sp.add_argument("--z", default=None)
    sp.add_argument("--F", type=int, default=None)


def _lp_table_args(sp):
    _add_context_args(sp)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--chi", required=True)
    sp.add_argument("--n-max", dest="n_max", type=int, default=6)
    sp.add_argument("--z", default=None)


def _kummer_args(sp):
    sp.add_argument("--theorem", required=True,
                    choices=("53", "54", "binop", "classical"))
    _add_context_args(sp)
    # None until _cmd_kummer reads 1 for a single cell; a grid sets its own
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--chi", default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--n-list", dest="n_list", type=_int_list, default=None)
    sp.add_argument("--c", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--k2", type=int, default=None,
                    help="second operator power (theorem 54)")
    sp.add_argument("--z", default=None)
    sp.add_argument("--grid", choices=("default",), default=None)
    # None until _cmd_kummer reads 1, so that a given one can be refused
    sp.add_argument("--jobs", type=int, default=None)


def _oracle_certify_args(sp):
    sp.add_argument("--r-max", dest="r_max", type=int, default=1)


def _identity_check_args(sp):
    sp.add_argument("--suites", type=lambda t: tuple(t.split(",")),
                    default=None, help=",".join(sorted(SUITES)))
    sp.add_argument("--cases", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)


class Command(NamedTuple):
    """One subcommand: its help line, the function that adds its arguments
    to its parser, and the function that runs it."""

    help: str
    add_args: Callable
    run: Callable


#: every subcommand, in the order the usage line lists them
_COMMANDS = {
    "bernoulli": Command("classical Bernoulli numbers", _bernoulli_args,
                         _cmd_bernoulli),
    "qbernoulli": Command("q-Bernoulli numbers/polynomials",
                          _qbernoulli_args, _cmd_qbernoulli),
    "lp": Command("series value of the two-variable function", _lp_args,
                  _cmd_lp),
    "lp-at-r": Command("value at the near-pole point s = r", _lp_at_r_args,
                       _cmd_lp_at_r),
    "lp-table": Command("CSV of special values over n", _lp_table_args,
                        _cmd_lp_table),
    "kummer-verify": Command("congruence verification grid", _kummer_args,
                             _cmd_kummer),
    "oracle-certify": Command("resolve the series conventions numerically",
                              _oracle_certify_args, _cmd_oracle_certify),
    "identity-check": Command("run randomized invariant suites",
                              _identity_check_args, _cmd_identity_check),
}


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The qpl parser, built on its first use and shared by every query of
    the process: parse_args leaves it as it is, and what a query's defaults
    depend on (QPL_PRECISION, --p) _parse reads at parse time."""
    parser = argparse.ArgumentParser(
        prog="qpl",
        description="Exact p-adic q-Bernoulli and q-L-function calculator",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        command.add_args(sub.add_parser(name, help=command.help))
    return parser


def _option(dest: str) -> str:
    """The option of destination dest, spelled as on the command line."""
    return "--" + dest.replace("_", "-")


#: the least value of each integer option, by destination, in the order
#: _validate checks them; --n-list is checked by its least entry
_LEAST = {"prec": 1, "r": 1, "n": 0, "n_list": 1, "c": 1, "k": 0, "k2": 1,
          "jobs": 1, "F": 1, "r_max": 1, "n_max": 0, "cases": 0}


class Mode(NamedTuple):
    """One kummer-verify mode: its name in a bound's refusal, the option
    groups it needs (each with its message, in checking order), the options
    it refuses and the phrase listing them, its least values (checked after
    _LEAST's), and for a q-theorem its verifier, verify(ctx, chi, r, n, c,
    k, z) -> reports, and the (n, k) it reads off a cell."""

    name: str
    needs: tuple = ()
    refuses: tuple = ()
    refusal: str = ""
    least: dict = {}
    verify: Callable = None
    nk: Callable = None


_CELL_NEEDS = ((("chi", "c", "k"), "need --chi, --c, --k (or --grid default)"),
               (("z",), "need --z (admissible lattice point)"))
#: theorems 53 and binop, which read the same options
_LIST = Mode("theorems 53/binop",
             _CELL_NEEDS + ((("n_list",), "theorems 53/binop need --n-list"),),
             ("n", "k2"), "theorems 53/binop do not take %s",
             nk=lambda cell: (cell.n_list, cell.k))
#: every kummer-verify mode, by --theorem, and --grid default's cells; a
#: verifier is looked up when a cell runs, so a rebound name is the one run
_MODES = {
    "53": _LIST._replace(verify=lambda *a: verify_thm53(*a)),
    "binop": _LIST._replace(verify=lambda *a: verify_binom_op_thm(*a)),
    "54": Mode("theorem 54",
               _CELL_NEEDS + ((("n", "k2"), "theorem 54 needs --n and --k2"),),
               ("n_list",), "theorem 54 does not take %s", {"n": 1, "k": 1},
               lambda ctx, chi, r, n, c, k, z: [
                   verify_thm54(ctx, chi, r, n, c, *k, z)],
               lambda cell: (cell.n, (cell.k, cell.k2))),
    "classical": Mode(
        "classical verification",
        ((("n", "c"), "classical verification needs --n and --c"),
         (("k",), "classical verification needs --k")),
        ("grid", "r", "n_list", "k2", "z", "prec", "q", "jobs"),
        "classical verification does not take %s", {"n": 1}),
    "grid": Mode("--grid default", (),
                 ("r", "chi", "n_list", "n", "c", "k", "k2", "z"),
                 "--grid default sets its own %s"),
}


def _validate(parser: argparse.ArgumentParser, spec: argparse.Namespace,
              given: set) -> None:
    """Refuse spec, whose destinations in given are the options argv gave;
    an option spec's subcommand lacks reads as absent.  A kummer-verify
    spec meets its row of _MODES: needs, refusals, _LEAST, least values."""
    if spec.subcommand == "bernoulli":
        if spec.chi is not None and spec.p is None:
            parser.error("--chi requires --p")
    values = vars(spec)
    theorem = values.get("theorem")
    mode = _MODES.get("grid" if values.get("grid") and theorem != "classical"
                      else theorem, Mode(""))
    for dests, message in mode.needs:
        # an empty --n-list (",") names no n either
        if any(values[d] in (None, ()) for d in dests):
            parser.error(message)
    extra = [_option(d) for d in mode.refuses if d in given]
    if extra:
        parser.error(mode.refusal % ", ".join(extra))
    for dest, least in _LEAST.items():
        value = values.get(dest)
        if isinstance(value, tuple):
            value = min(value, default=None)
        if value is not None and value < least:
            parser.error("%s must be >= %d" % (_option(dest), least))
    for dest, least in mode.least.items():
        if values[dest] is not None and values[dest] < least:
            parser.error("%s needs %s >= %d"
                         % (mode.name, _option(dest), least))


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """The run spec argv asks for: the namespace parse_args gives, with the
    defaults that depend on the environment and on --p filled in.  Every
    refusal goes through parser.error."""
    spec = parser.parse_args(argv)
    # the options argv gave, read before --prec and --q get their defaults
    # below (kummer-verify's other options all default to None)
    given = {k for k, v in vars(spec).items() if v is not None}
    # the classical congruence reads no precision, and so no QPL_PRECISION
    if ("prec" in vars(spec) and spec.prec is None
            and vars(spec).get("theorem") != "classical"):
        text = os.environ.get(PRECISION_ENV, str(DEFAULT_PRECISION))
        try:
            spec.prec = int(text)
        except ValueError:
            parser.error("%s must be an integer, got %r"
                         % (PRECISION_ENV, text))
    if "q" in vars(spec) and spec.q is None:
        # 1 + p*: 1 + p fails v(q - 1) >= 2 at p = 2
        spec.q = "1+p^2" if spec.p == 2 else "1+p"
    _validate(parser, spec, given)
    return spec


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    spec = _parse(_build_parser(), argv)
    try:
        return _COMMANDS[spec.subcommand].run(spec, sys.stdout)
    except QplError as exc:
        doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        residuals = getattr(exc, "residuals", None)
        if residuals:
            doc["error"]["residuals"] = residuals
        _emit(doc, sys.stdout)
        return 1
    except (ValueError, OverflowError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}},
              sys.stdout)
        return 1


if __name__ == "__main__":
    sys.exit(main())
