"""Command-line interface: document schemas, exit codes, grids, and
byte-level determinism."""

import argparse
import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qpl import (DomainError, Lpq_at_r, Lpq_special, Lq_special,
                 PadicNumber, PreconditionViolated, PrecisionExhausted,
                 QContext, carlitz_beta, omega_pow, partial_q_zeta_special,
                 series_beta, verify_binom_op_thm, verify_classical_kummer,
                 verify_thm53, verify_thm54)
from qpl import cli, congruences
from qpl.cli import main

from helpers import Recording


def stated_once(doc):
    """doc states each fact once, and the facts it leaves out are rebuilt
    from what it keeps: a series value's tail bound is the value's
    precision, the requested --prec, and the coefficient-ring note of
    theorems 53, 54 and binop is the document's, once."""
    if "terms_used" in doc:
        assert not {"converged", "tail_valuation_bound"} & set(doc)
        assert doc["value"]["prec"] == doc["params"]["prec"]
    if "reports" in doc:
        theorems = {rep["theorem"] for rep in doc["reports"]}
        once = ([] if theorems == {"classical"}
                else [congruences._NOTE_COLLAPSE])
        assert doc.get("notes", []) == once
        assert all(congruences._NOTE_COLLAPSE not in rep["notes"]
                   for rep in doc["reports"])


@pytest.fixture(autouse=True)
def emitted_as_json_dumps_would(monkeypatch):
    """Every document a test here emits, each subcommand's and the error
    document, is first written by cli._emit to a recording stream, where it
    must be one write of the bytes of json.dumps(sort_keys=True) and a
    newline, and it must state each fact once (stated_once).  Every
    PadicNumber in it is its to_dict(), from which PadicNumber.from_dict
    rebuilds its repr."""
    emit = cli._emit
    value_doc = cli._value_doc

    def checked(doc, stream):
        recording = Recording()
        emit(doc, recording)
        assert recording.writes == [json.dumps(
            dict(doc, schema=cli.SCHEMA), sort_keys=True) + "\n"]
        stated_once(doc)
        emit(doc, stream)

    def rebuilt(x):
        d = value_doc(x)
        if isinstance(x, PadicNumber):
            assert d == x.to_dict()
            assert repr(PadicNumber.from_dict(d)) == repr(x)
        return d

    monkeypatch.setattr(cli, "_emit", checked)
    monkeypatch.setattr(cli, "_value_doc", rebuilt)
    monkeypatch.setattr(congruences, "_value_doc", rebuilt)


def run_cli(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def run_json(argv):
    code, out = run_cli(argv)
    return code, json.loads(out)


def test_bernoulli_exact():
    code, doc = run_json(["bernoulli", "--n", "4"])
    assert code == 0
    assert doc["schema"] == "qpl/2"
    assert doc["value"] == "-1/30"
    assert doc["precision"] == "exact"


def test_bernoulli_refuses_a_character_with_padic_values():
    # a character of order > 2 has values outside Q, and bernoulli takes
    # no precision to give them at
    code, doc = run_json(["bernoulli", "--n", "2", "--chi", "omega",
                          "--p", "5"])
    assert code == 1
    assert doc == {"error": {
        "type": "ValueError",
        "message": "qpl bernoulli gives exact rational values: --chi needs "
                   "a character of order <= 2, omega has order 4"},
        "schema": "qpl/2"}
    code, doc = run_json(["bernoulli", "--n", "2", "--chi", "omega^2",
                          "--p", "5"])
    assert code == 0 and doc["value"] == "4/5"


def usage_error(capsys, argv):
    """The message of the usage error, exit 2, that argv draws."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        run_cli(argv)
    assert info.value.code == 2, argv
    return capsys.readouterr().err.strip().splitlines()[-1]


def test_bernoulli_chi_requires_p(capsys):
    assert usage_error(capsys, ["bernoulli", "--n", "2", "--chi", "omega^2"]) \
        == "qpl: error: --chi requires --p"
    assert usage_error(capsys, ["bernoulli", "--n", "-1"]) \
        == "qpl: error: --n must be >= 0"


@pytest.mark.parametrize("argv", (
    ["qbernoulli", "--n", "2"],
    ["lp", "--chi", "omega", "--s", "-1"],
    ["lp-at-r", "--chi", "omega"],
    ["lp-table", "--chi", "omega"],
    ["kummer-verify", "--theorem", "53", "--grid", "default"],
), ids=lambda argv: argv[0])
def test_prec_below_one_is_a_usage_error(capsys, argv):
    assert usage_error(capsys, argv + ["--p", "5", "--prec", "0"]) \
        == "qpl: error: --prec must be >= 1"


@pytest.mark.parametrize("argv", (
    ["qbernoulli", "--n", "4"],
    ["lp-table", "--chi", "omega"],
    ["kummer-verify", "--theorem", "53", "--grid", "default"],
), ids=lambda argv: argv[0])
def test_convention_is_refused_where_nothing_reads_it(capsys, argv):
    # only lp and lp-at-r evaluate a series, the one layer it selects
    assert usage_error(capsys, argv + ["--p", "5", "--convention", "carlitz"]) \
        == "qpl: error: unrecognized arguments: --convention carlitz"


def test_qbernoulli_kinds():
    code, doc = run_json(["qbernoulli", "--p", "5", "--n", "2"])
    assert code == 0
    assert doc["kind"] == "carlitz"
    assert doc["params"]["q_exact"] == "6"
    assert isinstance(doc["value"]["digits"], list)
    code, doc = run_json(
        ["qbernoulli", "--p", "5", "--n", "3", "--r", "2", "--z", "1/2"])
    assert code == 0
    assert doc["kind"] == "multiple"


@pytest.mark.parametrize("argv", (
    ["qbernoulli", "--p", "5", "--n", "2", "--r", "2"],
    ["lp", "--p", "5", "--chi", "omega", "--s", "-1"],
    ["lp-at-r", "--p", "5", "--chi", "omega^2", "--convention", "carlitz"],
), ids=lambda argv: argv[0])
def test_params_echo_only_the_subcommands_options(argv):
    # no "output" or "jobs": no option of these subcommands sets them
    code, doc = run_json(argv)
    assert code == 0
    own = argparse.ArgumentParser()
    cli._COMMANDS[argv[0]].add_args(own)
    options = set(vars(own.parse_args(argv[1:])))
    assert set(doc["params"]) - {"subcommand", "q_exact"} <= options
    assert doc["params"]["subcommand"] == argv[0]


def test_q_spec_parsing():
    assert cli.parse_q("1+p", 5) == Fraction(6)
    assert cli.parse_q(" 1 + p^3 ", 5) == Fraction(126)
    assert cli.parse_q("7/3", 5) == Fraction(7, 3)
    for bad in ("1+px", "1+p^", "1+p^-2"):
        with pytest.raises(ValueError):
            cli.parse_q(bad, 5)
    code, doc = run_json(["qbernoulli", "--p", "5", "--n", "2",
                          "--q", "1+p^3"])
    assert code == 0 and doc["params"]["q_exact"] == "126"
    code, doc = run_json(["qbernoulli", "--p", "5", "--n", "2",
                          "--q", "1+px"])
    assert code == 1 and doc["error"]["type"] == "ValueError"


@pytest.mark.parametrize("argv", (
    # omega at p = 4 gave "3/4" from the table (None, 0, 1, None)
    "bernoulli --n 3 --chi omega --p 4",
    # p = 4 reported a failed congruence and exited 3
    "kummer-verify --theorem classical --p 4 --n 2 --c 3 --k 1",
    "kummer-verify --theorem classical --p 9 --n 2 --c 3 --k 1 --chi omega",
    "lp --p 4 --chi omega --s -1",
))
def test_composite_p_is_refused(argv):
    code, doc = run_json(argv.split())
    p = int(argv.split("--p ")[1].split()[0])
    assert code == 1, doc
    assert doc["error"] == {"type": "ValueError",
                            "message": "p must be prime, got %d" % p}


@pytest.mark.parametrize("argv, code", [
    ("bernoulli --n 4 --p 2 --chi omega", 0),
    ("qbernoulli --p 2 --n 4", 0),
    ("qbernoulli --p 2 --n 3 --r 2 --z 1/3", 0),
    ("lp --p 2 --chi omega --s -1", 0),
    ("lp-at-r --p 2 --chi omega --convention carlitz", 0),
    ("lp-table --p 2 --chi omega --n-max 2", 0),
    ("kummer-verify --theorem 53 --p 2 --grid default", 3),
    ("kummer-verify --theorem 54 --p 2 --grid default", 3),
    ("kummer-verify --theorem binop --p 2 --grid default", 3),
    # p - 1 = 1 divides every n: refused by the theorem, not by q
    ("kummer-verify --theorem classical --p 2 --n 2 --c 3 --k 1", 1),
])
def test_default_q_at_p2(argv, code):
    # q defaults to 1 + p* = 5 at p = 2; 1 + p = 3 has v(q - 1) = 1 < 2
    got, out = run_cli(argv.split())
    assert got == code, out
    assert "q - 1 must have valuation" not in out
    if "q_exact" in out:
        assert json.loads(out)["params"]["q_exact"] == "5"
    if argv.startswith("lp-table"):
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert rows and all(row[1] == "5" for row in rows)
    # bernoulli has no --q, so its run spec has no q
    spec = cli._parse(cli._build_parser(), argv.split())
    assert getattr(spec, "q", None) in (None, "1+p^2")
    # odd p keeps 1 + p, and the echoed q spec with it
    odd = argv.replace("--p 2", "--p 5")
    spec = cli._parse(cli._build_parser(), odd.split())
    assert getattr(spec, "q", None) in (None, "1+p")


@pytest.mark.parametrize("argv", [
    "qbernoulli --p 5 --n 2 --q 1/0",
    "qbernoulli --p 5 --n 2 --z 1/0",
    "lp --p 5 --chi omega^2 --s 1/0",
    "lp-table --p 5 --chi omega^2 --z 1/0",
    "kummer-verify --theorem 53 --p 5 --chi omega^2 --n-list 1,2 --c 4 "
    "--k 1 --z 1/0",
])
def test_zero_denominator_is_an_error_document(argv):
    code, doc = run_json(argv.split())
    assert code == 1
    assert doc["error"] == {"type": "ValueError",
                            "message": "zero denominator in '1/0'"}


def test_lp_takes_a_character_by_generator_images():
    code, doc = run_json(["lp", "--p", "5", "--chi",
                          "mod:15;gens:11->2,7->1", "--s", "-2"])
    assert code == 0
    assert doc["terms_used"] > 0
    assert doc["params"]["F"] == 15


def test_lp_pole_is_an_error_document():
    code, doc = run_json(["lp", "--p", "5", "--chi", "omega^2", "--s", "1"])
    assert code == 1
    assert doc["error"]["type"] == "PoleError"


def test_lp_padic_s_is_an_error_document():
    # A non-integer rational s is evaluated as a p-adic point; at p = 5 the
    # k-series of omega diverges there.
    for prec in ("12", "20"):
        code, doc = run_json(["lp", "--p", "5", "--chi", "omega", "--s", "1/2",
                              "--prec", prec])
        assert code == 1
        assert doc["error"]["type"] == "DivergenceDetected"


def test_lp_carlitz_above_order_one_is_refused():
    # the finite series at s = -2 would otherwise report a wrong value as
    # converged
    code, doc = run_json(["lp", "--p", "5", "--chi", "omega", "--r", "2",
                          "--s", "-2", "--convention", "carlitz"])
    assert code == 1
    assert doc["error"]["type"] == "DivergenceDetected"


def test_lp_at_r_conventions():
    code, doc = run_json(["lp-at-r", "--p", "5", "--chi", "omega^2",
                          "--convention", "carlitz"])
    assert code == 0
    assert doc["terms_used"] > 0
    # The default convention's series does not converge at s = r.
    code, doc = run_json(["lp-at-r", "--p", "5", "--chi", "omega^2"])
    assert code == 1
    assert doc["error"]["type"] == "DivergenceDetected"


def test_lp_table_csv():
    code, out = run_cli(["lp-table", "--p", "5", "--chi", "omega^2",
                         "--n-max", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,q,prec,r,chi,z,n,valuation,digits,value"
    assert len(lines) == 5
    assert lines[1].startswith("5,6,12,1,omega^2,0,0,")
    again = run_cli(["lp-table", "--p", "5", "--chi", "omega^2",
                     "--n-max", "3"])[1]
    assert again == out


@pytest.mark.parametrize("z", ("1/25", "1/5"))
def test_lp_table_refusal_is_the_error_document_alone(z):
    # no header may precede the error document
    code, doc = run_json(["lp-table", "--p", "5", "--chi", "omega",
                          "--z", z])
    assert code == 1
    assert doc["error"] == {"type": "DomainError",
                            "message": "z must lie in the valuation ring"}


def test_lp_table_never_prints_part_of_a_table(monkeypatch):
    # a refusal at a later n: the rows before it are not printed either
    def refusing(ctx, n, r, chi, z):
        if n == 2:
            raise PrecisionExhausted("refused at n = 2")
        return Lpq_special(ctx, n, r, chi, z)

    monkeypatch.setattr(cli, "Lpq_special", refusing)
    code, doc = run_json(["lp-table", "--p", "5", "--chi", "omega"])
    assert code == 1
    assert doc["error"] == {"type": "PrecisionExhausted",
                            "message": "refused at n = 2"}


def test_lp_table_digits_read_back():
    # At p = 13 a digit can be 10, 11 or 12; the column stays readable.
    ctx = QContext(13, Fraction(14), 12)
    chi = omega_pow(13, 1)
    code, out = run_cli(["lp-table", "--p", "13", "--chi", "omega",
                         "--n-max", "4"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    for n, row in enumerate(rows):
        digits = Lpq_special(ctx, n, 1, chi, 0).to_dict()["digits"]
        assert [int(t) for t in row["digits"].split()] == digits


def test_kummer_classical():
    code, doc = run_json(["kummer-verify", "--theorem", "classical",
                          "--p", "5", "--n", "2", "--c", "4", "--k", "1"])
    assert code == 0
    assert (doc["passed"], doc["failed"], doc["inconclusive"]) == (1, 0, 0)
    assert doc["reports"][0]["witness"] == {"fraction": "-1/63"}


def test_kummer_single_cell():
    code, doc = run_json(["kummer-verify", "--theorem", "53", "--p", "5",
                          "--chi", "omega^2", "--n-list", "1,2,3",
                          "--c", "4", "--k", "1", "--z", "5"])
    assert code == 0
    assert (doc["total"], doc["passed"]) == (6, 6)


def test_kummer_grid_counts():
    expected = {
        "53": (240, 200, 40, 0),
        "54": (16, 2, 14, 0),
        "binop": (240, 200, 40, 0),
    }
    for theorem, counts in expected.items():
        code, doc = run_json(["kummer-verify", "--theorem", theorem,
                              "--grid", "default", "--p", "5"])
        assert code == 3
        got = (doc["total"], doc["passed"], doc["failed"],
               doc["inconclusive"])
        assert got == counts, theorem


def test_emit_writes_a_grid_document_once_as_json_dump_would():
    code, out = run_cli(["kummer-verify", "--theorem", "54", "--grid",
                         "default", "--p", "5"])
    doc = json.loads(out)
    assert code == 3 and doc["reports"]
    recording = Recording()
    cli._emit(doc, recording)
    assert recording.writes == [json.dumps(doc, sort_keys=True) + "\n"] \
        == [out]


def test_kummer_grid_parallel_identical():
    base = run_cli(["kummer-verify", "--theorem", "54", "--grid", "default",
                    "--p", "5"])
    parallel = run_cli(["kummer-verify", "--theorem", "54", "--grid",
                        "default", "--p", "5", "--jobs", "2"])
    assert base == parallel


def test_kummer_grid_uncertified_cells_are_reports():
    # At the default prec 12 the k' = 8 cells of theorem 54 at p = 7 need
    # depth 13; they become inconclusive reports, not an error document.
    code, doc = run_json(["kummer-verify", "--theorem", "54", "--grid",
                          "default", "--p", "7"])
    assert doc["total"] == 16 and doc["inconclusive"] >= 1
    assert code == (3 if doc["failed"] else 0)
    for rep in doc["reports"]:
        if rep["inconclusive"]:
            assert rep["pass"] is False
            assert rep["observed_valuation"] is None
            assert rep["notes"] == [
                "working precision 12 cannot certify this bound; need >= 13"]


def test_kummer_jobs_clamped(monkeypatch):
    seen = []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [[] for _ in tasks]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    argv = ["kummer-verify", "--theorem", "54", "--grid", "default",
            "--p", "5", "--jobs", "1000"]
    # the default grid has 16 tasks
    for cpus, want in ((4, 4), (64, 16)):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        seen.clear()
        assert run_json(argv) == (0, {
            "failed": 0, "inconclusive": 0, "passed": 0, "reports": [],
            "notes": [congruences._NOTE_COLLAPSE], "schema": "qpl/2",
            "total": 0})
        assert seen == [want]
    # an unknown CPU count runs the grid in-process
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    seen.clear()
    code, doc = run_json(argv)
    assert (code, doc["total"], seen) == (3, 16, [])


def test_kummer_grid_shares_one_context(monkeypatch):
    built = []
    real = cli.QContext

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "QContext", counting)
    code, doc = run_json(["kummer-verify", "--theorem", "53", "--grid",
                          "default", "--p", "5", "--jobs", "1"])
    assert (code, doc["total"]) == (3, 16 * 15)
    assert len(built) == 1


def test_kummer_grid_uneven_chunks_keep_order(monkeypatch):
    chunk_sizes = []

    class InProcess:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            chunks = list(chunks)
            chunk_sizes.extend(len(c) for c in chunks)
            assert len(chunks) <= self.max_workers
            return [fn(c) for c in chunks]

    argv = ["kummer-verify", "--theorem", "53", "--grid", "default",
            "--p", "5"]
    serial = run_cli(argv + ["--jobs", "1"])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcess)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    chunked = run_cli(argv + ["--jobs", "3"])
    assert chunk_sizes == [6, 6, 4]
    assert chunked == serial


def test_python_m_qpl(monkeypatch):
    # a real process: main() reads its arguments from sys.argv
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), COLUMNS="80")
    env.pop(cli.PRECISION_ENV, None)

    def qpl(*argv):
        return subprocess.run([sys.executable, "-m", "qpl", *argv],
                              capture_output=True, env=env, timeout=120)

    proc = qpl("bernoulli", "--n", "12")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == "-691/2730"
    argv = ["qbernoulli", "--p", "5", "--n", "2", "--convention", "carlitz"]
    proc = qpl(*argv)
    monkeypatch.setenv("COLUMNS", "80")
    want = exit_outcome(cli._build_parser().parse_args, argv)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) \
        == (want[0], b"", want[2])
    assert "{bernoulli,qbernoulli,lp," in want[2]


def test_kummer_usage_errors(capsys):
    kv = ["kummer-verify", "--p", "5"]
    cell = kv + ["--chi", "omega^2", "--c", "4", "--k", "1"]
    err = "qpl: error: "
    for argv, message in (
        (kv + ["--theorem", "53"],
         err + "need --chi, --c, --k (or --grid default)"),
        (kv + ["--grid", "default"],
         "qpl kummer-verify: error: the following arguments are required: "
         "--theorem"),
        (kv + ["--theorem", "classical", "--k", "1"],
         err + "classical verification needs --n and --c"),
        (kv + ["--theorem", "classical", "--n", "2", "--k", "1"],
         err + "classical verification needs --n and --c"),
        (kv + ["--theorem", "classical", "--n", "2", "--c", "4"],
         err + "classical verification needs --k"),
        (cell + ["--theorem", "53", "--n-list", "1,2"],
         err + "need --z (admissible lattice point)"),
        (cell + ["--theorem", "54", "--z", "5", "--k2", "5"],
         err + "theorem 54 needs --n and --k2"),
        (cell + ["--theorem", "54", "--z", "5", "--n", "2"],
         err + "theorem 54 needs --n and --k2"),
        (cell + ["--theorem", "53", "--z", "5"],
         err + "theorems 53/binop need --n-list"),
        (cell + ["--theorem", "binop", "--z", "5"],
         err + "theorems 53/binop need --n-list"),
        (kv + ["--theorem", "53", "--grid", "default", "--jobs", "0"],
         err + "--jobs must be >= 1"),
    ):
        assert usage_error(capsys, argv) == message, argv


def test_oracle_certify():
    code, doc = run_json(["oracle-certify", "--r-max", "1"])
    assert code == 0
    assert doc["certificate"]["normalization"] == "n+r"
    assert doc["certificate"]["single_beta"] == "pure_sum"
    code, doc = run_json(["oracle-certify", "--r-max", "3"])
    assert code == 1
    assert doc["error"]["type"] == "NoConsistentNormalization"
    assert len(doc["error"]["residuals"]) == 4


def test_identity_check():
    code, doc = run_json(["identity-check", "--cases", "40", "--seed", "3"])
    assert code == 0
    assert doc["failures"] == 0
    assert [s["name"] for s in doc["suites"]] == [
        "teichmuller", "logexp", "qpow", "precision", "operators"]
    assert all(s["cases"] == 40 for s in doc["suites"])
    again = run_cli(["identity-check", "--cases", "40", "--seed", "3"])[1]
    assert json.loads(again) == doc


def test_precision_env(monkeypatch):
    monkeypatch.setenv("QPL_PRECISION", "9")
    code, doc = run_json(["qbernoulli", "--p", "5", "--n", "1"])
    assert code == 0
    assert doc["params"]["prec"] == 9


def test_malformed_precision_env_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("QPL_PRECISION", "abc")
    for argv in (["qbernoulli", "--p", "5", "--n", "1"],
                 ["lp-table", "--p", "5", "--chi", "omega"]):
        assert usage_error(capsys, argv) \
            == "qpl: error: QPL_PRECISION must be an integer, got 'abc'"
    # a subcommand without --prec, or a query that sets it, never reads it
    assert run_json(["bernoulli", "--n", "2"])[0] == 0
    code, doc = run_json(["qbernoulli", "--p", "5", "--n", "1", "--prec", "7"])
    assert code == 0 and doc["params"]["prec"] == 7
    # the classical congruence reads no precision, so not QPL_PRECISION
    classical = ["kummer-verify", "--theorem", "classical", "--p", "5",
                 "--n", "2", "--c", "4", "--k", "1"]
    code, doc = run_json(classical)
    assert code == 0 and doc["total"] == 1
    monkeypatch.setenv("QPL_PRECISION", "0")
    assert usage_error(capsys, ["qbernoulli", "--p", "5", "--n", "1"]) \
        == "qpl: error: --prec must be >= 1"
    assert run_json(classical)[0] == 0


def exit_outcome(call, *args):
    """(exit code, stdout, stderr) of call(*args), which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as info:
            call(*args)
    return info.value.code, out.getvalue(), err.getvalue()


SUBCOMMANDS = ("bernoulli", "qbernoulli", "lp", "lp-at-r", "lp-table",
               "kummer-verify", "oracle-certify", "identity-check")


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["bogus"], ["--p", "5"],
    *([name, "-h"] for name in SUBCOMMANDS),
    # a missing required option
    ["qbernoulli", "--p", "5"],
    ["kummer-verify", "--p", "5", "--grid", "default"],
    # a bad type=int value, a bad choices value, a missing value
    ["qbernoulli", "--p", "five", "--n", "2"],
    ["kummer-verify", "--theorem", "55", "--p", "5"],
    ["lp", "--p", "5", "--chi", "omega", "--s", "-1", "--convention", "x"],
    ["oracle-certify", "--r-max"],
    # an ambiguous abbreviation
    ["lp", "--p", "5", "--c", "omega", "--s", "-1"],
    # unrecognized arguments, which the top-level parser reports
    ["qbernoulli", "--p", "5", "--n", "2", "--convention", "carlitz"],
    ["bernoulli", "--n", "2", "extra"],
    ["lp", "--p", "5", "--chi", "omega", "--s", "-1", "qbernoulli"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_usage_bytes_are_the_full_parsers(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    want = exit_outcome(cli._build_parser().parse_args, argv)
    assert exit_outcome(main, argv) == want
    assert want[0] in (0, 2)


REFUSALS = [
    (["bernoulli", "--n", "2", "--chi", "omega^2"], "--chi requires --p"),
    (["bernoulli", "--n", "-1"], "--n must be >= 0"),
    (["qbernoulli", "--p", "5", "--n", "2", "--prec", "0"],
     "--prec must be >= 1"),
    (["kummer-verify", "--p", "5", "--theorem", "classical", "--k", "1"],
     "classical verification needs --n and --c"),
    (["kummer-verify", "--p", "5", "--theorem", "classical", "--n", "2",
      "--c", "4"], "classical verification needs --k"),
    (["kummer-verify", "--p", "5", "--theorem", "53"],
     "need --chi, --c, --k (or --grid default)"),
    (["kummer-verify", "--p", "5", "--theorem", "53", "--chi", "omega^2",
      "--c", "4", "--k", "1"], "need --z (admissible lattice point)"),
    (["kummer-verify", "--p", "5", "--theorem", "54", "--chi", "omega^2",
      "--c", "4", "--k", "1", "--z", "5", "--n", "2"],
     "theorem 54 needs --n and --k2"),
    (["kummer-verify", "--p", "5", "--theorem", "binop", "--chi", "omega^2",
      "--c", "4", "--k", "1", "--z", "5"], "theorems 53/binop need --n-list"),
    (["kummer-verify", "--p", "5", "--theorem", "53", "--grid", "default",
      "--jobs", "0"], "--jobs must be >= 1"),
    (["lp", "--p", "5", "--chi", "omega", "--s", "-2", "--F", "0"],
     "--F must be >= 1"),
    (["lp-at-r", "--p", "5", "--chi", "omega", "--F", "-5"],
     "--F must be >= 1"),
    (["oracle-certify", "--r-max", "0"], "--r-max must be >= 1"),
    (["oracle-certify", "--r-max", "-1"], "--r-max must be >= 1"),
    (["identity-check", "--cases", "-1"], "--cases must be >= 0"),
    (["lp-table", "--p", "5", "--chi", "omega", "--n-max", "-1"],
     "--n-max must be >= 0"),
]
# --grid default sets each cell's options itself, and refuses them given
GRID = ["kummer-verify", "--p", "5", "--theorem", "53", "--grid", "default"]
REFUSALS += [(GRID + [option, value], "--grid default sets its own " + option)
             for option, value in (("--r", "1"), ("--chi", "omega^2"),
                                   ("--n-list", "1,2"), ("--n", "2"),
                                   ("--c", "4"), ("--k", "1"), ("--k2", "5"),
                                   ("--z", "5"))]
REFUSALS.append((GRID + ["--z", "5", "--r", "2"],
                 "--grid default sets its own --r, --z"))
# classical verification reads --n, --c, --k and --chi, and refuses the
# options of the other theorems and of the p-adic context (--prec, --q,
# --jobs); a QPL_PRECISION in the environment is not an option given
CLASSICAL = ["kummer-verify", "--p", "5", "--theorem", "classical", "--n", "2",
             "--c", "4", "--k", "1"]
REFUSALS += [(CLASSICAL + [option, value],
              "classical verification does not take " + option)
             for option, value in (("--grid", "default"), ("--r", "3"),
                                   ("--n-list", "1,2"), ("--k2", "5"),
                                   ("--z", "5"), ("--prec", "3"),
                                   ("--q", "7"), ("--jobs", "4"))]
REFUSALS.append((CLASSICAL + ["--z", "5", "--grid", "default", "--r", "3"],
                 "classical verification does not take --grid, --r, --z"))
REFUSALS.append((CLASSICAL + ["--prec", "3", "--q", "7", "--jobs", "4"],
                 "classical verification does not take --prec, --q, --jobs"))
REFUSALS.append((CLASSICAL + ["--c", "0"], "--c must be >= 1"))
IDS = [message for _, message in REFUSALS]
# --r below 1 and --n below 0 in each subcommand that takes them, and a
# kummer-verify cell's other options out of range, named by subcommand
# and message
CELL = ["kummer-verify", "--p", "5", "--chi", "omega^2", "--c", "4", "--k",
        "1", "--z", "5"]
RANGES = [
    (["qbernoulli", "--p", "5", "--n", "-1"], "--n must be >= 0"),
    (["qbernoulli", "--p", "5", "--n", "2", "--r", "0"], "--r must be >= 1"),
    (["lp", "--p", "5", "--chi", "omega", "--s", "-1", "--r", "0"],
     "--r must be >= 1"),
    (["lp-at-r", "--p", "5", "--chi", "omega", "--r", "-1"],
     "--r must be >= 1"),
    (["lp-table", "--p", "5", "--chi", "omega", "--r", "0"],
     "--r must be >= 1"),
    (CELL + ["--theorem", "53", "--n-list", "1,2", "--r", "0"],
     "--r must be >= 1"),
    (CELL + ["--theorem", "54", "--n", "-1", "--k2", "5"],
     "--n must be >= 0"),
    (CELL + ["--theorem", "53", "--n-list", "1,2", "--c", "0"],
     "--c must be >= 1"),
    (CELL + ["--theorem", "binop", "--n-list", "1,2", "--k", "-1"],
     "--k must be >= 0"),
    (CELL + ["--theorem", "53", "--n-list", "0,1"], "--n-list must be >= 1"),
    (CELL + ["--theorem", "54", "--n", "2", "--k2", "0"],
     "--k2 must be >= 1"),
]
# kummer-verify cells that pass the range table but not their theorem's
# tighter bounds, and an --n-list that names no n
RANGES += [
    (CELL + ["--theorem", "54", "--n", "0", "--k2", "5"],
     "theorem 54 needs --n >= 1"),
    # the later --k 0 overrides the cell's --k 1
    (CELL + ["--theorem", "54", "--n", "2", "--k", "0", "--k2", "4"],
     "theorem 54 needs --k >= 1"),
    (["kummer-verify", "--p", "5", "--theorem", "classical", "--n", "0",
      "--c", "4", "--k", "1"], "classical verification needs --n >= 1"),
    (CELL + ["--theorem", "53", "--n-list", ","],
     "theorems 53/binop need --n-list"),
]
REFUSALS += RANGES
IDS += [argv[0] + " " + message for argv, message in RANGES]
# a single cell refuses the options that only the other theorems read, and
# lists them in the order of its mode's row, not of argv
OTHERS = [
    (CELL + ["--theorem", "53", "--n-list", "1,2", "--n", "3"],
     "theorems 53/binop do not take --n"),
    (CELL + ["--theorem", "53", "--n-list", "1,2", "--k2", "9"],
     "theorems 53/binop do not take --k2"),
    (CELL + ["--theorem", "binop", "--n-list", "1,2", "--n", "3"],
     "theorems 53/binop do not take --n"),
    (CELL + ["--theorem", "54", "--n", "2", "--k2", "5", "--n-list", "7,8"],
     "theorem 54 does not take --n-list"),
    (CELL + ["--theorem", "53", "--k2", "9", "--n-list", "1,2", "--n", "3"],
     "theorems 53/binop do not take --n, --k2"),
]
REFUSALS += OTHERS
IDS += [argv[argv.index("--theorem") + 1] + " " + message
        for argv, message in OTHERS]


@pytest.mark.parametrize("argv, message", REFUSALS, ids=IDS)
def test_refusal_bytes_are_the_full_parsers(monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    full = cli._build_parser()
    full.parse_args(argv)
    assert exit_outcome(main, argv) == exit_outcome(full.error, message)


def test_cells_call_the_verifiers_bound_in_cli(monkeypatch):
    # a cell looks its verifier up in cli when it runs, so that a name
    # rebound after import, as the benchmark's timers and tracer do, is the
    # one called
    called = []
    for name in ("verify_thm53", "verify_thm54", "verify_binom_op_thm"):
        def counting(*args, name=name, verify=getattr(cli, name)):
            called.append(name)
            return verify(*args)
        monkeypatch.setattr(cli, name, counting)
    for theorem, options in (("53", ["--n-list", "1,2"]),
                             ("54", ["--n", "2", "--k2", "5"]),
                             ("binop", ["--n-list", "1,2"])):
        code, doc = run_json(CELL + ["--theorem", theorem] + options)
        assert code in (0, 3) and doc["reports"], theorem
    assert called == ["verify_thm53", "verify_thm54", "verify_binom_op_thm"]


# the library's own refusals behind the command line's: a query reaches
# none of them, since _validate refuses first, so each is called directly
# (name, exception, message, call on QContext(5, 6, 10) and omega^2)
LIBRARY_REFUSALS = [
    ("n_list", PreconditionViolated, "n_list must contain positive integers",
     lambda ctx, w: verify_thm53(ctx, w, 1, [], 4, 1, 5)),
    ("thm53", PreconditionViolated, "need r >= 1, c >= 1, k >= 0",
     lambda ctx, w: verify_thm53(ctx, w, 1, [1, 2], 0, 1, 5)),
    ("thm54", PreconditionViolated, "need r, n, c, k, k' >= 1",
     lambda ctx, w: verify_thm54(ctx, w, 1, 0, 4, 1, 5, 5)),
    ("binop", PreconditionViolated, "need r >= 1, c >= 1, k >= 0",
     lambda ctx, w: verify_binom_op_thm(ctx, w, 1, [1, 2], 4, -1, 5)),
    ("classical", PreconditionViolated, "need n >= 1, c >= 1, k >= 0",
     lambda ctx, w: verify_classical_kummer(5, 0, 4, 1)),
    ("partial residues", DomainError, "residues must satisfy 1 <= a_i <= F",
     lambda ctx, w: partial_q_zeta_special(ctx, 2, 1, [11], 10)),
    ("Lq_special n", ValueError, "need n >= 0 and r >= 1",
     lambda ctx, w: Lq_special(ctx, -1, 1, w)),
    ("Lq_special F", DomainError, "F = 7 is not a multiple of the modulus 5",
     lambda ctx, w: Lq_special(ctx, 2, 1, w, 0, 7)),
    ("Lpq_special r", ValueError, "need n >= 0 and r >= 1",
     lambda ctx, w: Lpq_special(ctx, 2, 0, w)),
    ("Lpq_at_r r", ValueError, "order r must be >= 1",
     lambda ctx, w: Lpq_at_r(ctx, 0, w)),
    ("carlitz_beta n", ValueError, "n must be >= 0",
     lambda ctx, w: carlitz_beta(ctx, -1)),
    ("series_beta k", ValueError, "k must be >= 0",
     lambda ctx, w: series_beta(ctx, -1, 1)),
]


@pytest.mark.parametrize("error, message, call",
                         [row[1:] for row in LIBRARY_REFUSALS],
                         ids=[row[0] for row in LIBRARY_REFUSALS])
def test_library_refusals_behind_the_cli(error, message, call):
    with pytest.raises(error) as info:
        call(QContext(5, Fraction(6), 10), omega_pow(5, 2))
    assert str(info.value) == message


def test_one_process_builds_the_parser_once(monkeypatch):
    built = []
    for name, command in cli._COMMANDS.items():
        def recording(sp, name=name, add_args=command.add_args):
            built.append(name)
            add_args(sp)
        monkeypatch.setitem(cli._COMMANDS, name,
                            command._replace(add_args=recording))
    cli._build_parser.cache_clear()
    try:
        for argv in (["bernoulli", "--n", "4"],
                     ["qbernoulli", "--p", "5", "--n", "2"],
                     ["bernoulli", "--n", "4"]):
            assert run_cli(argv)[0] == 0
        with pytest.raises(SystemExit):
            run_cli(["bernoulli", "--n", "4", "extra"])
        assert run_cli(["lp-table", "--p", "5", "--chi", "omega",
                        "--n-max", "1"])[0] == 0
    finally:
        # the next query builds the parser from the unwrapped commands
        cli._build_parser.cache_clear()
    assert built == list(SUBCOMMANDS)
    assert list(cli._COMMANDS) == list(SUBCOMMANDS)


def test_readme_examples_run():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("qpl ")]
    assert len(lines) == 12
    for line in lines:
        code, _ = run_cli(shlex.split(line, comments=True)[1:])
        assert code in (0, 3), line
