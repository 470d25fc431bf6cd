"""Command-line interface: document schemas, exit codes, grids, and
byte-level determinism."""

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

from qpl import Lpq_special, QContext, omega_pow
from qpl import cli
from qpl.cli import main


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
    assert doc["schema"] == "qpl/1"
    assert doc["value"] == "-1/30"
    assert doc["precision"] == "exact"


def test_bernoulli_chi_requires_p():
    with pytest.raises(SystemExit) as info:
        run_cli(["bernoulli", "--n", "2", "--chi", "omega^2"])
    assert info.value.code == 2


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


def test_lp_takes_a_character_by_generator_images():
    code, doc = run_json(["lp", "--p", "5", "--chi",
                          "mod:15;gens:11->2,7->1", "--s", "-2"])
    assert code == 0
    assert doc["converged"] is True
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
    assert doc["converged"] is True
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
    want = io.StringIO()
    json.dump(doc, want, sort_keys=True, indent=2)
    writes = []

    class Recording(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    cli._emit(doc, Recording())
    assert writes == [want.getvalue() + "\n"] == [out]


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
        assert run_json(argv) == (0, {"failed": 0, "inconclusive": 0,
                                      "passed": 0, "reports": [],
                                      "schema": "qpl/1", "total": 0})
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


def test_python_m_qpl():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qpl", "bernoulli", "--n", "12"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == "-691/2730"


def test_kummer_usage_errors():
    with pytest.raises(SystemExit) as info:
        run_cli(["kummer-verify", "--theorem", "53", "--p", "5"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run_cli(["kummer-verify", "--grid", "default", "--p", "5"])
    assert info.value.code == 2


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


def test_readme_examples_run():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("qpl ")]
    assert len(lines) == 12
    for line in lines:
        code, _ = run_cli(shlex.split(line, comments=True)[1:])
        assert code in (0, 3), line
