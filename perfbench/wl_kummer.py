"""kummer-grid: the paper's congruence verification as users run it.

One round is one pass of ``qpl kummer-verify --grid default --prec 14
--jobs 1`` for theorems 53, 54 and binop at p = 5 and 7: six cli.main calls,
992 congruence reports.  One operation is one report.  Reports come back in
bulk, so latency is taken per grid task, i.e. per verifier call (15 reports
for 53 and binop, 1 for 54), by timing the verifiers the CLI calls.  A
round's time is the sum of its tasks and the rest of each call.

Reports that do not pass are failed operations: 148 of the 992 fail today
(the r = 2 cells of 53 and binop, and 14 of 16 theorem-54 cells per prime)
and none is inconclusive.

Checks: every report's verdict is re-derived from its witness digits and its
bound, and the bound from the theorem's statement; on a seeded sample of one
task per grid, the witnesses recomputed at prec 20 must agree with those at
prec 14 on every certified digit.
"""

import contextlib
import io
import json
import time

from common import CERT_MARGIN, agree, alter_doc, from_doc, valuation

PREC = 14
RECHECK_PREC = 20
GRIDS = [(theorem, p) for theorem in ("53", "54", "binop") for p in (5, 7)]
VERIFIERS = ("verify_thm53", "verify_thm54", "verify_binom_op_thm")


def _argv(theorem, p, prec):
    return ["kummer-verify", "--theorem", theorem, "--grid", "default",
            "--p", str(p), "--prec", str(prec), "--jobs", "1"]


def required_valuation(theorem, check, k, p):
    """The bound each report must meet, from the statements of theorems
    53, 54 and the binomial-operator theorem (odd p: v(p*) = 1 and the R*
    threshold is 1)."""
    if p == 2:
        raise ValueError("the grid runs at odd primes only")
    if theorem == "53":
        return k + 1 if check == "membership" else 2
    if theorem == "54":
        return 2
    return 1 if check == "membership" else 2


def _task_key(report):
    pt = report["point"]
    k = pt["k"]
    return (report["theorem"], pt["p"], json.dumps(pt["chi"], sort_keys=True),
            pt["r"], pt["c"], tuple(k) if isinstance(k, list) else k, pt["z"])


def _drawn_task(doc, draw):
    """The reports of the grid task that draw in [0, 1) selects."""
    tasks = {}
    for rep in doc["reports"]:
        tasks.setdefault(_task_key(rep), []).append(rep)
    keys = sorted(tasks, key=str)
    return tasks[keys[int(draw * len(keys))]]


def _chi_spec(chi):
    """The CLI spec of a grid character: principal, or omega^e at modulus p
    (its one generator is the primitive root that defines eta)."""
    if chi["conductor"] == 1:
        return "principal"
    (_, e), = chi["generators"]
    return "omega^%d" % e


class KummerGrid:
    name = "kummer-grid"

    def __init__(self, qpl, rng):
        self.qpl = qpl
        self.argvs = [_argv(theorem, p, PREC) for theorem, p in GRIDS]
        self.recheck_draws = [rng.random() for _ in GRIDS]
        self.task_times = []
        cli = qpl.cli
        congruences = qpl.congruences
        for name in VERIFIERS:
            setattr(cli, name, self._timed(congruences, name))

    def _timed(self, module, name):
        # look the verifier up at call time, so a tracer installed later
        # still sees the call
        times = self.task_times
        clock = time.perf_counter

        def verifier(*args, **kwargs):
            t0 = clock()
            try:
                return getattr(module, name)(*args, **kwargs)
            finally:
                times.append(clock() - t0)

        return verifier

    def run_round(self):
        """One pass.  Its time is split into the grid tasks and, per
        cli.main call, the rest of the call (argument parsing, grid set-up,
        output), so that the runner takes each part's time over the rounds,
        as it does per operation on the other workloads."""
        tasks = self.task_times
        del tasks[:]
        outputs = []
        parts = []
        clock = time.perf_counter
        for argv in self.argvs:
            buf = io.StringIO()
            first = len(tasks)
            t0 = clock()
            with contextlib.redirect_stdout(buf):
                rc = self.qpl.cli.main(argv)
            rest = clock() - t0 - sum(tasks[first:])
            parts.extend(tasks[first:])
            parts.append(rest)
            outputs.append({"argv": argv, "rc": rc, "stdout": buf.getvalue()})
        return outputs, list(tasks), parts

    # -- checks ---------------------------------------------------------------

    def evaluate(self, outputs):
        """Every report is an operation; one that does not pass (failed or
        inconclusive) is a failed operation.  The grid is fixed, so the
        same reports fail in every round and every run."""
        attempted = not_passed = 0
        problems = []
        for out in outputs:
            doc = json.loads(out["stdout"])
            reports = doc["reports"]
            attempted += len(reports)
            not_passed += sum(not rep["pass"] for rep in reports)
            failed = 0
            for rep in reports:
                problem = self._verdict_problem(rep)
                if problem:
                    problems.append("%s: %s" % (" ".join(out["argv"]), problem))
                if not rep["pass"] and not rep["inconclusive"]:
                    failed += 1
            counts = (doc["total"], doc["passed"], doc["failed"],
                      doc["inconclusive"])
            want = (len(reports), sum(r["pass"] for r in reports), failed,
                    sum(r["inconclusive"] for r in reports))
            if counts != want:
                problems.append("%s: totals %s, reports give %s"
                                % (" ".join(out["argv"]), counts, want))
            if out["rc"] != (3 if failed else 0):
                problems.append("%s: exit code %s with %d failed reports"
                                % (" ".join(out["argv"]), out["rc"], failed))
        return attempted, not_passed, problems

    @staticmethod
    def _verdict_problem(rep):
        pt = rep["point"]
        k = pt["k"][0] if isinstance(pt["k"], list) else pt["k"]
        required = required_valuation(rep["theorem"], rep["check"], k, pt["p"])
        if rep["required_valuation"] != required:
            return "bound %s, theorem states %d" % (rep["required_valuation"],
                                                   required)
        w = from_doc(rep["witness"])
        if w.rep is None:
            observed, passed, inconclusive = None, True, False
        elif w.rep == 0:
            observed = w.prec
            passed = w.prec >= required + CERT_MARGIN
            inconclusive = not passed
        else:
            observed = valuation(w.rep, w.p)
            if observed < required:
                passed, inconclusive = False, False
            else:
                passed = w.prec >= required + CERT_MARGIN
                inconclusive = not passed
        got = (rep["observed_valuation"], rep["pass"], rep["inconclusive"])
        if got != (observed, passed, inconclusive):
            return "%s %s reports %s, witness gives %s" % (
                rep["check"], pt.get("n"), got, (observed, passed, inconclusive))
        return ""

    def final_check(self, outputs):
        """Recompute one seeded task per grid at prec 20 through the CLI's
        single-cell form and compare witnesses digit by digit."""
        problems = []
        for out, draw in zip(outputs, self.recheck_draws):
            reports = _drawn_task(json.loads(out["stdout"]), draw)
            argv = self._cell_argv(reports)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                self.qpl.cli.main(argv)
            fresh = json.loads(buf.getvalue()).get("reports", [])
            if len(fresh) != len(reports):
                problems.append("%s: %d reports at prec %d, %d at prec %d"
                                % (" ".join(argv), len(fresh), RECHECK_PREC,
                                   len(reports), PREC))
                continue
            for old, new in zip(reports, fresh):
                if old["point"].get("n") != new["point"].get("n"):
                    problems.append("%s: report order differs" % " ".join(argv))
                    break
                a, b = from_doc(old["witness"]), from_doc(new["witness"])
                if not agree(a, b):
                    problems.append(
                        "%s: %s n=%s witness %s at prec %d, %s at prec %d"
                        % (" ".join(argv), old["check"], old["point"].get("n"),
                           a, PREC, b, RECHECK_PREC))
        return problems

    @staticmethod
    def _cell_argv(reports):
        first = reports[0]
        pt = first["point"]
        argv = ["kummer-verify", "--theorem", first["theorem"],
                "--p", str(pt["p"]), "--q", pt["q"], "--prec", str(RECHECK_PREC),
                "--chi", _chi_spec(pt["chi"]), "--r", str(pt["r"]),
                "--c", str(pt["c"]), "--z", pt["z"]]
        if first["theorem"] == "54":
            k, k2 = pt["k"]
            return argv + ["--n", str(pt["n"]), "--k", str(k), "--k2", str(k2)]
        n_list = [r["point"]["n"] for r in reports if r["check"] == "membership"]
        return argv + ["--k", str(pt["k"]),
                       "--n-list", ",".join(str(n) for n in n_list)]

    def alter(self, outputs):
        """Outputs with one certified witness digit changed, in a task that
        final_check recomputes."""
        out = dict(outputs[0])
        doc = json.loads(out["stdout"])
        target = _drawn_task(doc, self.recheck_draws[0])[0]
        target["witness"] = alter_doc(target["witness"])
        out["stdout"] = json.dumps(doc)
        return [out] + outputs[1:]
