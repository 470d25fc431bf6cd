"""oneshot: independent command-line queries, nothing reused.

One round is 25 qpl.cli.main queries, one of each kind at each prime
p in {3, 5, 7, 11, 13}: qbernoulli (Carlitz number), qbernoulli --r
(higher-order polynomial), lp at s = -n, lp-at-r --convention carlitz with
the nonprincipal character omega, and lp-table.  What sets a query's cost
follows a fixed schedule over slot j = kind index + prime index, so every
seed pays the same work: prec = 10 + 10 (j mod 6) spans 10..60, q = 1 + p^m with m
alternating between 1 and 2, n, r, and whether z is a fraction.  The seed
draws the characters of lp and lp-table, the lattice point z in p*{0..3}
and the fraction z.  The lp-at-r character is fixed: its number of series
terms, and so the round's slowest queries, depends on it (43 or 45 terms at
p = 11, prec 40).
Each query builds its own context.  One operation is one query.

Checks: every query exits 0 with a parseable answer whose series, if any,
converged; each answer agrees on every certified digit with the same query
at prec + 10.  That recheck covers every query of the round except
lp-at-r, where it covers one seeded query (the others cost seconds each at
prec + 10).
"""

import contextlib
import csv
import io
import json
import time

from common import agree, alter_doc, from_doc, from_repr

PRIMES = (3, 5, 7, 11, 13)
# lp-at-r comes first, so the schedule gives it precisions 10..50 and a
# round stays short enough to repeat every query several times in a run
KINDS = ("lp-at-r", "qbernoulli", "qbernoulli-r", "lp", "lp-table")


def _argv(kind, p, j, rng):
    """The query of one kind at prime p in schedule slot j: precision, q,
    n, r and the kind of z follow j, which fixes the cost; the seed draws
    the characters of lp and lp-table, the lattice point z and the fraction
    z."""
    base = ["--p", str(p), "--q", "1+p^%d" % (1 + j % 2),
            "--prec", str(10 + 10 * (j % 6))]
    z = str(p * rng.randrange(4))
    if kind == "qbernoulli":
        return ["qbernoulli"] + base + ["--n", str(4 + j % 5)]
    if kind == "qbernoulli-r":
        z_frac = rng.choice(("1/2", "3/2", "5/2", "1/4")) if j % 2 else z
        return (["qbernoulli"] + base
                + ["--n", str(4 + j % 5), "--r", str(1 + j % 3),
                   "--z", z_frac])
    if kind == "lp":
        return (["lp"] + base + ["--chi", "omega^%d" % rng.randrange(p - 1),
                                 "--s", str(-(j % 6)), "--z", z])
    if kind == "lp-at-r":
        return (["lp-at-r"] + base
                + ["--chi", "omega", "--z", z, "--convention", "carlitz"])
    return (["lp-table"] + base + ["--chi", "omega^%d" % rng.randrange(p - 1),
                                   "--z", z, "--n-max", "6"])


def _with_prec(argv, prec):
    argv = list(argv)
    argv[argv.index("--prec") + 1] = str(prec)
    return argv


def answers(argv, stdout):
    """The certified values a query printed, in order."""
    if argv[0] == "lp-table":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        if not rows:
            raise ValueError("empty table")
        return [from_repr(row["value"]) for row in rows]
    doc = json.loads(stdout)
    if "error" in doc:
        raise ValueError("%s: %s" % (doc["error"]["type"],
                                     doc["error"]["message"]))
    if doc.get("converged") is False:
        raise ValueError("series reported as not converged")
    return [from_doc(doc["value"])]


class OneShot:
    name = "oneshot"

    def __init__(self, qpl, rng):
        self.qpl = qpl
        self.queries = [_argv(kind, p, ki + pi, rng)
                        for ki, kind in enumerate(KINDS)
                        for pi, p in enumerate(PRIMES)]
        at_r = [i for i, q in enumerate(self.queries) if q[0] == "lp-at-r"]
        self.recheck_at_r = rng.choice(at_r)

    def run_round(self):
        cli = self.qpl.cli
        outputs = []
        latencies = []
        clock = time.perf_counter
        for argv in self.queries:
            buf = io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            latencies.append(clock() - t0)
            outputs.append({"argv": argv, "rc": rc, "stdout": buf.getvalue()})
        return outputs, latencies, latencies

    # -- checks ---------------------------------------------------------------

    def evaluate(self, outputs):
        problems = []
        for out in outputs:
            try:
                if out["rc"] != 0:
                    raise ValueError("exit code %s" % out["rc"])
                answers(out["argv"], out["stdout"])
            except ValueError as exc:
                problems.append("%s: %s" % (" ".join(out["argv"]), exc))
        return len(outputs), 0, problems

    def rechecked(self):
        """Indices of the queries final_check repeats at prec + 10."""
        return [i for i, q in enumerate(self.queries)
                if q[0] != "lp-at-r" or i == self.recheck_at_r]

    def final_check(self, outputs):
        problems = []
        for i in self.rechecked():
            argv = outputs[i]["argv"]
            prec = int(argv[argv.index("--prec") + 1])
            fresh = _with_prec(argv, prec + 10)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                self.qpl.cli.main(fresh)
            try:
                old = answers(argv, outputs[i]["stdout"])
                new = answers(fresh, buf.getvalue())
            except ValueError as exc:
                problems.append("%s: %s" % (" ".join(fresh), exc))
                continue
            if len(old) != len(new):
                problems.append("%s: %d values, %d at prec + 10"
                                % (" ".join(argv), len(old), len(new)))
            for a, b in zip(old, new):
                if not agree(a, b):
                    problems.append("%s: %s, at prec + 10 %s"
                                    % (" ".join(argv), a, b))
        return problems

    def alter(self, outputs):
        """Outputs with one certified digit of a rechecked answer changed."""
        outputs = list(outputs)
        i = next(i for i in self.rechecked()
                 if self.queries[i][0] != "lp-table")
        doc = json.loads(outputs[i]["stdout"])
        doc["value"] = alter_doc(doc["value"])
        outputs[i] = dict(outputs[i], stdout=json.dumps(doc))
        return outputs
