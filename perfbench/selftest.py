"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. For each workload, one round runs and must pass its checks; then one
   certified digit of one checked output is changed and the checks must
   reject it.
2. Each workload runs traced twice with the same seed.  The per-layer
   counts must repeat exactly, every layer metric mapped to the workload
   below must read nonzero, and on padic-kernels the layers above padic
   must read zero calls.

Exits 0 when every check holds.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, Qpl  # noqa: E402
from run import WORKLOADS  # noqa: E402

# layer metric -> workloads on which it must read nonzero
MAPPED = {
    "padic.mul.calls": ("padic-kernels", "kummer-grid", "lseries", "oneshot"),
    "padic.add.calls": ("padic-kernels", "kummer-grid", "lseries", "oneshot"),
    "padic.div.calls": ("padic-kernels", "lseries", "oneshot"),
    "padic.from_fraction.calls": ("kummer-grid",),
    "padic.from_fraction.input_bits": ("kummer-grid",),
    "padic.context_builds": ("kummer-grid",),
    "padic.q_bracket.calls": ("lseries",),
    "padic.q_power.calls": ("lseries", "padic-kernels"),
    "padic.log_exp.calls": ("lseries", "padic-kernels"),
    "padic.teichmuller.calls": ("lseries", "padic-kernels"),
    "characters.calls": ("kummer-grid",),
    "classical.calls": ("oneshot",),
    "qbernoulli.multi_q_beta_poly.calls": ("kummer-grid",),
    "qbernoulli.multi_gen_q_beta_poly.calls": ("kummer-grid",),
    "qbernoulli.carlitz_beta.calls": ("lseries", "oneshot"),
    "qbernoulli.carlitz_entries_built": ("lseries", "oneshot"),
    "qbernoulli.series_beta.calls": ("lseries", "oneshot"),
    "lfunctions.Lpq_special.calls": ("kummer-grid",),
    "lfunctions.Lpq_eval.calls": ("lseries", "oneshot"),
    "lfunctions.Lpq_at_r.calls": ("lseries", "oneshot"),
    "lfunctions.series_terms": ("lseries", "oneshot"),
    "congruences.verify.calls": ("kummer-grid",),
    "congruences.Bnr_structure.calls": ("kummer-grid",),
    "congruences.Bnr_structure.misses": ("kummer-grid",),
    "invariants.cases": ("padic-kernels",),
    "cli.main.calls": ("oneshot",),
}

# layers that must do no work on padic-kernels
IDLE_ON_KERNELS = [name for name in MAPPED
                   if name.split(".")[0] in ("qbernoulli", "lfunctions",
                                             "congruences", "cli")]


def check_rejects_altered_digit(name):
    workload = WORKLOADS[name](Qpl(), random.Random("%s/1" % name))
    outputs, _, _ = workload.run_round()
    _, _, problems = workload.evaluate(outputs)
    problems += workload.final_check(outputs)
    if problems:
        return "checks fail on the program's own outputs: %s" % problems[:3]
    altered = workload.alter(outputs)
    _, _, problems = workload.evaluate(altered)
    problems += workload.final_check(altered)
    if not problems:
        return "an altered digit passed the checks"
    return ""


def traced_counts(name, seed):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", name, "--seed", str(seed), "--seconds", "1",
           "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr[-2000:])
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "bits")}


def check_trace(name):
    first, second = traced_counts(name, 7), traced_counts(name, 7)
    problems = []
    if first != second:
        problems.append("counts differ between two traced runs: %s" % sorted(
            k for k in first if first[k] != second.get(k)))
    for metric, names in MAPPED.items():
        if name in names and not first[metric]:
            problems.append("%s reads 0" % metric)
    if name == "padic-kernels":
        problems += ["%s reads %d, expected 0" % (m, first[m])
                     for m in IDLE_ON_KERNELS if first[m]]
    return "; ".join(problems)


def main():
    failures = 0
    for name in WORKLOADS:
        for label, check in (("altered digit rejected", check_rejects_altered_digit),
                             ("traced counts", check_trace)):
            problem = check(name)
            failures += bool(problem)
            print("%-14s %-24s %s" % (name, label, problem or "ok"), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
