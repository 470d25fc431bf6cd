"""Benchmark runner for qpl.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process against the qpl sources under src/ (no
install).  A set-up imports qpl afresh and generates the workload's inputs
from the seed.  SETUPS set-ups run first; then whole rounds of the same
operations run until S seconds have passed, at least 5 rounds have run and
at least 300 operations have been timed one by one.  Each round starts with
a set-up of its own, outside the timed region, so every round starts with
cold module caches, as one command-line process does.  Every time
reported is the QUANTILE-th quantile of its repetitions in the run: of
each operation over the rounds, and of the set-ups for setup_s.  The
outputs of the first round are checked; every later round must reproduce
them exactly.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1, untraced and traced rounds alternate,
the tracer wrapping every public qpl function of each traced round's fresh
import, and the last line carries the per-layer metrics of one round and
the tracer's overhead.  The line before it is the run record: git SHA,
nproc, Python version, operations attempted and failed, and the SHA-256
digest of the outputs.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, Qpl, digest, p90  # noqa: E402
from tracing import Tracer  # noqa: E402
from wl_kummer import KummerGrid  # noqa: E402
from wl_lseries import LSeries  # noqa: E402
from wl_oneshot import OneShot  # noqa: E402
from wl_padic import PadicKernels  # noqa: E402

WORKLOADS = {cls.name: cls for cls in (KummerGrid, LSeries, PadicKernels,
                                       OneShot)}
SETUPS = 10
MIN_ROUNDS = 5
MIN_TIMED = 300
#: every time reported is the time that this share of its repetitions in
#: the run beat (nearest rank); the README says why not the fastest
QUANTILE = 0.9
#: no round starts once the run would pass this many seconds
TIME_CAP = 140.0
OUT = ROOT / "perfbench" / "out"


def git_sha():
    """HEAD's commit from .git, without running git; "unknown" outside a
    git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def typical(times):
    """The QUANTILE-th quantile of one timing's repetitions."""
    ordered = sorted(times)
    return ordered[round(QUANTILE * (len(ordered) - 1))]


def build(cls, seed):
    """A fresh import of qpl and the workload's inputs for this seed."""
    return cls(Qpl(), random.Random("%s/%d" % (cls.name, seed)))


def timed_build(cls, seed, times):
    """build(), timed into times after a full garbage collection, so that it
    does not pay for the previous build's garbage."""
    gc.collect()
    t0 = time.perf_counter()
    workload = build(cls, seed)
    times.append(time.perf_counter() - t0)
    return workload


class Rounds:
    """Set-ups and whole rounds of a workload, with their timings and output
    digests.

    Every round runs the same operations in the same order on a workload
    built afresh from the same seed, so timings line up by position across
    rounds.
    """

    def __init__(self, cls, seed):
        self.cls = cls
        self.seed = seed
        self.workload = None
        self.setup_times = []
        for _ in range(SETUPS):
            timed_build(cls, seed, self.setup_times)
        self.first = None
        self.digests = []
        self.latencies = []
        self.calls = []

    def _fresh(self):
        """Replace the workload by a new build and collect the old one, so
        that no cache outlives its round and collections during the round
        scan only what the round allocates."""
        self.workload = None
        gc.unfreeze()
        self.workload = timed_build(self.cls, self.seed, self.setup_times)
        gc.collect()
        gc.freeze()

    def run(self, seconds, min_rounds, min_timed, before_round=None,
            after_round=None):
        start = time.perf_counter()
        while True:
            self._fresh()
            if before_round is not None:
                before_round(self.workload)
            t0 = time.perf_counter()
            outputs, latencies, calls = self.workload.run_round()
            last = time.perf_counter() - t0
            if self.first is None:
                self.first = outputs
            self.digests.append(digest(outputs))
            self.latencies.append(latencies)
            self.calls.append(calls)
            if after_round is not None:
                after_round()
            elapsed = time.perf_counter() - start
            timed = sum(len(x) for x in self.latencies)
            if (elapsed >= seconds and len(self.digests) >= min_rounds
                    and timed >= min_timed):
                return
            if elapsed + last > TIME_CAP:
                return

    @staticmethod
    def typical(per_round):
        """Each position's typical() time over the rounds."""
        return [typical(times) for times in zip(*per_round)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    rounds = Rounds(cls, args.seed)
    if args.trace:
        # rounds alternate untraced and traced, so that both kinds see the
        # same host; the overhead compares the fastest round of each kind
        tracer = Tracer()
        snaps = [tracer.snapshot()]

        def before_round(workload):
            if len(rounds.digests) % 2:
                tracer.install(workload.qpl)

        def after_round():
            if len(rounds.digests) % 2 == 0:
                snaps.append(tracer.snapshot())

        rounds.run(args.seconds, 2, 0, before_round, after_round)
        traced = len(snaps) - 1
        per_round = [Tracer.counts_between(a, b)
                     for a, b in zip(snaps, snaps[1:])]
        if any(counts != per_round[0] for counts in per_round):
            print("perfbench: traced rounds made different calls",
                  file=sys.stderr)
        layers = dict(per_round[0])
        layers.update(Tracer.times_between(snaps[0], snaps[-1], traced))
        totals = [sum(c) for c in rounds.calls]
        overhead = min(totals[1::2]) / min(totals[0::2]) - 1
        layers["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
        tracer.write_spans(OUT / ("spans-%s-%d.jsonl"
                                  % (args.workload, args.seed)))
    else:
        rounds.run(args.seconds, MIN_ROUNDS, MIN_TIMED)

    workload = rounds.workload
    n_rounds = len(rounds.digests)
    attempted, failed, problems = workload.evaluate(rounds.first)
    problems += workload.final_check(rounds.first)
    if len(set(rounds.digests)) != 1:
        problems.append("rounds produced different outputs")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "rounds": n_rounds,
        "attempted": attempted * n_rounds, "failed": failed * n_rounds,
        "timed": sum(len(x) for x in rounds.latencies),
        "output_sha256": rounds.digests[0],
        "problems": problems[:20],
    }
    if args.trace:
        metrics = layers
    else:
        lat_ms = [1000 * t for t in Rounds.typical(rounds.latencies)]
        metrics = {
            "setup_s": {"value": typical(rounds.setup_times), "unit": "s"},
            "ops_per_s": {"value": attempted
                          / sum(Rounds.typical(rounds.calls)),
                          "unit": "ops/s"},
            "latency_p50_ms": {"value": statistics.median(lat_ms),
                               "unit": "ms"},
            "latency_p90_ms": {"value": p90(lat_ms), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    for problem in problems[:20]:
        print("perfbench: %s" % problem, file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": not problems,
                      "attempted": attempted * n_rounds,
                      "failed": failed * n_rounds,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
