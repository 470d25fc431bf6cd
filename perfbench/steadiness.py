"""Steadiness of the end-to-end metrics across seeds.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]

Runs each workload --runs times, one process at a time, with seeds
1, 2, ..., --runs, at the run length in BENCHMARK.json.  For
each end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread, (Q3 - Q1) / median, beside the
metric's bound and a third of it, which is where the bounds in
BENCHMARK.json are set from.  It also prints each run's share of failed
operations, which must be the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d: %s" % (
            workload, seed, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for name in names:
        results = []
        started = time.perf_counter()
        for i in range(args.runs):
            results.append(run_once(name, 1 + i,
                                    spec["run_seconds"]))
        wall = time.perf_counter() - started
        shares = sorted({"%d/%d" % (r["failed"], r["attempted"])
                         if r["failed"] else "0" for r in results})
        same_share = len({r["failed"] / r["attempted"] for r in results}) == 1
        print("%s: %d runs in %.0f s, correct %s, failed share %s%s" % (
            name, len(results), wall, all(r["correct"] for r in results),
            ", ".join(shares), "" if same_share else "  NOT EQUAL"))
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            flag = "" if spread < bound / 3 else "  above bound/3"
            if metric != "setup_s":
                worst = max(worst, spread / bound)
            print("  %-16s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f"
                  "  bound %.2f (1/3: %.4f)%s" % (metric, q2, q1, q3, spread,
                                                  bound, bound / 3, flag))
            print("  %16s %s" % ("", " ".join("%.4g" % v for v in values)))
        sys.stdout.flush()
    print("largest spread as a share of its bound (setup_s aside): %.2f" % worst)


if __name__ == "__main__":
    main()
