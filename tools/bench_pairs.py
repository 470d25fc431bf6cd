"""Run alternating parent/change pairs of the benchmark and summarize them.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        --pairs N --seconds S [--seed K]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Each pair
runs ``perfbench/run.py --workload W --seed K --seconds S`` once in each
checkout, one process at a time, the parent first in odd pairs and the
change first in even ones.  Each run uses its own checkout's sources.

For every end-to-end metric that BENCHMARK.json (of this checkout) names,
the summary gives each side's median and quartiles over the pairs, and the
pairs the change won on that metric's better side (ties count for neither).
It also gives each side's output digests, its share of failed operations,
and the pairs in which a run's checks did not pass.  Nothing under
perfbench/ is written, apart from what run.py itself writes.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """The record and the result line of one run.py process in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit("bench_pairs: run in %s failed (exit %d):\n%s"
                 % (checkout, proc.returncode, proc.stderr))
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def quartiles(values):
    """Median and the two outer quartiles (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            record, result = run_once(sides[side], args.workload, args.seed,
                                      args.seconds)
            runs[side].append((record, result))
            print("pair %d %s: %s" % (i + 1, side, " ".join(
                "%s=%.4g" % (m["name"], result["metrics"][m["name"]]["value"])
                for m in metrics)), flush=True)

    print("\n%s, %d pairs, seed %d, --seconds %g"
          % (args.workload, args.pairs, args.seed, args.seconds))
    print("metric: parent median [q1, q3] -> change median [q1, q3], "
          "change wins")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        values = {side: [res["metrics"][name]["value"] for _, res in runs[side]]
                  for side in sides}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        par, chg = quartiles(values["parent"]), quartiles(values["change"])
        print("%s (%s): %.4g [%.4g, %.4g] -> %.4g [%.4g, %.4g] (x%.3f), "
              "%d/%d" % (name, m["unit"], *par, *chg, chg[0] / par[0],
                         wins, args.pairs))
    for side in sides:
        records = [rec for rec, _ in runs[side]]
        digests = sorted({rec["output_sha256"] for rec in records})
        bad = [i + 1 for i, (_, res) in enumerate(runs[side])
               if not res["correct"]]
        shares = sorted({rec["failed"] / rec["attempted"]
                         for rec in records})
        print("%s: output_sha256 %s; failed share %s; "
              "runs with failed checks: %s"
              % (side, ", ".join(digests),
                 ", ".join("%.4f" % share for share in shares),
                 bad or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
