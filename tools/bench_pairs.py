"""Run alternating parent/change pairs of the benchmark and summarize them.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        --pairs N --seconds S [--seed K] [--record]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Each pair
runs ``perfbench/run.py --workload W --seed K --seconds S`` once in each
checkout, one process at a time, the parent first in odd pairs and the
change first in even ones.  Each run uses its own checkout's sources.

For every end-to-end metric that BENCHMARK.json (of this checkout) names,
the summary gives each side's median and quartiles over the pairs, the
pairs the change won on that metric's better side (ties count for neither),
and two verdicts (see ``judge``): whether a claimed gain on the metric
would hold, and whether the change stays within the metric's bound.  It
also gives each side's output digests, its share of failed operations,
and the pairs in which a run's checks did not pass.  Each side is named by
the git SHA its runs report and by a sha256 of its src/ files (see
``src_sha256``), which also covers edits not yet committed.  With
--record, the summary, with both sides' names, Python, nproc, seed,
seconds and pairs, is appended to the JSON list in BENCH_<workload>.json
at the root of this checkout.  Nothing under perfbench/ is written, apart
from what run.py itself writes.
"""

import argparse
import hashlib
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


def src_sha256(checkout: Path) -> str:
    """The sha256 of the lines "<sha256 of the file>  <path under src>",
    one a file under checkout/src in path order, as sha256sum prints them;
    __pycache__ directories are left out."""
    src = checkout / "src"
    lines = []
    for path in sorted(src.rglob("*")):
        rel = path.relative_to(src)
        if path.is_file() and "__pycache__" not in rel.parts:
            lines.append("%s  %s\n" % (
                hashlib.sha256(path.read_bytes()).hexdigest(),
                rel.as_posix()))
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def quartiles(values):
    """Median and the two outer quartiles (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def judge(parent, change, higher: bool, bound: float):
    """(wins, claim, verdict) for one metric's paired runs, parent[i] and
    change[i] being pair i's values, higher telling the better side and
    bound the metric's relative bound in BENCHMARK.json.

    wins counts the pairs the change won; ties count for neither side.
    claim is True when a gain on the metric holds: the change won at least
    9 of 10 of the pairs, and its median is better than the parent's by
    more than the parent's Q3 - Q1.  verdict is "beyond bound" when the
    change's median is worse than the parent's by more than bound times the
    parent's median; else "unresolved" when the parent's (Q3 - Q1)/median
    exceeds bound, unless every change run beats every parent run; else
    "within bound".
    """
    if higher:
        wins = sum(c > p for p, c in zip(parent, change))
        beats_all = min(change) > max(parent)
    else:
        wins = sum(c < p for p, c in zip(parent, change))
        beats_all = max(change) < min(parent)
    par_med, par_q1, par_q3 = quartiles(parent)
    gain = (quartiles(change)[0] - par_med) * (1 if higher else -1)
    spread = par_q3 - par_q1
    claim = 10 * wins >= 9 * len(parent) and gain > spread
    if -gain > bound * par_med:
        verdict = "beyond bound"
    elif spread > bound * par_med and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return wins, claim, verdict


def summarize(workload, seed, seconds, metrics, runs, trees):
    """The summary of paired runs: runs maps "parent" and "change" to
    their (record, result) pairs in pair order, trees maps them to their
    src_sha256, metrics is BENCHMARK.json's end_to_end list."""
    pairs = len(runs["change"])
    first = runs["change"][0][0]
    summary = {"workload": workload, "seed": seed, "seconds": seconds,
               "pairs": pairs, "python": first["python"],
               "nproc": first["nproc"], "metrics": {}}
    for m in metrics:
        name = m["name"]
        values = {side: [res["metrics"][name]["value"] for _, res in got]
                  for side, got in runs.items()}
        wins, claim, verdict = judge(values["parent"], values["change"],
                                     m["better"] == "higher", m["bound"])
        entry = {"unit": m["unit"], "better": m["better"],
                 "bound": m["bound"], "wins": wins, "claim": claim,
                 "verdict": verdict}
        for side in runs:
            entry[side] = dict(zip(("median", "q1", "q3"),
                                   quartiles(values[side])))
        summary["metrics"][name] = entry
    for side, got in runs.items():
        records = [rec for rec, _ in got]
        summary[side] = {
            "git_sha": sorted({rec["git_sha"] for rec in records}),
            "src_sha256": trees[side],
            "output_sha256": sorted({rec["output_sha256"]
                                     for rec in records}),
            "failed_share": sorted({rec["failed"] / rec["attempted"]
                                    for rec in records}),
            "runs_with_failed_checks": [i + 1 for i, (_, res)
                                        in enumerate(got)
                                        if not res["correct"]],
        }
    return summary


def append_record(path: Path, summary) -> None:
    """Append summary to the JSON list in path, which is made if absent."""
    history = json.loads(path.read_text()) if path.exists() else []
    history.append(summary)
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--record", action="store_true",
                        help="append the summary to BENCH_<workload>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    trees = {side: src_sha256(path) for side, path in sides.items()}
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

    summary = summarize(args.workload, args.seed, args.seconds, metrics, runs,
                        trees)
    print("\n%s, %d pairs, seed %d, --seconds %g"
          % (args.workload, args.pairs, args.seed, args.seconds))
    print("metric: parent median [q1, q3] -> change median [q1, q3], "
          "change wins; claim verdict; bound verdict")
    for name, m in summary["metrics"].items():
        par, chg = m["parent"], m["change"]
        print("%s (%s): %.4g [%.4g, %.4g] -> %.4g [%.4g, %.4g] (x%.3f), "
              "%d/%d; claim %s; %s"
              % (name, m["unit"], par["median"], par["q1"], par["q3"],
                 chg["median"], chg["q1"], chg["q3"],
                 chg["median"] / par["median"], m["wins"], args.pairs,
                 "met" if m["claim"] else "not met", m["verdict"]))
    for side in sides:
        got = summary[side]
        print("%s: git_sha %s; src_sha256 %s"
              % (side, ", ".join(got["git_sha"]), got["src_sha256"]))
        print("%s: output_sha256 %s; failed share %s; "
              "runs with failed checks: %s"
              % (side, ", ".join(got["output_sha256"]),
                 ", ".join("%.4f" % share for share in got["failed_share"]),
                 got["runs_with_failed_checks"] or "none"))
    if args.record:
        append_record(ROOT / ("BENCH_%s.json" % args.workload), summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
