"""Run the tier-1 test suite and fail only on failures outside a known list.

    python tools/tier1_gate.py

Runs ``python -m pytest -q --continue-on-collection-errors`` from the
repository root with ``src`` on PYTHONPATH, the tier-1 command of
ROADMAP.md.  The tests named in tools/tier1_known_failures.txt, one pytest
node id a line, fail for reasons ROADMAP.md records; they still run and
still fail in the suite, but do not fail the gate.  Any other failing or
erroring test fails it, and so does a pytest run that did not finish.  A
listed test that no longer fails fails it too, so that the list shrinks
when a test is mended and a later relapse of that test is not let through.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KNOWN = ROOT / "tools" / "tier1_known_failures.txt"


def known_failures():
    return {line.strip() for line in KNOWN.read_text().splitlines()
            if line.strip() and not line.startswith("#")}


def failed_ids(output):
    """Node ids on the FAILED and ERROR lines of pytest's short summary."""
    ids = set()
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                ids.add(line[len(tag):].split(" - ", 1)[0].strip())
    return ids


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "-rfE"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    sys.stdout.write(proc.stdout)
    # pytest exits 0 when all pass and 1 when some test failed; anything
    # else (interrupted, internal or usage error, no tests) is a broken run
    if proc.returncode not in (0, 1):
        print("tier1 gate: pytest exited with status %d" % proc.returncode)
        return 1
    failed = failed_ids(proc.stdout)
    if proc.returncode == 1 and not failed:
        print("tier1 gate: pytest failed but named no failing test")
        return 1
    listed = known_failures()
    stale = sorted(listed - failed)
    for node in stale:
        print("tier1 gate: listed test no longer fails: %s" % node)
    unexpected = sorted(failed - listed)
    for node in unexpected:
        print("tier1 gate: unexpected failure: %s" % node)
    print("tier1 gate: %d failed, %d of them listed, %d unexpected, "
          "%d listed but passing"
          % (len(failed), len(failed & listed), len(unexpected), len(stale)))
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
