#!/usr/bin/env python3
"""Check that every perfbench workload still simulates the same thing.

    python3 scripts/check_perf_digests.py [EXPECTED]

Run from the repository root after `dune build perfbench/harness.exe`.
For each `WORKLOAD SEED DIGEST` line of EXPECTED (default
test/perf_digests.expected) it runs `harness.exe run WORKLOAD SEED 1`,
which also runs the workload's correctness gate, and fails unless the run
reports ok and prints exactly DIGEST.  Exit status 0 when all match, 1
otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join(ROOT, "_build", "default", "perfbench", "harness.exe")


def main():
    expected = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        ROOT, "test", "perf_digests.expected")
    bad = 0
    with open(expected) as f:
        rows = [l.split() for l in f if l.strip() and not l.startswith("#")]
    for workload, seed, want in rows:
        r = subprocess.run([HARNESS, "run", workload, seed, "1"], cwd=ROOT,
                           stdout=subprocess.PIPE, text=True, timeout=300)
        lines = r.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = {"ok": False, "error": f"no result (exit {r.returncode})"}
        got = res.get("digest")
        if res.get("ok") and got == want:
            print(f"ok    {workload} seed {seed}: {got}")
        else:
            bad += 1
            why = res.get("error") or f"digest {got}, expected {want}"
            print(f"FAIL  {workload} seed {seed}: {why}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
