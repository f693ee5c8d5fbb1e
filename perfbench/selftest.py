"""Self-test of the benchmark: determinism of traced counts, and refusal outside a checkout.

Run from the root of a checkout of the repository:

    python3 perfbench/selftest.py

For each workload it makes two traced runs of seed SEED and requires every
per-layer count (unit "count") to be identical between them.  It then runs
the benchmark in an empty scratch directory under .bench_build/ and
requires a non-zero exit without a result line.  Exits 1 on any failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOAD_NAMES  # noqa: E402

RUN = os.path.join(HERE, "run.py")
SEED = 7


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


def refuses_outside_checkout():
    """A directory holding only the benchmark must give an error, no result."""
    scratch = os.path.join(os.getcwd(), ".bench_build", "selftest-empty")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lattice",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode != 0 and '"correct"' not in proc.stdout


def main():
    ok = True
    for w in WORKLOAD_NAMES:
        first, second = traced_counts(w, SEED), traced_counts(w, SEED)
        diff = sorted(k for k in first if first[k] != second.get(k))
        print(f"{w:12s} {len(first)} counts "
              + ("identical" if not diff else f"DIFFER: {diff}"))
        ok &= not diff
    refused = refuses_outside_checkout()
    print("outside a checkout: " + ("refused" if refused else "NOT REFUSED"))
    return 0 if ok and refused else 1


if __name__ == "__main__":
    sys.exit(main())
