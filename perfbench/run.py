"""Benchmark of the bergman_orlicz toolkit: four workloads, end to end and per layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload membership --seed 1 --seconds 20 --trace 0

Every workload runs in a fresh single-threaded process as a closed loop
with one client (see README.md).  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it prints the per-layer metrics of a traced run.
Each metric goes on its own line with its unit, then one line of run
metadata, then, as the last line, one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when any task raised or
failed its check, and 2 when the checkout or the arguments are unusable.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import COUNTS, MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("membership", "lux-bisect", "pullback", "lattice")
SETUP_PROCESSES = 3
CHILD_TIMEOUT_S = 150

# every thread pool a numeric library may start is pinned to one thread
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "BLIS_NUM_THREADS")


def _child_env(root):
    env = dict(os.environ)
    for name in THREAD_ENV:
        env[name] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(root, env, args, mode, seconds=0.0):
    """Start one fresh worker process, wait for it, return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(seconds),
           "--spawn-ns", str(time.time_ns())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        sys.exit(f"{mode} worker exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_rev(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _setup_runs(root, env, args):
    """Set-up-only fresh processes; the first one only warms the bytecode
    cache and is not counted."""
    _worker(root, env, args, "setup")
    return [_worker(root, env, args, "setup") for _ in range(SETUP_PROCESSES)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bergman_orlicz", "__init__.py")):
        print("run from the root of a checkout: src/bergman_orlicz is missing",
              file=sys.stderr)
        return 2
    env = _child_env(root)
    setups = _setup_runs(root, env, args)

    res = _worker(root, env, args, "trace" if args.trace else "run", args.seconds)
    # the measuring process set itself up fresh too: one more sample
    setups.append(res)
    setup_s = statistics.median(r["setup_s"] for r in setups)
    import_s = statistics.median(r["import_s"] for r in setups)

    if args.trace:
        metrics = {}
        for m in MODULES:
            per_round = [s[m] / 1e9 for s in res["self"]]
            metrics[f"{m}.self_s"] = (statistics.median(per_round), "s")
        counts = res["counts"]
        for name in COUNTS:
            metrics[name] = (counts[name], "count")
        calls = counts["quadrature.field_blocks"]
        metrics["quadrature.cache_hit_ratio"] = (
            counts["quadrature.field_hits"] / calls if calls else 0.0, "ratio")
        metrics["bergman_orlicz.import_s"] = (import_s, "s")
        metrics["check.max_err_over_tol"] = (res["worst"], "ratio")
        metrics["trace.overhead_s"] = (
            statistics.median(res["traced_walls"]) - statistics.median(res["walls"]), "s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(res["walls"]), "s"),
            "task_p50_s": (statistics.median(res["tasks"]), "s"),
            "peak_rss_mb": (res["rss"], "MB"),
            "pass_frac": (1.0 - res["failed"] / res["attempted"], "fraction"),
        }

    attempted, failed = res["attempted"], res["failed"]
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(f"{'fail_frac':34s} {failed / attempted:>16.6g} fraction")
    meta = dict(res["meta"], workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, git_rev=_git_rev(root),
                tasks=len(res["tasks"]),
                round_walls=[round(w, 4) for w in res["walls"]])
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
