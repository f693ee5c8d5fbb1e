"""One fresh benchmark process: set up a workload, then run it or trace it.

Started by run.py, never imported.  Prints one JSON object on stdout.

Modes:
  setup  import the package and build round 0's inputs, report the times;
  run    set up, then run rounds back to back for --seconds, one client in
         a closed loop, checking every task's output between rounds;
  trace  set up, install the tracer, then run each round twice, untraced
         and traced, for --seconds.  Counts come from the first traced
         round, so they repeat exactly for a seed.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(root, workload, seed, spawn_ns):
    """Import the package from the checkout and build round 0's inputs."""
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import bergman_orlicz
    import_s = time.perf_counter() - t0
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(bergman_orlicz.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {bergman_orlicz.__file__}, not the checkout's")
    from workloads import WORKLOADS
    make_round = WORKLOADS[workload]
    first = make_round(bergman_orlicz, seed, 0)
    setup_s = (time.time_ns() - spawn_ns) / 1e9
    return bergman_orlicz, make_round, first, setup_s, import_s


def _run_round(tasks, tracer=None):
    """Run a round's tasks back to back, then check each output.

    Returns (round seconds, per-task seconds, failures, worst err/tol,
    peak RSS before the checks).
    """
    from tracer import TraceGap
    from workloads import CheckFailed
    outs, times = [], []
    t_round = time.perf_counter()
    for task in tasks:
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            outs.append((True, task.run()))
        except TraceGap:  # the trace is broken, not the task: no result
            raise
        except Exception:  # a raising task is a failed task, not a crash
            outs.append((False, traceback.format_exc(limit=3)))
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
    wall = time.perf_counter() - t_round
    rss = _peak_rss_mb()
    failed, worst = 0, 0.0
    for task, (ok, out) in zip(tasks, outs):
        if not ok:
            failed += 1
            print(f"task {task.name} raised:\n{out}", file=sys.stderr)
            continue
        try:
            ratio = float(task.check(out))
        except CheckFailed as e:
            failed += 1
            print(f"task {task.name} failed its check: {e}", file=sys.stderr)
            continue
        worst = max(worst, ratio)
        if not ratio <= 1.0:
            failed += 1
            print(f"task {task.name}: error {ratio:.3g} x tolerance",
                  file=sys.stderr)
    return wall, times, failed, worst, rss


def _meta(bo):
    import numpy
    import scipy
    kernels = getattr(bo, "kernels", None)
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "backend": getattr(kernels, "BACKEND", "none")}


def _loop(bo, make_round, seed, first, budget, tracer=None):
    """Rounds 0, 1, ... back to back until `budget` seconds are used.

    With a tracer, each round runs twice on the same inputs, untraced and
    traced, in alternating order so that warm-up favours neither side;
    counts come from the first traced round.
    """
    t_start = time.perf_counter()
    res = {"walls": [], "tasks": [], "attempted": 0, "failed": 0,
           "worst": 0.0, "rss": 0.0, "traced_walls": [], "self": [],
           "counts": None}
    r = 0
    while True:
        tasks = first if r == 0 else make_round(bo, seed, r)
        sides = [None] if tracer is None else (
            [None, tracer] if r % 2 == 0 else [tracer, None])
        for side in sides:
            if side is not None:
                side.reset()
            wall, times, failed, worst, rss = _run_round(tasks, side)
            res["attempted"] += len(tasks)
            res["failed"] += failed
            res["worst"] = max(res["worst"], worst)
            res["rss"] = max(res["rss"], rss)
            if side is None:
                res["walls"].append(wall)
                res["tasks"].extend(times)
            else:
                res["traced_walls"].append(wall)
                res["self"].append(dict(side.self_ns))
                if r == 0:
                    res["counts"] = dict(side.counts)
        r += 1
        per_round = (time.perf_counter() - t_start) / r
        if time.perf_counter() - t_start + per_round > budget:
            break
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spawn-ns", type=int, required=True)
    args = ap.parse_args()

    bo, make_round, first, setup_s, import_s = _setup(
        args.root, args.workload, args.seed, args.spawn_ns)
    out = {"setup_s": setup_s, "import_s": import_s}
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(bo)
    if args.mode != "setup":
        out.update(_loop(bo, make_round, args.seed, first, args.seconds, tracer),
                   meta=_meta(bo))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
