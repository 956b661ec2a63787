"""spinheat benchmark: one command, three workloads, correctness-checked.

    python3 bench/run.py --workload figures|thermal_sweep|relaxation \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; spinheat is imported from its `src`. The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`). The run's full record, with the
machine and library versions, goes to `bench/results/`.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("figures", "thermal_sweep", "relaxation")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 5  # set-up CPU time is measured this many times per run; the median is reported
DEADLINE_S = 170.0


def children_cpu() -> float:
    """User and system CPU seconds of the child processes that have ended."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_child(cmd, env, deadline):
    return subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def main() -> int:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    base = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]

    try:
        setup, setup_wall = [], []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                t0, c0 = time.perf_counter(), children_cpu()
                p = run_child(base + ["--setup-only"], env, deadline)
                setup_wall.append(time.perf_counter() - t0)
                setup.append(children_cpu() - c0)
                if p.returncode != 0:
                    sys.stderr.write(p.stderr)
                    return 1

        p = run_child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        print(f"run.py: worker exited with code {p.returncode}", file=sys.stderr)
        return 1
    res = json.loads(lines[-1])
    if setup:
        res["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}

    record = dict(res, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_runs_s=setup, setup_wall_s=setup_wall)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("machine " + json.dumps(res["machine"]))
    print("detail " + json.dumps(res["detail"]))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
