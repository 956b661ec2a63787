"""One benchmark run of one workload in one single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

Imports spinheat from the checkout's `src`, builds the seeded inputs, runs
whole passes of the workload in a closed loop until at least `--seconds` of
operation time and enough samples for the tail percentile have accumulated,
checks every output, and prints one JSON line. Operation times are CPU times
brought to the reference host speed by the probes of `hostspeed.py`, run
between operations. With `--trace 1` every other pass is traced and the line
carries the per-layer metrics instead.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
PROBE_EVERY_S = 0.05  # a host-speed probe before the next operation after this much operation time

# per-layer span metrics: ms per operation over the traced passes
SPAN_METRICS = {
    "cli.figure_ms": ("cli.figure",),
    "cli.sweep_ms": ("cli.sweep",),
    "cli.tcr_ms": ("cli.tcr",),
    "sectors.thermal_weights_ms": ("sectors.thermal_product_weights",),
    "thermo.capacity_grid_ms": ("thermo.collective_heat_capacity", "thermo.independent_heat_capacity"),
    "thermometry.qfi_ms": ("thermometry.qfi",),
    "thermometry.fisher_ms": ("thermometry.fisher_energy_measurement",
                              "thermometry.fisher_collective_projection"),
    "otto.cycle_ms": ("otto.cycle_exact", "otto.work_near_carnot"),
    "dynamics.generator_ms": ("dynamics.collective_generator",),
    "dynamics.gap_ms": ("dynamics.spectral_gap",),
    "dynamics.evolve_ms": ("dynamics.evolve",),
    "dynamics.relaxation_ms": ("dynamics.relaxation_time",),
}
# per-layer counts per operation over the traced passes
COUNT_METRICS = {
    "cli.rows": "count",
    "sectors.count": "count",
    "thermo.sector_points": "count",
    "dynamics.generator_mb": "MB",
    "dynamics.evolve_calls": "count",
    "dynamics.ladder_levels": "count",
}
# oracle calls run in the check phase: ms per call
CALL_METRICS = {
    "oracle.trajectory_ms": "oracle.trajectory",
    "oracle.steady_state_ms": "oracle.steady_state",
}


class Tracer:
    """Spans around calls into the program, kept in memory until the run ends.

    A span is [operation id, name, parent span index, start, end]. When
    `active` is false, `call` is a plain call and nothing is recorded.
    """

    def __init__(self):
        self.active = False
        self.op_id = 0
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [self.op_id, name, parent, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[4] = time.perf_counter()

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_loop(wl, seconds: float, trace: bool, tr: Tracer) -> dict:
    import hostspeed
    from workloads import CheckFailed, OpFailed

    ops: list[tuple[int, bool, float, float, float]] = []  # pass, completed, start, wall and CPU time
    probes: list[tuple[float, float]] = []  # host-speed probes: midpoint, CPU time
    since_probe = math.inf  # operation time since the last probe
    op_time = 0.0
    completed = traced_ops = 0
    attempted = failed = 0
    problems: list[str] = []
    passes = 0
    # whole passes until enough operation time and tail samples; a program whose
    # operations keep failing stops at three times the run length
    while passes < 2 or op_time < seconds or (
            completed < wl.min_samples and op_time < 3.0 * seconds):
        traced = bool(trace) and passes % 2 == 1
        wl.instrument(tr if traced else None)
        for op in wl.ops(passes):
            if since_probe >= PROBE_EVERY_S:
                probes.append(hostspeed.probe())
                since_probe = 0.0
            attempted += 1
            tr.op_id = attempted
            tr.active = traced
            err = None
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = tr.call("op." + op.kind, wl.run, op, tr)
            except Exception as exc:  # the program raised: the operation failed
                err = f"{type(exc).__name__}: {exc}"
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            tr.active = False
            op_time += dt
            since_probe += dt
            traced_ops += traced
            if err is None:
                try:
                    wl.check(op, out, tr, traced)
                except OpFailed as exc:
                    err = str(exc)
                except CheckFailed as exc:
                    problems.append(f"{op.kind} {op.params}: {exc}")
            ops.append((passes, err is None, t0, dt, dc))
            if err is None:
                completed += 1
            else:
                failed += 1
                if failed <= 3:
                    print(f"failed: {op.kind} {op.params}: {err}", file=sys.stderr)
        passes += 1
    probes += [hostspeed.probe() for _ in range(hostspeed.NEAREST)]
    wl.instrument(None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tr.active = bool(trace)
    try:
        wl.finish(tr)
    except CheckFailed as exc:
        problems.append(f"deferred check: {exc}")
    tr.active = False
    for p in problems[:5]:
        print(f"check failed: {p}", file=sys.stderr)

    # every operation's CPU time at the reference host speed, from the probes nearest to it
    scale = hostspeed.Scale(probes)
    latencies, wall = [], []  # completed operations: scaled and as measured
    pass_time = defaultdict(lambda: [0.0, 0.0, 0])  # pass -> scaled time, wall time, completed
    for p, ok, t0, dt, dc in ops:
        scaled = dc * scale.factor(t0 + 0.5 * dt)
        acc = pass_time[p]
        acc[0] += scaled
        acc[1] += dt
        if ok:
            latencies.append(scaled)
            wall.append(dt)
            acc[2] += 1
    rates: list[list[float]] = [[], []]  # completed operations per second, untraced and traced passes
    wall_rates: list[float] = []
    for p, (scaled, dt, n_ok) in sorted(pass_time.items()):
        traced = bool(trace) and p % 2 == 1
        rates[traced].append(n_ok / scaled)
        if not traced:
            wall_rates.append(n_ok / dt)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "latencies": latencies,
        "wall_latencies": wall,
        "op_time": op_time,
        "rates": rates,
        "rate": [statistics.median(x) if x else 0.0 for x in rates],  # untraced, traced
        "wall_rate": statistics.median(wall_rates) if wall_rates else 0.0,
        "host_speed": scale.speed(),
        "probes": len(probes),
        "traced_ops": traced_ops,
        "peak_rss_mb": peak_rss_mb,
    }


def end_to_end(wl, r: dict) -> dict:
    lat = r["latencies"]
    return {
        "ops_per_s": {"value": r["rate"][0], "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * percentile(lat, 50.0), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * percentile(lat, wl.tail_pct), "unit": "ms"},
        "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(r: dict, tr: Tracer, import_ms: float) -> dict:
    ops = max(r["traced_ops"], 1)
    op_span = {i for i, s in enumerate(tr.spans) if s[1].startswith("op.")}
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, parent, start, end in ((s[1], s[2], s[3], s[4]) for s in tr.spans):
        if parent in op_span or parent is None:
            total[name] += end - start
            calls[name] += 1
    out = {}
    for metric, names in SPAN_METRICS.items():
        out[metric] = {"value": 1e3 * sum(total[n] for n in names) / ops, "unit": "ms"}
    for metric, unit in COUNT_METRICS.items():
        out[metric] = {"value": tr.counts[metric] / ops, "unit": unit}
    for metric, name in CALL_METRICS.items():
        out[metric] = {"value": 1e3 * total[name] / max(calls[name], 1), "unit": "ms"}
    out["setup.import_ms"] = {"value": import_ms, "unit": "ms"}
    plain, traced = r["rate"]
    out["trace.overhead_pct"] = {"value": 100.0 * (plain / traced - 1.0), "unit": "%"}
    return out


def machine() -> dict:
    """CPU, core count, library versions and the BLAS threads actually in use."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    threads = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    threads[os.path.basename(path)] = getattr(lib, sym)()
                    break
    return {"cpu": cpu, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": threads,
            "thread_env": {v: os.environ[v] for v in THREAD_VARS}}


def write_trace(path: str, tr: Tracer) -> None:
    t0 = tr.spans[0][3] if tr.spans else 0.0
    with open(path, "w") as fh:
        json.dump({"columns": ["op", "name", "parent", "start_s", "end_s"],
                   "spans": [[s[0], s[1], s[2], s[3] - t0, s[4] - t0] for s in tr.spans]}, fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "spinheat")):
        print(f"worker: no spinheat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import spinheat
    import_ms = 1e3 * (time.perf_counter() - t0)
    if os.path.dirname(os.path.abspath(spinheat.__file__)) != os.path.join(SRC, "spinheat"):
        print(f"worker: imported spinheat from {spinheat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"worker: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0

    tr = Tracer()
    r = run_loop(wl, args.seconds, bool(args.trace), tr)
    if not r["latencies"] or min(r["rate"][: 1 + args.trace]) == 0.0:
        print(f"worker: no operation completed ({r['failed']} of {r['attempted']} failed)", file=sys.stderr)
        return 3
    metrics = per_layer(r, tr, import_ms) if args.trace else end_to_end(wl, r)
    if args.trace:
        os.makedirs(RESULTS, exist_ok=True)
        write_trace(os.path.join(RESULTS, f"trace-{wl.name}-seed{args.seed}.json"), tr)
    print(json.dumps({
        "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
        "metrics": metrics,
        "machine": machine(),
        "detail": {"passes": r["passes"], "samples": len(r["latencies"]),
                   "pass_rates": [round(x, 4) for x in r["rates"][0] + r["rates"][1]],
                   "tail_percentile": wl.tail_pct, "op_seconds": r["op_time"],
                   "host_speed": r["host_speed"], "probes": r["probes"],
                   "wall": {"ops_per_s": r["wall_rate"],
                            "op_p50_ms": 1e3 * percentile(r["wall_latencies"], 50.0),
                            "op_tail_ms": 1e3 * percentile(r["wall_latencies"], wl.tail_pct)}},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
