"""Host-speed probe: a fixed block of interpreter and LAPACK work.

The machine the benchmark runs on is shared, and its speed drifts by up to
a factor of two over seconds to minutes, for reasons outside the process:
the drift shows in CPU time as much as in wall time, so it is not time
taken from the vCPU but work slowed by whatever else runs on the host. The
probe does the same work every time and shares no code with spinheat, so
its CPU time tracks the host's speed and nothing else. The worker runs it
between operations and multiplies the CPU time of every operation by
`REFERENCE_S / (median CPU time of the probes nearest to it)`: timings then
read as they would with the host running the probe in `REFERENCE_S`, and a
change in the program moves them one for one.

Import this module only after the BLAS thread count is fixed (it imports
numpy).
"""

import bisect
import statistics
import time

import numpy as np
import scipy.linalg

# median probe CPU time on the reference host (Intel Xeon, 2 vCPUs, one BLAS thread)
REFERENCE_S = 0.006
NEAREST = 7  # the probes nearest in time to an operation set its scale

_A = np.random.default_rng(12345).standard_normal((64, 64)) * 0.05


def _work() -> float:
    # bytecode, floats and dicts, as in the CLI and sector loops ...
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(12000):
        acc += (i % 7) * 0.5
        table[i % 97] = table.get(i % 97, 0.0) + acc
    # ... and dense expm and eigenvalues, as in the dynamics and the figure kernels:
    # operations slow down like a mix of the two when the host is busy
    return acc + float(scipy.linalg.expm(_A)[0, 0]) + float(np.linalg.eigvals(_A).real.max())


def probe() -> tuple[float, float]:
    """One block of work: its midpoint in `time.perf_counter` seconds and its
    CPU time (`time.process_time`) in seconds."""
    t0, c0 = time.perf_counter(), time.process_time()
    _work()
    t1, c1 = time.perf_counter(), time.process_time()
    return 0.5 * (t0 + t1), c1 - c0


class Scale:
    """Factors that bring times measured at given moments to the reference speed."""

    def __init__(self, probes: list[tuple[float, float]]):
        probes = sorted(probes)
        self.times = [t for t, _ in probes]
        self.durations = [d for _, d in probes]

    def factor(self, at: float) -> float:
        k = bisect.bisect_left(self.times, at)
        lo, hi = max(0, k - NEAREST), min(len(self.times), k + NEAREST)
        nearest = sorted(range(lo, hi), key=lambda i: abs(self.times[i] - at))[:NEAREST]
        return REFERENCE_S / statistics.median(self.durations[i] for i in nearest)

    def speed(self) -> float:
        """Median host speed over the run, as a share of the reference speed."""
        return REFERENCE_S / statistics.median(self.durations)
