"""Reference kernels that the benchmark times next to every measured call.

The benchmark runs on shared machines whose speed drifts by 20% and more
over tens of seconds, which no run length averages out. Each measured call
is therefore paired with a reference kernel timed just before and just
after it, and the end-to-end times are reported as
(call time / reference time) x the reference's nominal time: seconds on a
machine where the reference takes its nominal time. The kernels are the
benchmark's own code, so a change to disastersim cannot change them, and
they mimic the instruction mix of the workloads they normalise:

- numpy_kernel: small-array NumPy work in the shape of one Monte Carlo trial
  (a Philox stream, ~500 points, distances, argmin, masked sums), for the
  silencing workloads;
- mixed_kernel: numpy_kernel plus pure-Python string and dict work, for the
  analytic workload, which parses YAML and formats CSV rows;
- time_startup: a fresh interpreter importing NumPy and PyYAML, for process
  set-up, whose start-up and shared-library loading follow the machine's
  I/O load rather than its compute speed.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import numpy as np

# Reference times on a shared 2-core Intel Xeon VM (5th percentile of 1000,
# 600 and 40 timings); fixed, so normalised times stay comparable across commits.
NOMINAL_S = {"numpy": 0.0062, "mixed": 0.0106, "startup": 0.125}


def numpy_kernel(rounds: int = 100) -> float:
    rng = np.random.Generator(np.random.Philox(key=np.array([12345, 0], dtype=np.uint64)))
    acc = 0.0
    for _ in range(rounds):
        n = int(rng.poisson(500))
        r = np.sqrt(rng.random(n)) * 20000.0
        theta = 2.0 * math.pi * rng.random(n)
        xy = np.empty((n, 2))
        xy[:, 0] = r * np.cos(theta)
        xy[:, 1] = r * np.sin(theta)
        d = np.hypot(xy[:, 0] - 10.0, xy[:, 1] + 5.0)
        k = int(np.argmin(d))
        gain = np.maximum(d, 1.0) ** -3.0
        fading = rng.exponential(size=n)
        mask = (r > 2600.0) & (fading > 0.01)
        acc += float(np.sum(gain[mask] * fading[mask])) + float(d[k])
    return acc


def python_kernel(rounds: int = 4) -> int:
    acc = 0
    for _ in range(rounds):
        table = {f"k{i}": f"{i * 0.5:.6g}" for i in range(2000)}
        acc += len(",".join(table.values()).split(","))
    return acc


def mixed_kernel() -> None:
    numpy_kernel()
    python_kernel()


KERNELS = {"numpy": numpy_kernel, "mixed": mixed_kernel}
MAX_CPUS = 4


def time_kernel(kind: str) -> float:
    """Mean wall seconds of the named kernel, run once pinned to each CPU the process may use.

    A 2-worker call runs on two CPUs whose speeds drift apart, so the
    reference samples each of them (at most MAX_CPUS). The process's CPU
    affinity is restored before returning, so pool workers forked later
    inherit the original set.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus)[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            KERNELS[kind]()
            times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def time_startup() -> float:
    """Wall seconds to start a fresh interpreter that imports NumPy and PyYAML.

    Every child pays this before disastersim's own imports and scenario
    loading.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, yaml"], check=True)
    return time.perf_counter() - t0
