"""One measured child process of the benchmark.

perfbench/run.py starts this script from the root of a checkout and reads
the JSON it writes to <workdir>/result.json.

plain mode: import disastersim.cli and load the workload's scenarios, which
ends set-up, then time the workload's CLI calls --repeat times with no
tracing, and the reference kernel before and after each.

trace mode: repeat the workload's variants (untraced and traced; for the
sweep also 2-worker runs) until --seconds have passed, then turn the spans
into the per-layer metrics. Per-layer counts and self times are given per
workload unit: one silencing-run, one silencing-sweep, or one satwet-curve
plus acb-run pair.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

FIG5 = "scenarios/paper_fig5.yaml"
FIG4 = "scenarios/paper_fig4.yaml"
ACB = "scenarios/acb_example.yaml"
SCENARIOS = {"run-fig5": (FIG5,), "sweep-fig5": (FIG5,), "analytic": (FIG4, ACB)}
# The sweep is the planner path, which is run with a process pool; the
# silencing-run workload builds none.
PLAIN_WORKERS = {"run-fig5": 1, "sweep-fig5": 2, "analytic": 1}

# (variant, workers, tracing). Spans recorded inside pool workers would be
# lost, so the sweep's layer spans come from a 1-worker run and its pool
# counts from a 2-worker run that wraps only parent-side calls.
TRACE_VARIANTS = {
    "run-fig5": (("plain1", 1, None), ("traced1", 1, "full")),
    "sweep-fig5": (
        ("plain1", 1, None), ("plain2", 2, None), ("traced1", 1, "full"), ("pool2", 2, "parent"),
    ),
    "analytic": (("plain1", 1, None), ("traced1", 1, "full")),
}


def cli_calls(workload: str, seed: int, size: int, workers: int, outdir: Path, prefix: str) -> list[list[str]]:
    """argv lists for one run of the workload; size is trials, or pairs for analytic."""
    def out(name):
        return str(outdir / f"{prefix}{name}")

    common = ["--seed", str(seed), "--workers", str(workers)]
    if workload == "run-fig5":
        return [["silencing-run", "--scenario", FIG5, "--out", out("run.csv"), "--trials", str(size), *common]]
    if workload == "sweep-fig5":
        return [["silencing-sweep", "--scenario", FIG5, "--out", out("sweep.csv"), "--trials", str(size), *common]]
    pair = [
        ["satwet-curve", "--scenario", FIG4, "--out", out("curve.csv"), *common],
        ["acb-run", "--scenario", ACB, "--out", out("acb.csv"), *common],
    ]
    return pair * size


def run_calls(cli, calls: list[list[str]]) -> float:
    """Wall seconds of the CLI calls; exits the child on the first nonzero code."""
    t0 = time.perf_counter()
    for argv in calls:
        code = cli.main(argv)
        if code != 0:
            sys.exit(code)
    return time.perf_counter() - t0


def sha256_of_outputs(outdir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.suffix in (".csv", ".manifest")
    }


def install_full(tracer):
    from disastersim import cli, geometry, netsim, satwet

    def points(args, result):
        return result.shape[0]

    def stations(args, result):
        return args[0].n_bs

    tracer.wrap(geometry, "sample_ppp_radial", "geometry.sample_ppp_radial", points)
    tracer.wrap(geometry, "sample_ppp", "geometry.sample_ppp", points)
    tracer.wrap(geometry, "sample_uniform", "geometry.sample_uniform", points)
    tracer.wrap(netsim, "_sample_trial", "netsim.sample_trial")
    tracer.wrap(netsim, "uplink_trial", "netsim.uplink_trial")
    tracer.wrap(netsim, "downlink_trial", "netsim.downlink_trial")
    tracer.wrap(netsim, "uplink_sinr", "netsim.uplink_sinr", stations)
    tracer.wrap(netsim, "downlink_sinr", "netsim.downlink_sinr", stations)
    # netsim imported path_gain by name, so the channel layer is timed there.
    tracer.wrap(netsim, "path_gain", "channel.path_gain")
    tracer.wrap(satwet, "pass_average_power", "satwet.pass_average_power")
    tracer.wrap(cli, "sweep", "planner.sweep", lambda args, result: len(result))
    tracer.wrap(cli, "charge_curve", "satwet.charge_curve")
    tracer.wrap(cli, "admitted_load", "acb.admitted_load")
    tracer.wrap(cli, "simulate_access", "acb.simulate_access")
    tracer.wrap(cli, "load_scenario", "scenario.load_scenario")
    tracer.wrap(cli, "emit_results", "cli.emit_results")
    tracer.wrap(cli, "write_manifest", "cli.write_manifest")
    install_parent(tracer)


def install_parent(tracer):
    """Wrap only what runs in the parent of a process pool: the estimators and the pool."""
    from disastersim import cli, netsim, planner

    for module in (cli, planner):
        for fn in ("estimate_success", "estimate_silencing_area_coverage"):
            tracer.wrap(module, fn, "netsim.estimate")
    tracer.count_pools(netsim)


def layer_metrics(full, pool, units: int, trials: int, walls: dict[str, list[float]]) -> dict[str, float]:
    """Per-layer metrics from the full tracer and, for the sweep, the pool tracer."""
    import numpy as np

    stats = full.summary()
    empty = {"calls": 0, "self_s": 0.0, "durations": []}

    def stat(name):
        return stats.get(name, empty)

    def per_trial(total):
        return total / (units * trials) if trials else 0.0

    def mean_s(name):
        s = stat(name)
        return sum(s["durations"]) / s["calls"] if s["calls"] else 0.0

    def pct_us(name, q):
        d = stat(name)["durations"]
        return float(np.percentile(d, q)) * 1e6 if d else 0.0

    m = {}
    for name in ("geometry.sample_ppp_radial", "geometry.sample_ppp", "geometry.sample_uniform",
                 "netsim.sample_trial", "netsim.uplink_sinr", "netsim.downlink_sinr",
                 "channel.path_gain", "netsim.estimate"):
        m[f"{name}.calls"] = stat(name)["calls"] / units
        m[f"{name}.self_s"] = stat(name)["self_s"] / units
    for name in ("netsim.uplink_trial", "netsim.downlink_trial", "planner.sweep"):
        m[f"{name}.self_s"] = stat(name)["self_s"] / units
    for name in ("geometry.sample_ppp_radial", "netsim.uplink_sinr", "netsim.downlink_sinr"):
        m[f"{name}.us_p50"] = pct_us(name, 50)
        m[f"{name}.us_p99"] = pct_us(name, 99)
    for name in ("scenario.load_scenario", "cli.emit_results", "cli.write_manifest"):
        m[f"{name}.ms"] = mean_s(name) * 1e3
    for name in ("satwet.charge_curve", "satwet.pass_average_power", "acb.simulate_access", "acb.admitted_load"):
        m[f"{name}.us"] = mean_s(name) * 1e6
    m["satwet.pass_average_power.calls"] = stat("satwet.pass_average_power")["calls"] / units

    samplers = ("geometry.sample_ppp_radial", "geometry.sample_ppp", "geometry.sample_uniform")
    m["geometry.points_per_trial"] = per_trial(sum(full.sizes[n] for n in samplers))
    m["netsim.realizations_per_trial"] = per_trial(stat("netsim.sample_trial")["calls"])
    kernels = ("netsim.uplink_sinr", "netsim.downlink_sinr")
    kernel_calls = sum(stat(n)["calls"] for n in kernels)
    m["netsim.stations_per_trial"] = sum(full.sizes[n] for n in kernels) / kernel_calls if kernel_calls else 0.0
    m["planner.points"] = full.sizes["planner.sweep"] / units

    counted = pool if pool is not None else full
    m["pool.spinups"] = counted.pools["spinups"] / units
    m["pool.tasks"] = counted.pools["tasks"] / units
    plain1 = statistics.median(walls["plain1"])
    m["pool.overhead_s"] = statistics.median(walls["plain2"]) - plain1 / 2 if "plain2" in walls else 0.0
    traced1 = statistics.median(walls["traced1"])
    m["trace.overhead_frac"] = traced1 / plain1 - 1.0
    m["trace.coverage_frac"] = sum(s["self_s"] for s in stats.values()) / sum(walls["traced1"])
    return m


def run_traced(cli, workload: str, seed: int, size: int, seconds: float, workdir: Path) -> dict:
    from tracer import Tracer

    full, pool = Tracer(), None
    walls: dict[str, list[float]] = {}
    hashes = []
    start = time.monotonic()
    while True:
        t_iter = time.monotonic()
        for variant, workers, tracing in TRACE_VARIANTS[workload]:
            calls = cli_calls(workload, seed, size, workers, workdir, f"{variant}_")
            tracer = None
            if tracing == "full":
                tracer = full
                install_full(tracer)
            elif tracing == "parent":
                pool = tracer = pool or Tracer()
                install_parent(tracer)
            try:
                walls.setdefault(variant, []).append(run_calls(cli, calls))
            finally:
                if tracer is not None:
                    tracer.restore()
        hashes.append(sha256_of_outputs(workdir))
        now = time.monotonic()
        if now + (now - t_iter) - start > seconds:
            break
    iterations = len(hashes)
    units = iterations * (size if workload == "analytic" else 1)
    trials = 0 if workload == "analytic" else size
    return {
        "iterations": iterations,
        "hashes": hashes,
        "walls": walls,
        "per_layer": layer_metrics(full, pool, units, trials, walls),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True, help="trace mode: time to repeat for")
    parser.add_argument("--repeat", type=int, required=True, help="plain mode: CLI runs in this child")
    parser.add_argument("--reference", choices=("numpy", "mixed"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath("src"))
    import disastersim.cli as cli
    import numpy as np
    from disastersim.scenario import load_scenario

    for path in SCENARIOS[args.workload]:
        load_scenario(path, seed_override=args.seed)
    result = {"ready": time.monotonic(), "numpy": np.__version__}

    if args.mode == "plain":
        import reference

        workers = PLAIN_WORKERS[args.workload]
        calls = cli_calls(args.workload, args.seed, args.size, workers, args.workdir, "")
        if workers == 1:
            # Keep a 1-worker call and its reference on the same CPU, so that
            # the reference follows that CPU's speed; children alternate CPUs.
            cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpus[os.getpid() % len(cpus)]})
        # refs[i] and refs[i + 1] are timed just before and just after walls[i].
        result["refs"] = [reference.time_kernel(args.reference)]
        result["walls"] = []
        for _ in range(args.repeat):
            result["walls"].append(run_calls(cli, calls))
            result["refs"].append(reference.time_kernel(args.reference))
    else:
        result.update(run_traced(cli, args.workload, args.seed, args.size, args.seconds, args.workdir))
    (args.workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
