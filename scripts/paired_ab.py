#!/usr/bin/env python3
"""Paired, same-process A/B timing of the silencing engine on two source trees.

Loads the `disastersim` package of another checkout (`--base`) and of this
one side by side, under the distinct names `ab_base` and `ab_head`, and
times the two fig5 engine calls that the benchmark's silencing workloads
make, with 1 worker:

  run    netsim.estimate_grid at the scenario's silencing radius and its
         four policies (what `silencing-run` computes), 100 trials
  sweep  planner.sweep over the scenario's 6 x 3 (rho, radius) grid (what
         `silencing-sweep` computes), 50 trials

Each of 40 pairs times both trees once, in alternating order, after 3
warm-up calls per tree. For each call the script prints each tree's median
time, the quartiles and median of the paired ratio head / base, in how many
pairs head was faster, and each tree's median minor page faults per call
(getrusage ru_minflt). It also checks that both trees return equal
results, and exits 1 if they differ. Only the standard library and the
package's own dependencies are used.

Both trees run in one process, so a change that acts on the whole process
cannot show here. The engine's allocator setting (netsim._keep_freed_heap)
is one: whichever tree runs first sets it for both, so the two trees fault
alike and time alike. Compare such a change with one process per tree, as
the benchmark does (perfbench/run.py).

Example, against the parent commit exported next to this checkout:

    git archive --prefix=base/ HEAD~1 | tar -x -C /tmp
    python3 scripts/paired_ab.py --base /tmp/base --cpu 1
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIG5 = "scenarios/paper_fig5.yaml"
CALLS = {"run": 100, "sweep": 50}  # trials per call, as in the benchmark's workloads
PAIRS = 40  # timed pairs per call
WARMUP = 3  # untimed calls per tree before the pairs


def load_tree(root: Path, name: str):
    """The tree's src/disastersim package, imported as `name`."""
    init = root / "src" / "disastersim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def engine_calls(root: Path, name: str) -> dict:
    """Zero-argument callables for the run and sweep calls of one tree."""
    load_tree(root, name)
    netsim = importlib.import_module(f"{name}.netsim")
    planner = importlib.import_module(f"{name}.planner")
    scenario = importlib.import_module(f"{name}.scenario")
    spec = scenario.load_scenario(root / FIG5).silencing
    run_cfg = dataclasses.replace(spec.config, n_trials=CALLS["run"])
    sweep_cfg = dataclasses.replace(spec.config, n_trials=CALLS["sweep"])
    return {
        "run": lambda: netsim.estimate_grid(run_cfg, (run_cfg.silencing_radius,), spec.policies, 1),
        "sweep": lambda: planner.sweep(sweep_cfg, spec.sweep.grid, spec.sweep.weights, workers=1),
    }


def plain(result):
    """A result with the package's own classes turned into tuples, so that
    the two trees' results compare by value."""
    if dataclasses.is_dataclass(result):
        return dataclasses.astuple(result)
    if isinstance(result, (list, tuple)):
        return [plain(item) for item in result]
    return result


def timed(call) -> tuple[float, int]:
    """Seconds and minor page faults that one call takes."""
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="root of the baseline checkout")
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    trees = {"base": engine_calls(args.base.resolve(), "ab_base"), "head": engine_calls(ROOT, "ab_head")}
    print(f"base {args.base.resolve()}\nhead {ROOT}\n{PAIRS} pairs, order alternating")
    differ = False
    for call in CALLS:
        base, head = trees["base"][call], trees["head"][call]
        same = plain(base()) == plain(head())
        differ |= not same
        for _ in range(WARMUP):
            base(), head()
        times, faults = {"base": [], "head": []}, {"base": [], "head": []}
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                seconds, minflt = timed(trees[side][call])
                times[side].append(seconds)
                faults[side].append(minflt)
        ratios = [h / b for b, h in zip(times["base"], times["head"])]
        wins = sum(h < b for b, h in zip(times["base"], times["head"]))
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        print(
            f"{call:5s} ({CALLS[call]} trials): base median {statistics.median(times['base']) * 1e3:.2f} ms, "
            f"head median {statistics.median(times['head']) * 1e3:.2f} ms; head/base ratio median {median:.3f} "
            f"(q1 {q1:.3f}, q3 {q3:.3f}); head faster in {wins}/{PAIRS} pairs; "
            f"minor faults per call, median: base {statistics.median(faults['base']):.0f}, "
            f"head {statistics.median(faults['head']):.0f}; results {'equal' if same else 'DIFFER'}"
        )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
