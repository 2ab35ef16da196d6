"""disastersim benchmark: time the CLI on the reference scenarios and check its outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload run-fig5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, untraced then traced

Untraced (--trace 0): start one child process at a time (perfbench/child.py)
until --seconds have passed. Each child sets up, then times the workload's
CLI call several times, with a reference kernel timed before and after each
call, and set-up is paired with a reference interpreter start timed just
before the child. Report the end-to-end metrics named in BENCHMARK.json as
medians over the timed calls (set-up and peak RSS: over the children), with
times normalised as perfbench/reference.py explains.

Traced (--trace 1): one child repeats the workload with timing wrappers
installed on the package's modules and reports the per-layer metrics.

Every output is checked (perfbench/checks.py); a child that exits nonzero or
writes a wrong output counts as failed. The last line of standard output is
the JSON result; a record with the environment and the SHA-256 of every
output goes to .bench_results/BENCH_<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from reference import NOMINAL_S, time_startup

HERE = Path(__file__).resolve().parent
REQUIRED = (
    "src/disastersim/cli.py",
    "scenarios/paper_fig5.yaml",
    "scenarios/paper_fig4.yaml",
    "scenarios/acb_example.yaml",
)
# A run stops starting children at --seconds; a child still running this long
# after the start is killed, which keeps every run under 180 s.
HARD_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # Monte Carlo trials per CLI call, or satwet-curve + acb-run pairs per call
    repeat: int  # timed calls per child
    reference: str  # reference kernel that normalises the call times (reference.py)
    outputs: tuple[str, ...]  # CSV files a call writes
    estimates: int  # estimates per trial in the outputs, or output rows per pair

    @property
    def trials(self) -> int:
        return 0 if self.name == "analytic" else self.size

    @property
    def trial_evals(self) -> int:
        """Trial evaluations per call: estimates x n_trials (rows x pairs for analytic)."""
        return self.estimates * self.size


WORKLOADS = {
    # silencing-run: 4 policies x 2 links = 8 estimates, 1 worker.
    "run-fig5": Workload("run-fig5", 100, 10, "numpy", ("run.csv",), 8),
    # silencing-sweep: 6 rho x 3 radii x 2 links = 36 estimates, 2 workers.
    "sweep-fig5": Workload("sweep-fig5", 50, 6, "numpy", ("sweep.csv",), 36),
    # satwet-curve (10 rows) + acb-run (4 rows), repeated in one process.
    "analytic": Workload("analytic", 20, 10, "mixed", ("curve.csv", "acb.csv"), 14),
}


def git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        load_1m = float(Path("/proc/loadavg").read_text().split()[0])
    except OSError:
        load_1m = os.getloadavg()[0]
    return {
        "git_revision": git_revision(root),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "loadavg_1m": load_1m,
    }


def run_child(w: Workload, seed: int, mode: str, seconds: float, workdir: Path, deadline: float):
    """Start one child, wait for it, and return (exit code, peak RSS in MB, result, spawn time).

    The child runs in its own session so that a child killed at the deadline
    takes its pool workers with it. os.wait4 gives the peak RSS of the child
    and of the pool workers it waited for.
    """
    for p in workdir.iterdir():
        p.unlink()
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", w.name, "--seed", str(seed),
        "--size", str(w.size), "--mode", mode, "--seconds", str(seconds), "--workdir", str(workdir),
        "--repeat", str(w.repeat), "--reference", w.reference,
    ]
    log_path = workdir.parent / f"{w.name}.log"
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    result = None
    if code == 0:
        result = json.loads((workdir / "result.json").read_text())
    else:
        sys.stderr.write(log_path.read_text(errors="replace")[-2000:])
    return code, usage.ru_maxrss / 1024.0, result, spawned


def check_outputs(w: Workload, workdir: Path) -> tuple[list[str], dict[str, str], str | None]:
    """Problems, SHA-256 per output CSV, and the manifest version, for one child's outputs.

    Outputs of the same kind (untraced, traced, 1 or 2 workers) must be byte-identical.
    """
    problems, hashes, version = [], {}, None
    for kind in w.outputs:
        files = sorted(p for p in workdir.iterdir() if p.name.endswith(kind))
        if not files:
            problems.append(f"{kind} was not written")
            continue
        for p in files:
            data = p.read_bytes()
            hashes[p.name] = hashlib.sha256(data).hexdigest()
            problems += [f"{p.name}: {msg}" for msg in checks.check_output(p.name, data.decode(), w.trials)]
            manifest = p.with_suffix(".manifest")
            if not manifest.is_file():
                problems.append(f"{manifest.name} was not written")
                continue
            for line in manifest.read_text().splitlines():
                if line.startswith("version: "):
                    version = line[len("version: "):]
        if len({hashes[p.name] for p in files}) > 1:
            problems.append(f"{kind} outputs differ between variants: {[p.name for p in files]}")
    return problems, hashes, version


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_plain(w: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    samples = {"wall_s": [], "trial_evals_per_s": [], "setup_s": [], "peak_rss_mb": []}
    raw = {"wall_s": [], "setup_s": []}
    durations, problems, attempted, failed = [], [], 0, 0
    first_hashes, version, numpy_version = None, None, None
    while True:
        t0 = time.monotonic()
        startup_ref = time_startup()
        code, rss_mb, result, spawned = run_child(w, seed, "plain", seconds, workdir, deadline)
        attempted += 1
        rep_problems = [f"child exited with code {code}"] if code != 0 else []
        if code == 0:
            found, hashes, version = check_outputs(w, workdir)
            rep_problems += found
            if first_hashes is None:
                first_hashes = hashes
            elif hashes != first_hashes:
                rep_problems.append("outputs differ from the first child with the same seed")
            refs = result["refs"]
            for i, wall in enumerate(result["walls"]):
                wall_s = wall / ((refs[i] + refs[i + 1]) / 2) * NOMINAL_S[w.reference]
                samples["wall_s"].append(wall_s)
                samples["trial_evals_per_s"].append(w.trial_evals / wall_s)
            setup = result["ready"] - spawned
            samples["setup_s"].append(setup / startup_ref * NOMINAL_S["startup"])
            samples["peak_rss_mb"].append(rss_mb)
            raw["wall_s"] += result["walls"]
            raw["setup_s"].append(setup)
            numpy_version = result["numpy"]
        if rep_problems:
            failed += 1
            problems += rep_problems
        durations.append(time.monotonic() - t0)
        now = time.monotonic()
        if now - start + statistics.median(durations) > seconds or now > deadline:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": samples,
        "raw": raw,
        "hashes": first_hashes or {},
        "manifest_version": version,
        "numpy": numpy_version,
    }


def run_traced(w: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    deadline = time.monotonic() + HARD_LIMIT_S
    code, _, result, _ = run_child(w, seed, "trace", seconds, workdir, deadline)
    if code != 0:
        return {"attempted": 1, "failed": 1, "problems": [f"child exited with code {code}"],
                "per_layer": {}, "hashes": {}, "manifest_version": None, "numpy": None}
    problems, hashes, version = check_outputs(w, workdir)
    if any(h != result["hashes"][0] for h in result["hashes"]):
        problems.append("outputs differ between iterations with the same seed")
    iterations = result["iterations"]
    return {
        "attempted": iterations,
        "failed": iterations if problems else 0,
        "problems": problems,
        "per_layer": result["per_layer"],
        "hashes": hashes,
        "manifest_version": version,
        "numpy": result["numpy"],
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: int, spec: dict, root: Path) -> dict:
    env = environment(root)
    workdir = root / ".bench_work" / w.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = run_traced(w, seed, seconds, workdir) if trace else run_plain(w, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    env["numpy"] = run.pop("numpy")

    metrics, summary = {}, {}
    if trace:
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": run["per_layer"].get(m["name"], 0.0), "unit": m["unit"]}
        missing = sorted(m["name"] for m in spec["per_layer"] if m["name"] not in run["per_layer"])
        if missing and not run["failed"]:
            run["failed"] = run["attempted"]
            run["problems"].append(f"per-layer metrics not computed: {missing}")
    else:
        for m in spec["end_to_end"]:
            values = run["samples"][m["name"]] or [0.0]
            q1, med, q3 = quartiles(values)
            metrics[m["name"]] = {"value": med, "unit": m["unit"]}
            summary[m["name"]] = {"q1": q1, "median": med, "q3": q3, "n": len(run["samples"][m["name"]])}

    print(f"workload {w.name}  seed {seed}  seconds {seconds:g}  trace {trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"outputs {json.dumps(run['hashes'], sort_keys=True)}  manifest version {run['manifest_version']}")
    for problem in run["problems"]:
        print(f"FAILED CHECK {problem}")
    for name, m in metrics.items():
        extra = ""
        if name in summary:
            s = summary[name]
            extra = f"  (median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
        print(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
    for name, values in run.get("raw", {}).items():
        if values:
            print(f"unnormalised {name}: median {statistics.median(values):.6g} s of {len(values)}")
    print(f"error_rate = {run['failed'] / run['attempted']:.6g} ({run['failed']} of {run['attempted']})")

    record = {
        "time_unix": time.time(),
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "output_sha256": run["hashes"],
        "manifest_version": run["manifest_version"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "problems": run["problems"],
        "metrics": metrics,
        "quartiles": summary,
        "unnormalised_s": run.get("raw", {}),
    }
    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    with open(results / f"BENCH_{w.name}.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description="disastersim benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="ignored with --workload all, which runs both")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    missing = [p for p in (*REQUIRED, "BENCHMARK.json") if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of a disastersim checkout; missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = list(workloads) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    for name in names:
        for trace in traces:
            result = run_workload(workloads[name], args.seed, args.seconds, trace, spec, root)
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
