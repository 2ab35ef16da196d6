"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py so that the package's own test suite does
not collect it: these tests start child processes and take about 20
seconds.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "run-fig5": dataclasses.replace(run.WORKLOADS["run-fig5"], size=20),
    "sweep-fig5": dataclasses.replace(run.WORKLOADS["sweep-fig5"], size=10),
    "analytic": dataclasses.replace(run.WORKLOADS["analytic"], size=3),
}


def run_bench(root: Path, workload: str, trace: int, monkeypatch, capsys) -> tuple[list[str], dict]:
    monkeypatch.chdir(root)
    args = ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    assert run.main(args, workloads=TINY) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    lines, result = run_bench(ROOT, workload, trace, monkeypatch, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


SABOTAGE = {
    # Swap the uplink estimates of "none" and "complete": breaks the CRN ordering.
    "crn-ordering": ("run-fig5", """
_emit = emit_results
def emit_results(rows, header, output_path):
    if header is SILENCING_RUN_HEADER:
        rows[0][3], rows[2][3] = rows[2][3], rows[0][3]
    _emit(rows, header, output_path)
"""),
    # Drop the last grid point of the sweep.
    "row-count": ("sweep-fig5", """
_emit = emit_results
def emit_results(rows, header, output_path):
    _emit(rows[:-1] if header is SWEEP_HEADER else rows, header, output_path)
"""),
    # acb-run reports an I/O error.
    "exit-code": ("analytic", """
_main = main
def main(argv=None):
    code = _main(argv)
    return EXIT_IO if argv and argv[0] == "acb-run" else code
"""),
}


def copy_checkout(dest: Path, with_program: bool = True):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / HERE.name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_program:
        for name in ("src", "scenarios"):
            shutil.copytree(ROOT / name, dest / name, ignore=ignore)


@pytest.mark.parametrize("case", sorted(SABOTAGE))
def test_broken_output_counts_as_failure(case, tmp_path, monkeypatch, capsys):
    workload, patch = SABOTAGE[case]
    copy_checkout(tmp_path)
    with open(tmp_path / "src/disastersim/cli.py", "a", encoding="utf-8") as fh:
        fh.write(patch)
    lines, result = run_bench(tmp_path, workload, 0, monkeypatch, capsys)
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert any(line.startswith("error_rate = 1 ") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    copy_checkout(tmp_path, with_program=False)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-fig5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _csv(header, rows):
    return "\n".join(",".join(map(str, r)) for r in [header, *rows]) + "\n"


def run_csv(p_none=0.58, p_partial=0.68, p_complete=0.82, p_split=0.82, n=5000):
    rows = [
        [policy, rho, 12000, p, 0.01, 0.8, 0.01, 0, 0, n, 1]
        for policy, rho, p in [("none", 1, p_none), ("partial", 0.4, p_partial),
                               ("complete", 0, p_complete), ("spectrum_split", 1, p_split)]
    ]
    return _csv(checks.RUN_HEADER, rows)


def sweep_rows(n=5000):
    return [
        [rho, r_s, 0.8 - 0.2 * rho + r_s / 1e6, 0.01, 0.8, 0.01, 1.6, n, 1]
        for rho in checks.SWEEP_RHOS for r_s in checks.SWEEP_RADII
    ]


def curve_csv(anchor=6.0):
    rows = [[h, b, "pass-average", 3e-9, anchor * b / 400] for h in (200000, 400000)
            for b in (400, 1000, 10000, 100000, 1000000)]
    return _csv(checks.CURVE_HEADER, rows)


def acb_csv(emergency_blocking=0, messaging_served=6.37):
    rows = [
        ["emergency-call", 1, 8, 1, 8, 7.8, 7.8, emergency_blocking],
        ["localization", 2, 12, 0.9, 10.8, 10.8, 10.8, 0],
        ["messaging", 3, 30, 0.5, 15, 14.8, messaging_served, 0.57],
        ["background-apps", 4, 60, 0.05, 3, 3.0, 0, 1],
    ]
    return _csv(checks.ACB_HEADER, rows)


def test_checks_accept_correct_outputs():
    assert checks.check_run(run_csv(), 5000) == []
    assert checks.check_sweep(_csv(checks.SWEEP_HEADER, sweep_rows()), 5000) == []
    assert checks.check_curve(curve_csv()) == []
    assert checks.check_acb(acb_csv()) == []


@pytest.mark.parametrize("text, n_trials", [
    (run_csv(p_partial=0.59, p_none=0.6), 5000),  # none > partial
    (run_csv(p_split=0.821), 5000),  # complete != spectrum_split
    (run_csv(p_none=0.62), 5000),  # off the ladder at 5k trials
    (run_csv(), 4000),  # wrong n_trials column
    ("\n".join(run_csv().splitlines()[:-1]) + "\n", 5000),  # a row missing
    (run_csv().replace("p_disaster,", "p_up,", 1), 5000),  # wrong header
])
def test_run_check_catches(text, n_trials):
    assert checks.check_run(text, n_trials)


def test_ladder_tolerance_widens_to_four_sigma():
    assert checks.ladder_tolerance(0.58, 5000) == checks.LADDER_TOLERANCE
    assert checks.check_run(run_csv(p_none=0.62, n=500), 500) == []


def test_sweep_check_catches():
    rows = sweep_rows()
    rows[3][2] = rows[0][2] + 0.01  # p rises from rho 0 to rho 0.2 at 6 km
    assert checks.check_sweep(_csv(checks.SWEEP_HEADER, rows), 5000)
    rows = sweep_rows()
    rows[1][2] = rows[0][2] - 0.01  # p falls from 6 km to 9 km at rho 0
    assert checks.check_sweep(_csv(checks.SWEEP_HEADER, rows), 5000)
    assert checks.check_sweep(_csv(checks.SWEEP_HEADER, sweep_rows()[:-1]), 5000)


def test_analytic_checks_catch():
    assert checks.check_curve(curve_csv(anchor=6.1))
    assert checks.check_acb(acb_csv(emergency_blocking=0.01))
    assert checks.check_acb(acb_csv(messaging_served=7.0))
