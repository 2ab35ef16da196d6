"""Correctness checks on the CSV files the benchmark workloads write.

Each check takes the text of one output file and returns a list of problems;
an empty list means the output is correct. The headers are the ones
docs/scenario_schema.md documents. The expected values are properties of the
reference scenarios (scenarios/paper_fig5.yaml, paper_fig4.yaml and
acb_example.yaml), so they are written out here rather than read back from
the program under test.
"""
from __future__ import annotations

import csv
import io
import math

RUN_HEADER = [
    "policy", "rho", "silencing_radius_m", "p_disaster", "p_disaster_ci",
    "p_silencing", "p_silencing_ci", "uplink_holes", "downlink_holes", "n_trials", "seed",
]
SWEEP_HEADER = [
    "rho", "silencing_radius_m", "p_disaster", "p_disaster_ci",
    "p_silencing", "p_silencing_ci", "utility", "n_trials", "seed",
]
CURVE_HEADER = ["height_m", "payload_bits", "mode", "harvested_w", "charging_s"]
ACB_HEADER = [
    "class", "acdc_category", "arrival_per_s", "admit_prob",
    "mean_admitted_per_s", "sim_admitted_per_s", "sim_served_per_s", "sim_blocking",
]

POLICIES = ["none", "partial", "complete", "spectrum_split"]
# The calibrated uplink ladder of paper_fig5.yaml.
LADDER = {"none": 0.58, "partial": 0.68, "complete": 0.82}
LADDER_TOLERANCE = 0.03
SWEEP_RHOS = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
SWEEP_RADII = [6000.0, 9000.0, 12000.0]
CURVE_ROWS = 10  # 2 heights x 5 payloads
CHARGE_ANCHOR_S = 6.0  # 400 bits at 200 km
ACB_CLASSES = ["emergency-call", "localization", "messaging", "background-apps"]
ACB_CAPACITY_PER_S = 25.0
# CSV numbers carry 6 significant digits, so a sum of rates can exceed the
# capacity by rounding alone.
ROUNDING = 1e-5


def _table(text: str, header: list[str]) -> tuple[list[dict], list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        got = rows[0] if rows else "an empty file"
        return [], [f"header is {got}, expected {header}"]
    if any(len(r) != len(header) for r in rows[1:]):
        return [], ["a row has the wrong number of fields"]
    return [dict(zip(header, r)) for r in rows[1:]], []


def _trial_counts(rows: list[dict], n_trials: int) -> list[str]:
    counts = {int(r["n_trials"]) for r in rows}
    return [] if counts == {n_trials} else [f"n_trials column is {sorted(counts)}, expected {n_trials}"]


def ladder_tolerance(target: float, n_trials: int) -> float:
    """+-0.03, widened to 4 standard errors when n_trials is small."""
    return max(LADDER_TOLERANCE, 4.0 * math.sqrt(target * (1.0 - target) / n_trials))


def check_run(text: str, n_trials: int) -> list[str]:
    """silencing-run on paper_fig5: exact CRN ordering and the calibrated ladder."""
    rows, problems = _table(text, RUN_HEADER)
    if problems:
        return problems
    policies = [r["policy"] for r in rows]
    if policies != POLICIES:
        return [f"rows are {policies}, expected {POLICIES}"]
    problems = _trial_counts(rows, n_trials)
    p = {r["policy"]: float(r["p_disaster"]) for r in rows}
    if not p["none"] <= p["partial"] <= p["complete"] == p["spectrum_split"]:
        problems.append(f"CRN ordering none <= partial <= complete == spectrum_split violated: {p}")
    for policy, target in LADDER.items():
        tol = ladder_tolerance(target, n_trials)
        if abs(p[policy] - target) > tol:
            problems.append(f"p_disaster[{policy}] = {p[policy]} is not within {tol:.3f} of {target}")
    return problems


def check_sweep(text: str, n_trials: int) -> list[str]:
    """silencing-sweep on the fig5 grid: exact monotonicity in rho and in radius."""
    rows, problems = _table(text, SWEEP_HEADER)
    if problems:
        return problems
    grid = [(float(r["rho"]), float(r["silencing_radius_m"])) for r in rows]
    expected = [(rho, r_s) for rho in SWEEP_RHOS for r_s in SWEEP_RADII]
    if grid != expected:
        return [f"{len(grid)} rows off the rho-major fig5 grid, expected {len(expected)}"]
    problems = _trial_counts(rows, n_trials)
    p = {point: float(r["p_disaster"]) for point, r in zip(grid, rows)}
    for r_s in SWEEP_RADII:
        column = [p[(rho, r_s)] for rho in SWEEP_RHOS]
        if any(b > a for a, b in zip(column, column[1:])):
            problems.append(f"p_disaster increases with rho at radius {r_s}: {column}")
    at_zero = [p[(0.0, r_s)] for r_s in SWEEP_RADII]
    if any(b < a for a, b in zip(at_zero, at_zero[1:])):
        problems.append(f"p_disaster decreases with radius at rho = 0: {at_zero}")
    return problems


def check_curve(text: str) -> list[str]:
    """satwet-curve on paper_fig4: 400 bits at 200 km charge in 6 s +- 1%."""
    rows, problems = _table(text, CURVE_HEADER)
    if problems:
        return problems
    if len(rows) != CURVE_ROWS:
        return [f"{len(rows)} rows, expected {CURVE_ROWS}"]
    anchor = [r for r in rows if float(r["height_m"]) == 200e3 and float(r["payload_bits"]) == 400.0]
    if len(anchor) != 1:
        return ["no single row for 400 bits at 200 km"]
    t = float(anchor[0]["charging_s"])
    if abs(t - CHARGE_ANCHOR_S) > 0.01 * CHARGE_ANCHOR_S:
        return [f"400 bits at 200 km charge in {t} s, expected {CHARGE_ANCHOR_S} s +- 1%"]
    return []


def check_acb(text: str) -> list[str]:
    """acb-run on acb_example: no emergency blocking, served load within capacity."""
    rows, problems = _table(text, ACB_HEADER)
    if problems:
        return problems
    names = [r["class"] for r in rows]
    if names != ACB_CLASSES:
        return [f"rows are {names}, expected {ACB_CLASSES}"]
    emergency = float(rows[0]["sim_blocking"])
    if emergency != 0.0:
        problems.append(f"emergency-call blocking is {emergency}, expected 0")
    served = sum(float(r["sim_served_per_s"]) for r in rows)
    if served > ACB_CAPACITY_PER_S * (1.0 + ROUNDING):
        problems.append(f"total served {served}/s exceeds capacity {ACB_CAPACITY_PER_S}/s")
    return problems


def check_output(filename: str, text: str, n_trials: int) -> list[str]:
    """Dispatch on the output's file name (run.csv, sweep.csv, curve.csv, acb.csv)."""
    if filename.endswith("run.csv"):
        return check_run(text, n_trials)
    if filename.endswith("sweep.csv"):
        return check_sweep(text, n_trials)
    if filename.endswith("curve.csv"):
        return check_curve(text)
    if filename.endswith("acb.csv"):
        return check_acb(text)
    raise ValueError(f"no check for output {filename}")
