"""Command-line interface: scenario ingestion, experiment execution, CSV and
run-manifest emission.

Exit codes: 0 success, 2 input error (missing/unparsable scenario, schema
violation), 3 I/O error writing outputs. Data files are a pure function of
(scenario file contents, seed, version): no timestamps, paths, or worker
counts ever reach an output byte.

Imports happen where they are used. At import, this module loads only the
scenario loader and the dependency-free errors module. The model behind
each subcommand is imported on the runner's first call: netsim for
silencing-run, planner (and with it netsim) for silencing-sweep, satwet for
satwet-curve and acb for acb-run. The scenario loader imports each
section's model as it parses that section (see scenario). So satwet-curve
and acb-run never load the Monte Carlo engine or its process pool.
"""
from __future__ import annotations

import argparse
import csv
import importlib
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import yaml

from . import __version__
from .errors import ScenarioError
from .scenario import load_scenario

if TYPE_CHECKING:
    from .scenario import ScenarioDocument

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3

SILENCING_RUN_HEADER = [
    "policy", "rho", "silencing_radius_m",
    "p_disaster", "p_disaster_ci", "p_silencing", "p_silencing_ci",
    "uplink_holes", "downlink_holes", "n_trials", "seed",
]
SWEEP_HEADER = [
    "rho", "silencing_radius_m", "p_disaster", "p_disaster_ci",
    "p_silencing", "p_silencing_ci", "utility", "n_trials", "seed",
]
SATWET_HEADER = ["height_m", "payload_bits", "mode", "harvested_w", "charging_s"]
ACB_HEADER = [
    "class", "acdc_category", "arrival_per_s", "admit_prob",
    "mean_admitted_per_s", "sim_admitted_per_s", "sim_served_per_s", "sim_blocking",
]


def format_value(value) -> str:
    """Numbers render with 6 significant digits; integers and strings verbatim."""
    if isinstance(value, bool):
        raise TypeError("booleans do not belong in result rows")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{value:.6g}"
    return str(value)


def emit_results(rows, header, output_path: str | Path):
    """Write rows as CSV with the given header, LF line endings."""
    path = Path(output_path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def manifest_path(output_path: str | Path) -> Path:
    return Path(output_path).with_suffix(".manifest")


def write_manifest(output_path: str | Path, entries: dict):
    """Plain-text key: value manifest next to the data file."""
    lines = [f"{key}: {format_value(value)}" for key, value in entries.items()]
    manifest_path(output_path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _config_entries(doc: ScenarioDocument, subcommand: str) -> dict:
    entries = {
        "artifact": "disastersim",
        "version": __version__,
        "subcommand": subcommand,
        "scenario_name": doc.name,
    }
    if subcommand in ("silencing-run", "silencing-sweep"):
        cfg = doc.silencing.config
        entries.update(
            seed=cfg.master_seed,
            n_trials=cfg.n_trials,
            disaster_radius_m=cfg.disaster_radius,
            active_ring_width_m=cfg.active_ring_width,
            silencing_radius_m=cfg.silencing_radius,
            sim_radius_m=cfg.sim_radius,
            bs_density_per_m2=cfg.bs_density,
            bs_survival_prob=cfg.bs_survival_prob,
            device_tx_power_w=cfg.device_tx_power,
            bs_tx_power_w=cfg.bs_tx_power,
            path_loss_exponent=cfg.channel.path_loss_exponent,
            reference_gain_at_1m=cfg.channel.reference_gain_at_1m,
            noise_power_w=cfg.channel.noise_power,
            sinr_threshold=cfg.channel.sinr_threshold,
            min_distance_m=cfg.channel.min_distance,
            aerial="none" if cfg.aerial is None else (
                f"density={cfg.aerial.density} altitude={cfg.aerial.altitude} tx_power={cfg.aerial.tx_power}"
            ),
        )
    elif subcommand == "satwet-curve":
        sw = doc.satwet
        entries.update(
            frequency_hz=sw.params.frequency,
            sat_tx_power_w=sw.params.sat_tx_power,
            sat_tx_gain=sw.params.sat_tx_gain,
            ground_rx_gain=sw.params.ground_rx_gain,
            rf_to_dc_efficiency=sw.params.rf_to_dc_efficiency,
            min_elevation_deg=sw.params.min_elevation,
            mode=sw.mode,
            energy_per_bit_j=sw.model.energy_per_bit,
            heights_m=" ".join(format_value(h) for h in sw.heights),
            payload_bits=" ".join(format_value(b) for b in sw.payloads),
        )
    elif subcommand == "acb-run":
        spec = doc.acb
        entries.update(
            seed=doc.seed,
            capacity_per_s=spec.capacity,
            horizon_s=spec.horizon,
            classes=" ".join(
                f"{c.name}:cat{c.acdc_category}:rate{c.arrival_rate}:admit{c.admit_prob}"
                for c in spec.profile.classes
            ),
        )
    return entries


def _require_section(doc: ScenarioDocument, section: str):
    if getattr(doc, section) is None:
        raise ScenarioError(section, "scenario file has no such section but this subcommand needs it")


# The model function each runner calls, and the module that defines it. The
# runners reach them as attributes of this module (_model), which imports
# the module on first use (PEP 562); an attribute replaced on this module,
# such as a timing wrapper, is the one that runs.
_MODEL_FUNCTIONS = {
    "estimate_grid": "netsim",
    "sweep": "planner",
    "charge_curve": "satwet",
    "admitted_load": "acb",
    "simulate_access": "acb",
}


def __getattr__(name: str):
    if name not in _MODEL_FUNCTIONS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.{_MODEL_FUNCTIONS[name]}"), name)
    globals()[name] = value
    return value


_model = sys.modules[__name__]


def _run_silencing_run(doc: ScenarioDocument, workers: int):
    _require_section(doc, "silencing")
    spec = doc.silencing
    cfg = spec.config
    (points,) = _model.estimate_grid(cfg, (cfg.silencing_radius,), spec.policies, workers)
    rows = []
    for policy, (up, down) in zip(spec.policies, points):
        rows.append([
            policy.kind, policy.silencing_power_factor, cfg.silencing_radius,
            up.value, up.ci_halfwidth, down.value, down.ci_halfwidth,
            up.n_coverage_holes, down.n_coverage_holes, cfg.n_trials, cfg.master_seed,
        ])
    return rows, SILENCING_RUN_HEADER


def _run_silencing_sweep(doc: ScenarioDocument, workers: int):
    _require_section(doc, "silencing")
    spec = doc.silencing
    if spec.sweep is None:
        raise ScenarioError("silencing.sweep", "scenario defines no sweep grid")
    table = _model.sweep(spec.config, spec.sweep.grid, spec.sweep.weights, workers=workers)
    rows = [
        [r.rho, r.silencing_radius, r.p_disaster, r.p_disaster_ci,
         r.p_silencing, r.p_silencing_ci, r.utility, r.n_trials, r.master_seed]
        for r in table
    ]
    return rows, SWEEP_HEADER


def _run_satwet_curve(doc: ScenarioDocument, workers: int):
    _require_section(doc, "satwet")
    spec = doc.satwet
    curve = _model.charge_curve(spec.heights, spec.payloads, spec.params, spec.model, mode=spec.mode)
    rows = [[r.height, r.payload_bits, r.mode, r.harvested_power, r.charging_time] for r in curve]
    return rows, SATWET_HEADER


def _run_acb(doc: ScenarioDocument, workers: int):
    _require_section(doc, "acb")
    spec = doc.acb
    mean = _model.admitted_load(spec.profile, capacity=spec.capacity)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(doc.seed,)))
    sim = _model.simulate_access(spec.profile, spec.capacity, spec.horizon, rng)
    rows = []
    for i, cls in enumerate(spec.profile.classes):
        rows.append([
            cls.name, cls.acdc_category, cls.arrival_rate, cls.admit_prob,
            mean.admitted_rates[i], sim.admitted_rates[i], sim.served_rates[i], sim.blocking[i],
        ])
    return rows, ACB_HEADER


_RUNNERS = {
    "silencing-run": _run_silencing_run,
    "silencing-sweep": _run_silencing_sweep,
    "satwet-curve": _run_satwet_curve,
    "acb-run": _run_acb,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disastersim",
        description="Post-disaster cellular resilience experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
        ("silencing-run", "estimate disaster uplink success and silencing-area coverage per policy"),
        ("silencing-sweep", "sweep suppression factor x silencing radius and score the trade-off"),
        ("satwet-curve", "satellite charging time over altitudes and payload sizes"),
        ("acb-run", "access-class barring load under a capacity limit"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario YAML path")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--trials", type=int, default=None, help="override the scenario trial count")
        p.add_argument("--workers", type=int, default=1, help="parallel workers (never changes results)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return EXIT_INPUT

    try:
        doc = load_scenario(args.scenario, seed_override=args.seed, trials_override=args.trials)
    except FileNotFoundError:
        print(f"error: scenario file not found: {args.scenario}", file=sys.stderr)
        return EXIT_INPUT
    except yaml.YAMLError as exc:
        # The problem and its mark only: str(exc) quotes the offending source
        # line under the pure-Python parser but not under libyaml.
        mark = getattr(exc, "problem_mark", None)
        where = f"{args.scenario}:{mark.line + 1}:{mark.column + 1}" if mark else args.scenario
        problem = getattr(exc, "problem", None) or str(exc)
        print(f"error: {where}: cannot parse scenario: {problem}", file=sys.stderr)
        return EXIT_INPUT
    except ScenarioError as exc:
        print(f"error: invalid scenario field {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        rows, header = _RUNNERS[args.subcommand](doc, args.workers)
    except ScenarioError as exc:
        print(f"error: invalid scenario field {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        emit_results(rows, header, args.out)
        write_manifest(args.out, _config_entries(doc, args.subcommand))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
