"""Command-line interface: scenario ingestion, experiment execution, CSV and
run-manifest emission.

Exit codes: 0 success (and after --help), 2 input error (bad arguments,
missing/unparsable scenario, schema violation), 3 I/O error writing
outputs; main returns the code rather than raising SystemExit. Data files
are a pure function of (scenario file contents, seed, version): no
timestamps, paths, or worker counts ever reach an output byte. The manifest
is three header lines (artifact, version, subcommand) and then every leaf
of the loaded scenario document, keyed by its field path, with floats
written exactly.

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
    """Plain-text key: value manifest next to the data file, values verbatim."""
    lines = [f"{key}: {value}" for key, value in entries.items()]
    manifest_path(output_path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _add_leaves(entries: dict, prefix: str, node):
    """Every leaf under the dataclass or tuple `node` into `entries`, keyed
    by its field path from `prefix`.

    Dataclass fields are visited in declaration order and tuple items by
    index. Each leaf is written in the loop that visits it: None as `none`,
    a bool as `true`/`false`, and any other leaf, an int, float or string,
    as its str(), which for a float is its shortest exact form. Only
    dataclasses and tuples are recursed into.
    """
    items = type(node) is tuple
    dot = f"{prefix}." if prefix else ""
    for name in range(len(node)) if items else node.__dataclass_fields__:
        key, value = (f"{prefix}[{name}]", node[name]) if items else (dot + name, getattr(node, name))
        if value is None:
            entries[key] = "none"
        elif type(value) is bool:
            entries[key] = "true" if value else "false"
        elif type(value) is tuple or hasattr(value, "__dataclass_fields__"):
            _add_leaves(entries, key, value)
        else:
            entries[key] = str(value)


def _manifest_entries(doc: ScenarioDocument, subcommand: str) -> dict:
    """The run's header lines, then every leaf of the whole loaded document."""
    entries = {"artifact": "disastersim", "version": __version__, "subcommand": subcommand}
    _add_leaves(entries, "", doc)
    return entries


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
    spec = doc.silencing
    table = _model.sweep(spec.config, spec.sweep.grid, spec.sweep.weights, workers=workers)
    rows = [
        [r.rho, r.silencing_radius, r.p_disaster, r.p_disaster_ci,
         r.p_silencing, r.p_silencing_ci, r.utility, r.n_trials, r.master_seed]
        for r in table
    ]
    return rows, SWEEP_HEADER


def _run_satwet_curve(doc: ScenarioDocument, workers: int):
    spec = doc.satwet
    curve = _model.charge_curve(spec.heights, spec.payloads, spec.params, spec.model, mode=spec.mode)
    rows = [[r.height, r.payload_bits, r.mode, r.harvested_power, r.charging_time] for r in curve]
    return rows, SATWET_HEADER


def _run_acb(doc: ScenarioDocument, workers: int):
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


# Each subcommand: the document section it needs (a dotted field path), its
# runner, and its line in --help.
_RUNNERS = {
    "silencing-run": (
        "silencing", _run_silencing_run,
        "estimate disaster uplink success and silencing-area coverage per policy",
    ),
    "silencing-sweep": (
        "silencing.sweep", _run_silencing_sweep,
        "sweep suppression factor x silencing radius and score the trade-off",
    ),
    "satwet-curve": ("satwet", _run_satwet_curve, "satellite charging time over altitudes and payload sizes"),
    "acb-run": ("acb", _run_acb, "access-class barring load under a capacity limit"),
}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# One parser serves every subcommand, since they all take the same five
# flags; the subcommands' descriptions sit in the epilog. Building argparse
# objects is not free: each parser looks up gettext catalogs on disk, and
# each argument builds a help formatter, which reads the terminal size.
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disastersim",
        description="Post-disaster cellular resilience experiments",
        epilog="subcommands:\n" + "".join(f"  {name:<16} {text}\n" for name, (_, _, text) in _RUNNERS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("subcommand", choices=_RUNNERS, metavar="SUBCOMMAND", help="one of the subcommands below")
    parser.add_argument("--scenario", required=True, help="scenario YAML path")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--trials", type=int, default=None, help="override the scenario trial count")
    parser.add_argument("--workers", type=positive_int, default=1,
                        help="parallel workers, at most one per 64 trials; never changes results")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on an argv error; main returns
        # every exit code instead of raising.
        return exc.code

    # The manifest of x.manifest is x.manifest itself: it would overwrite the CSV.
    if Path(args.out).suffix == ".manifest":
        print(f"error: --out {args.out}: must not end in .manifest, the suffix of the manifest written next to it",
              file=sys.stderr)
        return EXIT_INPUT
    section, runner, _ = _RUNNERS[args.subcommand]

    try:
        doc = load_scenario(args.scenario, seed_override=args.seed, trials_override=args.trials)
        node = doc
        for name in section.split("."):
            node = getattr(node, name, None)
        if node is None:
            raise ScenarioError(section, "scenario file has no such section but this subcommand needs it")
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

    rows, header = runner(doc, args.workers)
    try:
        emit_results(rows, header, args.out)
        write_manifest(args.out, _manifest_entries(doc, args.subcommand))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
