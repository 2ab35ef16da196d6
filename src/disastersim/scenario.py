"""Scenario file loading and validation.

Scenarios are YAML documents with one section per experiment family
(``silencing``, ``satwet``, ``acb``) plus top-level ``name``, ``seed`` and
``n_trials``. Keys carry their unit as a suffix (``_m``, ``_w``, ``_hz``,
``_per_m2``, ``_per_s``, ``_deg``, ``_j``); ratios quoted in decibels use
``_db``/``_dbm``. Everything is validated here, before any computation, and
violations name the offending field. The full schema is documented in
docs/scenario_schema.md.
"""
from __future__ import annotations

from dataclasses import dataclass
import math
from pathlib import Path

import yaml

from .acb import AccessClass, AcdcProfile
from .channel import ChannelParams, db_to_linear, dbm_to_watts
from .netsim import SEED_LIMIT, AerialTier, ScenarioConfig, ScenarioError, SilencingPolicy
from .planner import SweepGrid, TradeoffWeights
from .satwet import ChargingModel, SatWetParams

__all__ = [
    "ScenarioDocument",
    "SilencingSpec",
    "SweepSpec",
    "SatWetSpec",
    "AcbSpec",
    "load_scenario",
]


@dataclass(frozen=True)
class SweepSpec:
    grid: SweepGrid
    weights: TradeoffWeights


@dataclass(frozen=True)
class SilencingSpec:
    config: ScenarioConfig
    policies: tuple[SilencingPolicy, ...]
    sweep: SweepSpec | None


@dataclass(frozen=True)
class SatWetSpec:
    params: SatWetParams
    model: ChargingModel
    mode: str  # "zenith" | "pass-average"
    heights: tuple[float, ...]
    payloads: tuple[float, ...]


@dataclass(frozen=True)
class AcbSpec:
    profile: AcdcProfile
    capacity: float  # requests/s
    horizon: float  # seconds


@dataclass(frozen=True)
class ScenarioDocument:
    name: str
    seed: int
    n_trials: int
    silencing: SilencingSpec | None
    satwet: SatWetSpec | None
    acb: AcbSpec | None


# libyaml's parser builds the same documents as the pure-Python SafeLoader,
# with the same error marks (line and column), at a tenth of the cost. Some
# of its problem texts are worded differently.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(path, f"must be a mapping, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed: set[str], path: str):
    unknown = set(node) - allowed
    if unknown:
        raise ScenarioError(f"{path}.{sorted(unknown)[0]}", "unknown key")


def _number(node: dict, key: str, path: str, default=None, required=False):
    if key not in node or node[key] is None:
        if required:
            raise ScenarioError(f"{path}.{key}", "required key is missing")
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}.{key}", f"must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ScenarioError(f"{path}.{key}", f"must be finite, got {value!r}")
    return float(value)


def _integer(node: dict, key: str, path: str, default=None, required=False):
    if key not in node or node[key] is None:
        if required:
            raise ScenarioError(f"{path}.{key}", "required key is missing")
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}.{key}", f"must be an integer, got {value!r}")
    return value


def _number_list(node: dict, key: str, path: str) -> tuple[float, ...]:
    value = node.get(key)
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{path}.{key}", "must be a nonempty list of numbers")
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ScenarioError(f"{path}.{key}[{i}]", f"must be a finite number, got {v!r}")
        out.append(float(v))
    return tuple(out)


def _parse_channel(node: dict | None, path: str) -> ChannelParams:
    if node is None:
        return ChannelParams()
    node = _require_mapping(node, path)
    _reject_unknown(
        node,
        {"path_loss_exponent", "reference_gain_at_1m", "sinr_threshold_db", "noise_dbm", "min_distance_m"},
        path,
    )
    noise_dbm = _number(node, "noise_dbm", path)
    try:
        return ChannelParams(
            path_loss_exponent=_number(node, "path_loss_exponent", path, default=4.0),
            reference_gain_at_1m=_number(node, "reference_gain_at_1m", path, default=1.0),
            noise_power=0.0 if noise_dbm is None else dbm_to_watts(noise_dbm),
            sinr_threshold=db_to_linear(_number(node, "sinr_threshold_db", path, default=-10.0)),
            min_distance=_number(node, "min_distance_m", path, default=1.0),
        )
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc


def _parse_policy(node, path: str) -> SilencingPolicy:
    if isinstance(node, str):
        if node == "none":
            return SilencingPolicy.none()
        if node == "complete":
            return SilencingPolicy.complete()
        if node == "spectrum_split":
            return SilencingPolicy.spectrum_split()
        raise ScenarioError(path, f"unknown policy {node!r}")
    if isinstance(node, dict) and set(node) == {"partial"}:
        rho = node["partial"]
        if isinstance(rho, bool) or not isinstance(rho, (int, float)) or not 0.0 <= rho <= 1.0:
            raise ScenarioError(f"{path}.partial", f"rho must be a number in [0, 1], got {rho!r}")
        return SilencingPolicy.partial(float(rho))
    raise ScenarioError(path, f"must be a policy name or {{partial: rho}}, got {node!r}")


def _parse_silencing(node: dict, seed: int, n_trials: int) -> SilencingSpec:
    path = "silencing"
    node = _require_mapping(node, path)
    _reject_unknown(
        node,
        {
            "disaster_radius_m", "active_ring_width_m", "silencing_radius_m", "sim_radius_m",
            "bs_density_per_m2", "bs_survival_prob", "device_tx_power_w", "bs_tx_power_w",
            "channel", "aerial", "policies", "sweep",
        },
        path,
    )

    aerial = None
    if node.get("aerial") is not None:
        a = _require_mapping(node["aerial"], f"{path}.aerial")
        _reject_unknown(a, {"density_per_m2", "altitude_m", "tx_power_w"}, f"{path}.aerial")
        aerial = AerialTier(
            density=_number(a, "density_per_m2", f"{path}.aerial", required=True),
            altitude=_number(a, "altitude_m", f"{path}.aerial", required=True),
            tx_power=_number(a, "tx_power_w", f"{path}.aerial", required=True),
        )

    config = ScenarioConfig(
        disaster_radius=_number(node, "disaster_radius_m", path, default=2000.0),
        active_ring_width=_number(node, "active_ring_width_m", path, default=600.0),
        silencing_radius=_number(node, "silencing_radius_m", path, default=6000.0),
        sim_radius=_number(node, "sim_radius_m", path, default=20000.0),
        bs_density=_number(node, "bs_density_per_m2", path, required=True),
        bs_survival_prob=_number(node, "bs_survival_prob", path, default=0.3),
        device_tx_power=_number(node, "device_tx_power_w", path, default=dbm_to_watts(23.0)),
        bs_tx_power=_number(node, "bs_tx_power_w", path, default=dbm_to_watts(46.0)),
        aerial=aerial,
        channel=_parse_channel(node.get("channel"), f"{path}.channel"),
        n_trials=n_trials,
        master_seed=seed,
    )

    policies_node = node.get("policies", ["none", "complete"])
    if not isinstance(policies_node, list) or not policies_node:
        raise ScenarioError(f"{path}.policies", "must be a nonempty list")
    policies = tuple(
        _parse_policy(p, f"{path}.policies[{i}]") for i, p in enumerate(policies_node)
    )

    sweep_spec = None
    if node.get("sweep") is not None:
        s = _require_mapping(node["sweep"], f"{path}.sweep")
        _reject_unknown(s, {"rho_values", "silencing_radii_m", "weights"}, f"{path}.sweep")
        try:
            grid = SweepGrid(
                rho_values=_number_list(s, "rho_values", f"{path}.sweep"),
                silencing_radii=_number_list(s, "silencing_radii_m", f"{path}.sweep"),
            )
        except ValueError as exc:
            raise ScenarioError(f"{path}.sweep", str(exc)) from exc
        for i, r_s in enumerate(grid.silencing_radii):
            if r_s < config.ring_outer_radius:
                raise ScenarioError(
                    f"{path}.sweep.silencing_radii_m[{i}]",
                    f"must be >= disaster_radius + active_ring_width = {config.ring_outer_radius}",
                )
            if r_s > config.sim_radius:
                raise ScenarioError(
                    f"{path}.sweep.silencing_radii_m[{i}]", f"must be <= sim_radius = {config.sim_radius}"
                )
        weights = TradeoffWeights()
        if s.get("weights") is not None:
            w = _require_mapping(s["weights"], f"{path}.sweep.weights")
            _reject_unknown(w, {"disaster", "silencing_area"}, f"{path}.sweep.weights")
            try:
                weights = TradeoffWeights(
                    w_disaster=_number(w, "disaster", f"{path}.sweep.weights", default=1.0),
                    w_silencing_area=_number(w, "silencing_area", f"{path}.sweep.weights", default=1.0),
                )
            except ValueError as exc:
                raise ScenarioError(f"{path}.sweep.weights", str(exc)) from exc
        sweep_spec = SweepSpec(grid=grid, weights=weights)

    return SilencingSpec(config=config, policies=policies, sweep=sweep_spec)


def _parse_satwet(node: dict) -> SatWetSpec:
    path = "satwet"
    node = _require_mapping(node, path)
    _reject_unknown(
        node,
        {
            "frequency_hz", "sat_tx_power_w", "sat_tx_gain", "ground_rx_gain",
            "rf_to_dc_efficiency", "min_elevation_deg", "mode", "heights_m",
            "payload_bits", "energy_per_bit_j",
        },
        path,
    )
    mode = node.get("mode", "zenith")
    if mode not in ("zenith", "pass-average"):
        raise ScenarioError(f"{path}.mode", f"must be 'zenith' or 'pass-average', got {mode!r}")
    heights = _number_list(node, "heights_m", path)
    payloads = _number_list(node, "payload_bits", path)
    try:
        params = SatWetParams(
            frequency=_number(node, "frequency_hz", path, default=868e6),
            sat_tx_power=_number(node, "sat_tx_power_w", path, default=100.0),
            sat_tx_gain=_number(node, "sat_tx_gain", path, default=1e5),
            ground_rx_gain=_number(node, "ground_rx_gain", path, default=1.0),
            rf_to_dc_efficiency=_number(node, "rf_to_dc_efficiency", path, default=1.0),
            altitude=heights[0],
            min_elevation=_number(node, "min_elevation_deg", path, default=0.0),
        )
        model = ChargingModel(
            energy_per_bit=_number(node, "energy_per_bit_j", path, default=4.5e-11),
            payload_bits=payloads[0],
        )
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc
    return SatWetSpec(params=params, model=model, mode=mode, heights=heights, payloads=payloads)


def _parse_acb(node: dict) -> AcbSpec:
    path = "acb"
    node = _require_mapping(node, path)
    _reject_unknown(node, {"capacity_per_s", "horizon_s", "monotone", "classes"}, path)
    capacity = _number(node, "capacity_per_s", path, required=True)
    horizon = _number(node, "horizon_s", path, default=60.0)
    if capacity <= 0:
        raise ScenarioError(f"{path}.capacity_per_s", f"must be > 0, got {capacity}")
    if horizon <= 0:
        raise ScenarioError(f"{path}.horizon_s", f"must be > 0, got {horizon}")
    monotone = node.get("monotone", False)
    if not isinstance(monotone, bool):
        raise ScenarioError(f"{path}.monotone", f"must be a boolean, got {monotone!r}")
    classes_node = node.get("classes")
    if not isinstance(classes_node, list) or not classes_node:
        raise ScenarioError(f"{path}.classes", "must be a nonempty list")
    classes = []
    for i, c in enumerate(classes_node):
        cpath = f"{path}.classes[{i}]"
        c = _require_mapping(c, cpath)
        _reject_unknown(c, {"name", "acdc_category", "arrival_rate_per_s", "admit_prob"}, cpath)
        name = c.get("name")
        if not isinstance(name, str) or not name:
            raise ScenarioError(f"{cpath}.name", "must be a nonempty string")
        try:
            classes.append(
                AccessClass(
                    name=name,
                    acdc_category=_integer(c, "acdc_category", cpath, required=True),
                    arrival_rate=_number(c, "arrival_rate_per_s", cpath, required=True),
                    admit_prob=_number(c, "admit_prob", cpath, required=True),
                )
            )
        except ValueError as exc:
            raise ScenarioError(cpath, str(exc)) from exc
    try:
        profile = AcdcProfile(classes=tuple(classes), monotone=monotone)
    except ValueError as exc:
        raise ScenarioError(f"{path}.classes", str(exc)) from exc
    return AcbSpec(profile=profile, capacity=capacity, horizon=horizon)


def load_scenario(
    path: str | Path,
    seed_override: int | None = None,
    trials_override: int | None = None,
) -> ScenarioDocument:
    """Parse and validate a scenario file.

    Raises FileNotFoundError for a missing file, ScenarioError for any
    schema violation (naming the field), and yaml.YAMLError (carrying the
    line and column) for unparsable input.
    """
    text = Path(path).read_text(encoding="utf-8")
    raw = yaml.load(text, Loader=_YAML_LOADER)
    if raw is None:
        raise ScenarioError("<document>", "scenario file is empty")
    raw = _require_mapping(raw, "<document>")
    _reject_unknown(raw, {"name", "seed", "n_trials", "silencing", "satwet", "acb"}, "<document>")

    name = raw.get("name", Path(path).stem)
    if not isinstance(name, str) or not name:
        raise ScenarioError("name", "must be a nonempty string")
    seed = _integer(raw, "seed", "<document>", default=0)
    n_trials = _integer(raw, "n_trials", "<document>", default=10000)
    if seed_override is not None:
        seed = seed_override
    if trials_override is not None:
        n_trials = trials_override
    if n_trials < 1:
        raise ScenarioError("n_trials", f"must be >= 1, got {n_trials}")
    if not 0 <= seed < SEED_LIMIT:
        raise ScenarioError("seed", f"must be in [0, 2^64), got {seed}")

    silencing = None
    if raw.get("silencing") is not None:
        silencing = _parse_silencing(raw["silencing"], seed, n_trials)
    satwet_spec = None
    if raw.get("satwet") is not None:
        satwet_spec = _parse_satwet(raw["satwet"])
    acb_spec = None
    if raw.get("acb") is not None:
        acb_spec = _parse_acb(raw["acb"])

    return ScenarioDocument(
        name=name,
        seed=seed,
        n_trials=n_trials,
        silencing=silencing,
        satwet=satwet_spec,
        acb=acb_spec,
    )
