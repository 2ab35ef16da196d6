"""Scenario file loading and validation.

Scenarios are YAML documents with one section per experiment family
(``silencing``, ``satwet``, ``acb``) plus top-level ``name``, ``seed`` and
``n_trials``. Keys carry their unit as a suffix (``_m``, ``_w``, ``_hz``,
``_per_m2``, ``_per_s``, ``_deg``, ``_j``); ratios quoted in decibels use
``_db``/``_dbm``. The full schema is documented in docs/scenario_schema.md.

The models own every default and range check: a key the file omits is
not passed, so the model's own default applies, and every model is built
here, so its checks run before any computation. This module owns the YAML
key names, their types and unit conversions, and the YAML path that an
error names. It also applies the run-time rules that no model constructor
checks (a positive ACB capacity and horizon; NumPy's largest Poisson mean),
and checks each sweep radius as the silencing radius of the configuration,
so that a scenario that loads also runs.

Each section's model modules (channel, netsim and planner for
``silencing``, satwet for ``satwet``, acb for ``acb``) are imported inside
that section's parsers, so loading a scenario imports only what its
sections use: a file without a ``silencing`` section never loads the Monte
Carlo engine or its process pool.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
import math
from pathlib import Path
from typing import TYPE_CHECKING

import yaml

from .errors import SEED_LIMIT, ScenarioError

if TYPE_CHECKING:
    from .acb import AcdcProfile
    from .channel import ChannelParams
    from .netsim import ScenarioConfig, SilencingPolicy
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
    """The ``silencing.sweep`` section: the (rho, radius) grid and its weights."""

    grid: SweepGrid
    weights: TradeoffWeights


@dataclass(frozen=True)
class SilencingSpec:
    """The ``silencing`` section: the engine configuration, policies and sweep."""

    config: ScenarioConfig
    policies: tuple[SilencingPolicy, ...]
    sweep: SweepSpec | None


@dataclass(frozen=True)
class SatWetSpec:
    """The ``satwet`` section: the link, the charging model and the curve axes."""

    params: SatWetParams
    model: ChargingModel
    mode: str  # one of satwet.MODES
    heights: tuple[float, ...]
    payloads: tuple[float, ...]


@dataclass(frozen=True)
class AcbSpec:
    """The ``acb`` section: the class profile, cell capacity and horizon."""

    profile: AcdcProfile
    capacity: float  # requests/s
    horizon: float = 60.0  # seconds


@dataclass(frozen=True)
class ScenarioDocument:
    """A validated scenario file; a section the file omits is None."""

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

# Each table maps a YAML key to the model field it sets. A key quoted in
# other units maps to (field, conversion); the channel's dB keys are mapped
# in _parse_channel, where the conversions are imported.
_SILENCING_KEYS = {
    "disaster_radius_m": "disaster_radius",
    "active_ring_width_m": "active_ring_width",
    "silencing_radius_m": "silencing_radius",
    "sim_radius_m": "sim_radius",
    "bs_density_per_m2": "bs_density",
    "bs_survival_prob": "bs_survival_prob",
    "device_tx_power_w": "device_tx_power",
    "bs_tx_power_w": "bs_tx_power",
}
_AERIAL_KEYS = {"density_per_m2": "density", "altitude_m": "altitude", "tx_power_w": "tx_power"}
_WEIGHT_KEYS = {"disaster": "w_disaster", "silencing_area": "w_silencing_area"}
_SATWET_KEYS = {
    "frequency_hz": "frequency",
    "sat_tx_power_w": "sat_tx_power",
    "sat_tx_gain": "sat_tx_gain",
    "ground_rx_gain": "ground_rx_gain",
    "rf_to_dc_efficiency": "rf_to_dc_efficiency",
    "min_elevation_deg": "min_elevation",
}
_CHARGING_KEYS = {"energy_per_bit_j": "energy_per_bit"}
_ACB_KEYS = {"capacity_per_s": "capacity", "horizon_s": "horizon"}
_CLASS_KEYS = {"arrival_rate_per_s": "arrival_rate", "admit_prob": "admit_prob"}

# The largest mean NumPy's Generator.poisson accepts; above it, it raises
# "lam value too large". This is NumPy's POISSON_LAM_MAX, computed the same way.
_POISSON_MEAN_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10


def _mapping(node, path: str, keys) -> dict:
    """`node` as a mapping whose keys all lie in `keys`; null reads as empty."""
    node = {} if node is None else node
    if not isinstance(node, dict):
        raise ScenarioError(path, f"must be a mapping, got {type(node).__name__}")
    unknown = set(node) - set(keys)
    if unknown:
        raise ScenarioError(f"{path}.{sorted(unknown)[0]}", "unknown key")
    return node


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(path, f"must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ScenarioError(path, f"must be finite, got {value!r}")
    return float(value)


def _name(value, path: str) -> str:
    """A nonempty string on one line: the manifest writes it verbatim after its key."""
    if not isinstance(value, str) or not value:
        raise ScenarioError(path, "must be a nonempty string")
    if value.splitlines() != [value]:
        raise ScenarioError(path, f"must not contain a line break, got {value!r}")
    return value


def _integer(node: dict, key: str, path: str, default=None):
    value = node.get(key)
    if value is None:
        if default is None:
            raise ScenarioError(f"{path}.{key}", "required key is missing")
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}.{key}", f"must be an integer, got {value!r}")
    return value


def _number_list(node: dict, key: str, path: str) -> tuple[float, ...]:
    value = node.get(key)
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{path}.{key}", "must be a nonempty list of numbers")
    return tuple(_number(v, f"{path}.{key}[{i}]") for i, v in enumerate(value))


def _fields(node: dict, keys: dict, path: str, required=()) -> dict:
    """Model keyword arguments from the keys of `node` that `keys` maps.

    A key the file omits, or sets to null, is left out, so the model's own
    default applies; a key in `required` must be present. A unit conversion
    that overflows a float (10 ** (4000 / 10)) is an error at the key.
    """
    kwargs = {}
    for key, field in keys.items():
        if node.get(key) is None:
            if key in required:
                raise ScenarioError(f"{path}.{key}", "required key is missing")
            continue
        field, convert = field if isinstance(field, tuple) else (field, float)
        value = _number(node[key], f"{path}.{key}")
        try:
            kwargs[field] = convert(value)
        except OverflowError:
            raise ScenarioError(f"{path}.{key}", f"must convert to a finite value, got {value!r}") from None
    return kwargs


def _build(model, path: str, *args, **kwargs):
    """model(*args, **kwargs), its ValueError re-raised as a ScenarioError at `path`.

    A ScenarioError, which a model raises with its own field name, passes
    through unchanged.
    """
    try:
        return model(*args, **kwargs)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc


def _parse_channel(node, path: str) -> ChannelParams:
    from .channel import ChannelParams, db_to_linear, dbm_to_watts

    keys = {
        "path_loss_exponent": "path_loss_exponent",
        "reference_gain_at_1m": "reference_gain_at_1m",
        "sinr_threshold_db": ("sinr_threshold", db_to_linear),
        "noise_dbm": ("noise_power", dbm_to_watts),
        "min_distance_m": "min_distance",
    }
    return _build(ChannelParams, path, **_fields(_mapping(node, path, keys), keys, path))


def _parse_policy(node, path: str) -> SilencingPolicy:
    from .netsim import SilencingPolicy

    if node in ("none", "complete", "spectrum_split"):
        return getattr(SilencingPolicy, node)()
    if isinstance(node, dict) and set(node) == {"partial"}:
        return _build(SilencingPolicy.partial, f"{path}.partial", _number(node["partial"], f"{path}.partial"))
    raise ScenarioError(path, f"must be none, complete, spectrum_split or {{partial: rho}}, got {node!r}")


def _parse_sweep(node, path: str, config: ScenarioConfig) -> SweepSpec:
    from .planner import SweepGrid, TradeoffWeights

    node = _mapping(node, path, {"rho_values", "silencing_radii_m", "weights"})
    grid = _build(
        SweepGrid,
        path,
        rho_values=_number_list(node, "rho_values", path),
        silencing_radii=_number_list(node, "silencing_radii_m", path),
    )
    for i, r_s in enumerate(grid.silencing_radii):
        try:
            replace(config, silencing_radius=r_s)
        except ScenarioError as exc:
            raise ScenarioError(f"{path}.silencing_radii_m[{i}]", str(exc)) from exc
    weights = _mapping(node.get("weights"), f"{path}.weights", _WEIGHT_KEYS)
    fields = _fields(weights, _WEIGHT_KEYS, f"{path}.weights")
    return SweepSpec(grid, _build(TradeoffWeights, f"{path}.weights", **fields))


def _parse_silencing(node, seed: int, n_trials: int) -> SilencingSpec:
    from .netsim import AerialTier, ScenarioConfig

    path = "silencing"
    node = _mapping(node, path, {*_SILENCING_KEYS, "channel", "aerial", "policies", "sweep"})
    aerial = None
    if node.get("aerial") is not None:
        apath = f"{path}.aerial"
        fields = _fields(_mapping(node["aerial"], apath, _AERIAL_KEYS), _AERIAL_KEYS, apath, required=_AERIAL_KEYS)
        aerial = _build(AerialTier, apath, **fields)
    config = _build(
        ScenarioConfig,
        path,
        **_fields(node, _SILENCING_KEYS, path, required=("bs_density_per_m2",)),
        aerial=aerial,
        channel=_parse_channel(node.get("channel"), f"{path}.channel"),
        n_trials=n_trials,
        master_seed=seed,
    )

    policies = ["none", "complete"] if node.get("policies") is None else node["policies"]
    if not isinstance(policies, list) or not policies:
        raise ScenarioError(f"{path}.policies", "must be a nonempty list")
    policies = tuple(_parse_policy(p, f"{path}.policies[{i}]") for i, p in enumerate(policies))
    sweep = None if node.get("sweep") is None else _parse_sweep(node["sweep"], f"{path}.sweep", config)
    return SilencingSpec(config=config, policies=policies, sweep=sweep)


def _parse_satwet(node) -> SatWetSpec:
    from .satwet import MODES, ChargingModel, SatWetParams

    path = "satwet"
    node = _mapping(node, path, {*_SATWET_KEYS, *_CHARGING_KEYS, "mode", "heights_m", "payload_bits"})
    mode = "zenith" if node.get("mode") is None else node["mode"]
    if mode not in MODES:
        raise ScenarioError(f"{path}.mode", f"must be one of {', '.join(MODES)}, got {mode!r}")
    params = _build(SatWetParams, path, **_fields(node, _SATWET_KEYS, path))
    model = _build(ChargingModel, path, **_fields(node, _CHARGING_KEYS, path))
    # Every altitude and payload of the curve, checked by the model it sets.
    heights = _number_list(node, "heights_m", path)
    payloads = _number_list(node, "payload_bits", path)
    per_height = [_build(replace, f"{path}.heights_m[{i}]", params, altitude=h) for i, h in enumerate(heights)]
    per_payload = [_build(replace, f"{path}.payload_bits[{i}]", model, payload_bits=b) for i, b in enumerate(payloads)]
    return SatWetSpec(per_height[0], per_payload[0], mode, heights, payloads)


def _parse_acb(node) -> AcbSpec:
    from .acb import AccessClass, AcdcProfile

    path = "acb"
    node = _mapping(node, path, {*_ACB_KEYS, "monotone", "classes"})
    monotone = node.get("monotone")
    if monotone is not None and not isinstance(monotone, bool):
        raise ScenarioError(f"{path}.monotone", f"must be a boolean, got {monotone!r}")
    classes_node = node.get("classes")
    if not isinstance(classes_node, list) or not classes_node:
        raise ScenarioError(f"{path}.classes", "must be a nonempty list")
    classes = []
    for i, c in enumerate(classes_node):
        cpath = f"{path}.classes[{i}]"
        c = _mapping(c, cpath, {"name", "acdc_category", *_CLASS_KEYS})
        _name(c.get("name"), f"{cpath}.name")
        fields = _fields(c, _CLASS_KEYS, cpath, required=_CLASS_KEYS)
        classes.append(_build(AccessClass, cpath, c["name"], _integer(c, "acdc_category", cpath), **fields))
    flags = {} if monotone is None else {"monotone": monotone}
    profile = _build(AcdcProfile, f"{path}.classes", tuple(classes), **flags)
    spec = AcbSpec(profile, **_fields(node, _ACB_KEYS, path, required=("capacity_per_s",)))
    for key, field in _ACB_KEYS.items():
        if getattr(spec, field) <= 0:
            raise ScenarioError(f"{path}.{key}", f"must be > 0, got {getattr(spec, field)}")
    for i, c in enumerate(profile.classes):
        if c.arrival_rate * spec.horizon > _POISSON_MEAN_MAX:
            raise ScenarioError(
                f"{path}.classes[{i}].arrival_rate_per_s",
                f"arrival_rate_per_s * horizon_s = {c.arrival_rate * spec.horizon:.6g} exceeds "
                f"{_POISSON_MEAN_MAX:.6g}, the largest mean NumPy's Poisson sampler accepts",
            )
    return spec


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
    raw = _mapping(raw, "<document>", {"name", "seed", "n_trials", "silencing", "satwet", "acb"})

    name = _name(Path(path).stem if raw.get("name") is None else raw["name"], "name")
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

    silencing, satwet, acb = (raw.get(key) for key in ("silencing", "satwet", "acb"))
    return ScenarioDocument(
        name=name,
        seed=seed,
        n_trials=n_trials,
        silencing=None if silencing is None else _parse_silencing(silencing, seed, n_trials),
        satwet=None if satwet is None else _parse_satwet(satwet),
        acb=None if acb is None else _parse_acb(acb),
    )
