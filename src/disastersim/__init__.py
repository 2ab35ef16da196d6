"""disastersim: post-disaster cellular resilience experiments.

Quantifies how base-station silencing restores uplink connectivity inside a
disaster zone, how long a LEO satellite must beam power at a ground device
before it can transmit a payload, and how access-class barring reshapes the
load on a congested cell.

The public names below load their submodule on first access (PEP 562), so
importing the package, or a light submodule such as ``disastersim.satwet``,
does not import the Monte Carlo engine.
"""

import importlib

__version__ = "0.7.0"

# Each submodule and the public names it defines; every name is listed once.
_MODULE_EXPORTS = {
    "acb": ("AccessClass", "AcdcProfile", "admitted_load", "simulate_access"),
    "channel": ("ChannelParams", "friis_gain", "path_gain"),
    "geometry": ("Annulus", "disk", "sample_ppp"),
    "netsim": (
        "AerialTier", "Estimate", "NetworkSnapshot", "ScenarioConfig", "SilencingPolicy",
        "apply_policy", "build_network", "estimate_grid", "estimate_silencing_area_coverage",
        "estimate_success", "uplink_trial",
    ),
    "errors": ("ScenarioError",),
    "planner": ("SweepGrid", "TradeoffWeights", "optimize_tradeoff", "sweep", "utility"),
    "satwet": (
        "ChargingModel", "SatWetParams", "charge_curve", "charging_time", "pass_average_power",
        "slant_distance", "zenith_harvested_power",
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}
# Submodules resolve as attributes too, as when the package imported them all.
_SUBMODULES = frozenset(_MODULE_EXPORTS)

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
