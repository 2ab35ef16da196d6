"""disastersim: post-disaster cellular resilience experiments.

Quantifies how base-station silencing restores uplink connectivity inside a
disaster zone, how long a LEO satellite must beam power at a ground device
before it can transmit a payload, and how access-class barring reshapes the
load on a congested cell.
"""

__version__ = "0.3.0"

from .acb import AccessClass, AcdcProfile, admitted_load, simulate_access
from .channel import ChannelParams, friis_gain, path_gain
from .geometry import Annulus, disk, sample_ppp
from .netsim import (
    AerialTier,
    Estimate,
    NetworkSnapshot,
    ScenarioConfig,
    ScenarioError,
    SilencingPolicy,
    apply_policy,
    build_network,
    estimate_grid,
    estimate_silencing_area_coverage,
    estimate_success,
    uplink_trial,
)
from .planner import SweepGrid, TradeoffWeights, optimize_tradeoff, sweep, utility
from .satwet import (
    ChargingModel,
    SatWetParams,
    charge_curve,
    charging_time,
    pass_average_power,
    slant_distance,
    zenith_harvested_power,
)

__all__ = [
    "__version__",
    "AccessClass", "AcdcProfile", "admitted_load", "simulate_access",
    "ChannelParams", "friis_gain", "path_gain",
    "Annulus", "disk", "sample_ppp",
    "AerialTier", "Estimate", "NetworkSnapshot", "ScenarioConfig", "ScenarioError",
    "SilencingPolicy", "apply_policy", "build_network", "estimate_grid",
    "estimate_silencing_area_coverage", "estimate_success", "uplink_trial",
    "SweepGrid", "TradeoffWeights", "optimize_tradeoff", "sweep", "utility",
    "ChargingModel", "SatWetParams", "charge_curve", "charging_time",
    "pass_average_power", "slant_distance", "zenith_harvested_power",
]
