"""Satellite-to-ground wireless energy transfer.

Link budget for a LEO satellite beaming RF power to a ground device, slant
geometry for a circular direct-overhead pass, and the charging time needed
before the device can transmit a given payload.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .channel import friis_gain

__all__ = [
    "EARTH_RADIUS",
    "SatWetParams",
    "ChargingModel",
    "ChargeCurveRow",
    "slant_distance",
    "zenith_harvested_power",
    "pass_average_power",
    "charging_time",
    "charge_curve",
]

EARTH_RADIUS = 6.371e6  # meters


@dataclass(frozen=True)
class SatWetParams:
    """Satellite power-beaming link parameters (linear units)."""

    frequency: float = 868e6  # Hz, EU ISM band
    sat_tx_power: float = 100.0  # W (50 dBm)
    sat_tx_gain: float = 1e5  # linear (50 dB)
    ground_rx_gain: float = 1.0  # linear (0 dBi)
    rf_to_dc_efficiency: float = 1.0
    altitude: float = 200e3  # meters
    earth_radius: float = EARTH_RADIUS
    min_elevation: float = 0.0  # degrees; lower edge of a usable pass

    def __post_init__(self):
        for name in ("frequency", "sat_tx_power", "sat_tx_gain", "ground_rx_gain", "altitude", "earth_radius"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 < self.rf_to_dc_efficiency <= 1.0:
            raise ValueError(f"rf_to_dc_efficiency must be in (0, 1], got {self.rf_to_dc_efficiency}")
        if not 0.0 <= self.min_elevation <= 90.0:
            raise ValueError(f"min_elevation must be in [0, 90] degrees, got {self.min_elevation}")


@dataclass(frozen=True)
class ChargingModel:
    """Energy model: transmitting B bits costs energy_per_bit * B joules."""

    energy_per_bit: float = 4.5e-11  # J/bit; calibration constant, not a physical claim
    payload_bits: float = 400.0

    def __post_init__(self):
        if self.energy_per_bit <= 0.0:
            raise ValueError("energy_per_bit must be > 0")
        if self.payload_bits < 0.0:
            raise ValueError("payload_bits must be >= 0")


def slant_distance(altitude: float, elevation_deg: float, earth_radius: float = EARTH_RADIUS) -> float:
    """Ground-station-to-satellite range for a given elevation angle.

    d = -R sin(e) + sqrt(R^2 sin^2(e) + h^2 + 2 R h); equals the altitude at
    zenith and sqrt(h^2 + 2 R h) at the horizon.
    """
    if not 0.0 <= elevation_deg <= 90.0:
        raise ValueError(f"elevation must be in [0, 90] degrees, got {elevation_deg}")
    sin_e = math.sin(math.radians(elevation_deg))
    r = earth_radius
    return -r * sin_e + math.sqrt(r * r * sin_e * sin_e + altitude * altitude + 2.0 * r * altitude)


def zenith_harvested_power(p: SatWetParams) -> float:
    """DC power harvested with the satellite directly overhead."""
    return (
        p.rf_to_dc_efficiency
        * p.sat_tx_power
        * p.sat_tx_gain
        * p.ground_rx_gain
        * friis_gain(p.altitude, p.frequency)
    )


def _central_angle(p: SatWetParams, elevation_deg: float) -> float:
    """Earth-center angle between the ground station and the sub-satellite point."""
    e = math.radians(elevation_deg)
    return math.acos(p.earth_radius * math.cos(e) / (p.earth_radius + p.altitude)) - e


def pass_average_power(p: SatWetParams) -> float:
    """Harvested power averaged over one direct-overhead pass.

    The satellite crosses from min_elevation up through zenith and back on a
    circular orbit, so time-averaging is an average over the Earth-center
    angle phi of P_zenith * h^2 / d(phi)^2. The slant range squared is
    d^2 = a - b cos(phi) with a = R^2 + (R+h)^2 and b = 2R(R+h), whose
    integral has the closed form
    int_0^phi dphi / (a - b cos phi) = (2 / (h (2R+h))) atan(((2R+h)/h) tan(phi/2)).
    """
    phi_max = _central_angle(p, p.min_elevation)
    if phi_max <= 0.0:
        # min_elevation = 90 degrees degenerates to the zenith point
        return zenith_harvested_power(p)
    h = p.altitude
    far = 2.0 * p.earth_radius + h  # a - b = h^2 and a + b = far^2
    integral = (2.0 / (h * far)) * math.atan((far / h) * math.tan(phi_max / 2.0))
    return zenith_harvested_power(p) * h * h * integral / phi_max


def charging_time(model: ChargingModel, harvested_power: float) -> float:
    """Seconds of harvesting needed to bank the payload's transmit energy."""
    if harvested_power <= 0.0:
        raise ValueError(f"harvested_power must be > 0, got {harvested_power}")
    if model.payload_bits == 0.0:
        return 0.0
    return model.energy_per_bit * model.payload_bits / harvested_power


@dataclass(frozen=True)
class ChargeCurveRow:
    """One (height, payload) point of a charging curve."""

    height: float  # meters
    payload_bits: float
    mode: str  # "zenith" | "pass-average"
    harvested_power: float  # watts
    charging_time: float  # seconds


def charge_curve(
    heights,
    payloads,
    p: SatWetParams,
    model: ChargingModel,
    mode: str = "zenith",
) -> list[ChargeCurveRow]:
    """Charging time over the cross product of altitudes and payload sizes.

    Each row recomputes the harvested power at its altitude using the chosen
    mode; energy_per_bit comes from the model, payload from the row.
    """
    heights = list(heights)
    payloads = list(payloads)
    if not heights or not payloads:
        raise ValueError("heights and payloads must be nonempty")
    if mode not in ("zenith", "pass-average"):
        raise ValueError(f"mode must be 'zenith' or 'pass-average', got {mode!r}")
    rows = []
    for h in heights:
        params_h = replace(p, altitude=h)
        power = zenith_harvested_power(params_h) if mode == "zenith" else pass_average_power(params_h)
        for bits in payloads:
            t = charging_time(ChargingModel(model.energy_per_bit, bits), power)
            rows.append(ChargeCurveRow(h, bits, mode, power, t))
    return rows
