"""Radio propagation: dB and dBm conversions, power-law path gain and
free-space (Friis) gain."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "ChannelParams",
    "db_to_linear",
    "dbm_to_watts",
    "path_gain",
    "friis_gain",
]

SPEED_OF_LIGHT = 299792458.0  # m/s


@dataclass(frozen=True)
class ChannelParams:
    """Terrestrial link model parameters.

    path_loss_exponent must exceed 2 so that far-field aggregate interference
    stays finite; min_distance guards the power-law singularity: distances
    below it are clamped to it, never amplified, by _clamped_path_gain, the
    one place that clamps. Every field must be finite.
    """

    path_loss_exponent: float = 4.0
    reference_gain_at_1m: float = 1.0  # linear
    noise_power: float = 0.0  # watts; 0 = interference-limited (pure SIR)
    sinr_threshold: float = 0.1  # linear; 0.1 = -10 dB
    min_distance: float = 1.0  # meters

    def __post_init__(self):
        if not 2.0 < self.path_loss_exponent < math.inf:
            raise ValueError(f"path_loss_exponent must be > 2 and finite, got {self.path_loss_exponent}")
        if not 0.0 < self.reference_gain_at_1m < math.inf:
            raise ValueError("reference_gain_at_1m must be > 0 and finite")
        if not 0.0 <= self.noise_power < math.inf:
            raise ValueError("noise_power must be >= 0 and finite")
        if not 0.0 < self.sinr_threshold < math.inf:
            raise ValueError("sinr_threshold must be > 0 and finite")
        if not 0.0 < self.min_distance < math.inf:
            raise ValueError("min_distance must be > 0 and finite")


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def dbm_to_watts(value_dbm: float) -> float:
    """dBm is referenced to 1 mW: 50 dBm = 100 W."""
    return 1e-3 * 10.0 ** (value_dbm / 10.0)


def path_gain(distance, params: ChannelParams):
    """Power-law gain reference_gain_at_1m * d^(-alpha).

    Accepts a scalar or an array of distances. Distances must be positive;
    values below params.min_distance are clamped to it (_clamped_path_gain).
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("path_gain requires distance > 0")
    gain = _clamped_path_gain(d, params)
    return float(gain) if np.isscalar(distance) or gain.ndim == 0 else gain


def _clamped_path_gain(distance, params: ChannelParams):
    """path_gain without its check: any distance >= 0, clamped to
    params.min_distance, so a station's distance to itself (0) is allowed.
    The simulation engine calls this on raw distances."""
    d = np.maximum(distance, params.min_distance)
    alpha = params.path_loss_exponent
    if float(alpha).is_integer():
        # Multiplications and one division are correctly rounded, so this
        # gives the same bits on every CPU and for scalars and arrays alike;
        # np.power's last bit depends on which SIMD loop the CPU dispatches.
        p = d
        for _ in range(int(alpha) - 1):
            p = p * d
        return params.reference_gain_at_1m * (1.0 / p)
    # The ufunc, not **: on a NumPy scalar ** calls the C library's pow,
    # which can differ in the last bit from the vectorised loop that arrays
    # use. With np.power, path_gain(d) == path_gain(array)[i].
    return params.reference_gain_at_1m * np.power(d, -alpha)


def friis_gain(distance: float, frequency: float) -> float:
    """Free-space gain (lambda / (4 pi d))^2.

    Written as (lambda/4pi)^2 / d^2 so that doubling the distance divides the
    gain exactly by 4 in floating point.
    """
    if not 0.0 < distance < math.inf:
        raise ValueError(f"friis_gain requires 0 < distance < inf, got {distance}")
    if not 0.0 < frequency < math.inf:
        raise ValueError(f"friis_gain requires 0 < frequency < inf, got {frequency}")
    wavelength = SPEED_OF_LIGHT / frequency
    return (wavelength / (4.0 * math.pi)) ** 2 / (distance * distance)
