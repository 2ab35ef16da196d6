"""Monte Carlo engine for disaster-area uplink success under BS silencing.

Geometry: a circular disaster disk where a fraction of base stations
survives, a fully active ring just outside it, a silencing annulus whose
stations are suppressed by policy, and untouched outer stations up to a
simulation truncation radius. A typical device inside the disaster disk
uplinks to the nearest functioning station in or around the disk; the
interference it must overcome is the aggregate co-band downlink radiation
of every other transmitting station, received at the serving site.

Determinism contract: all randomness of trial t is drawn from Philox
engines keyed by master_seed (an integer in [0, 2^64)) at counter block
(0, 0, t, s), where s is the substream role:

    s=0  core geometry: device position, disaster stations (count,
         positions, survival marks), ring stations, aerial stations
    s=1  exterior stations, sampled in ascending radius
    s=2  uplink fading: device link, then one draw per station in array order
    s=3  silencing-area user position and downlink fading (reset per
         silencing radius, since the user is drawn inside it)

Policies never consume randomness, and exterior stations are sampled over
the whole (ring, sim_radius) annulus and only split into silencing and
outer zones by radius, so a trial's realization is identical at every
(silencing radius, policy) point. estimate_grid uses this: it samples each
trial once and scores every point from that one realization.

Interference is summed in two groups, by the engine and by the reference
kernels uplink_sinr / downlink_sinr alike: I_fix over the interferers
outside the silencing zone, and I_sil over the silencing-zone interferers
at full power. A policy with power factor f then sees I_fix + f * I_sil.
For rho > 0 the serving station does not depend on rho, so two sums per
(trial, radius) score every rho; the downlink's rho = 0 and spectrum_split
servers differ, and each keeps one sum of its own.

Sampling is split into draws and placement (see geometry). _sample_trial
makes every generator call of one trial's realization and places nothing;
_place_block turns the draws of consecutive trials into stations, with one
geometry placement call per tier and one cos/sin pass for all of them.
Placement is elementwise, so a station gets the same coordinates whether
its trial is placed alone (build_network, a one-trial block) or in a block.

estimate_grid walks its trials in blocks of _BLOCK. Per trial, it calls
_sample_trial and draws the fading, resetting each stream once. Once per
block, on the block's stations concatenated into ragged arrays, it places
the stations, builds the zone masks of every radius, computes distances,
path gains and the full-power received terms, and finds each trial's
serving station as the first index of its segment minimum
(np.minimum.reduceat). Only the grouped sums stay per trial: each is one
1-D pairwise sum over the same stations in the same order as the kernels'
np.sum, because batched sums (np.add.reduceat, row sums over padded rows)
add in another order and change last bits. Every policy is then scored
from them at once. The block is a small constant, because every batched
array, and so peak memory, grows with it.

Station arrays are ordered [disaster, ring, aerial, exterior] with the
exterior ascending in radius, so enlarging sim_radius only appends stations
and fading draws. These properties make policy, radius and truncation
comparisons exact per trial, not just statistical. Estimates reduce
integer counts over fixed trial ranges in ascending order and are
bit-identical for any worker count.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import IntEnum
from functools import lru_cache
from itertools import repeat
import math
from typing import NamedTuple

import numpy as np

from . import geometry
from .channel import ChannelParams, dbm_to_watts, path_gain
from .errors import SEED_LIMIT, ScenarioError
from .geometry import Annulus

__all__ = [
    "Zone",
    "Band",
    "AerialTier",
    "ScenarioConfig",
    "SilencingPolicy",
    "NetworkSnapshot",
    "TrialResult",
    "Estimate",
    "ScenarioError",
    "trial_rng",
    "build_network",
    "apply_policy",
    "uplink_sinr",
    "uplink_trial",
    "downlink_sinr",
    "downlink_trial",
    "estimate_grid",
    "estimate_success",
    "estimate_silencing_area_coverage",
]


class Zone(IntEnum):
    DISASTER = 0
    ACTIVE_RING = 1
    SILENCING = 2
    OUTER = 3


class Band(IntEnum):
    DISASTER_BAND = 0
    ALTERNATE_BAND = 1


# Substream roles for per-trial seed derivation.
STREAM_GEOMETRY = 0
STREAM_EXTERIOR = 1
STREAM_UPLINK = 2
STREAM_DOWNLINK = 3
_N_STREAMS = 4


def trial_rng(master_seed: int, trial_index: int, substream: int) -> np.random.Generator:
    """Generator for one (trial, substream) pair; see the module docstring."""
    key = np.array([master_seed, 0], dtype=np.uint64)
    counter = np.array([0, 0, trial_index, substream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


class _StreamPool:
    """Reusable Philox engines, one per substream, reset per trial.

    Resetting the counter of an existing engine yields the same draws as
    constructing it fresh, at a fraction of the cost; estimate loops run
    millions of trials, so the construction overhead matters.
    """

    def __init__(self, master_seed: int):
        key = np.array([master_seed, 0], dtype=np.uint64)
        self._engines = [np.random.Philox(key=key) for _ in range(_N_STREAMS)]
        self._generators = [np.random.Generator(e) for e in self._engines]
        # Lists, not arrays: the state setter reads the words one by one, and
        # from lists a reset takes about a third of the time. buffer_pos 4
        # marks the buffer as spent, so the next draw starts at the counter.
        self._states = [
            {
                "bit_generator": "Philox",
                "state": {"counter": [0, 0, 0, s], "key": [master_seed, 0]},
                "buffer": [0, 0, 0, 0],
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
            for s in range(_N_STREAMS)
        ]

    def get(self, trial_index: int, substream: int) -> np.random.Generator:
        state = self._states[substream]
        state["state"]["counter"][2] = trial_index
        self._engines[substream].state = state
        return self._generators[substream]


@dataclass(frozen=True)
class AerialTier:
    """Optional flying-BS infill over the disaster disk: always on, never thinned."""

    density: float  # per m^2
    altitude: float  # meters
    tx_power: float  # watts

    def __post_init__(self):
        if self.density < 0:
            raise ScenarioError("aerial.density", f"must be >= 0, got {self.density}")
        if self.altitude <= 0:
            raise ScenarioError("aerial.altitude", f"must be > 0, got {self.altitude}")
        if self.tx_power < 0:
            raise ScenarioError("aerial.tx_power", f"must be >= 0, got {self.tx_power}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one silencing experiment."""

    disaster_radius: float = 2000.0  # m
    active_ring_width: float = 600.0  # m
    silencing_radius: float = 6000.0  # m, outer edge of the suppressed annulus
    sim_radius: float = 20000.0  # m, interference truncation
    bs_density: float = 1e-6  # per m^2
    bs_survival_prob: float = 0.3  # inside the disaster disk
    device_tx_power: float = dbm_to_watts(23.0)  # W
    bs_tx_power: float = dbm_to_watts(46.0)  # W
    aerial: AerialTier | None = None
    channel: ChannelParams = field(default_factory=ChannelParams)
    n_trials: int = 10000
    master_seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.disaster_radius <= 0:
            raise ScenarioError("disaster_radius", f"must be > 0, got {self.disaster_radius}")
        if self.active_ring_width <= 0:
            raise ScenarioError("active_ring_width", f"must be > 0, got {self.active_ring_width}")
        if self.silencing_radius < self.ring_outer_radius:
            raise ScenarioError(
                "silencing_radius",
                f"must be >= disaster_radius + active_ring_width = {self.ring_outer_radius}, "
                f"got {self.silencing_radius}",
            )
        if self.sim_radius < self.silencing_radius:
            raise ScenarioError(
                "sim_radius", f"must be >= silencing_radius, got {self.sim_radius}"
            )
        if self.bs_density < 0:
            raise ScenarioError("bs_density", f"must be >= 0, got {self.bs_density}")
        if not 0.0 <= self.bs_survival_prob <= 1.0:
            raise ScenarioError("bs_survival_prob", f"must be in [0, 1], got {self.bs_survival_prob}")
        if self.device_tx_power < 0:
            raise ScenarioError("device_tx_power", f"must be >= 0, got {self.device_tx_power}")
        if self.bs_tx_power < 0:
            raise ScenarioError("bs_tx_power", f"must be >= 0, got {self.bs_tx_power}")
        if self.n_trials < 1:
            raise ScenarioError("n_trials", f"must be >= 1, got {self.n_trials}")
        if not 0 <= self.master_seed < SEED_LIMIT:
            raise ScenarioError("master_seed", f"must be in [0, 2^64), got {self.master_seed}")

    @property
    def ring_outer_radius(self) -> float:
        return self.disaster_radius + self.active_ring_width


@dataclass(frozen=True)
class SilencingPolicy:
    """Tagged silencing policy: none | complete | partial(rho) | spectrum_split.

    rho is the transmit-power suppression factor applied to silencing-zone
    stations; none is partial(1), complete is partial(0). spectrum_split
    keeps silencing-zone stations at full power but moves them to the
    alternate band, so they stop interfering with the disaster band.
    """

    kind: str
    rho: float = 1.0

    _KINDS = ("none", "complete", "partial", "spectrum_split")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")

    @classmethod
    def none(cls) -> "SilencingPolicy":
        return cls("none", 1.0)

    @classmethod
    def complete(cls) -> "SilencingPolicy":
        return cls("complete", 0.0)

    @classmethod
    def partial(cls, rho: float) -> "SilencingPolicy":
        return cls("partial", rho)

    @classmethod
    def spectrum_split(cls) -> "SilencingPolicy":
        return cls("spectrum_split", 1.0)

    @property
    def silencing_power_factor(self) -> float:
        if self.kind == "complete":
            return 0.0
        if self.kind == "partial":
            return self.rho
        return 1.0


@dataclass
class NetworkSnapshot:
    """One sampled realization as parallel per-station arrays plus the device.

    Station order is [disaster, ring, aerial, exterior-by-ascending-radius];
    that order is the fading-draw order and never changes under policies.
    """

    xy: np.ndarray  # (n, 2) m
    zone: np.ndarray  # (n,) int8, Zone values
    altitude: np.ndarray  # (n,) m, 0 for terrestrial
    tx_power: np.ndarray  # (n,) W
    power_factor: np.ndarray  # (n,) in [0, 1]
    band: np.ndarray  # (n,) int8, Band values
    alive: np.ndarray  # (n,) bool
    device_xy: np.ndarray  # (2,) m, typical device inside the disaster disk

    @property
    def n_bs(self) -> int:
        return self.xy.shape[0]

    def copy(self) -> "NetworkSnapshot":
        return NetworkSnapshot(
            self.xy.copy(),
            self.zone.copy(),
            self.altitude.copy(),
            self.tx_power.copy(),
            self.power_factor.copy(),
            self.band.copy(),
            self.alive.copy(),
            self.device_xy.copy(),
        )


@dataclass(frozen=True)
class TrialResult:
    """One trial's outcome on one link: success, coverage hole, and the SINR."""

    success: bool
    coverage_hole: bool
    sinr: float  # linear; nan when there was no serving station


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo probability estimate with a 95% normal-approximation CI."""

    value: float
    ci_halfwidth: float
    n_trials: int
    master_seed: int
    n_coverage_holes: int = 0


def _estimate(successes: int, holes: int, cfg: ScenarioConfig) -> Estimate:
    n = cfg.n_trials
    value = successes / n
    ci = 1.96 * math.sqrt(value * (1.0 - value) / n)
    return Estimate(value, ci, n, cfg.master_seed, holes)


@lru_cache(maxsize=32)
def _regions(disaster_radius: float, ring_outer: float, sim_radius: float):
    disaster = geometry.disk(disaster_radius)
    ring = Annulus(disaster_radius, ring_outer)
    exterior = Annulus(ring_outer, sim_radius) if sim_radius > ring_outer else None
    return disaster, ring, exterior


# Station tiers, in each trial's station order; exterior stations are split
# into the silencing and outer zones by radius.
_DISASTER, _RING, _AERIAL, _EXTERIOR = range(4)
_TIERS = np.arange(4, dtype=np.int8)
_TIER_ZONE = np.array([Zone.DISASTER, Zone.ACTIVE_RING, Zone.DISASTER, Zone.SILENCING], dtype=np.int8)


class _Draws(NamedTuple):
    """One trial's station draws, before any station is placed.

    tiers holds (radial, angle fractions) per tier in station order: radius
    fractions for the disaster, ring and aerial tiers, ascending cumulative
    arrival counts for the exterior (see geometry).
    """

    device: tuple[np.ndarray, np.ndarray]  # radius and angle fractions of one point
    survival: np.ndarray  # (n_disaster,) uniforms; alive where < bs_survival_prob
    tiers: tuple

    @property
    def n_bs(self) -> int:
        return sum(angle.size for _, angle in self.tiers)


def _sample_trial(
    cfg: ScenarioConfig,
    geom_rng: np.random.Generator,
    exterior_rng: np.random.Generator,
) -> _Draws:
    """Every draw of one trial's realization, in the order of the module
    docstring; _place_block turns them into stations."""
    disaster_region, ring_region, exterior_region = _regions(
        cfg.disaster_radius, cfg.ring_outer_radius, cfg.sim_radius
    )
    device = geometry._draw_uniform(1, geom_rng)
    disaster = geometry._draw_ppp(disaster_region, cfg.bs_density, geom_rng)
    survival = geom_rng.random(disaster[1].size)
    ring = geometry._draw_ppp(ring_region, cfg.bs_density, geom_rng)
    if cfg.aerial is not None:
        aerial = geometry._draw_ppp(disaster_region, cfg.aerial.density, geom_rng)
    else:
        aerial = geometry._no_draws()
    if exterior_region is not None:
        exterior = geometry._draw_ppp_radial(exterior_region, cfg.bs_density, exterior_rng)
    else:
        exterior = geometry._no_draws()
    return _Draws(device, survival, (disaster, ring, aerial, exterior))


def build_network(cfg: ScenarioConfig, trial_index: int) -> NetworkSnapshot:
    """Sample one network realization, fully determined by (master_seed, trial_index).

    Stations arrive as independent PPPs at bs_density per zone: the disaster
    disk (then survival-thinned via alive marks), the active ring, and the
    exterior annulus out to sim_radius, which is split into silencing and
    outer zones by radius against cfg.silencing_radius. Splitting one
    exterior process by radius keeps realizations comparable across
    silencing radii with common random numbers.
    """
    draws = _sample_trial(
        cfg,
        trial_rng(cfg.master_seed, trial_index, STREAM_GEOMETRY),
        trial_rng(cfg.master_seed, trial_index, STREAM_EXTERIOR),
    )
    block = _place_block(cfg, [draws])
    n = block.tier.size
    zone = _TIER_ZONE[block.tier]
    zone[block.exterior & (block.radius > cfg.silencing_radius)] = Zone.OUTER
    return NetworkSnapshot(
        xy=np.column_stack((block.x, block.y)),
        zone=zone,
        altitude=block.alt if block.alt is not None else np.zeros(n),
        tx_power=block.tx,
        power_factor=np.ones(n),
        band=np.full(n, Band.DISASTER_BAND, dtype=np.int8),
        alive=block.alive,
        device_xy=block.device[0],
    )


def apply_policy(net: NetworkSnapshot, policy: SilencingPolicy) -> NetworkSnapshot:
    """Return a copy of the snapshot with the policy stamped onto the silencing zone.

    Only silencing-zone stations change: their power factor becomes the
    policy's suppression factor, and spectrum_split retunes them to the
    alternate band at full power. No randomness is consumed.
    """
    out = net.copy()
    sil = out.zone == Zone.SILENCING
    out.power_factor[sil] = policy.silencing_power_factor
    if policy.kind == "spectrum_split":
        out.band[sil] = Band.ALTERNATE_BAND
    return out


def _distances_3d(xy: np.ndarray, alt: np.ndarray, point_xy: np.ndarray, point_alt: float) -> np.ndarray:
    planar_sq = (xy[:, 0] - point_xy[0]) ** 2 + (xy[:, 1] - point_xy[1]) ** 2
    if point_alt == 0.0:
        return np.sqrt(planar_sq + alt * alt)
    return np.sqrt(planar_sq + (alt - point_alt) ** 2)


def _grouped_interference(net: NetworkSnapshot, ch: ChannelParams, interferers: np.ndarray,
                          bs_fading: np.ndarray, point_xy: np.ndarray, point_alt: float) -> float:
    """Interference at a point from the marked stations, as I_fix + f * I_sil.

    I_fix sums pf*tx*h*g over the interferers outside the silencing zone;
    I_sil sums tx*h*g over the silencing-zone interferers, whose one shared
    power factor is f (1.0 if there are none). This is the grouping the
    silencing engine sums, so both give the same bits.
    """
    idx = np.flatnonzero(interferers)
    d = _distances_3d(net.xy[idx], net.altitude[idx], point_xy, point_alt)
    gains = path_gain(np.maximum(d, ch.min_distance), ch)
    sil = net.zone[idx] == Zone.SILENCING
    out, zone = idx[~sil], idx[sil]
    factors = net.power_factor[zone]
    f = float(factors[0]) if factors.size else 1.0
    if np.any(factors != f):
        raise ValueError(f"silencing-zone transmitters must share one power factor, got {np.unique(factors)}")
    i_fix = np.sum(net.power_factor[out] * net.tx_power[out] * bs_fading[out] * gains[~sil])
    i_sil = np.sum(net.tx_power[zone] * bs_fading[zone] * gains[sil])
    return float(i_fix + f * i_sil)


def uplink_sinr(
    net: NetworkSnapshot,
    cfg: ScenarioConfig,
    device_fading: float,
    bs_fading: np.ndarray,
) -> tuple[float, int]:
    """Uplink SINR for the typical device given explicit fading values.

    The device transmits on the disaster band to the nearest alive station
    inside the disaster disk or the active ring (aerial counts, with 3D
    range). Stations beyond the ring never serve the uplink: suppressing
    or re-tuning them must not retarget the receiver, which is what makes
    the common-random-number policy orderings exact per trial. Interference
    is the power_factor-scaled downlink radiation of every other
    disaster-band transmitter, received at the serving site. Returns
    (sinr, serving index); (nan, -1) when no station can serve.
    """
    ch = cfg.channel
    servable = (
        net.alive
        & (net.power_factor > 0.0)
        & (net.band == Band.DISASTER_BAND)
        & ((net.zone == Zone.DISASTER) | (net.zone == Zone.ACTIVE_RING))
    )
    candidates = np.flatnonzero(servable)
    if candidates.size == 0:
        return math.nan, -1

    d_dev = _distances_3d(net.xy[candidates], net.altitude[candidates], net.device_xy, 0.0)
    pick = int(np.argmin(d_dev))
    serving = int(candidates[pick])
    d0 = float(d_dev[pick])
    signal = cfg.device_tx_power * device_fading * path_gain(max(d0, ch.min_distance), ch)

    interferers = net.alive & (net.power_factor > 0.0) & (net.band == Band.DISASTER_BAND)
    interferers[serving] = False
    interference = _grouped_interference(
        net, ch, interferers, bs_fading, net.xy[serving], float(net.altitude[serving])
    )
    denom = interference + ch.noise_power
    if denom == 0.0:
        return math.inf, serving
    return signal / denom, serving


def uplink_trial(net: NetworkSnapshot, cfg: ScenarioConfig, rng: np.random.Generator) -> TrialResult:
    """One uplink success/failure draw on an already-policied snapshot.

    Draw order is fixed (device fading, then one fading per station in array
    order) so identical generator states give identical draws under every
    policy. A trial with no serving station is a coverage hole and counts
    as a failure.
    """
    g = rng.exponential()
    h = rng.exponential(size=net.n_bs)
    sinr, serving = uplink_sinr(net, cfg, g, h)
    if serving < 0:
        return TrialResult(False, True, math.nan)
    return TrialResult(bool(sinr >= cfg.channel.sinr_threshold), False, float(sinr))


def downlink_sinr(
    net: NetworkSnapshot,
    cfg: ScenarioConfig,
    user_xy: np.ndarray,
    user_band: Band,
    user_fading: float,
    bs_fading: np.ndarray,
) -> tuple[float, int]:
    """Downlink SINR for a user served on user_band, given explicit fading.

    Serving station is the nearest transmitting station on that band (any
    zone); its power_factor scales the signal exactly as it scales what it
    leaks to everyone else. Interference comes from the other co-band
    transmitters. Returns (sinr, serving index); (nan, -1) for no server.
    """
    ch = cfg.channel
    transmitting = net.alive & (net.power_factor > 0.0) & (net.band == user_band)
    candidates = np.flatnonzero(transmitting)
    if candidates.size == 0:
        return math.nan, -1

    d_user = _distances_3d(net.xy[candidates], net.altitude[candidates], user_xy, 0.0)
    pick = int(np.argmin(d_user))
    serving = int(candidates[pick])
    d0 = float(d_user[pick])
    signal = (
        net.power_factor[serving]
        * net.tx_power[serving]
        * user_fading
        * path_gain(max(d0, ch.min_distance), ch)
    )

    others = transmitting
    others[serving] = False
    interference = _grouped_interference(net, ch, others, bs_fading, user_xy, 0.0)
    denom = interference + ch.noise_power
    if denom == 0.0:
        if signal == 0.0:
            return math.nan, -1
        return math.inf, serving
    return signal / denom, serving


def _silencing_annulus(cfg: ScenarioConfig, silencing_radius: float) -> Annulus:
    """The region a silencing-area user is drawn from; it must not be empty."""
    if silencing_radius <= cfg.ring_outer_radius:
        raise ScenarioError(
            "silencing_radius",
            "silencing annulus is empty; coverage inside it is undefined",
        )
    return Annulus(cfg.ring_outer_radius, silencing_radius)


def downlink_trial(
    net: NetworkSnapshot,
    cfg: ScenarioConfig,
    policy: SilencingPolicy,
    rng: np.random.Generator,
) -> TrialResult:
    """Coverage draw for a user uniform in the silencing annulus.

    Under spectrum_split the user is served on the alternate band by the
    re-tuned silencing-zone stations; otherwise on the disaster band. Draw
    order: user position (radius, angle), user-link fading, one fading per
    station in array order.
    """
    user = geometry.sample_uniform(_silencing_annulus(cfg, cfg.silencing_radius), 1, rng)[0]
    g = rng.exponential()
    h = rng.exponential(size=net.n_bs)
    band = Band.ALTERNATE_BAND if policy.kind == "spectrum_split" else Band.DISASTER_BAND
    sinr, serving = downlink_sinr(net, cfg, user, band, g, h)
    if serving < 0:
        return TrialResult(False, True, math.nan)
    return TrialResult(bool(sinr >= cfg.channel.sinr_threshold), False, float(sinr))


# Trials per block of the silencing engine. A block's stations, about 500
# per trial on paper_fig5, are scored as one set of ragged arrays. Every
# temporary array of a block grows with it, and so does the engine's peak
# RSS, so the block is a small constant rather than an option.
_BLOCK = 16


@dataclass
class _Block:
    """The realizations of consecutive trials as ragged station arrays.

    Trial i owns entries bounds[i]:bounds[i + 1], ordered as its draws:
    [disaster, ring, aerial, exterior by ascending radius].
    """

    bounds: np.ndarray  # (n_trials + 1,)
    tier: np.ndarray  # (n,) int8, _DISASTER, _RING, _AERIAL or _EXTERIOR
    x: np.ndarray  # (n,) m
    y: np.ndarray  # (n,) m
    alt: np.ndarray | None  # (n,) m; None without an aerial tier
    tx: np.ndarray  # (n,) W
    alive: np.ndarray  # (n,) bool
    exterior: np.ndarray  # (n,) bool, silencing or outer zone
    radius: np.ndarray  # (n,) m, hypot(x, y)
    device: np.ndarray  # (n_trials, 2) m
    up_fading: tuple | None = None  # (device link (n_trials,), stations (n,))
    down_draws: tuple | None = None  # (user radius and angle fractions (2, n_trials), user link, stations)

    @property
    def n_trials(self) -> int:
        return self.bounds.size - 1

    def spread(self, per_trial: np.ndarray) -> np.ndarray:
        """A per-trial array with each entry repeated for every station of its trial."""
        return np.repeat(per_trial, np.diff(self.bounds))


def _place_block(cfg: ScenarioConfig, draws: list[_Draws]) -> _Block:
    """The stations of consecutive trials' draws, placed as one block.

    Each tier is placed by one geometry call over all the block's draws of
    that tier and then scattered into each trial's station order; cos and
    sin run once over the whole block. Placement is elementwise, so every
    station gets the bits it would get placed on its own.
    """
    disaster_region, ring_region, exterior_region = _regions(
        cfg.disaster_radius, cfg.ring_outer_radius, cfg.sim_radius
    )
    sizes = np.array([[angle.size for _, angle in d.tiers] for d in draws], dtype=np.intp)
    bounds = np.zeros(len(draws) + 1, dtype=np.intp)
    np.cumsum(sizes.sum(axis=1), out=bounds[1:])
    tier = np.repeat(np.tile(_TIERS, len(draws)), sizes.ravel())
    radial = [np.concatenate([d.tiers[k][0] for d in draws]) for k in range(len(_TIERS))]
    r = np.empty(tier.size)
    for k, region in ((_DISASTER, disaster_region), (_RING, ring_region), (_AERIAL, disaster_region)):
        r[tier == k] = geometry._annulus_radius(region, radial[k])
    exterior = tier == _EXTERIOR
    if exterior_region is not None:
        r[exterior] = geometry._radial_radius(exterior_region, cfg.bs_density, radial[_EXTERIOR])
    xy = geometry._polar_to_xy(r, np.concatenate([angle for d in draws for _, angle in d.tiers]))
    x, y = xy[:, 0], xy[:, 1]

    alive = np.ones(tier.size, dtype=bool)
    alive[tier == _DISASTER] = np.concatenate([d.survival for d in draws]) < cfg.bs_survival_prob
    if cfg.aerial is not None:
        aerial = tier == _AERIAL
        alt = np.where(aerial, cfg.aerial.altitude, 0.0)
        tx = np.where(aerial, cfg.aerial.tx_power, cfg.bs_tx_power)
    else:
        alt, tx = None, np.full(tier.size, cfg.bs_tx_power)
    u_radius, u_angle = zip(*(d.device for d in draws))
    device = geometry._place(disaster_region, np.concatenate(u_radius), np.concatenate(u_angle))
    return _Block(
        bounds=bounds,
        tier=tier,
        x=x,
        y=y,
        alt=alt,
        tx=tx,
        alive=alive,
        exterior=exterior,
        radius=np.hypot(x, y),
        device=device,
    )


def _sample_block(cfg: ScenarioConfig, streams: _StreamPool, trials: range, uplink: bool, downlink: bool) -> _Block:
    """Each trial's _sample_trial draws, placed as one block, and the fading
    draws of uplink_trial and downlink_trial.

    Each Philox stream is reset once per trial and makes the reference's
    generator calls in order, merged where that gives the same numbers:
    random() twice equals random(2), and exponential() then exponential(n)
    equals exponential(n + 1). downlink_trial resets its stream at every
    silencing radius and so draws the same user fractions and fading at
    each; they are drawn once.
    """
    draws, up_g, up_h, down_u, down_g, down_h = [], [], [], [], [], []
    for t in trials:
        trial = _sample_trial(cfg, streams.get(t, STREAM_GEOMETRY), streams.get(t, STREAM_EXTERIOR))
        draws.append(trial)
        n_bs = trial.n_bs
        if uplink:
            h = streams.get(t, STREAM_UPLINK).exponential(size=n_bs + 1)
            up_g.append(h[0])
            up_h.append(h[1:])
        if downlink:
            down = streams.get(t, STREAM_DOWNLINK)
            down_u.append(down.random(2))  # sample_uniform: radius, then angle
            h = down.exponential(size=n_bs + 1)
            down_g.append(h[0])
            down_h.append(h[1:])

    block = _place_block(cfg, draws)
    if uplink:
        block.up_fading = np.array(up_g), np.concatenate(up_h)
    if downlink:
        block.down_draws = np.array(down_u).reshape(-1, 2).T, np.array(down_g), np.concatenate(down_h)
    return block


def _distances(block: _Block, px: np.ndarray, py: np.ndarray, pz: np.ndarray | None = None) -> np.ndarray:
    """3-D distance from every station to its trial's point, given per-trial
    point coordinates (pz None: on the ground), with _distances_3d's
    arithmetic. Without an aerial tier every altitude term is +0.0, and
    adding it changes no bit, so it is left out.
    """
    planar_sq = (block.x - block.spread(px)) ** 2 + (block.y - block.spread(py)) ** 2
    if block.alt is None:
        return np.sqrt(planar_sq)
    if pz is None:
        return np.sqrt(planar_sq + block.alt * block.alt)
    return np.sqrt(planar_sq + (block.alt - block.spread(pz)) ** 2)


def _nearest(bounds: np.ndarray, candidates: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per trial (stations bounds[i]:bounds[i + 1]), the candidate nearest to
    the trial's point, given ascending candidate indices and their
    distances d; the lowest index on a tie, as np.argmin picks it, and -1
    for a trial without candidates."""
    ends = np.searchsorted(candidates, bounds)
    sizes = np.diff(ends)
    nonempty = sizes > 0
    nearest = np.full(bounds.size - 1, -1)
    # reduceat gives a wrong value for an empty segment, so only nonempty ones
    starts = ends[:-1][nonempty]
    if starts.size:
        best = np.minimum.reduceat(d, starts)
        tied = d == np.repeat(best, sizes[nonempty])
        nearest[nonempty] = np.minimum.reduceat(np.where(tied, candidates, bounds[-1]), starts)
    return nearest


def _trial_sums(bounds: np.ndarray, terms: np.ndarray, on: np.ndarray) -> np.ndarray:
    """Per trial (stations bounds[i]:bounds[i + 1]), terms[on] summed over
    that trial's stations alone.

    Each sum is one 1-D reduction over the trial's terms in station order,
    the pairwise sum np.sum takes in uplink_sinr and downlink_sinr. Batched
    forms add in another order and change last bits: np.add.reduceat sums
    sequentially, and a 2-D row sum needs zero-padded rows, which changes
    each row's pairwise tree.
    """
    idx = np.flatnonzero(on)
    kept = terms[idx]
    ends = np.searchsorted(idx, bounds).tolist()
    add = np.add.reduce
    return np.array([add(kept[a:b]) for a, b in zip(ends, ends[1:])])


def _count_uplink(cfg: ScenarioConfig, block: _Block, sil_masks, factors: np.ndarray, counts: np.ndarray):
    """Add a block's uplink (successes, holes) to counts[radius, policy].

    factors[j] is policy j's power factor on the disaster band inside the
    silencing zone. The serving station depends on neither radius nor
    policy, so it and its gains to every station are found once per trial,
    and each radius needs only the two sums I_fix and I_sil.
    """
    ch = cfg.channel
    g, h = block.up_fading
    candidates = np.flatnonzero(block.alive & ~block.exterior)
    owner = np.searchsorted(block.bounds, candidates, side="right") - 1
    planar_sq = (block.x[candidates] - block.device[owner, 0]) ** 2 + (block.y[candidates] - block.device[owner, 1]) ** 2
    alt = block.alt[candidates] if block.alt is not None else 0.0
    d_device = np.sqrt(planar_sq + alt * alt)
    serving = _nearest(block.bounds, candidates, d_device)
    served = serving >= 0
    counts[:, :, 1] += block.n_trials - np.count_nonzero(served)
    if not served.any():
        return
    s = serving[served]
    d0 = d_device[np.searchsorted(candidates, s)]
    signal = cfg.device_tx_power * g[served] * path_gain(np.maximum(d0, ch.min_distance), ch)
    src = np.maximum(serving, 0)  # a trial without a server is never scored
    d = _distances(block, block.x[src], block.y[src], block.alt[src] if block.alt is not None else None)
    gains = path_gain(np.maximum(d, ch.min_distance), ch)
    full = block.tx * h * gains
    on = block.alive.copy()
    on[s] = False
    for k, sil in enumerate(sil_masks):
        i_fix = _trial_sums(block.bounds, full, on & ~sil)[served][:, None]
        i_sil = _trial_sums(block.bounds, full, on & sil)[served][:, None]
        denom = i_fix + factors * i_sil + ch.noise_power
        counts[k, :, 0] += ((denom == 0.0) | (signal[:, None] / denom >= ch.sinr_threshold)).sum(axis=0)


def _count_downlink(cfg: ScenarioConfig, block: _Block, sil: np.ndarray, policies, region: Annulus,
                    counts: np.ndarray):
    """Add a block's silencing-area (successes, holes) at one radius to counts[policy].

    The user and the fading depend on the radius only, so distances and
    gains to every station are found once per trial. The serving station
    depends only on which stations transmit on the user's band: all of
    them (rho > 0: I_fix and I_sil score every rho), all but the silenced
    ones (rho = 0: I_fix alone), or (spectrum_split) only the retuned ones
    (I_sil alone).
    """
    ch = cfg.channel
    user_u, g, h = block.down_draws
    user = geometry._place(region, user_u[0], user_u[1])
    d = _distances(block, user[:, 0], user[:, 1])
    gains = path_gain(np.maximum(d, ch.min_distance), ch)
    full = block.tx * h * gains
    bands = {}
    for j, policy in enumerate(policies):
        if policy.kind == "spectrum_split":
            band = "retuned"
        else:
            band = "all" if policy.silencing_power_factor > 0.0 else "unsilenced"
        bands.setdefault(band, []).append(j)
    scored = np.zeros((len(policies), 2), dtype=np.int64)
    for band, members in bands.items():
        if band == "all":
            on = block.alive.copy()
        else:
            on = block.alive & (sil if band == "retuned" else ~sil)
        candidates = np.flatnonzero(on)
        serving = _nearest(block.bounds, candidates, d[candidates])
        served = serving >= 0
        s = serving[served]
        on[s] = False
        if band == "all":
            i_fix, i_sil = (_trial_sums(block.bounds, full, on & zone)[served][:, None] for zone in (~sil, sil))
        else:  # one group transmits, and the other's sum is 0.0
            one, zero = _trial_sums(block.bounds, full, on)[served][:, None], np.zeros((s.size, 1))
            i_fix, i_sil = (zero, one) if band == "retuned" else (one, zero)
        factors = np.array([policies[j].silencing_power_factor for j in members])
        signal = np.where(sil[s][:, None], factors, 1.0) * block.tx[s][:, None] * g[served][:, None] * gains[s][:, None]
        denom = i_fix + factors * i_sil + ch.noise_power
        silent = (denom == 0.0) & (signal == 0.0)
        scored[members, 0] = (~silent & ((denom == 0.0) | (signal / denom >= ch.sinr_threshold))).sum(axis=0)
        scored[members, 1] = block.n_trials - s.size + silent.sum(axis=0)
    counts += scored


def _count_chunk(cfg: ScenarioConfig, radii, policies, uplink: bool, regions, start: int, stop: int) -> np.ndarray:
    """Integer counts [radius, policy, (uplink successes, uplink holes,
    downlink successes, downlink holes)] over trials [start, stop).

    Trials are sampled and scored in blocks of _BLOCK; only the zone split
    depends on the radius, because exterior stations cover the whole (ring,
    sim_radius) annulus. regions holds the silencing annulus per radius, or
    is None to skip the downlink.
    """
    counts = np.zeros((len(radii), len(policies), 4), dtype=np.int64)
    up_factors = np.array([0.0 if p.kind == "spectrum_split" else p.silencing_power_factor for p in policies])
    streams = _StreamPool(cfg.master_seed)
    with np.errstate(divide="ignore", invalid="ignore"):  # x / 0 is only ever compared where masked out
        for first in range(start, stop, _BLOCK):
            trials = range(first, min(first + _BLOCK, stop))
            block = _sample_block(cfg, streams, trials, uplink, regions is not None)
            sil_masks = [block.exterior & (block.radius <= r_s) for r_s in radii]
            if uplink:
                _count_uplink(cfg, block, sil_masks, up_factors, counts[:, :, :2])
            for k, region in enumerate(regions or ()):
                _count_downlink(cfg, block, sil_masks[k], policies, region, counts[k, :, 2:])
    return counts


def estimate_grid(
    cfg: ScenarioConfig,
    radii,
    policies,
    workers: int = 1,
    *,
    uplink: bool = True,
    downlink: bool = True,
) -> list[list[tuple[Estimate | None, Estimate | None]]]:
    """Uplink success and silencing-area coverage at every (radius, policy) point.

    Returns grid[k][j] = (uplink, downlink) estimates for radii[k] and
    policies[j]; a link not asked for is None. Every point is scored on the
    same realizations (common random numbers), each sampled once per trial,
    and the counts equal those of build_network + apply_policy +
    uplink_trial / downlink_trial at cfg with silencing_radius = radii[k].
    """
    radii, policies = tuple(radii), tuple(policies)
    for r_s in radii:
        replace(cfg, silencing_radius=r_s)  # ScenarioConfig.validate bounds every radius
    regions = tuple(_silencing_annulus(cfg, r_s) for r_s in radii) if downlink else None
    n = cfg.n_trials
    # Chunks of whole blocks, about four per worker. Per-trial seeding makes
    # any partition valid; summing integer counts in ascending chunk order
    # keeps the result identical for any worker count.
    chunk = _BLOCK * math.ceil(n / (max(workers, 1) * 4 * _BLOCK))
    if workers <= 1 or chunk >= n:
        counts = _count_chunk(cfg, radii, policies, uplink, regions, 0, n)
    else:
        starts = range(0, n, chunk)
        stops = [min(s + chunk, n) for s in starts]
        counts = np.zeros((len(radii), len(policies), 4), dtype=np.int64)
        # a pool forks all its workers at the first submit, so none beyond the chunks
        with ProcessPoolExecutor(max_workers=min(workers, len(starts))) as pool:
            for part in pool.map(_count_chunk, repeat(cfg), repeat(radii), repeat(policies),
                                 repeat(uplink), repeat(regions), starts, stops):
                counts += part
    return [
        [
            (
                _estimate(int(c[0]), int(c[1]), cfg) if uplink else None,
                _estimate(int(c[2]), int(c[3]), cfg) if downlink else None,
            )
            for c in row
        ]
        for row in counts
    ]


def estimate_success(
    cfg: ScenarioConfig, policy: SilencingPolicy, workers: int = 1
) -> Estimate:
    """Probability that the typical disaster-area device's uplink clears the
    SINR threshold, averaged over n_trials independent realizations."""
    return estimate_grid(cfg, (cfg.silencing_radius,), (policy,), workers, downlink=False)[0][0][0]


def estimate_silencing_area_coverage(
    cfg: ScenarioConfig, policy: SilencingPolicy, workers: int = 1
) -> Estimate:
    """Downlink coverage probability for a typical user inside the silencing annulus."""
    return estimate_grid(cfg, (cfg.silencing_radius,), (policy,), workers, uplink=False)[0][0][1]
