"""Monte Carlo engine for disaster-area uplink success under BS silencing.

Geometry: a circular disaster disk where a fraction of base stations
survives, a fully active ring just outside it, a silencing annulus whose
stations are suppressed by policy, and untouched outer stations up to a
simulation truncation radius. A typical device inside the disaster disk
uplinks to the nearest functioning station in or around the disk; the
interference it must overcome is the aggregate co-band downlink radiation
of every other transmitting station, received at the serving site.
ScenarioConfig validates the radii in one place, so both annuli beyond the
ring, silencing and exterior, are nonempty in every valid configuration.

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

Interference has one summation order, shared by the engine and by the
reference kernels uplink_sinr / downlink_sinr. Every sum is sequential,
each term added to the sum of the ones before it (_prefix_sums), over the
interferers of one group in station order:

    I_inner  the disaster- and ring-zone interferers, first to last
    I_outer  the outer-zone interferers, last to first (from the far edge in)
    I_sil    the silencing-zone interferers at full power, first to last

and I_fix = I_inner + I_outer. A policy with power factor f then sees
I_fix + f * I_sil. A sequential sum does not change when a +0.0 term is
added, so a sum over zero-padded rows or over terms zeroed by a mask has
the bits of the sum over the kept terms alone.

One function, _tally, scores both links in the engine: it tests signal /
(I_fix + f * I_sil + N) >= tau at every f from one pair of sums per trial,
with the kernels' rule for x / 0 and 0 / 0 (_sinr). A policy enters as its
power factors (other zones, silencing zone) on the link's band
(_band_factors); spectrum_split is (1, 0) on the uplink and (0, 1) on the
downlink. The serving station depends only on which stations transmit, so
the uplink has one per trial, and the downlink one per trial, radius and
pattern in use: every station (rho > 0), all but the silencing zone
(rho = 0), or that zone alone (spectrum_split).

Sampling is split into draws and placement (see geometry). _sample_trial
makes every generator call of one trial's realization and places nothing;
consecutive uniform draws are one call (the device is random(2), a tier of
c stations random(2c), or random(3c) with the survival marks), and it
returns the trial's tier sizes as ints with its uniforms as drawn.
_place_block turns the draws of consecutive trials into stations with no
walk over the trials: the tier sizes locate every inner station's
uniforms, the exterior arrivals are placed as one array, and one cos/sin
pass places every station. Placement is elementwise, so a station gets the
same coordinates whether its trial is placed alone (build_network, a
one-trial block) or in a block.

estimate_grid walks its trials in blocks of _BLOCK. Per trial, it calls
_sample_trial and draws the fading, resetting each stream once, and the
stations' fading lands in place in the block's arrays. Everything else
runs once per block, on the block's stations concatenated into ragged
arrays: it places the stations, counts each trial's silencing-zone
stations at every radius, computes distances (2-D in a block without an
aerial tier, where every altitude is 0.0 and would add +0.0), path gains
and the full-power received terms, and finds each trial's serving station
as the first index of its segment minimum (np.minimum.reduceat). A
station's radius is the one placement computed (_Block.radius), and the
silencing zone at r_s is the exterior stations with radius <= r_s, the
outer zone the rest. A trial's exterior stations are contiguous and their
radius never decreases (see geometry._radial_radius), so its silencing
zone is a prefix of its exterior row: one forward and one backward prefix
sum over that row give I_sil and I_outer at every radius (_trial_sums).
The uplink's terms do not depend on the radius, so it sums once per block
for every radius. Every policy is then scored from the sums at once. A
block pays a fixed scoring cost, which a larger block spreads over more
trials, but every batched array, and so peak memory, grows with it; so the
block is a small constant, 32 trials.
Each trial is its own row of every block array, so no count depends on
the block size. The first _count_chunk call in a process tells the C
allocator to keep the heap it frees (_keep_freed_heap), so later blocks
and calls reuse their pages instead of faulting them back in.

Station arrays are ordered [disaster, ring, aerial, exterior] with the
exterior ascending in radius, so enlarging sim_radius only appends stations
and fading draws. These properties make policy, radius and truncation
comparisons exact per trial, not just statistical. Estimates reduce
integer counts over fixed trial ranges in ascending order and are
bit-identical for any worker count. A process pool is forked only for at
least 64 trials per worker (_TRIALS_PER_WORKER), and ProcessPoolExecutor
is imported only then, so a run in one process never loads
multiprocessing.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass, field, replace
from enum import IntEnum
from functools import cached_property, lru_cache
from itertools import repeat
import math
import sys
from typing import NamedTuple

import numpy as np

from . import geometry
from .channel import ChannelParams, _clamped_path_gain, dbm_to_watts
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
        if not 0 <= self.density < math.inf:
            raise ScenarioError("aerial.density", f"must be >= 0 and finite, got {self.density}")
        if not 0 < self.altitude < math.inf:
            raise ScenarioError("aerial.altitude", f"must be > 0 and finite, got {self.altitude}")
        if not 0 <= self.tx_power < math.inf:
            raise ScenarioError("aerial.tx_power", f"must be >= 0 and finite, got {self.tx_power}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one silencing experiment.

    Construction checks 0 < disaster_radius < ring edge < silencing_radius <=
    sim_radius < inf, where ring edge = disaster_radius + active_ring_width,
    so the silencing and exterior annuli beyond the ring are never empty.
    Every float field must be finite; NaN fails every check.
    """

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
        if not 0 < self.disaster_radius < math.inf:
            raise ScenarioError("disaster_radius", f"must be > 0 and finite, got {self.disaster_radius}")
        if not 0 < self.active_ring_width < math.inf:
            raise ScenarioError("active_ring_width", f"must be > 0 and finite, got {self.active_ring_width}")
        if not self.ring_outer_radius < self.silencing_radius < math.inf:
            raise ScenarioError(
                "silencing_radius",
                f"must be > disaster_radius + active_ring_width = {self.ring_outer_radius} and finite, "
                f"got {self.silencing_radius}",
            )
        if not self.silencing_radius <= self.sim_radius < math.inf:
            raise ScenarioError("sim_radius", f"must be >= silencing_radius and finite, got {self.sim_radius}")
        if not 0 <= self.bs_density < math.inf:
            raise ScenarioError("bs_density", f"must be >= 0 and finite, got {self.bs_density}")
        if not 0.0 <= self.bs_survival_prob <= 1.0:
            raise ScenarioError("bs_survival_prob", f"must be in [0, 1], got {self.bs_survival_prob}")
        if not 0 <= self.device_tx_power < math.inf:
            raise ScenarioError("device_tx_power", f"must be >= 0 and finite, got {self.device_tx_power}")
        if not 0 <= self.bs_tx_power < math.inf:
            raise ScenarioError("bs_tx_power", f"must be >= 0 and finite, got {self.bs_tx_power}")
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
    return geometry.disk(disaster_radius), Annulus(disaster_radius, ring_outer), Annulus(ring_outer, sim_radius)


# Station tiers, in each trial's station order; exterior stations are in the
# outer zone unless their radius puts them in the silencing zone.
_DISASTER, _RING, _AERIAL, _EXTERIOR = range(4)
_INNER_TIERS = np.arange(_EXTERIOR, dtype=np.int8)
_UNIFORMS_PER_STATION = (3, 2, 2)  # per station of an inner tier: radius and angle fractions, disaster survival mark
_TIER_ZONE = np.array([Zone.DISASTER, Zone.ACTIVE_RING, Zone.DISASTER, Zone.OUTER], dtype=np.int8)


class _Plan(NamedTuple):
    """A configuration's sampling constants, worked out once per block:
    the Poisson means of the disaster, ring and aerial tiers (0.0 draws
    nothing) and the exterior's expected arrival count."""

    means: tuple[float, float, float]
    exterior: float


def _plan(cfg: ScenarioConfig) -> _Plan:
    disaster_region, ring_region, exterior_region = _regions(
        cfg.disaster_radius, cfg.ring_outer_radius, cfg.sim_radius
    )
    aerial = 0.0 if cfg.aerial is None else cfg.aerial.density
    means = (cfg.bs_density * disaster_region.area, cfg.bs_density * ring_region.area, aerial * disaster_region.area)
    return _Plan(means, cfg.bs_density * exterior_region.area)


class _Draws(NamedTuple):
    """The station draws of one trial, or of consecutive trials, before any
    station is placed; consecutive trials' draws are theirs concatenated
    field by field.

    Per trial, sizes holds the station count of each tier in station order,
    device the device's radius and angle fractions, and tiers the geometry
    stream's uniforms of the inner tiers as drawn: per tier its radius
    fractions and its angle fractions, the disaster tier's followed by its
    survival marks (alive where < bs_survival_prob). measure and angles
    hold the exterior's ascending cumulative arrival counts and angle
    fractions, in the steps geometry._arrivals draws them.
    """

    sizes: list[int]  # per trial: disaster, ring, aerial and exterior stations
    device: list[np.ndarray]  # per trial: (2,)
    tiers: list[np.ndarray]  # per trial: disaster (3n,), ring (2n,) and aerial (2n,), each if n > 0
    measure: list[np.ndarray]
    angles: list[np.ndarray]


def _sample_trial(plan: _Plan, geom_rng: np.random.Generator, exterior_rng: np.random.Generator) -> _Draws:
    """Every draw of one trial's realization, in the order of the module
    docstring; _place_block turns them into stations.

    Consecutive uniform draws are one generator call, since random(a) then
    random(b) gives the numbers of random(a + b): the device is random(2),
    and a tier of c stations is random(2c), random(3c) with the disaster
    tier's survival marks.
    """
    device = geom_rng.random(2)
    sizes, tiers = [], []
    for mean, per_station in zip(plan.means, _UNIFORMS_PER_STATION):
        count = geom_rng.poisson(mean) if mean > 0.0 else 0
        sizes.append(count)
        if count:  # random(0) draws nothing, but costs a call
            tiers.append(geom_rng.random(per_station * count))
    n_exterior, measure, angles = geometry._arrivals(plan.exterior, exterior_rng)
    sizes.append(n_exterior)
    return _Draws(sizes, [device], tiers, measure, angles)


def build_network(cfg: ScenarioConfig, trial_index: int) -> NetworkSnapshot:
    """Sample one network realization, fully determined by (master_seed, trial_index).

    Stations arrive as independent PPPs at bs_density per zone: the disaster
    disk (then survival-thinned via alive marks), the active ring, and the
    exterior annulus out to sim_radius, which is split into silencing and
    outer zones by radius: an exterior station whose placement radius is at
    most cfg.silencing_radius is in the silencing zone, as in the engine.
    Splitting one exterior process by radius keeps realizations comparable
    across silencing radii with common random numbers.
    """
    draws = _sample_trial(
        _plan(cfg),
        trial_rng(cfg.master_seed, trial_index, STREAM_GEOMETRY),
        trial_rng(cfg.master_seed, trial_index, STREAM_EXTERIOR),
    )
    block = _place_block(cfg, draws)
    n = block.tier.size
    zone = _TIER_ZONE[block.tier]
    zone[block.exterior & (block.radius <= cfg.silencing_radius)] = Zone.SILENCING
    return NetworkSnapshot(
        xy=np.column_stack((block.x, block.y)),
        zone=zone,
        altitude=block.alt,
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


def _distance(x, y, px, py, z=None, pz=0.0) -> np.ndarray:
    """Elementwise 3-D distance from stations (x, y, z) to points (px, py,
    pz), the one distance formula of the kernels and the engine; 2-D when
    z is None, which has the bits of z = pz = 0.0, because adding the
    altitude term's +0.0 to a sum of squares changes no bit."""
    if z is None:
        return np.sqrt((x - px) ** 2 + (y - py) ** 2)
    return np.sqrt((x - px) ** 2 + (y - py) ** 2 + (z - pz) ** 2)


def _prefix_sums(terms: np.ndarray) -> np.ndarray:
    """Sequential prefix sums along the last axis, the one summation order of
    every interference sum: out[..., k] is the sum of the first k terms,
    added first to last, and out[..., 0] is 0.0.

    Each sum adds one term to the sum before it, so it has one result
    whatever the array's shape or NumPy's dispatch. Terms are never
    negative, and adding +0.0 changes no sum, so zero padding and zeroed
    terms leave every sum's bits as they are.
    """
    out = np.zeros((*terms.shape[:-1], terms.shape[-1] + 1))
    terms.cumsum(axis=-1, out=out[..., 1:])
    return out


def _grouped_interference(net: NetworkSnapshot, ch: ChannelParams, interferers: np.ndarray,
                          bs_fading: np.ndarray, point_xy: np.ndarray, point_alt: float) -> float:
    """Interference at a point from the marked stations, as I_fix + f * I_sil.

    Each term is pf*tx*h*g, and tx*h*g in the silencing zone, whose one
    shared power factor is f (1.0 if it has no interferers). I_fix =
    I_inner + I_outer. I_inner sums the disaster- and ring-zone terms first
    to last, I_outer the outer-zone terms last to first (from the far edge
    inward), and I_sil the silencing-zone terms first to last, each with
    _prefix_sums. The silencing engine sums the same groups in the same
    order, so both give the same bits.
    """
    idx = np.flatnonzero(interferers)
    zone = net.zone[idx]
    sil, outer = zone == Zone.SILENCING, zone == Zone.OUTER
    factors = net.power_factor[idx[sil]]
    f = float(factors[0]) if factors.size else 1.0
    if np.any(factors != f):
        raise ValueError(f"silencing-zone transmitters must share one power factor, got {np.unique(factors)}")
    gains = _clamped_path_gain(_distance(*net.xy[idx].T, *point_xy, net.altitude[idx], point_alt), ch)
    terms = np.where(sil, 1.0, net.power_factor[idx]) * net.tx_power[idx] * bs_fading[idx] * gains
    i_inner = _prefix_sums(terms[~(sil | outer)])[-1]
    i_outer = _prefix_sums(terms[outer][::-1])[-1]
    i_sil = _prefix_sums(terms[sil])[-1]
    return float(i_inner + i_outer + f * i_sil)


def _sinr(signal: float, denom: float, serving: int) -> tuple[float, int]:
    """(signal / denom, serving), the one tail of both SINR kernels: x / 0
    is inf, and a trial whose signal, interference and noise are all 0 has
    no SINR and no server, (nan, -1)."""
    if denom == 0.0:
        return (math.nan, -1) if signal == 0.0 else (math.inf, serving)
    return signal / denom, serving


def _trial_result(cfg: ScenarioConfig, sinr: float, serving: int) -> TrialResult:
    """A kernel's (sinr, serving) as one trial's outcome, the one tail of
    uplink_trial and downlink_trial."""
    if serving < 0:
        return TrialResult(False, True, math.nan)
    return TrialResult(bool(sinr >= cfg.channel.sinr_threshold), False, float(sinr))


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
    (sinr, serving index); (nan, -1) when no station can serve, or when
    signal, interference and noise are all 0, as downlink_sinr does.
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

    d_dev = _distance(*net.xy[candidates].T, *net.device_xy, net.altitude[candidates])
    pick = int(np.argmin(d_dev))
    serving = int(candidates[pick])
    signal = cfg.device_tx_power * device_fading * _clamped_path_gain(d_dev[pick], ch)

    interferers = net.alive & (net.power_factor > 0.0) & (net.band == Band.DISASTER_BAND)
    interferers[serving] = False
    interference = _grouped_interference(
        net, ch, interferers, bs_fading, net.xy[serving], float(net.altitude[serving])
    )
    return _sinr(signal, interference + ch.noise_power, serving)


def uplink_trial(net: NetworkSnapshot, cfg: ScenarioConfig, rng: np.random.Generator) -> TrialResult:
    """One uplink success/failure draw on an already-policied snapshot.

    Draw order is fixed (device fading, then one fading per station in array
    order) so identical generator states give identical draws under every
    policy. A trial without a serving station (see uplink_sinr) is a
    coverage hole and counts as a failure.
    """
    g = rng.exponential()
    h = rng.exponential(size=net.n_bs)
    return _trial_result(cfg, *uplink_sinr(net, cfg, g, h))


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
    transmitters. Returns (sinr, serving index); (nan, -1) when no station
    can serve, or when signal, interference and noise are all 0.
    """
    ch = cfg.channel
    transmitting = net.alive & (net.power_factor > 0.0) & (net.band == user_band)
    candidates = np.flatnonzero(transmitting)
    if candidates.size == 0:
        return math.nan, -1

    d_user = _distance(*net.xy[candidates].T, *user_xy, net.altitude[candidates])
    pick = int(np.argmin(d_user))
    serving = int(candidates[pick])
    signal = net.power_factor[serving] * net.tx_power[serving] * user_fading * _clamped_path_gain(d_user[pick], ch)

    others = transmitting
    others[serving] = False
    interference = _grouped_interference(net, ch, others, bs_fading, user_xy, 0.0)
    return _sinr(signal, interference + ch.noise_power, serving)


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
    u = rng.random(2)
    user = np.concatenate(geometry._place(Annulus(cfg.ring_outer_radius, cfg.silencing_radius), u[:1], u[1:]))
    g = rng.exponential()
    h = rng.exponential(size=net.n_bs)
    band = Band.ALTERNATE_BAND if policy.kind == "spectrum_split" else Band.DISASTER_BAND
    return _trial_result(cfg, *downlink_sinr(net, cfg, user, band, g, h))


# Trials per block of the silencing engine. A block's stations, about 500
# per trial on paper_fig5, are scored as one set of ragged arrays, and each
# block pays a fixed scoring cost (on the fig5 sweep grid, 7 _tally, 7
# _nearest and 4 _distance calls whatever its size).
# Every temporary array of a block grows with it, and so does the engine's
# peak RSS, so the block is a small constant rather than an option: 32
# halves the blocks of 16 for about 1.4 MB, and 64 ran within the noise of
# 32 for 1.4-2.2 MB more (README, "Determinism"). No count depends on it.
_BLOCK = 32

# estimate_grid forks at most one worker per this many trials: forking and
# joining a pool costs about 10 ms, and this break-even was measured
# (README, "Determinism").
_TRIALS_PER_WORKER = 64

# glibc's mallopt parameters, and its largest M_MMAP_THRESHOLD on 64-bit.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_heap_kept = False


def _keep_freed_heap() -> None:
    """Keep the heap that the engine frees in this process, once per process.

    A fig5 block frees about 1 MB of NumPy temporaries. glibc hands the top
    of the heap back to the kernel (trimming), and the next block faults it
    back in page by page: about 700-900 minor faults per steady 50-trial
    sweep or 100-trial run call (README, "Determinism"). So mallopt fixes
    M_MMAP_THRESHOLD at 32 MiB and M_TRIM_THRESHOLD above it. Both are set,
    because setting either turns off glibc's dynamic mmap threshold: the
    trim threshold alone would keep mmap at 128 KiB, and every larger array
    would be mapped and unmapped each time it is made. The process then
    keeps its peak heap until it exits. Where the C library has no mallopt,
    nothing changes; no output depends on it.
    """
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no mallopt (macOS), or no handle for CDLL(None) (Windows)
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


@dataclass
class _Block:
    """The realizations of consecutive trials as ragged station arrays.

    Trial i owns entries bounds[i]:bounds[i + 1], ordered as its draws:
    [disaster, ring, aerial, exterior by ascending radius], so its last
    n_exterior[i] stations are its exterior ones.
    """

    bounds: np.ndarray  # (n_trials + 1,)
    tier: np.ndarray  # (n,) int8, _DISASTER, _RING, _AERIAL or _EXTERIOR
    x: np.ndarray  # (n,) m
    y: np.ndarray  # (n,) m
    alt: np.ndarray  # (n,) m, 0 for terrestrial stations
    tx: np.ndarray  # (n,) W
    alive: np.ndarray  # (n,) bool
    exterior: np.ndarray  # (n,) bool, silencing or outer zone
    radius: np.ndarray  # (n,) m, planar radius from placement; never decreasing along a trial's exterior
    device: np.ndarray  # (n_trials, 2) m
    n_inner: np.ndarray  # (n_trials,) disaster, ring and aerial stations
    n_exterior: np.ndarray  # (n_trials,)
    flying: bool  # the configuration has an aerial tier, so altitudes may be nonzero
    up_fading: tuple | None = None  # (device link (n_trials,), stations (n,)); set by _sample_block
    down_draws: tuple | None = None  # (user radius and angle fractions (2, n_trials), user link, stations)

    @property
    def n_trials(self) -> int:
        return self.bounds.size - 1

    @cached_property
    def owner(self) -> np.ndarray:
        """(n,) each station's trial."""
        return np.repeat(np.arange(self.n_trials), np.diff(self.bounds))

    def spread(self, per_trial: np.ndarray) -> np.ndarray:
        """A per-trial array with each entry repeated for every station of its trial."""
        return per_trial[self.owner]

    def distance(self, px, py, stations=slice(None)) -> np.ndarray:
        """_distance from the stations to ground points (px, py); 2-D when no
        station flies, which has the bits of the 3-D distance at altitude 0."""
        z = self.alt[stations] if self.flying else None
        return _distance(self.x[stations], self.y[stations], px, py, z)

    def distance_to(self, src: np.ndarray) -> np.ndarray:
        """_distance from each station i to station src[i]; 2-D when no
        station flies, as distance."""
        x, y = self.x, self.y
        if not self.flying:
            return _distance(x, y, x[src], y[src])
        return _distance(x, y, x[src], y[src], self.alt, self.alt[src])

    def silencing_counts(self, radii) -> np.ndarray:
        """(n_trials, len(radii)): how many of each trial's exterior stations
        are in the silencing zone, radius <= r_s, at each radius r_s.

        radius never decreases along a trial's exterior stations, so these
        are its first that many, and I_sil and I_outer are prefix sums of
        its exterior row (see _trial_sums).
        """
        owner, radius = self.owner[self.exterior], self.radius[self.exterior]
        return np.array([np.bincount(owner[radius <= r_s], minlength=self.n_trials) for r_s in radii]).T


def _concatenate(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.empty(0)


def _place_block(cfg: ScenarioConfig, draws: _Draws) -> _Block:
    """The stations of consecutive trials' draws, placed as one block.

    Every step runs once over the whole block, with no walk over its
    trials: the tier sizes locate each inner station's uniforms in the
    concatenated tier draws and its place in the block, the exterior
    stations are placed from the concatenated arrivals, and cos and sin
    run once over every station. Placement is elementwise, so every station
    gets the bits it would get placed on its own.
    """
    disaster_region, ring_region, exterior_region = _regions(
        cfg.disaster_radius, cfg.ring_outer_radius, cfg.sim_radius
    )
    sizes = np.array(draws.sizes, dtype=np.intp).reshape(-1, 4)
    n_trials = sizes.shape[0]
    counts = sizes[:, :_EXTERIOR]
    n_inner, n_exterior = counts.sum(axis=1), sizes[:, _EXTERIOR]
    bounds = np.zeros(n_trials + 1, dtype=np.intp)
    np.cumsum(n_inner + n_exterior, out=bounds[1:])
    n = int(bounds[-1])

    # The inner stations, trial by trial and tier by tier as the block
    # orders them. A tier of c stations drew its c radius fractions, then
    # c angle fractions and, in the disaster tier, c survival marks.
    following = (counts * (np.array(_UNIFORMS_PER_STATION) - 1)).ravel()  # uniforms after the radius fractions
    counts = counts.ravel()
    rank = np.arange(counts.sum())
    per_tier = np.repeat(counts, counts)
    u_radius = rank + np.repeat(np.cumsum(following) - following, counts)  # into the concatenated tier draws
    u_angle = u_radius + per_tier
    inner_tier = np.repeat(np.tile(_INNER_TIERS, n_trials), counts)
    slot = rank + np.repeat(np.cumsum(n_exterior) - n_exterior, n_inner)  # the station's place in the block

    tier = np.full(n, _EXTERIOR, dtype=np.int8)
    tier[slot] = inner_tier
    exterior = tier == _EXTERIOR
    radius, angle = np.empty(n), np.empty(n)
    radius[exterior] = geometry._radial_radius(exterior_region, cfg.bs_density, _concatenate(draws.measure))
    angle[exterior] = _concatenate(draws.angles)
    uniforms = _concatenate(draws.tiers)
    fractions, ring = uniforms[u_radius], inner_tier == _RING
    radius[slot[ring]] = geometry._annulus_radius(ring_region, fractions[ring])
    radius[slot[~ring]] = geometry._annulus_radius(disaster_region, fractions[~ring])  # disaster and aerial
    angle[slot] = uniforms[u_angle]
    x, y = geometry._polar_to_xy(radius, angle)
    u_device = np.array(draws.device)
    device = np.column_stack(geometry._place(disaster_region, u_device[:, 0], u_device[:, 1]))

    disaster = inner_tier == _DISASTER
    alive = np.ones(n, dtype=bool)
    alive[slot[disaster]] = uniforms[(u_angle + per_tier)[disaster]] < cfg.bs_survival_prob
    alt, tx = np.zeros(n), np.full(n, cfg.bs_tx_power)
    if cfg.aerial is not None:
        aerial = slot[inner_tier == _AERIAL]
        alt[aerial], tx[aerial] = cfg.aerial.altitude, cfg.aerial.tx_power
    return _Block(
        bounds=bounds,
        tier=tier,
        x=x,
        y=y,
        alt=alt,
        tx=tx,
        alive=alive,
        exterior=exterior,
        radius=radius,
        device=device,
        n_inner=n_inner,
        n_exterior=n_exterior,
        flying=cfg.aerial is not None,
    )


def _sample_block(cfg: ScenarioConfig, streams: _StreamPool, trials: range, downlink: bool) -> _Block:
    """Each trial's _sample_trial draws, placed as one block, and the fading
    draws of uplink_trial and, if downlink, downlink_trial.

    Each Philox stream is reset once per trial and draws the reference's
    numbers in order. The stations' fading is written in place into the
    block's arrays by standard_exponential(out=...), which draws the numbers
    of exponential(size=n): exponential multiplies each by its scale, 1.0.
    downlink_trial resets its stream at every silencing radius and so draws
    the same user fractions and fading at each; they are drawn once.
    """
    plan = _plan(cfg)
    draws = _Draws([], [], [], [], [])
    sizes, device, tiers, measure, angles = draws
    for t in trials:
        trial = _sample_trial(plan, streams.get(t, STREAM_GEOMETRY), streams.get(t, STREAM_EXTERIOR))
        sizes += trial.sizes
        device += trial.device
        tiers += trial.tiers
        measure += trial.measure
        angles += trial.angles
    block = _place_block(cfg, draws)

    n_trials, bounds = block.n_trials, block.bounds.tolist()
    up_g, up_h = np.empty(n_trials), np.empty(bounds[-1])
    if downlink:
        user_u, down_g, down_h = np.empty((n_trials, 2)), np.empty(n_trials), np.empty(bounds[-1])
    for i, t in enumerate(trials):
        stations = slice(bounds[i], bounds[i + 1])
        stream = streams.get(t, STREAM_UPLINK)
        up_g[i] = stream.exponential()
        stream.standard_exponential(out=up_h[stations])
        if downlink:
            stream = streams.get(t, STREAM_DOWNLINK)
            stream.random(out=user_u[i])  # downlink_trial's user: radius, then angle fraction
            down_g[i] = stream.exponential()
            stream.standard_exponential(out=down_h[stations])
    block.up_fading = up_g, up_h
    if downlink:
        block.down_draws = user_u.T, down_g, down_h
    return block


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


def _windows(values: np.ndarray, width: int) -> np.ndarray:
    """A view of a contiguous 1-D array's windows, each sharing its memory:
    row i is values[i:i + width]."""
    return np.ndarray((values.size - width + 1, width), values.dtype, values, strides=values.strides * 2)


def _trial_sums(block: _Block, terms: np.ndarray, on: np.ndarray, inside: np.ndarray):
    """(I_fix, I_sil) per trial over terms[on], with inside[t, k] of trial
    t's exterior stations in the silencing zone at radius k; two
    (n_trials, k) arrays.

    The kept terms, and 0.0 for the others, are laid out in rows, one per
    trial and group, and one _prefix_sums call sums each group's rows: the
    trial's inner stations (I_inner is the sum of all of them), its
    exterior stations (I_sil is the sum of the first inside[t, k]), and its
    exterior stations from the last to the first (I_outer is the sum of the
    rest, from the far edge inward). A row may run on into other trials'
    terms or the zero padding; no sum reads them. These are
    _grouped_interference's sums.
    """
    n_inner, outside = block.n_inner[:, None], block.n_exterior[:, None] - inside
    pad = max(1, n_inner.max(), block.n_exterior.max())  # the longest row
    kept = np.zeros(terms.size + 2 * pad)
    np.copyto(kept[pad:pad + terms.size], terms, where=on)
    rows = _windows(kept, pad)  # rows[pad + i] starts at station i
    trials = np.arange(block.n_trials)[:, None]
    inner = rows[pad + block.bounds[:-1], :n_inner.max()]
    exterior = rows[pad + block.bounds[1:] - block.n_exterior, :inside.max()]
    reverse = rows[block.bounds[1:], pad - outside.max():][:, ::-1]  # from each trial's last station back
    i_inner = _prefix_sums(inner)[trials, n_inner]
    i_outer = _prefix_sums(reverse)[trials, outside]
    return i_inner + i_outer, _prefix_sums(exterior)[trials, inside]


def _band_factors(policy: SilencingPolicy, downlink: bool) -> tuple[float, float]:
    """A policy's power factors (other zones, silencing zone) on the band a
    link uses. spectrum_split moves the silencing zone, at full power, to
    the alternate band, which serves the downlink and which no other
    station uses; every other policy scales the silencing zone by its
    silencing_power_factor on the disaster band."""
    if policy.kind == "spectrum_split":
        return (0.0, 1.0) if downlink else (1.0, 0.0)
    return 1.0, policy.silencing_power_factor


def _tally(ch: ChannelParams, block: _Block, serving: np.ndarray, signal: np.ndarray, terms: np.ndarray,
           on: np.ndarray, inside: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """One link's (successes, holes) at every radius of inside and every
    silencing-zone power factor f, an (n_radii, n_factors, 2) array.

    serving[t] is trial t's serving station or -1, and signal broadcasts
    against the (served trial, radius, factor) axes. on marks the
    stations that transmit on the link's band, and the servers are cleared
    from it. A trial succeeds when signal / (I_fix + f * I_sil + N) >= tau:
    x / 0 is inf, which passes, and 0 / 0 is nan, which does not. That
    trial is a hole, as is one without a server (see _sinr).
    """
    served = serving >= 0
    on[serving[served]] = False
    i_fix, i_sil = (sums[served][:, :, None] for sums in _trial_sums(block, terms, on, inside))
    denom = i_fix + factors * i_sil + ch.noise_power
    successes = (signal / denom >= ch.sinr_threshold).sum(axis=0)
    holes = block.n_trials - np.count_nonzero(served) + ((denom == 0.0) & (signal == 0.0)).sum(axis=0)
    return np.array((successes, holes)).transpose(1, 2, 0)  # np.stack(..., axis=-1), at a third of the cost


def _count_uplink(cfg: ScenarioConfig, block: _Block, inside: np.ndarray, factors: np.ndarray, counts: np.ndarray):
    """Add a block's uplink (successes, holes) to counts[radius, policy].

    inside[t, k] is trial t's silencing-zone station count at radius k, and
    factors[j] policy j's silencing-zone power factor (_band_factors). The
    serving station and the received terms depend on neither radius nor
    policy, so they are found once per trial, and one _tally scores every
    radius and policy.
    """
    ch = cfg.channel
    g, h = block.up_fading
    candidates = np.flatnonzero(block.alive & ~block.exterior)
    device = block.device[block.owner[candidates]]
    d_device = block.distance(*device.T, stations=candidates)
    serving = _nearest(block.bounds, candidates, d_device)
    served = serving >= 0
    d0 = d_device[np.searchsorted(candidates, serving[served])]
    signal = (cfg.device_tx_power * g[served] * _clamped_path_gain(d0, ch))[:, None, None]
    src = block.spread(np.maximum(serving, 0))  # a trial without a server is never scored
    gains = _clamped_path_gain(block.distance_to(src), ch)
    counts += _tally(ch, block, serving, signal, block.tx * h * gains, block.alive.copy(), inside, factors)


def _count_downlink(cfg: ScenarioConfig, block: _Block, r_s: float, inside: np.ndarray, factors: np.ndarray,
                    counts: np.ndarray):
    """Add a block's silencing-area (successes, holes) at radius r_s to counts[policy].

    inside[t, 0] is trial t's silencing-zone station count at r_s, and
    factors[j] policy j's (other zones, silencing zone) power factors
    (_band_factors). The user and the fading depend on the radius only, so
    distances and gains to every station are found once per trial. The
    serving station depends only on which stations transmit on the user's
    band, so the policies that agree on that share one server and one
    _tally; the stations that do not transmit add 0.0 to their sums.
    """
    ch = cfg.channel
    user_u, g, h = block.down_draws
    user_x, user_y = geometry._place(Annulus(cfg.ring_outer_radius, r_s), user_u[0], user_u[1])
    d = block.distance(block.spread(user_x), block.spread(user_y))
    gains = _clamped_path_gain(d, ch)
    full = block.tx * h * gains
    sil = block.exterior & (block.radius <= r_s)
    groups = {}
    for j, (fixed, silenced) in enumerate(factors):
        groups.setdefault((fixed > 0.0, silenced > 0.0), []).append(j)
    for (fixed_on, silenced_on), members in groups.items():
        # alive & where(sil, silenced_on, fixed_on); where with scalars is slower
        on = block.alive & sil if not fixed_on else block.alive.copy()
        if not silenced_on:
            on &= ~sil
        candidates = np.flatnonzero(on)
        serving = _nearest(block.bounds, candidates, d[candidates])
        served = serving >= 0
        s, f = serving[served], np.array([factors[j][1] for j in members])
        signal = (np.where(sil[s][:, None, None], f, 1.0) * block.tx[s][:, None, None] * g[served][:, None, None]
                  * gains[s][:, None, None])
        counts[members] += _tally(ch, block, serving, signal, full, on, inside, f)[0]


def _count_chunk(cfg: ScenarioConfig, radii, policies, downlink: bool, start: int, stop: int) -> np.ndarray:
    """Integer counts [radius, policy, (uplink successes, uplink holes,
    downlink successes, downlink holes)] over trials [start, stop); the
    downlink's stay 0 unless downlink.

    Trials are sampled and scored in blocks of _BLOCK; only the zone split
    depends on the radius, because exterior stations cover the whole (ring,
    sim_radius) annulus.
    """
    counts = np.zeros((len(radii), len(policies), 4), dtype=np.int64)
    up_factors = np.array([_band_factors(p, downlink=False)[1] for p in policies])
    down_factors = [_band_factors(p, downlink=True) for p in policies]
    streams = _StreamPool(cfg.master_seed)
    _keep_freed_heap()
    with np.errstate(divide="ignore", invalid="ignore"):  # x / 0 and 0 / 0 are scored as such (_tally)
        for first in range(start, stop, _BLOCK):
            trials = range(first, min(first + _BLOCK, stop))
            block = _sample_block(cfg, streams, trials, downlink)
            inside = block.silencing_counts(radii)
            _count_uplink(cfg, block, inside, up_factors, counts[:, :, :2])
            for k, r_s in enumerate(radii if downlink else ()):
                _count_downlink(cfg, block, r_s, inside[:, k:k + 1], down_factors, counts[k, :, 2:])
    return counts


def __getattr__(name: str):
    # ProcessPoolExecutor is imported on first use (PEP 562), so a run that
    # builds no pool loads neither concurrent.futures.process nor
    # multiprocessing. estimate_grid reads it as an attribute of this module
    # (_module), so a replacement set on the module is the one it builds.
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


_module = sys.modules[__name__]


def estimate_grid(
    cfg: ScenarioConfig,
    radii,
    policies,
    workers: int = 1,
    *,
    downlink: bool = True,
) -> list[list[tuple[Estimate, Estimate | None]]]:
    """Uplink success and silencing-area coverage at every (radius, policy) point.

    Returns grid[k][j] = (uplink, downlink) estimates for radii[k] and
    policies[j]; the uplink is always scored, and the downlink is None
    unless asked for. Every point is scored on the same realizations
    (common random numbers), each sampled once per trial, and the counts
    equal those of build_network + apply_policy +
    uplink_trial / downlink_trial at cfg with silencing_radius = radii[k].
    Every radius is validated as that config's before any trial is sampled,
    for the uplink and the downlink alike.
    """
    radii, policies = tuple(radii), tuple(policies)
    if not radii or not policies:
        raise ValueError(f"{'policies' if radii else 'radii'} must not be empty")
    for r_s in radii:
        replace(cfg, silencing_radius=r_s)  # ScenarioConfig bounds every radius
    n = cfg.n_trials
    # At most one worker per _TRIALS_PER_WORKER trials: forking and joining a
    # pool costs about 10 ms, and on 2 cores two workers beat one on the fig5
    # sweep only from about 110-128 trials (silencing-run from 190-256). With
    # one worker the trials run here, and the process-pool modules are never
    # imported. Otherwise chunks of whole blocks, about four per worker.
    # Per-trial seeding makes any partition valid; summing integer counts in
    # ascending chunk order keeps the result identical for any worker count.
    workers = min(workers, n // _TRIALS_PER_WORKER)
    if workers <= 1:
        counts = _count_chunk(cfg, radii, policies, downlink, 0, n)
    else:
        chunk = _BLOCK * math.ceil(n / (workers * 4 * _BLOCK))
        starts = range(0, n, chunk)
        stops = [min(s + chunk, n) for s in starts]
        counts = np.zeros((len(radii), len(policies), 4), dtype=np.int64)
        with _module.ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_count_chunk, repeat(cfg), repeat(radii), repeat(policies),
                                 repeat(downlink), starts, stops):
                counts += part
    return [
        [
            (
                _estimate(int(c[0]), int(c[1]), cfg),
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
    return estimate_grid(cfg, (cfg.silencing_radius,), (policy,), workers)[0][0][1]
