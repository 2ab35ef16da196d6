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
each term added to the sum of the ones before it, over the stations of
one group in station order:

    I_inner  the disaster- and ring-zone stations, first to last
    I_outer  the outer-zone stations, last to first (from the far edge in)
    I_sil    the silencing-zone stations at full power, first to last

and I_fix = I_inner + I_outer. A policy with power factor f then sees
I_fix + f * I_sil. Every sum is a column sum (_column_sums): the terms
stand in rows, one column per trial, and np.add.reduce along axis 0 adds
them row after row. NumPy sums pairwise only along the fast axis
(numpy.sum, Notes), so over the rows of a C-contiguous array with two or
more columns every column's sum is sequential; a lone column is itself
the fast axis, so its sum is the last running sum of np.add.accumulate.
The zero-term rule, of the engine and the kernels alike: every station of a
group gets a term, +0.0 if it does not interfere. Terms are never
negative and a sequential sum does not change when a +0.0 term is added,
so a sum over zero-padded rows or over terms zeroed by a mask has the
bits of the sum over the interferers alone.

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
makes every generator call of one trial's realization, places nothing, and
appends the trial's tier sizes as ints and its draws to those of the
trials before it (_Draws). Consecutive uniform draws are one call: the
device is random(2), and an inner tier of c stations is random((k, c)),
drawn as rows: radius fractions, angle fractions and, in the disaster tier
(k = 3), survival marks. NumPy fills the rows in C order, so they hold the
numbers of random(k * c). _place_block turns the draws of consecutive
trials into stations with no walk over the trials: it joins each inner
tier's rows across the trials and places the stations tier by tier, the
exterior arrivals as one array, with one cos/sin pass over every station,
and then writes each (tier, trial) run of stations to its trial's column.
Placement is elementwise, so a station gets the same coordinates whether
its trial is placed alone (build_network, a one-trial block) or in a
block.

estimate_grid cuts the n trials it scores into near-equal blocks once,
as few as hold at most 2 * _BLOCK - 1 trials each: k = ceil(n / (2 *
_BLOCK - 1)) blocks, with edges at n * i // k, so every block holds
_BLOCK to 2 * _BLOCK - 1 trials, and fewer than _BLOCK trials are one
smaller block. The blocks depend on n alone, never on the worker count,
and a pool task is a run of whole blocks. Per trial, the engine calls
_sample_trial and draws the fading, resetting each stream once and
drawing each link's fading, the device's or user's and its stations', in
one call. Everything else runs once per block, on the block's stations
laid out station-major and zero-padded (_Block): every per-station array
is (S, n_trials), and a trial's column holds its stations in station
order, its inner ones ending at row split and its exterior ones starting
there. Placement writes each station to its entry directly; without an
aerial tier every altitude and transmit power is one value, so those two
are read-only broadcast views rather than arrays. The fading is drawn in
place into a trial-major buffer, where a trial's draws are one run, and
copied once, transposed, per link. Per-trial values (device, user,
serving station) are broadcast down the columns. Distances are 2-D in a
block without an aerial tier, where every altitude is 0.0 and would add
+0.0. A trial's serving station is np.argmin(axis=0) over distances set
to inf off its candidates (_serving): the first minimum, so the lowest
station index on a tie, as in the kernels. A station's radius is the one
placement computed (_Block.radius), and the silencing zone at r_s is the
exterior stations with radius <= r_s, the outer zone the rest. Each
group's sum is one _column_sums call over terms masked to 0.0 off its
interferers: the inner rows in order, the silencing-zone rows in order
and the outer-zone rows in a reversed copy (_sums). A group without
interferers by construction (I_fix when only the silencing zone
transmits, I_sil when it does not transmit) is not summed and reads 0.0.
Every policy is then scored from the sums at once. A block pays a fixed
cost, its placement and scoring NumPy calls, which a larger block
spreads over more trials, but every batched array, and so peak memory,
grows with it; so _BLOCK is a small constant, 32 trials, and no block
exceeds 63. Each trial is its own column of every block array, so no
count depends on the block size. The first _count_blocks call in a
process tells the C allocator to keep the heap it frees
(_keep_freed_heap), so later blocks and calls reuse their pages instead
of faulting them back in.

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
from functools import lru_cache
from itertools import groupby, repeat
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


class Zone:
    """The zone codes held in NetworkSnapshot.zone (int8). Plain ints, not an
    IntEnum: NumPy looks up array-protocol methods on an operand's type, for
    an enum member through EnumType.__getattr__, so `zone == Zone.SILENCING`
    on 5043 stations took 6-7 us with one and 1 us with an int (NumPy 2.4.6)."""

    DISASTER = 0
    ACTIVE_RING = 1
    SILENCING = 2
    OUTER = 3


class Band:
    """The band codes held in NetworkSnapshot.band (int8); plain ints, as Zone's."""

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


# Station tiers, in each trial's station order: disaster, ring, aerial, then
# the exterior, whose stations are in the outer zone unless their radius puts
# them in the silencing zone.
_EXTERIOR = 3
_UNIFORMS_PER_STATION = (3, 2, 2)  # per station of an inner tier: radius and angle fractions, disaster survival mark
_TIER_ZONE = np.array([Zone.DISASTER, Zone.ACTIVE_RING, Zone.DISASTER, Zone.OUTER], dtype=np.int8)  # per tier


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


@dataclass
class _Draws:
    """The station draws of consecutive trials, before any station is
    placed, each list in trial order.

    Per trial, sizes holds the station count of each tier in station order
    and device the device's radius and angle fractions. tiers holds one
    list per inner tier (disaster, ring, aerial), and in it each trial's
    draws of that tier as rows, one column per station: radius fractions,
    angle fractions and, in the disaster tier, survival marks (alive where
    < bs_survival_prob). A trial without stations in a tier adds nothing
    to its list. measure and angles hold the exterior's ascending
    cumulative arrival counts and angle fractions, in the steps
    geometry._arrivals draws them.
    """

    sizes: list[int] = field(default_factory=list)  # per trial: disaster, ring, aerial and exterior stations
    device: list[np.ndarray] = field(default_factory=list)  # per trial: (2,)
    tiers: tuple[list[np.ndarray], ...] = field(default_factory=lambda: ([], [], []))  # (3, c), (2, c), (2, c)
    measure: list[np.ndarray] = field(default_factory=list)
    angles: list[np.ndarray] = field(default_factory=list)


def _sample_trial(plan: _Plan, geom_rng: np.random.Generator, exterior_rng: np.random.Generator,
                  draws: _Draws) -> None:
    """Append every draw of one trial's realization to draws, in the order
    of the module docstring; _place_block turns them into stations.

    Consecutive uniform draws are one generator call, since random(a) then
    random(b) gives the numbers of random(a + b): the device is random(2),
    and a tier of c stations is random((k, c)), whose C-order rows are the
    numbers of random(k * c): k = 3 rows with the disaster tier's survival
    marks, else 2.
    """
    draws.device.append(geom_rng.random(2))
    for mean, k, tier in zip(plan.means, _UNIFORMS_PER_STATION, draws.tiers):
        count = geom_rng.poisson(mean) if mean > 0.0 else 0
        draws.sizes.append(count)
        if count:  # random((k, 0)) draws nothing, but costs a call
            tier.append(geom_rng.random((k, count)))
    n_exterior, measure, angles = geometry._arrivals(plan.exterior, exterior_rng)
    draws.sizes.append(n_exterior)
    draws.measure += measure
    draws.angles += angles


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
    draws = _Draws()
    _sample_trial(
        _plan(cfg),
        trial_rng(cfg.master_seed, trial_index, STREAM_GEOMETRY),
        trial_rng(cfg.master_seed, trial_index, STREAM_EXTERIOR),
        draws,
    )
    block = _place_block(cfg, draws)
    stations = slice(block.split - int(block.n_inner[0]), None)  # the trial's column, without padding
    x, y, alive, radius = (a[stations, 0] for a in (block.x, block.y, block.alive, block.radius))
    alt, tx = (np.array(a[stations, 0]) for a in (block.alt, block.tx))  # copies: these may be broadcast views
    zone = np.repeat(_TIER_ZONE, draws.sizes)
    zone[(zone == Zone.OUTER) & (radius <= cfg.silencing_radius)] = Zone.SILENCING
    n = zone.size
    return NetworkSnapshot(
        xy=np.column_stack((x, y)),
        zone=zone,
        altitude=alt,
        tx_power=tx,
        power_factor=np.ones(n),
        band=np.full(n, Band.DISASTER_BAND, dtype=np.int8),
        alive=alive,
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


def _column_sums(rows: np.ndarray) -> np.ndarray:
    """Each column's sequential sum, first row to last, the one summation
    order of every interference sum; 0.0 for a column without rows.

    np.add.reduce along axis 0 of a C-contiguous array with two or more
    columns adds each row to the running sums, one term per column at a
    time; a view in another memory order is copied first. A lone column
    is itself the fast axis, which NumPy sums pairwise (numpy.sum, Notes:
    pairwise summation is used only along the fast axis), so its sum is
    the last running sum of np.add.accumulate instead. The zero-term rule
    (module docstring) holds for every sum.
    """
    if rows.shape[1] == 1 and rows.shape[0]:
        return np.add.accumulate(rows, axis=0)[-1]
    return np.add.reduce(np.ascontiguousarray(rows), axis=0)


def _grouped_interference(net: NetworkSnapshot, ch: ChannelParams, interferers: np.ndarray,
                          bs_fading: np.ndarray, point_xy: np.ndarray, point_alt: float) -> float:
    """Interference at a point from the marked stations, as I_fix + f * I_sil.

    Each interferer's term is pf*tx*h*g, and tx*h*g in the silencing zone,
    whose one shared power factor is f (1.0 if it has no interferers); by
    the zero-term rule every other station's term is +0.0. I_fix = I_inner
    + I_outer. I_inner sums the disaster- and ring-zone terms first to
    last, I_outer the outer-zone terms last to first (from the far edge
    inward), and I_sil the silencing-zone terms first to last, each with
    _column_sums. The silencing engine sums the same groups in the same
    order, so both give the same bits.
    """
    sil, outer = net.zone == Zone.SILENCING, net.zone == Zone.OUTER
    factors = net.power_factor[interferers & sil]
    f = float(factors[0]) if factors.size else 1.0
    if (factors != f).any():
        raise ValueError(f"silencing-zone transmitters must share one power factor, got {np.unique(factors)}")
    gains = _clamped_path_gain(_distance(*net.xy.T, *point_xy, net.altitude, point_alt), ch)
    terms = np.where(interferers, np.where(sil, 1.0, net.power_factor) * net.tx_power * bs_fading * gains, 0.0)
    i_inner, i_outer, i_sil = (
        _column_sums(group[:, None])[0] for group in (terms[~(sil | outer)], terms[outer][::-1], terms[sil])
    )
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
    transmitting = net.alive & (net.power_factor > 0.0) & (net.band == Band.DISASTER_BAND)
    candidates = np.flatnonzero(transmitting & (net.zone <= Zone.ACTIVE_RING))  # DISASTER or ACTIVE_RING
    if candidates.size == 0:
        return math.nan, -1

    d_dev = _distance(*net.xy[candidates].T, *net.device_xy, net.altitude[candidates])
    pick = int(np.argmin(d_dev))
    serving = int(candidates[pick])
    signal = cfg.device_tx_power * device_fading * _clamped_path_gain(d_dev[pick], ch)

    transmitting[serving] = False
    interference = _grouped_interference(
        net, ch, transmitting, bs_fading, net.xy[serving], float(net.altitude[serving])
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

    transmitting[serving] = False
    interference = _grouped_interference(net, ch, transmitting, bs_fading, user_xy, 0.0)
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


# Least trials per block of the silencing engine. estimate_grid cuts n
# trials into as few near-equal blocks as hold at most 2 * _BLOCK - 1 each,
# ceil(n / (2 * _BLOCK - 1)) blocks of _BLOCK to 2 * _BLOCK - 1 trials, so
# a block's fixed cost (its placement and scoring NumPy calls, whatever its
# size) is paid as seldom as that bound allows, and never by a short tail
# block for a few trials. A block's stations, about 500 per trial on
# paper_fig5, are scored as one set of padded arrays, and every temporary
# array of a block grows with it, so the block is a small constant rather
# than an option. At 2016 fig5 trials on one pinned CPU (24 interleaved
# rounds), blocks of at most 63 took 0.91x (run grid) and 0.88x (sweep
# grid) of the time of the former max(1, n // 32) blocks of 32, for a
# traced peak per call of 3.2 MB against 2.6 MB; at most 95 or 127 read
# 0.85-0.88x, within the spread of 63's ratios (q1-q3 0.85-0.92), for 4.7
# and 6.4 MB. No count depends on it.
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

    A fig5 block of 50-63 trials frees about 2.5-3.1 MB of NumPy
    temporaries (its tracemalloc peak). glibc hands the top of the heap
    back to the kernel (trimming), and the next block faults it back in
    page by page: with 32-trial blocks, about 700-900 minor faults per
    steady 50-trial sweep or 100-trial run call (README, "Determinism").
    So mallopt fixes M_MMAP_THRESHOLD at 32 MiB and M_TRIM_THRESHOLD
    above it. Both are set, because setting either turns off glibc's
    dynamic mmap threshold: the trim threshold alone would keep mmap at
    128 KiB, and every larger array would be mapped and unmapped each time
    it is made. The process then keeps its peak heap until it exits. Where
    the C library has no mallopt, nothing changes; no output depends on it.
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
    """The realizations of consecutive trials, station-major and zero-padded.

    Every per-station array is (S, n_trials), and column t holds trial t's
    stations in its draw order: its inner ones (disaster, ring, aerial) end
    at row split, and its exterior ones, by ascending radius, start there.
    split is the largest inner count, at least 1 so that every argmin has a
    row, and S is split plus the largest exterior count. A row that holds
    none of a trial's stations is padding: never alive, at radius 0.0 and
    (0, 0), with fading 0.0. Without an aerial tier, alt and tx hold one
    value each and are read-only broadcast views.
    """

    split: int
    n_inner: np.ndarray  # (n_trials,) disaster, ring and aerial stations
    n_exterior: np.ndarray  # (n_trials,)
    x: np.ndarray  # (S, n_trials) m
    y: np.ndarray  # (S, n_trials) m
    alt: np.ndarray  # (S, n_trials) m, 0 for terrestrial stations
    tx: np.ndarray  # (S, n_trials) W
    alive: np.ndarray  # (S, n_trials) bool
    radius: np.ndarray  # (S, n_trials) m, planar radius from placement
    device: np.ndarray  # (n_trials, 2) m
    flying: bool  # the configuration has an aerial tier, so altitudes may be nonzero
    up_fading: tuple | None = None  # (device link (n_trials,), stations (S, n_trials)); set by _sample_block
    down_draws: tuple | None = None  # (user radius and angle fractions (2, n_trials), user link, stations)

    @property
    def n_trials(self) -> int:
        return self.device.shape[0]

    def distance(self, px, py, pz=0.0, rows=slice(None)) -> np.ndarray:
        """_distance from the stations in rows to each trial's point (px, py,
        pz), per-trial values broadcast down the columns; 2-D when no station
        flies, which has the bits of the 3-D distance at altitude 0."""
        z = self.alt[rows] if self.flying else None
        return _distance(self.x[rows], self.y[rows], px, py, z, pz)


def _concatenate(arrays: list[np.ndarray], rows: tuple[int, ...] = ()) -> np.ndarray:
    """The arrays joined along their last axis; for no arrays, an empty
    array with these leading dimensions."""
    return np.concatenate(arrays, axis=-1) if arrays else np.empty((*rows, 0))


def _padded(shape: tuple[int, int], at: np.ndarray, values: np.ndarray) -> np.ndarray:
    """An array of the shape, zero (or False) but for values at its flat entries at."""
    out = np.zeros(shape, dtype=values.dtype)
    out.reshape(-1)[at] = values
    return out


def _place_block(cfg: ScenarioConfig, draws: _Draws) -> _Block:
    """The stations of consecutive trials' draws, placed as one block.

    Every step runs once over the whole block, with no walk over its
    trials. Each inner tier's draws are joined into rows, the exterior's
    arrivals into one array, and the stations are placed tier by tier,
    each tier's trial by trial: its radius fractions and angle fractions
    are rows of its draws, and cos and sin run once over every station.
    Each (tier, trial) run of stations is then written to its trial's
    column from the run's first row on. Placement is elementwise, so every
    station gets the bits it would get placed on its own.
    """
    disaster_region, ring_region, exterior_region = _regions(
        cfg.disaster_radius, cfg.ring_outer_radius, cfg.sim_radius
    )
    sizes = np.array(draws.sizes, dtype=np.intp).reshape(-1, 4)
    n_trials = sizes.shape[0]
    n_inner, n_exterior = sizes[:, :_EXTERIOR].sum(axis=1), sizes[:, _EXTERIOR]
    split = max(1, int(n_inner.max()))
    shape = (split + int(n_exterior.max()), n_trials)

    disaster, ring, aerial = (_concatenate(tier, (k,)) for tier, k in zip(draws.tiers, _UNIFORMS_PER_STATION))
    radius = np.concatenate((
        geometry._annulus_radius(disaster_region, disaster[0]),
        geometry._annulus_radius(ring_region, ring[0]),
        geometry._annulus_radius(disaster_region, aerial[0]),
        geometry._radial_radius(exterior_region, cfg.bs_density, _concatenate(draws.measure)),
    ))
    x, y = geometry._polar_to_xy(radius, np.concatenate((disaster[1], ring[1], aerial[1], *draws.angles)))
    u_device = np.array(draws.device)
    device = np.column_stack(geometry._place(disaster_region, u_device[:, 0], u_device[:, 1]))

    # Each station's entry in the flattened (S, n_trials) arrays, row *
    # n_trials + trial. A run is one (tier, trial) pair's stations, in the
    # order placed, and a station's entry is its run's first entry plus its
    # rank in the run times n_trials. Trial t's inner stations end at row
    # split, so a run's first row is split - n_inner plus the sizes of the
    # trial's tiers before it, which for the exterior run is split.
    first_row = (split - n_inner)[:, None] + np.cumsum(sizes, axis=1) - sizes
    lengths = sizes.T.ravel()
    first = (first_row.T * n_trials + np.arange(n_trials)).ravel()
    at = np.repeat(first - (np.cumsum(lengths) - lengths) * n_trials, lengths)
    at += np.arange(0, radius.size * n_trials, n_trials)
    x, y, radius = (_padded(shape, at, values) for values in (x, y, radius))
    alive = radius > 0.0  # ring and exterior stations lie beyond the disaster disk, padding at radius 0.0
    disaster_end, ring_end, aerial_end, _ = np.cumsum(sizes.sum(axis=0)).tolist()  # each tier's end in at
    alive.reshape(-1)[at[:disaster_end]] = disaster[2] < cfg.bs_survival_prob
    if cfg.aerial is None:  # one altitude and one transmit power: read-only views, no arrays
        alt, tx = np.broadcast_to(0.0, shape), np.broadcast_to(np.float64(cfg.bs_tx_power), shape)
    else:
        alt, tx = np.zeros(shape), np.full(shape, cfg.bs_tx_power)
        flying = at[ring_end:aerial_end]
        alive.reshape(-1)[flying] = True  # never thinned, even at radius 0.0
        alt.reshape(-1)[flying], tx.reshape(-1)[flying] = cfg.aerial.altitude, cfg.aerial.tx_power
    return _Block(split, n_inner, n_exterior, x, y, alt, tx, alive, radius, device, cfg.aerial is not None)


def _sample_block(cfg: ScenarioConfig, streams: _StreamPool, trials: range, downlink: bool) -> _Block:
    """Each trial's _sample_trial draws, placed as one block, and the fading
    draws of uplink_trial and, if downlink, downlink_trial.

    Each Philox stream is reset once per trial and draws the reference's
    numbers in order. A link's fading, the device's or user's and then its
    stations', is one standard_exponential(out=...) call per trial, which
    draws the numbers of exponential() then exponential(size=n):
    exponential multiplies each standard draw by its scale, 1.0. It is
    drawn trial-major, where a trial's draws are one run of a row, and one
    transposed copy per link then lays the stations' fading out as the
    block (_split_fading). downlink_trial resets its stream at every
    silencing radius and so draws the same user fractions and fading at
    each; they are drawn once.
    """
    plan, draws = _plan(cfg), _Draws()
    for t in trials:
        _sample_trial(plan, streams.get(t, STREAM_GEOMETRY), streams.get(t, STREAM_EXTERIOR), draws)
    block = _place_block(cfg, draws)

    # In a buffer with one column more than the block has rows, trial i's
    # link fading is column first[i], and its stations follow it, each one
    # column right of its row in the block.
    first = block.split - block.n_inner
    runs = zip(trials, first.tolist(), (block.split + block.n_exterior + 1).tolist())
    up = np.zeros((block.n_trials, block.x.shape[0] + 1))
    if downlink:
        user_u, down = np.empty((block.n_trials, 2)), np.zeros(up.shape)
    for i, (t, start, stop) in enumerate(runs):
        streams.get(t, STREAM_UPLINK).standard_exponential(out=up[i, start:stop])
        if downlink:
            stream = streams.get(t, STREAM_DOWNLINK)
            stream.random(out=user_u[i])  # downlink_trial's user: radius, then angle fraction
            stream.standard_exponential(out=down[i, start:stop])
    block.up_fading = _split_fading(up, first)
    if downlink:
        block.down_draws = user_u.T, *_split_fading(down, first)
    return block


def _split_fading(drawn: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(link fading (n_trials,), stations' fading (S, n_trials)) from the
    buffer _sample_block draws a link's fading into: each trial's link
    fading, read from column first and set to 0.0 there, then the rest of
    the buffer as the block, in one transposed copy."""
    link = np.arange(first.size), first
    fading = drawn[link]
    drawn[link] = 0.0  # a padding row of the trial
    return fading, drawn[:, 1:].T.copy()


def _serving(d: np.ndarray, on: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, served): per column of d, the row of the smallest distance
    among the rows marked on, and whether there is one (row 0 if not).
    np.argmin returns the first minimum, so a tie goes to the lowest
    station index, as np.argmin over a snapshot's candidates does."""
    masked = np.where(on, d, np.inf)
    rows = masked.argmin(axis=0)
    return rows, masked[rows, np.arange(d.shape[1])] < np.inf


def _sums(kept: np.ndarray, split: int, sil: np.ndarray, fixed_on: bool = True, silenced_on: bool = True):
    """(I_fix, I_sil) per trial, from a block's terms with 0.0 for every
    station that does not interfere (kept) and the silencing-zone mask of
    its exterior rows (sil).

    I_inner sums the rows above split, I_sil the silencing-zone rows first
    to last, and I_outer the other exterior rows last to first, each with
    _column_sums; I_fix = I_inner + I_outer. These are
    _grouped_interference's sums. A group that holds no interferer by
    construction is not summed and reads 0.0, the bits of a sum of +0.0
    terms: I_fix when only the silencing zone transmits (not fixed_on),
    I_sil when it does not transmit (not silenced_on).
    """
    exterior = kept[split:]
    i_fix = i_sil = 0.0
    if silenced_on:
        i_sil = _column_sums(exterior * sil if fixed_on else exterior)
    if fixed_on:
        outer = exterior[::-1] * ~sil[::-1] if silenced_on else exterior[::-1]
        i_fix = _column_sums(kept[:split]) + _column_sums(outer)
    return i_fix, i_sil


def _band_factors(policy: SilencingPolicy, downlink: bool) -> tuple[float, float]:
    """A policy's power factors (other zones, silencing zone) on the band a
    link uses. spectrum_split moves the silencing zone, at full power, to
    the alternate band, which serves the downlink and which no other
    station uses; every other policy scales the silencing zone by its
    silencing_power_factor on the disaster band."""
    if policy.kind == "spectrum_split":
        return (0.0, 1.0) if downlink else (1.0, 0.0)
    return 1.0, policy.silencing_power_factor


def _tally(ch: ChannelParams, signal: np.ndarray, i_fix, i_sil, factors: np.ndarray) -> np.ndarray:
    """One link's (successes, holes) at every silencing-zone power factor
    f, and at every radius where the sums have a radius axis: a (2, ...,
    n_factors) array.

    Trials are the last axis of signal and of the sums (or a sum is 0.0,
    see _sums), and signal is nan for a trial without a server. A trial
    succeeds when signal / (I_fix + f * I_sil + N) >= tau: x / 0 is inf,
    which passes, and 0 / 0 is nan, which does not. That trial is a hole,
    as is one without a server (see _sinr).
    """
    denom = i_fix + factors[:, None] * i_sil + ch.noise_power
    successes = (signal / denom >= ch.sinr_threshold).sum(axis=-1)
    holes = np.isnan(signal).sum(axis=-1) + ((denom == 0.0) & (signal == 0.0)).sum(axis=-1)
    return np.array((successes, holes))


def _count_uplink(cfg: ScenarioConfig, block: _Block, radii, factors: np.ndarray, counts: np.ndarray):
    """Add a block's uplink (successes, holes) to counts[:, radius, policy].

    factors[j] is policy j's silencing-zone power factor (_band_factors).
    The serving station and the received terms depend on neither radius
    nor policy, so they are found once per trial, and one _tally scores
    every radius and policy.
    """
    ch = cfg.channel
    g, h = block.up_fading
    split, columns = block.split, np.arange(block.n_trials)
    d = block.distance(*block.device.T, rows=slice(None, split))
    rows, served = _serving(d, block.alive[:split])
    src = rows, columns
    signal = cfg.device_tx_power * np.where(served, g, np.nan) * _clamped_path_gain(d[src], ch)
    gains = _clamped_path_gain(block.distance(block.x[src], block.y[src], block.alt[src]), ch)
    kept = block.tx * h * gains * block.alive
    kept[src] = 0.0  # the server does not interfere with itself
    sums = [_sums(kept, split, block.radius[split:] <= r_s) for r_s in radii]
    i_fix, i_sil = (np.array(s)[:, None] for s in zip(*sums))
    counts += _tally(ch, signal, i_fix, i_sil, factors)


def _count_downlink(cfg: ScenarioConfig, block: _Block, r_s: float, groups, counts: np.ndarray):
    """Add a block's silencing-area (successes, holes) at radius r_s to counts[:, policy].

    Each of groups is (fixed_on, silenced_on, members, f): the transmit
    pattern of the policies in the slice members, by whether their power
    factors (other zones, silencing zone) are > 0 (_band_factors), and
    their silencing-zone factors. The user and the fading depend on the
    radius only, so distances and gains to every station are found once
    per trial. The serving station depends only on which stations transmit
    on the user's band, so each group shares one server and one _tally;
    the stations that do not transmit add 0.0 to their sums.
    """
    ch = cfg.channel
    user_u, g, h = block.down_draws
    split, columns = block.split, np.arange(block.n_trials)
    d = block.distance(*geometry._place(Annulus(cfg.ring_outer_radius, r_s), user_u[0], user_u[1]))
    gains = _clamped_path_gain(d, ch)
    full = block.tx * h * gains
    sil = np.zeros(d.shape, dtype=bool)
    np.less_equal(block.radius[split:], r_s, out=sil[split:])
    for fixed_on, silenced_on, members, f in groups:
        on = block.alive  # & where(sil, silenced_on, fixed_on)
        if not fixed_on:
            on = on & sil
        if not silenced_on:
            on = on & ~sil
        rows, served = _serving(d, on)
        src = rows, columns
        signal = np.where(sil[src], f[:, None], 1.0) * block.tx[src] * np.where(served, g, np.nan) * gains[src]
        kept = full * on
        kept[src] = 0.0
        counts[:, members] += _tally(ch, signal, *_sums(kept, split, sil[split:], fixed_on, silenced_on), f)


def _count_blocks(cfg: ScenarioConfig, radii, policies, downlink: bool, edges) -> np.ndarray:
    """Integer counts [radius, policy, (uplink successes, uplink holes,
    downlink successes, downlink holes)] over the blocks of trials
    [edges[i], edges[i + 1]); the downlink's stay 0 unless downlink.

    Each block is sampled and scored as one; only the zone split depends
    on the radius, because exterior stations cover the whole
    (ring, sim_radius) annulus. The policies are counted in an order that
    puts those of one downlink transmit pattern next to each other, so
    each pattern adds to one slice of the counts.
    """
    down_factors = [_band_factors(p, downlink=True) for p in policies]
    pattern = [(fixed > 0.0, silenced > 0.0) for fixed, silenced in down_factors]
    order = sorted(range(len(policies)), key=pattern.__getitem__)
    groups, start = [], 0
    for (fixed_on, silenced_on), run in groupby(order, key=pattern.__getitem__):
        f = np.array([down_factors[j][1] for j in run])
        groups.append((fixed_on, silenced_on, slice(start, start + f.size), f))
        start += f.size
    up_factors = np.array([_band_factors(policies[j], downlink=False)[1] for j in order])
    counts = np.zeros((4, len(radii), len(policies)), dtype=np.int64)
    streams = _StreamPool(cfg.master_seed)
    _keep_freed_heap()
    with np.errstate(divide="ignore", invalid="ignore"):  # x / 0 and 0 / 0 are scored as such (_tally)
        for first, last in zip(edges, edges[1:]):
            block = _sample_block(cfg, streams, range(first, last), downlink)
            _count_uplink(cfg, block, radii, up_factors, counts[:2])
            for k, r_s in enumerate(radii if downlink else ()):
                _count_downlink(cfg, block, r_s, groups, counts[2:, k])
            del block  # so that its arrays are freed before the next block is sampled
    return counts[:, :, np.argsort(order)].transpose(1, 2, 0)


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
    k = -(-n // (2 * _BLOCK - 1))  # ceil(n / (2 * _BLOCK - 1)): as few blocks as hold at most that many
    edges = [n * i // k for i in range(k + 1)]
    # At most one worker per _TRIALS_PER_WORKER trials, because forking and
    # joining a pool costs about 10 ms (README, "Determinism", has the
    # break-even). With one worker the blocks run here, and the process-pool
    # modules are never imported. Otherwise each pool task is a run of whole
    # blocks, about four tasks per worker where there are enough blocks.
    # Per-trial seeding makes any partition valid; summing integer counts in
    # ascending task order keeps the result identical for any worker count.
    workers = min(workers, n // _TRIALS_PER_WORKER)
    if workers <= 1:
        counts = _count_blocks(cfg, radii, policies, downlink, edges)
    else:
        step = math.ceil(k / (4 * workers))
        counts = np.zeros((len(radii), len(policies), 4), dtype=np.int64)
        with _module.ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_count_blocks, repeat(cfg), repeat(radii), repeat(policies), repeat(downlink),
                                 (edges[i:i + step + 1] for i in range(0, k, step))):
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
