import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import disaster_station, snapshot_from_stations, trial_rows
from disastersim import geometry, netsim
from disastersim.channel import ChannelParams, path_gain
from disastersim.geometry import Annulus, disk, sample_ppp
from disastersim.netsim import Band, ScenarioConfig, downlink_sinr


def test_annulus_validation():
    with pytest.raises(ValueError):
        Annulus(-1.0, 2.0)
    with pytest.raises(ValueError):
        Annulus(2.0, 2.0)
    with pytest.raises(ValueError):
        Annulus(3.0, 1.0)
    with pytest.raises(ValueError):
        Annulus(0.0, math.inf)
    with pytest.raises(ValueError):
        Annulus(math.nan, 1.0)
    assert disk(5.0) == Annulus(0.0, 5.0)


def test_region_area_unit_disk():
    assert disk(1.0).area == pytest.approx(math.pi, rel=1e-12)


def test_region_area_disaster_disk():
    # pi * 2000^2
    assert disk(2000.0).area == pytest.approx(1.2566370614359172e7, rel=1e-9)


def test_region_area_active_ring():
    # pi * (2600^2 - 2000^2)
    assert Annulus(2000.0, 2600.0).area == pytest.approx(8.670795723907828e6, rel=1e-9)


def test_sample_ppp_zero_density_empty():
    pts = sample_ppp(disk(2000.0), 0.0, np.random.default_rng(0))
    assert pts.shape == (0, 2)


def test_sample_ppp_negative_density_rejected():
    # NaN passes a bare `density < 0` check
    for density in (-1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match="density must be"):
            sample_ppp(Annulus(1.0, 100.0), density, np.random.default_rng(0))


def test_sample_ppp_count_moments():
    # lambda * area = 2e-6 * pi * 2000^2 = 25.13274...
    region = disk(2000.0)
    lam_area = 2e-6 * region.area
    rng = np.random.default_rng(1234)
    counts = np.array([sample_ppp(region, 2e-6, rng).shape[0] for _ in range(10_000)])
    three_sigma = 3.0 * math.sqrt(lam_area / counts.size)
    assert abs(counts.mean() - lam_area) < three_sigma
    # Poisson: variance equals the mean
    assert abs(counts.var() - lam_area) < 0.1 * lam_area


def test_sample_ppp_points_inside_region():
    region = Annulus(500.0, 1500.0)
    rng = np.random.default_rng(7)
    for _ in range(50):
        pts = sample_ppp(region, 5e-6, rng)
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert np.all(r >= region.r_inner)
        assert np.all(r <= region.r_outer)



def test_sample_ppp_deterministic_for_fixed_state():
    a = sample_ppp(disk(1000.0), 1e-5, np.random.default_rng(99))
    b = sample_ppp(disk(1000.0), 1e-5, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_samplers_draw_count_then_radii_then_angles():
    # the documented draw order as separate raw generator calls: the
    # sampler's one call for all the uniforms gives the same numbers and
    # leaves the generator in the same state
    region = Annulus(100.0, 900.0)
    rng, raw = np.random.default_rng(5), np.random.default_rng(5)

    def place(u_radius, u_angle):
        r = np.sqrt(region.r_inner**2 + u_radius * (region.r_outer**2 - region.r_inner**2))
        theta = 2.0 * math.pi * u_angle
        return np.column_stack((r * np.cos(theta), r * np.sin(theta)))

    ppp = sample_ppp(region, 2e-4, rng)
    count = raw.poisson(2e-4 * region.area)
    assert count > 100 and np.array_equal(ppp, place(raw.random(count), raw.random(count)))
    assert rng.random() == raw.random()


def exterior_blocks(cfg: ScenarioConfig, n_trials: int, per_block: int = 500):
    """The engine's blocks over trials [0, n_trials), per_block trials each,
    so a long run never holds every station at once."""
    streams = netsim._StreamPool(cfg.master_seed)
    for first in range(0, n_trials, per_block):
        yield netsim._sample_block(cfg, streams, range(first, min(first + per_block, n_trials)), False)


def test_radial_sampler_count_moments():
    # the engine's exterior stations on the annulus (ring edge, sim_radius)
    # are a Poisson count
    cfg = ScenarioConfig(bs_density=4e-7, sim_radius=20000.0, master_seed=4321)
    lam_area = 4e-7 * Annulus(cfg.ring_outer_radius, cfg.sim_radius).area
    counts = np.concatenate([block.n_exterior for block in exterior_blocks(cfg, 4000)])
    three_sigma = 3.0 * math.sqrt(lam_area / counts.size)
    assert abs(counts.mean() - lam_area) < three_sigma
    assert abs(counts.var() - lam_area) < 0.1 * lam_area


def first_step_seed(pairwise_above: bool) -> tuple[int, float]:
    """The first seed whose first step of exponential gaps has a pairwise sum
    (np.sum) above, or below, its sequential sum, and that sequential sum."""
    for seed in range(1000):
        gaps = np.random.Generator(np.random.Philox(seed)).exponential(size=geometry._ARRIVAL_BLOCK)
        pairwise, sequential = float(gaps.sum()), float(np.cumsum(gaps)[-1])
        if pairwise != sequential and (pairwise > sequential) == pairwise_above:
            return seed, sequential
    raise AssertionError("no seed in range(1000) separates the two sums")


def philox_state(rng: np.random.Generator) -> tuple:
    state = rng.bit_generator.state
    return state["state"]["counter"].tolist(), state["state"]["key"].tolist(), state["buffer_pos"]


@pytest.mark.parametrize("pairwise_above", [True, False])
def test_arrivals_stop_on_the_sequential_sum(pairwise_above):
    # A target between the first step's two sums: the sequential rule draws
    # a second step exactly when the step's last cumulative count is below
    # the target, whatever the pairwise sum says.
    seed, step_end = first_step_seed(pairwise_above)
    target = math.nextafter(step_end, math.inf) if pairwise_above else step_end
    steps = 2 if step_end < target else 1
    rng = np.random.Generator(np.random.Philox(seed))
    count, measure, angles = geometry._arrivals(target, rng)

    fresh = np.random.Generator(np.random.Philox(seed))
    gaps, fractions = [], []
    for _ in range(steps):
        gaps.append(fresh.exponential(size=geometry._ARRIVAL_BLOCK))
        fractions.append(fresh.random(geometry._ARRIVAL_BLOCK))
    assert philox_state(rng) == philox_state(fresh)
    # the kept arrivals: one cumsum over every gap, cut at the target
    cumulative = np.cumsum(np.concatenate(gaps))
    kept = cumulative <= target
    assert np.array_equal(np.concatenate(measure), cumulative[kept])
    assert np.array_equal(np.concatenate(angles), np.concatenate(fractions)[kept])
    assert count == np.count_nonzero(kept) and np.all(np.concatenate(measure) <= target)


def test_radial_sampler_sorted_and_in_region():
    # each trial's exterior stations, in the engine's arrays, lie on the
    # annulus (ring edge, sim_radius) in ascending placement radius
    cfg = ScenarioConfig(bs_density=4e-7, sim_radius=20000.0, master_seed=5)
    block, = exterior_blocks(cfg, 50)
    assert block.n_exterior.sum() > 1000
    for i in range(50):
        r = block.radius[trial_rows(block, i), i][block.n_inner[i]:]
        assert r.size == block.n_exterior[i]
        assert np.all(np.diff(r) >= 0.0)
        assert np.all((r >= cfg.ring_outer_radius) & (r <= cfg.sim_radius))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    r_inner=st.floats(0.0, 5000.0),
    small_width=st.floats(1.0, 20000.0),
    extra_width=st.floats(1.0, 30000.0),
    density=st.floats(1e-8, 2e-6),
    seed=st.integers(0, 2**64 - 1),
)
@example(r_inner=2600.0, small_width=17400.0, extra_width=20000.0, density=4e-7, seed=17)
def test_radial_sampler_nested_truncation_prefix(r_inner, small_width, extra_width, density, seed):
    # The arrivals the engine places its exterior from: growing r_outer with
    # an identical generator state appends arrivals, and so placement radii,
    # without disturbing the shared prefix.
    small_region = Annulus(r_inner, r_inner + small_width)
    big_region = Annulus(r_inner, small_region.r_outer + extra_width)
    drawn = []
    for region in (small_region, big_region):
        rng = np.random.Generator(np.random.Philox(seed))
        count, measure, angles = geometry._arrivals(density * region.area, rng)
        measure = np.concatenate(measure)
        drawn.append((count, measure, np.concatenate(angles), geometry._radial_radius(region, density, measure)))
    (n, *small), (n_big, *big) = drawn
    assert n_big >= n == small[0].size
    for a, b in zip(small, big):
        assert np.array_equal(b[:n], a)


def test_radial_sampler_uniform_angles_and_radius_law():
    # Radius^2 of the engine's exterior stations is uniform on
    # [r_in^2, r_out^2] for a homogeneous process, and so is the angle on
    # [0, 2 pi).
    cfg = ScenarioConfig(disaster_radius=700.0, active_ring_width=300.0, silencing_radius=2000.0,
                         sim_radius=3000.0, bs_density=2e-5, master_seed=31)
    block, = exterior_blocks(cfg, 20)
    exterior = block.alive[block.split:]  # every exterior station, and no padding
    r_in, r_out = cfg.ring_outer_radius, cfg.sim_radius
    radius, x, y = (a[block.split:][exterior] for a in (block.radius, block.x, block.y))
    assert radius.size == block.n_exterior.sum()
    r2 = (radius**2 - r_in**2) / (r_out**2 - r_in**2)
    turns = np.arctan2(y, x) / (2.0 * math.pi) % 1.0
    # Kolmogorov-Smirnov style bound, generous at n > 1e4
    grid = np.linspace(0.05, 0.95, 19)
    for fractions in (r2, turns):
        emp = np.searchsorted(np.sort(fractions), grid) / fractions.size
        assert np.max(np.abs(emp - grid)) < 0.02


def test_nearest_point_hand_case():
    # Of (0, 2), (1, 1), (5, 0) the nearest to the origin is (1, 1), at sqrt(2);
    # with one unit-power transmitter alive, its SINR is path_gain(sqrt 2) / noise.
    net = snapshot_from_stations(
        [disaster_station(0.0, 2.0), disaster_station(1.0, 1.0), disaster_station(5.0, 0.0)]
    )
    ch = ChannelParams(path_loss_exponent=4.0, noise_power=1e-3)
    cfg = ScenarioConfig(channel=ch)
    sinr, serving = downlink_sinr(
        net, cfg, np.zeros(2), Band.DISASTER_BAND, 1.0, np.array([0.0, 1.0, 0.0])
    )
    assert serving == 1
    assert sinr == pytest.approx(path_gain(math.sqrt(2.0), ch) / 1e-3, rel=1e-9)
